//! The §6.1 resolution a kickstart request runs — requesting IP → node →
//! membership → appliance graph root, borrowed from the tables by
//! `ClusterDb::requester` and checked by `resolve_request` — against the
//! typed-accessor chain `node_by_ip` → `membership` → `appliance_root`,
//! which renders owned records, for every node, after
//! every kind of write that changes what a request resolves: renames
//! (one to NULL), a membership move, appliance re-roots (one to an empty
//! `graph_node`, one to NULL), a NULL membership name, dangling
//! membership ids, and a rolled-back transaction; plus an address no node
//! holds. Where the resolution fails, the generation service fails with
//! exactly the cold generator's error: same variant, same message.

use rocks::db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks::db::{ClusterDb, DbError, Ipv4, Membership, NodeRecord};
use rocks::kickstart::{profiles, KsError};
use rocks::rpm::Arch;
use rocks::{GenerationService, KickstartGenerator};
use std::borrow::Cow;

/// The membership of the NFS appliance (appliance 3, the nfs-server root).
const NFS: i64 = 7;

/// An address no node holds.
const UNKNOWN: &str = "10.9.9.9";

/// Node name, membership name, appliance id and graph root.
type Chain = (String, String, i64, Option<String>);

/// Frontend (node 1), `computes` compute nodes (nodes 2, 3, ...) and one
/// NFS appliance node (node 500).
fn cluster(computes: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..computes {
        session.observe(&DhcpRequest { mac: format!("00:50:8b:e0:00:{i:02x}") }).unwrap();
    }
    db.add_membership(&Membership {
        id: NFS,
        name: "NFS".into(),
        appliance: 3,
        compute: false,
        basename: "nfs".into(),
    })
    .unwrap();
    db.add_node(&NodeRecord::new(
        500,
        "00:50:8b:ff:00:01",
        "nfs-0-0",
        NFS,
        0,
        0,
        Ipv4::new(10, 254, 0, 1),
    ))
    .unwrap();
    db
}

fn service() -> GenerationService {
    GenerationService::new(KickstartGenerator::new(
        profiles::default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

/// The typed accessors, one owned record at a time.
fn chain(db: &ClusterDb, ip: &str) -> Result<Chain, DbError> {
    let node = db.node_by_ip(ip)?;
    let membership = db.membership(node.membership)?;
    let root = db.appliance_root(membership.appliance)?;
    Ok((node.name, membership.name, membership.appliance, root))
}

/// What `resolve_request` must answer given the chain's answer: node
/// name, membership name and graph root, or the CGI's errors.
fn expected(ip: &str, chain: Result<Chain, DbError>) -> Result<(String, String, String), KsError> {
    match chain {
        Err(DbError::NoSuchNode(_)) => Err(KsError::UnknownAddress(ip.to_string())),
        Err(other) => Err(KsError::Db(other.to_string())),
        Ok((_, _, appliance, None)) => {
            Err(KsError::Db(format!("appliance {appliance} has no kickstartable graph root")))
        }
        Ok((name, membership, _, Some(root))) => Ok((name, membership, root)),
    }
}

/// The borrowed view, copied out for comparison.
fn requester(db: &ClusterDb, ip: &str) -> Result<Chain, DbError> {
    db.requester(ip).map(|r| {
        (r.name.into_owned(), r.membership.into_owned(), r.appliance, r.root.map(Cow::into_owned))
    })
}

fn resolved(
    generator: &KickstartGenerator,
    db: &ClusterDb,
    ip: &str,
) -> Result<(String, String, String), KsError> {
    generator.resolve_request(db, ip).map(|r| {
        let root = r.root.expect("resolve_request returns only rooted nodes");
        (r.name.into_owned(), r.membership.into_owned(), root.into_owned())
    })
}

fn ip_of(db: &ClusterDb, id: i64) -> String {
    db.query_names(&format!("select ip from nodes where id = {id}")).unwrap().remove(0)
}

/// Every node's address plus one no node holds.
fn addresses(db: &ClusterDb) -> Vec<String> {
    let mut ips = db.query_names("select ip from nodes order by id").unwrap();
    ips.push(UNKNOWN.to_string());
    ips
}

/// Check every address; return what the chain answered, per address.
fn check(svc: &GenerationService, db: &ClusterDb, at: &str) -> Vec<Result<Chain, DbError>> {
    addresses(db)
        .iter()
        .map(|ip| {
            let chain = chain(db, ip);
            assert_eq!(requester(db, ip), chain, "{at}: requester for {ip}");
            assert_eq!(
                resolved(svc.generator(), db, ip),
                expected(ip, chain.clone()),
                "{at}: resolve_request for {ip}"
            );
            for arch in [Arch::I686, Arch::Ia64] {
                let cold = svc.generator().generate_for_request(db, ip, arch).map(|ks| ks.render());
                let warm = svc.generate_for_request(db, ip, arch).map(|ks| ks.render());
                assert_eq!(warm, cold, "{at}: {arch:?} request for {ip}");
            }
            chain
        })
        .collect()
}

#[test]
fn resolution_equals_the_typed_chain_through_every_write() {
    let mut db = cluster(6);
    let svc = service();
    let fresh = check(&svc, &db, "fresh");
    assert!(matches!(fresh.last(), Some(Err(DbError::NoSuchNode(_)))), "the unknown address");
    assert!(fresh[..fresh.len() - 1].iter().all(Result::is_ok));

    db.execute_raw("update nodes set name = 'renamed-0-0' where id = 2").unwrap();
    check(&svc, &db, "rename");
    assert_eq!(chain(&db, &ip_of(&db, 2)).unwrap().0, "renamed-0-0");

    db.execute_raw("update nodes set name = NULL where id = 3").unwrap();
    check(&svc, &db, "rename to NULL");
    assert_eq!(chain(&db, &ip_of(&db, 3)).unwrap().0, "NULL", "a NULL name renders NULL");
    // A text cell is borrowed; only the rendering of a NULL is owned.
    assert!(matches!(db.requester(&ip_of(&db, 2)).unwrap().name, Cow::Borrowed("renamed-0-0")));
    assert!(
        matches!(db.requester(&ip_of(&db, 3)).unwrap().name, Cow::Owned(ref name) if name == "NULL")
    );

    db.execute_raw(&format!("update nodes set membership = {NFS} where id = 4")).unwrap();
    check(&svc, &db, "membership move");
    let moved = resolved(svc.generator(), &db, &ip_of(&db, 4)).unwrap();
    assert_eq!((moved.1.as_str(), moved.2.as_str()), ("NFS", "nfs-server"));

    db.execute_raw("update appliances set graph_node = 'frontend' where id = 2").unwrap();
    check(&svc, &db, "re-root");
    assert_eq!(resolved(svc.generator(), &db, &ip_of(&db, 5)).unwrap().2, "frontend");

    db.execute_raw("update appliances set graph_node = '' where id = 3").unwrap();
    check(&svc, &db, "empty graph_node");
    let unrooted = resolved(svc.generator(), &db, &ip_of(&db, 500)).unwrap_err();
    assert_eq!(unrooted, KsError::Db("appliance 3 has no kickstartable graph root".into()));

    db.execute_raw("update appliances set graph_node = NULL where id = 3").unwrap();
    check(&svc, &db, "NULL graph_node");
    assert_eq!(resolved(svc.generator(), &db, &ip_of(&db, 500)).unwrap().2, "NULL");

    db.execute_raw("update memberships set name = NULL where id = 2").unwrap();
    check(&svc, &db, "NULL membership name");
    assert_eq!(chain(&db, &ip_of(&db, 6)).unwrap().1, "NULL");

    db.execute_raw("update nodes set membership = 99 where id = 6").unwrap();
    db.execute_raw("update nodes set membership = NULL where id = 7").unwrap();
    check(&svc, &db, "dangling membership ids");
    for (id, missing) in [(6, "99"), (7, "0")] {
        let err = resolved(svc.generator(), &db, &ip_of(&db, id)).unwrap_err();
        assert_eq!(err, KsError::Db(format!("no such membership: {missing}")), "node {id}");
    }

    let before = check(&svc, &db, "before the transaction");
    db.begin_txn().unwrap();
    db.execute_raw("update nodes set name = 'provisional-0-0' where id = 2").unwrap();
    db.execute_raw("update nodes set membership = 1 where id = 500").unwrap();
    db.execute_raw("update appliances set graph_node = '' where id = 1").unwrap();
    let inside = check(&svc, &db, "inside the transaction");
    assert_ne!(inside, before, "the transaction's writes are resolved while it is open");
    db.rollback_txn().unwrap();
    assert_eq!(check(&svc, &db, "after the rollback"), before);
}
