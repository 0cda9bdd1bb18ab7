//! Distribution hierarchies (paper §6.2.2, Figure 6): "a user, such as a
//! university campus, [can] add local software packages to Rocks and have
//! all departments build clusters based off the campus' distribution."
//!
//! Run with: `cargo run --example campus_distro`

use rocks::dist::Distribution;
use rocks::dist::{build_chain, Level};
use rocks::rpm::{synth, Arch, Package, Repository, UpdateStream};

fn main() {
    // The stock vendor release, fully materialized on the primary mirror.
    let redhat = Distribution::stock("redhat-7.2", synth::redhat72(3));
    println!(
        "redhat-7.2: {} packages, {:.0} MB on the mirror",
        redhat.repo().len(),
        redhat.tree.materialized_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Campus adds licensed tools; the chemistry department adds GAMESS
    // (one of the applications the paper names in §3.3).
    let mut campus_sw = Repository::new("campus");
    campus_sw.insert(Package::builder("campus-license-tools", "1.0-1").size(1 << 20).build());
    let mut chem_sw = Repository::new("chem");
    chem_sw.insert(Package::builder("gamess", "6.0-1").size(40 << 20).build());

    let chain = build_chain(
        &redhat,
        &[
            Level {
                name: "rocks-2.2.1".into(),
                contrib: vec![synth::community()],
                local: vec![synth::rocks_local()],
                ..Default::default()
            },
            Level::with_contrib("ucsd-campus", campus_sw),
            Level::with_contrib("chem-dept", chem_sw),
        ],
    )
    .expect("hierarchy builds");

    for (dist, report) in &chain {
        println!("\n{}", report.render(&dist.name));
    }

    // The leaf distribution sees every level's software, newest version
    // winning everywhere.
    let (leaf, _) = chain.last().expect("non-empty chain");
    println!("chem-dept resolves:");
    for pkg in ["glibc", "mpich", "rocks-dist", "campus-license-tools", "gamess"] {
        match leaf.repo().best_for(pkg, Arch::I686) {
            Some(p) => println!("  {:<22} -> {}", pkg, p.ident()),
            None => println!("  {:<22} -> MISSING", pkg),
        }
    }

    // A vendor security advisory lands upstream: rebuild the chain and
    // every level inherits the fix ("If Red Hat ships it, so do we").
    let stream = UpdateStream::paper_stream(redhat.repo(), 9);
    let mut security = Repository::new("rhsa");
    for update in stream.updates().iter().take(10) {
        security.insert(update.package.clone());
    }
    let rebuilt = build_chain(
        &redhat,
        &[
            Level {
                name: "rocks-2.2.1".into(),
                updates: vec![security.clone()],
                contrib: vec![synth::community()],
                local: vec![synth::rocks_local()],
            },
            Level::with_contrib("ucsd-campus", Repository::new("campus")),
        ],
    )
    .expect("rebuild");
    let campus = &rebuilt[1].0;
    let patched = security
        .iter()
        .filter(|u| campus.repo().get(&u.name, u.arch).map(|p| p.evr >= u.evr).unwrap_or(false))
        .count();
    println!(
        "\nafter the advisory rebuild, {}/{} security updates visible at the campus level",
        patched,
        security.len()
    );
}
