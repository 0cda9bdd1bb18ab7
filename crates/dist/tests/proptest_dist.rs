//! Property tests on rocks-dist's resolution semantics: newest-wins must
//! behave like a join over versions (order-independent, idempotent), or
//! the §6.2.1 "only include the most recent software" promise breaks.

use proptest::prelude::*;
use rocks_dist::{build, BuildConfig, Distribution};
use rocks_rpm::{Package, Repository};

/// A small universe of package names so collisions actually happen.
fn pkg_strategy() -> impl Strategy<Value = Package> {
    (
        prop_oneof![Just("alpha"), Just("beta"), Just("gamma"), Just("delta"), Just("epsilon")],
        1u32..6,
        1u32..9,
        1u64..1_000_000,
    )
        .prop_map(|(name, major, release, size)| {
            Package::builder(name, &format!("{major}.0-{release}")).size(size).build()
        })
}

fn repo_strategy() -> impl Strategy<Value = Repository> {
    proptest::collection::vec(pkg_strategy(), 0..12).prop_map(|pkgs| {
        let mut repo = Repository::new("gen");
        for p in pkgs {
            repo.insert(p);
        }
        repo
    })
}

/// The resolved (name, evr) view of a repository.
fn resolved(repo: &Repository) -> Vec<String> {
    repo.iter().map(|p| p.ident()).collect()
}

proptest! {
    /// Merging repositories is order-independent.
    #[test]
    fn merge_is_commutative(a in repo_strategy(), b in repo_strategy()) {
        let mut ab = Repository::new("ab");
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Repository::new("ba");
        ba.merge(&b);
        ba.merge(&a);
        prop_assert_eq!(resolved(&ab), resolved(&ba));
    }

    /// Merging a repository into itself changes nothing.
    #[test]
    fn merge_is_idempotent(a in repo_strategy()) {
        let mut once = Repository::new("x");
        once.merge(&a);
        let before = resolved(&once);
        let changed = once.merge(&a);
        prop_assert_eq!(changed, 0);
        prop_assert_eq!(resolved(&once), before);
    }

    /// Every resolved slot holds the maximum EVR seen across sources.
    #[test]
    fn resolution_picks_maximum(a in repo_strategy(), b in repo_strategy()) {
        let mut merged = Repository::new("m");
        merged.merge(&a);
        merged.merge(&b);
        for pkg in merged.iter() {
            for source in [&a, &b] {
                if let Some(candidate) = source.get(&pkg.name, pkg.arch) {
                    prop_assert!(pkg.evr >= candidate.evr,
                        "{} resolved below a source version", pkg.name);
                }
            }
        }
    }

    /// A built distribution's tree has exactly one entry per resolved
    /// package, and child builds never materialize parent bytes.
    #[test]
    fn build_tree_matches_repo(contrib in repo_strategy()) {
        let stock = Distribution::stock("base", {
            let mut r = Repository::new("base");
            r.insert(Package::builder("alpha", "0.1-1").size(10).build());
            r.insert(Package::builder("zeta", "9.9-9").size(10).build());
            r
        });
        let (dist, report) = build(BuildConfig {
            name: "child".into(),
            parent: Some(&stock),
            contrib: vec![&contrib],
            ..Default::default()
        }).unwrap();
        for pkg in dist.repo().iter() {
            prop_assert!(dist.has_package_entry(pkg), "missing tree entry for {}", pkg.ident());
        }
        // Materialized bytes = exactly the contrib versions that won.
        let expected: u64 = dist
            .repo()
            .iter()
            .filter(|p| {
                contrib.get(&p.name, p.arch).map(|c| c.evr == p.evr).unwrap_or(false)
                    && stock.repo().get(&p.name, p.arch).map(|s| s.evr < p.evr).unwrap_or(true)
            })
            .map(|p| p.size_bytes)
            .sum();
        prop_assert_eq!(report.materialized_bytes, expected);
    }

    /// Chained builds are associative in effect: (stock → a → b) resolves
    /// the same package set as a single merged build.
    #[test]
    fn hierarchy_equals_flat_merge(a in repo_strategy(), b in repo_strategy()) {
        let stock = Distribution::stock("base", {
            let mut r = Repository::new("base");
            r.insert(Package::builder("alpha", "0.1-1").size(10).build());
            r
        });
        let (level1, _) = build(BuildConfig {
            name: "l1".into(),
            parent: Some(&stock),
            contrib: vec![&a],
            ..Default::default()
        }).unwrap();
        let (level2, _) = build(BuildConfig {
            name: "l2".into(),
            parent: Some(&level1),
            contrib: vec![&b],
            ..Default::default()
        }).unwrap();

        let mut flat = Repository::new("flat");
        flat.merge(stock.repo());
        flat.merge(&a);
        flat.merge(&b);
        prop_assert_eq!(resolved(level2.repo()), resolved(&flat));
    }
}
