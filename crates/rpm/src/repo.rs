//! [`Repository`]: a set of packages with the merge semantics rocks-dist
//! depends on.
//!
//! A Red Hat distribution "is only a collection of RPMs" (paper §6.2), and
//! rocks-dist builds new distributions by merging collections while
//! "resolv\[ing\] version numbers of RPMs and only includ\[ing\] the most
//! recent software" (§6.2.1). `Repository` is that collection type.

use crate::package::{Arch, Package};
use std::collections::BTreeMap;

/// A named collection of packages, keyed by (name, arch) with at most one
/// version per key. Insertion applies newest-wins resolution.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    name: String,
    packages: BTreeMap<(String, Arch), Package>,
}

impl Repository {
    /// Create an empty repository.
    pub fn new(name: impl Into<String>) -> Self {
        Repository { name: name.into(), packages: BTreeMap::new() }
    }

    /// The repository's name (e.g. `redhat-7.2`, `rocks-2.2.1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert with newest-wins semantics. Returns `true` when the package
    /// was stored (it was new, or strictly newer than the incumbent);
    /// `false` when an equal-or-newer version was already present.
    ///
    /// A stored package's `Obsoletes:` list is honoured the way RPM does
    /// during an upgrade: any slot whose *name* it obsoletes is removed
    /// (every architecture).
    pub fn insert(&mut self, pkg: Package) -> bool {
        let stored = match self.packages.get_mut(&pkg.key()) {
            Some(existing) if existing.evr >= pkg.evr => return false,
            Some(existing) => {
                *existing = pkg.clone();
                true
            }
            None => {
                self.packages.insert(pkg.key(), pkg.clone());
                true
            }
        };
        if stored && !pkg.obsoletes.is_empty() {
            let victims: Vec<(String, Arch)> = self
                .packages
                .keys()
                .filter(|(name, _)| pkg.obsoletes.iter().any(|o| o == name))
                .cloned()
                .collect();
            for key in victims {
                self.packages.remove(&key);
            }
        }
        stored
    }

    /// Merge every package from `other`, newest-wins. Returns how many
    /// slots ended up holding `other`'s version.
    pub fn merge(&mut self, other: &Repository) -> usize {
        other.iter().filter(|p| self.insert((*p).clone())).count()
    }

    /// Packages in deterministic (name, arch) order; `iter().len()` is
    /// the number of distinct (name, arch) slots.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Package> {
        self.packages.values()
    }

    /// Packages whose architecture can install on `node_arch`.
    pub fn iter_for_arch(&self, node_arch: Arch) -> impl Iterator<Item = &Package> + '_ {
        self.packages.values().filter(move |p| p.arch.installs_on(node_arch))
    }

    /// Find the package occupying slot `(name, arch)`.
    pub fn get(&self, name: &str, arch: Arch) -> Option<&Package> {
        self.packages.get(&(name.to_string(), arch))
    }

    /// Find the best package for `name` installable on `node_arch`:
    /// the most specific compatible architecture wins (athlon ≻ i686 ≻
    /// i386 ≻ noarch), mirroring how anaconda picks optimized builds.
    pub fn best_for(&self, name: &str, node_arch: Arch) -> Option<&Package> {
        let mut best: Option<&Package> = None;
        for arch in [node_arch, Arch::I686, Arch::I386, Arch::Noarch, Arch::Src] {
            if let Some(p) = self.packages.get(&(name.to_string(), arch)) {
                if p.arch.installs_on(node_arch) && best.is_none() {
                    best = Some(p);
                }
            }
        }
        best
    }

    /// Total compressed bytes across all packages.
    pub fn total_size_bytes(&self) -> u64 {
        self.packages.values().map(|p| p.size_bytes).sum()
    }
}

impl<'a> IntoIterator for &'a Repository {
    type Item = &'a Package;
    type IntoIter = std::collections::btree_map::Values<'a, (String, Arch), Package>;
    fn into_iter(self) -> Self::IntoIter {
        self.packages.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg(name: &str, evr: &str) -> Package {
        Package::builder(name, evr).build()
    }

    #[test]
    fn newest_wins_on_insert() {
        let mut repo = Repository::new("test");
        assert!(repo.insert(pkg("glibc", "2.2.4-13")));
        assert!(repo.insert(pkg("glibc", "2.2.4-19"))); // update wins
        assert!(!repo.insert(pkg("glibc", "2.2.4-13"))); // stale loses
        assert_eq!(repo.iter().len(), 1);
        assert_eq!(repo.get("glibc", Arch::I386).unwrap().evr.to_string(), "2.2.4-19");
    }

    #[test]
    fn merge_counts_updates() {
        let mut base = Repository::new("redhat-7.2");
        base.insert(pkg("glibc", "2.2.4-13"));
        base.insert(pkg("dev", "3.0.6-5"));
        let mut updates = Repository::new("updates");
        updates.insert(pkg("glibc", "2.2.4-19"));
        updates.insert(pkg("openssh", "2.9p2-12"));
        let changed = base.merge(&updates);
        assert_eq!(changed, 2); // one update + one new package
        assert_eq!(base.iter().len(), 3);
    }

    #[test]
    fn per_arch_slots_are_distinct() {
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("kernel", "2.4.9-31").arch(Arch::I686).build());
        repo.insert(Package::builder("kernel", "2.4.9-31").arch(Arch::Athlon).build());
        assert_eq!(repo.iter().len(), 2);
    }

    #[test]
    fn best_for_prefers_specific_arch() {
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("kernel", "2.4.9-31").arch(Arch::I386).build());
        repo.insert(Package::builder("kernel", "2.4.9-31").arch(Arch::Athlon).build());
        assert_eq!(repo.best_for("kernel", Arch::Athlon).unwrap().arch, Arch::Athlon);
        assert_eq!(repo.best_for("kernel", Arch::I686).unwrap().arch, Arch::I386);
        // IA-64 node cannot use either build.
        assert!(repo.best_for("kernel", Arch::Ia64).is_none());
    }

    #[test]
    fn obsoletes_removes_replaced_slot() {
        // Red Hat renamed `dhcpd` to `dhcp`; the new package obsoletes
        // the old so upgrades drop it.
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("dhcpd", "1.0-1").build());
        repo.insert(Package::builder("dhcp", "2.0pl5-1").obsoletes("dhcpd").build());
        assert!(repo.get("dhcpd", Arch::I386).is_none());
        assert!(repo.get("dhcp", Arch::I386).is_some());
        assert_eq!(repo.iter().len(), 1);
    }

    #[test]
    fn stale_obsoleter_does_not_remove_anything() {
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("dhcp", "3.0-1").build());
        repo.insert(Package::builder("victim", "1.0-1").build());
        // An older dhcp that claims to obsolete `victim` loses the
        // version race and must have no side effects.
        assert!(!repo.insert(Package::builder("dhcp", "2.0-1").obsoletes("victim").build()));
        assert!(repo.get("victim", Arch::I386).is_some());
    }

    #[test]
    fn obsoletes_sweeps_all_architectures() {
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("kernel-old", "2.2.19-1").arch(Arch::I686).build());
        repo.insert(Package::builder("kernel-old", "2.2.19-1").arch(Arch::Athlon).build());
        repo.insert(Package::builder("kernel", "2.4.9-31").obsoletes("kernel-old").build());
        assert!(repo.get("kernel-old", Arch::I686).is_none());
        assert!(repo.get("kernel-old", Arch::Athlon).is_none());
    }

    #[test]
    fn total_size_sums_packages() {
        let mut repo = Repository::new("test");
        repo.insert(Package::builder("a", "1-1").size(100).build());
        repo.insert(Package::builder("b", "1-1").size(250).build());
        assert_eq!(repo.total_size_bytes(), 350);
    }
}
