//! Synthetic Red Hat–like distributions, calibrated to the magnitudes the
//! paper reports.
//!
//! We have no Red Hat 7.2 media (and the management layer never looks
//! inside a payload), so this module fabricates package *metadata* with the
//! right shape:
//!
//! * a compute-node install of **162 packages** transferring **~225 MB**
//!   and occupying **~386 MB** installed (Figure 7 and §6.3),
//! * a full distribution several times larger than any single node's
//!   install set (Red Hat 7.2 shipped on multiple CDs),
//! * named packages that actually appear in the paper (`dhcp`, `dev`,
//!   MPICH, PVM, ATLAS, PBS, Maui, REXEC, the eKV-patched `anaconda`,
//!   the Myrinet `gm` source RPM, per-arch kernels).

use crate::package::{Arch, Package, PackageKind};
use crate::repo::Repository;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of packages a compute node installs (Figure 7: "Total: 162").
pub const COMPUTE_PACKAGE_COUNT: usize = 162;
/// Bytes a compute node transfers during reinstallation (§6.3: "approximately 225 MB").
pub(crate) const COMPUTE_TRANSFER_BYTES: u64 = 225 * 1024 * 1024;

/// Named, real packages that the paper mentions and that the rest of the
/// reproduction refers to by name. `(name, evr, arch, kind, megabytes)`.
const NAMED_BASE: &[(&str, &str, Arch, PackageKind, f64)] = &[
    ("glibc", "2.2.4-19.3", Arch::I686, PackageKind::Base, 14.0),
    ("glibc-common", "2.2.4-19.3", Arch::I386, PackageKind::Base, 10.0),
    ("dev", "3.0.6-5", Arch::I386, PackageKind::Base, 0.34), // Figure 7's on-screen package
    ("fileutils", "4.1-10", Arch::I386, PackageKind::Base, 1.1),
    ("bash", "2.05-8", Arch::I386, PackageKind::Base, 0.8),
    ("openssh-server", "2.9p2-12", Arch::I386, PackageKind::Service, 0.3),
    ("dhcp", "2.0pl5-1", Arch::I386, PackageKind::Service, 0.2), // Figure 2's package
    ("bind", "9.1.3-4", Arch::I386, PackageKind::Service, 1.8),
    ("nfs-utils", "0.3.1-14", Arch::I386, PackageKind::Service, 0.3),
    ("ypserv", "1.3.12-2", Arch::I386, PackageKind::Service, 0.2),
    ("ypbind", "1.8-1", Arch::I386, PackageKind::Service, 0.1),
    ("portmap", "4.0-38", Arch::I386, PackageKind::Service, 0.1),
    ("xinetd", "2.3.3-1", Arch::I386, PackageKind::Service, 0.2),
    ("httpd", "1.3.20-16", Arch::I386, PackageKind::Service, 1.2),
    ("mysql-server", "3.23.41-1", Arch::I386, PackageKind::Service, 2.5),
    ("gcc", "2.96-98", Arch::I386, PackageKind::Devel, 8.5),
    ("gcc-g77", "2.96-98", Arch::I386, PackageKind::Devel, 2.8),
    ("binutils", "2.11.90.0.8-12", Arch::I386, PackageKind::Devel, 2.4),
    ("make", "3.79.1-8", Arch::I386, PackageKind::Devel, 0.4),
    ("cpp", "2.96-98", Arch::I386, PackageKind::Devel, 1.1),
    ("python", "1.5.2-38", Arch::I386, PackageKind::Devel, 2.6),
    ("perl", "5.6.1-26", Arch::I386, PackageKind::Devel, 8.1),
];

/// Kernel packages — one binary per IA-32 flavour plus IA-64, as in the
/// Meteor cluster (§3.1: "two different CPU architectures").
const KERNELS: &[(&str, Arch)] = &[
    ("kernel", Arch::I686),
    ("kernel", Arch::Athlon),
    ("kernel", Arch::Ia64),
    ("kernel-smp", Arch::I686),
    ("kernel-smp", Arch::Athlon),
];

/// Community cluster software listed in §4.1 and §7.
const COMMUNITY: &[(&str, &str, PackageKind, f64)] = &[
    ("mpich", "1.2.2.3-1", PackageKind::Library, 12.0),
    ("mpich-gm", "1.2.2.3-1", PackageKind::Library, 13.0),
    ("pvm", "3.4.3-4", PackageKind::Library, 3.2),
    ("atlas", "3.2.1-2", PackageKind::Library, 18.0),
    ("intel-mkl", "5.1-1", PackageKind::Library, 22.0),
    ("pbs", "2.3.12-2", PackageKind::Service, 1.5),
    ("maui", "3.0.6-1", PackageKind::Service, 0.9),
    ("rexec", "1.4-1", PackageKind::Service, 0.2),
    ("gm", "1.5-1", PackageKind::Library, 2.1), // Myrinet driver, binary
];

/// Rocks' own packages (§6.2.1 "Local software").
const ROCKS_LOCAL: &[(&str, &str, f64)] = &[
    ("rocks-dist", "2.2.1-1", 0.3),
    ("rocks-ekv", "2.2.1-1", 0.1), // eKV enhancement to Kickstart (§6.3)
    ("rocks-insert-ethers", "2.2.1-1", 0.1),
    ("rocks-shoot-node", "2.2.1-1", 0.1),
    ("rocks-kickstart-profiles", "2.2.1-1", 0.2),
    ("rocks-sql-config", "2.2.1-1", 0.1),
    ("anaconda-ekv", "7.2-1", 2.3), // patched installer
];

fn mb(megabytes: f64) -> u64 {
    (megabytes * 1024.0 * 1024.0) as u64
}

/// Named base packages that the frontend installs but compute nodes do
/// not (their services live on the frontend).
const FRONTEND_ONLY: &[&str] = &["dhcp", "ypserv", "httpd", "mysql-server"];

/// Community packages in a compute node's install set (§4.1's MPI stacks
/// and job-launch daemons; the intel-mkl, maui and gm binary stay
/// frontend-side or arch-gated).
const COMPUTE_COMMUNITY: &[&str] = &["mpich", "mpich-gm", "atlas", "pvm", "pbs", "rexec"];

/// Rocks packages in a compute node's install set (the eKV pieces).
const COMPUTE_ROCKS: &[&str] = &["rocks-ekv", "anaconda-ekv"];

/// Every non-filler package in a compute node's install: `(name, bytes)`.
fn compute_fixed_set() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (name, _, _, _, size_mb) in NAMED_BASE {
        if !FRONTEND_ONLY.contains(name) {
            out.push((name.to_string(), mb(*size_mb)));
        }
    }
    out.push(("kernel".into(), mb(11.0)));
    out.push(("gm".into(), mb(2.1)));
    for name in COMPUTE_COMMUNITY {
        let size = COMMUNITY
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, _, _, s)| mb(*s))
            .expect("compute community package listed in COMMUNITY");
        out.push((name.to_string(), size));
    }
    for name in COMPUTE_ROCKS {
        let size = ROCKS_LOCAL
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, _, s)| mb(*s))
            .expect("compute rocks package listed in ROCKS_LOCAL");
        out.push((name.to_string(), size));
    }
    out
}

/// Number of generated filler packages in the base set.
pub(crate) fn filler_count() -> usize {
    COMPUTE_PACKAGE_COUNT - compute_fixed_set().len()
}

/// Build the synthetic "Red Hat 7.2" base repository.
///
/// Contains the named packages above, per-arch kernels, the Myrinet source
/// RPM, and enough filler packages that (a) a compute node's install set
/// has exactly [`COMPUTE_PACKAGE_COUNT`] packages totalling
/// about 225 MB, and (b) the distribution as a whole is much
/// larger than one node's set. Deterministic for a given `seed`.
pub fn redhat72(seed: u64) -> Repository {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut repo = Repository::new("redhat-7.2");

    for (name, evr, arch, kind, size_mb) in NAMED_BASE {
        repo.insert(
            Package::builder(*name, evr)
                .arch(*arch)
                .kind(*kind)
                .size(mb(*size_mb))
                .file(format!("/var/lib/rpm-content/{name}"))
                .build(),
        );
    }

    for (name, arch) in KERNELS {
        repo.insert(
            Package::builder(*name, "2.4.9-31")
                .arch(*arch)
                .kind(PackageKind::Kernel)
                .size(mb(11.0))
                .file(format!("/boot/vmlinuz-2.4.9-31.{arch}"))
                .build(),
        );
    }
    // Source RPM for the Myrinet driver: compiled on the node at first boot
    // (§6.3), hence arch = src.
    repo.insert(
        Package::builder("gm", "1.5-1")
            .arch(Arch::Src)
            .kind(PackageKind::Library)
            .size(mb(2.1))
            .file("/usr/src/gm-1.5.tar.gz")
            .build(),
    );

    // Filler base packages. The fixed (named + community + rocks) set is
    // part of every compute install; generate filler so the compute set
    // reaches exactly COMPUTE_PACKAGE_COUNT packages and
    // COMPUTE_TRANSFER_BYTES bytes.
    let fixed_bytes: u64 = compute_fixed_set().iter().map(|(_, b)| b).sum();
    let filler_count = filler_count();
    let filler_bytes = COMPUTE_TRANSFER_BYTES.saturating_sub(fixed_bytes);

    // Draw filler sizes from a skewed distribution, then rescale so they
    // sum exactly to filler_bytes (real package-size distributions are
    // heavy-tailed: many tiny packages, a few giant ones).
    let mut weights: Vec<f64> = (0..filler_count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            (u * 6.0).exp() // ~1..400 range before normalization
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total_weight;
    }
    for (i, w) in weights.iter().enumerate() {
        let size = ((filler_bytes as f64) * w).max(4096.0) as u64;
        repo.insert(
            Package::builder(format!("base-pkg-{i:03}"), "1.0-1")
                .arch(Arch::I386)
                .kind(PackageKind::Base)
                .size(size)
                .file(format!("/usr/share/base-pkg-{i:03}/data"))
                .build(),
        );
    }

    // Distribution-only packages (not installed on compute nodes): X11,
    // desktop apps, docs — Red Hat 7.2 was far bigger than one node's set.
    for i in 0..450usize {
        let size = mb(rng.gen_range(0.05..4.0));
        repo.insert(
            Package::builder(format!("extra-pkg-{i:03}"), "1.0-1")
                .arch(Arch::I386)
                .kind(PackageKind::Base)
                .size(size)
                .build(),
        );
    }

    repo
}

/// Community software repository (§4.1: MPICH, PVM, ATLAS, MKL, PBS, Maui,
/// REXEC; §6.3: the Myrinet `gm` binary package).
pub fn community() -> Repository {
    let mut repo = Repository::new("community");
    for (name, evr, kind, size_mb) in COMMUNITY {
        repo.insert(
            Package::builder(*name, evr)
                .arch(Arch::I386)
                .kind(*kind)
                .size(mb(*size_mb))
                .file(format!("/opt/{name}/lib"))
                .build(),
        );
    }
    repo
}

/// NPACI Rocks' own packages (§6.2.1: "Local software — all RPMs built on
/// site", including the eKV enhancement).
pub fn rocks_local() -> Repository {
    let mut repo = Repository::new("rocks-local");
    for (name, evr, size_mb) in ROCKS_LOCAL {
        repo.insert(
            Package::builder(*name, evr)
                .arch(Arch::Noarch)
                .kind(PackageKind::Rocks)
                .size(mb(*size_mb))
                .file(format!("/opt/rocks/{name}"))
                .build(),
        );
    }
    repo
}

/// The package names a compute node installs, in the order anaconda would
/// process them: the fixed set (named base, kernel, gm, community MPI
/// stack, Rocks eKV pieces) plus the generated filler packages.
pub fn compute_package_names() -> Vec<String> {
    let mut names: Vec<String> = compute_fixed_set().into_iter().map(|(name, _)| name).collect();
    for i in 0..filler_count() {
        names.push(format!("base-pkg-{i:03}"));
    }
    names
}

/// Build the full merged distribution (base + community + rocks) a
/// frontend would serve after `rocks-dist` runs.
pub fn merged_distribution(seed: u64) -> Repository {
    let mut repo = redhat72(seed);
    repo.merge(&community());
    repo.merge(&rocks_local());
    repo
}

/// Resolve the concrete compute-node package list against a repository for
/// a given node architecture. Panics if the repository lacks any package —
/// callers build the repo from [`merged_distribution`], so absence is a
/// bug.
pub fn compute_install_set(repo: &Repository, node_arch: Arch) -> Vec<Package> {
    compute_package_names()
        .iter()
        .map(|name| {
            repo.best_for(name, node_arch)
                .unwrap_or_else(|| panic!("compute package {name} missing from {}", repo.name()))
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_set_matches_figure7_package_count() {
        let repo = merged_distribution(42);
        let set = compute_install_set(&repo, Arch::I686);
        assert_eq!(set.len(), COMPUTE_PACKAGE_COUNT);
    }

    #[test]
    fn compute_set_transfers_roughly_225mb() {
        let repo = merged_distribution(42);
        let set = compute_install_set(&repo, Arch::I686);
        let total: u64 = set.iter().map(|p| p.size_bytes).sum();
        let target = COMPUTE_TRANSFER_BYTES as f64;
        let ratio = total as f64 / target;
        assert!((0.97..1.03).contains(&ratio), "total {total} vs target {target}");
    }

    /// Bytes a compute node's install occupies (Figure 7: "386M").
    const COMPUTE_INSTALLED_BYTES: u64 = 386 * 1024 * 1024;

    #[test]
    fn compute_set_installs_roughly_386mb() {
        let repo = merged_distribution(42);
        let set = compute_install_set(&repo, Arch::I686);
        let total: u64 = set.iter().map(|p| p.installed_bytes).sum();
        let ratio = total as f64 / COMPUTE_INSTALLED_BYTES as f64;
        assert!((0.90..1.10).contains(&ratio), "installed {total}");
    }

    #[test]
    fn distribution_is_much_larger_than_one_node() {
        let repo = redhat72(42);
        assert!(repo.iter().len() > 3 * COMPUTE_PACKAGE_COUNT);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = redhat72(7);
        let b = redhat72(7);
        let c = redhat72(8);
        let ident = |r: &Repository| -> Vec<String> { r.iter().map(|p| p.ident()).collect() };
        let size = |r: &Repository| -> u64 { r.total_size_bytes() };
        assert_eq!(ident(&a), ident(&b));
        assert_eq!(size(&a), size(&b));
        assert_ne!(size(&a), size(&c));
    }

    #[test]
    fn kernel_exists_per_arch() {
        let repo = redhat72(42);
        assert_eq!(repo.best_for("kernel", Arch::Athlon).unwrap().arch, Arch::Athlon);
        assert_eq!(repo.best_for("kernel", Arch::I686).unwrap().arch, Arch::I686);
        assert_eq!(repo.best_for("kernel", Arch::Ia64).unwrap().arch, Arch::Ia64);
    }

    #[test]
    fn figure2_and_figure7_packages_exist() {
        let repo = redhat72(42);
        assert!(repo.get("dhcp", Arch::I386).is_some(), "Figure 2's dhcp package");
        let dev = repo.get("dev", Arch::I386).unwrap();
        assert_eq!(dev.filename(), "dev-3.0.6-5.i386.rpm"); // Figure 7's screen
        assert_eq!(dev.size_bytes, (0.34 * 1024.0 * 1024.0) as u64); // "Size: 340k"
    }

    #[test]
    fn community_and_rocks_repos_have_paper_packages() {
        let comm = community();
        for name in ["mpich", "pvm", "atlas", "pbs", "maui", "rexec"] {
            assert!(comm.get(name, Arch::I386).is_some(), "{name} missing");
        }
        let rocks = rocks_local();
        for name in ["rocks-dist", "rocks-ekv", "anaconda-ekv"] {
            assert!(rocks.get(name, Arch::Noarch).is_some(), "{name} missing");
        }
    }

    #[test]
    fn gm_is_a_source_rpm() {
        let repo = redhat72(42);
        let gm = repo.get("gm", Arch::Src).unwrap();
        assert_eq!(gm.arch, Arch::Src);
    }
}
