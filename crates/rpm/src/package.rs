//! The [`Package`] type: everything the Rocks management layer knows about
//! one RPM.

use crate::evr::Evr;
use std::fmt;

/// Processor architectures appearing in the paper's Meteor cluster
/// (§3.1 and §6.1: IA-32, Athlon-optimized builds, IA-64, plus `noarch`
/// and `src` for source RPMs such as the Myrinet driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Generic IA-32 builds (`i386`).
    I386,
    /// Pentium-optimized IA-32 (`i686`).
    I686,
    /// AMD Athlon builds.
    Athlon,
    /// Itanium.
    Ia64,
    /// Architecture-independent (configuration, docs, scripts).
    Noarch,
    /// Source RPM — compiled on the node, like the Myrinet driver (§6.3).
    Src,
}

impl Arch {
    /// Whether a package of architecture `self` can install on a node of
    /// architecture `node`. `Noarch` and `Src` install anywhere; `I386`
    /// runs on any IA-32 flavour.
    pub fn installs_on(self, node: Arch) -> bool {
        match self {
            Arch::Noarch | Arch::Src => true,
            Arch::I386 => matches!(node, Arch::I386 | Arch::I686 | Arch::Athlon),
            Arch::I686 => matches!(node, Arch::I686 | Arch::Athlon),
            a => a == node,
        }
    }

    /// The conventional directory / filename component.
    pub fn as_str(self) -> &'static str {
        match self {
            Arch::I386 => "i386",
            Arch::I686 => "i686",
            Arch::Athlon => "athlon",
            Arch::Ia64 => "ia64",
            Arch::Noarch => "noarch",
            Arch::Src => "src",
        }
    }

    /// Parse the conventional name.
    pub fn parse(s: &str) -> Option<Arch> {
        Some(match s {
            "i386" => Arch::I386,
            "i686" => Arch::I686,
            "athlon" => Arch::Athlon,
            "ia64" => Arch::Ia64,
            "noarch" => Arch::Noarch,
            "src" => Arch::Src,
            _ => return None,
        })
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rough functional classification, used by the synthetic distribution
/// generator and the consistency checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackageKind {
    /// Core OS: glibc, fileutils, dev, ...
    Base,
    /// Kernel image or kernel module package.
    Kernel,
    /// A network service (dhcp, nfs-utils, ypserv, ...).
    Service,
    /// Development toolchain (gcc, make, ...).
    Devel,
    /// Libraries (atlas, mpich, pvm, ...).
    Library,
    /// Cluster-management packages added by Rocks itself.
    Rocks,
}

/// One RPM as seen by the distribution and installation tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Package {
    /// Package name, e.g. `dev` (Figure 7 shows `dev-3.0.6-5` installing).
    pub name: String,
    /// Epoch–version–release.
    pub evr: Evr,
    /// Build architecture.
    pub arch: Arch,
    /// Compressed payload size in bytes — what HTTP transfers (the paper's
    /// 225 MB per node, §6.3).
    pub size_bytes: u64,
    /// Installed size in bytes (Figure 7 shows 386 MB total on disk).
    pub installed_bytes: u64,
    /// Functional classification.
    pub kind: PackageKind,
    /// Package names this build replaces (RPM `Obsoletes:`) — how vendors
    /// rename packages across releases without stranding the old name.
    pub obsoletes: Vec<String>,
    /// Representative paths owned by the package, for the consistency
    /// checker and for file-level drift experiments.
    pub files: Vec<String>,
}

impl Package {
    /// Start building a package.
    pub fn builder(name: impl Into<String>, evr: &str) -> PackageBuilder {
        PackageBuilder::new(name, evr)
    }

    /// Canonical file name: `name-version-release.arch.rpm`.
    pub fn filename(&self) -> String {
        format!("{}-{}-{}.{}.rpm", self.name, self.evr.version, self.evr.release, self.arch)
    }

    /// NEVRA-style identity used in logs and reports.
    pub fn ident(&self) -> String {
        format!("{}-{}.{}", self.name, self.evr, self.arch)
    }

    /// Key identifying the "slot" this package occupies in a repository:
    /// two packages with the same key are different versions of one thing.
    pub fn key(&self) -> (String, Arch) {
        (self.name.clone(), self.arch)
    }
}

/// Builder for [`Package`], keeping construction sites readable.
#[derive(Debug, Clone)]
pub struct PackageBuilder {
    name: String,
    evr: Evr,
    arch: Arch,
    size_bytes: u64,
    kind: PackageKind,
    obsoletes: Vec<String>,
    files: Vec<String>,
}

impl PackageBuilder {
    /// Create a builder; `evr` is parsed as `[epoch:]version[-release]`
    /// and panics on malformed input (construction sites are static).
    pub fn new(name: impl Into<String>, evr: &str) -> Self {
        PackageBuilder {
            name: name.into(),
            evr: Evr::parse(evr).unwrap_or_else(|| panic!("invalid EVR literal: {evr:?}")),
            arch: Arch::I386,
            size_bytes: 1 << 20,
            kind: PackageKind::Base,
            obsoletes: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Set the architecture (default `i386`).
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Set the compressed (transfer) size in bytes (default 1 MiB). The
    /// installed size is 1.7× it, the paper's 225 MB transferred / 386 MB
    /// installed ratio.
    pub fn size(mut self, bytes: u64) -> Self {
        self.size_bytes = bytes;
        self
    }

    /// Set the functional classification (default `Base`).
    pub fn kind(mut self, kind: PackageKind) -> Self {
        self.kind = kind;
        self
    }

    /// Add an obsoleted package name.
    pub fn obsoletes(mut self, name: impl Into<String>) -> Self {
        self.obsoletes.push(name.into());
        self
    }

    /// Add an owned file path.
    pub fn file(mut self, path: impl Into<String>) -> Self {
        self.files.push(path.into());
        self
    }

    /// Finish building.
    pub fn build(self) -> Package {
        Package {
            name: self.name,
            evr: self.evr,
            arch: self.arch,
            size_bytes: self.size_bytes,
            installed_bytes: self.size_bytes * 17 / 10,
            kind: self.kind,
            obsoletes: self.obsoletes,
            files: self.files,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filename_matches_rpm_convention() {
        let p = Package::builder("dev", "3.0.6-5").arch(Arch::I386).build();
        assert_eq!(p.filename(), "dev-3.0.6-5.i386.rpm");
        assert_eq!(p.ident(), "dev-3.0.6-5.i386");
    }

    #[test]
    fn epoch_shows_in_ident_not_filename() {
        let p = Package::builder("openssl", "1:0.9.6-3").build();
        assert_eq!(p.filename(), "openssl-0.9.6-3.i386.rpm");
        assert_eq!(p.ident(), "openssl-1:0.9.6-3.i386");
    }

    #[test]
    fn arch_compatibility_matrix() {
        assert!(Arch::Noarch.installs_on(Arch::Ia64));
        assert!(Arch::I386.installs_on(Arch::Athlon));
        assert!(Arch::I686.installs_on(Arch::I686));
        assert!(!Arch::I686.installs_on(Arch::I386));
        assert!(!Arch::Ia64.installs_on(Arch::I386));
        assert!(!Arch::Athlon.installs_on(Arch::I686));
        assert!(Arch::Src.installs_on(Arch::Ia64));
    }

    #[test]
    fn arch_name_round_trip() {
        for a in [Arch::I386, Arch::I686, Arch::Athlon, Arch::Ia64, Arch::Noarch, Arch::Src] {
            assert_eq!(Arch::parse(a.as_str()), Some(a));
        }
        assert_eq!(Arch::parse("sparc"), None);
    }

    #[test]
    fn default_installed_size_ratio() {
        // 225 MB transferred → ~386 MB installed (Figure 7): ratio 1.7.
        let p = Package::builder("x", "1-1").size(1000).build();
        assert_eq!(p.installed_bytes, 1700);
    }

    #[test]
    #[should_panic(expected = "invalid EVR literal")]
    fn malformed_evr_panics_at_build_site() {
        let _ = Package::builder("x", "");
    }
}
