//! A built distribution: package repository + file tree + profile sources.

use crate::tree::DistTree;
use rocks_rpm::{Arch, Package, Repository};
use std::collections::BTreeMap;

/// A complete distribution, "just like a Red Hat distribution, only with
/// more software" (§6.2). It can be installed from (the repository), it
/// can be mirrored by a child (Figure 6), and it carries the XML profile
/// `build/` directory users customize (§6.2.3).
#[derive(Debug, Clone)]
pub struct Distribution {
    /// Distribution name, e.g. `redhat-7.2`, `rocks-2.2.1`, `campus-1.0`.
    pub name: String,
    /// Resolved package set (newest versions only).
    pub(crate) repo: Repository,
    /// The file tree (RPMS dirs per arch, build/ profiles).
    pub tree: DistTree,
    /// Profile XML files carried in `build/`: filename → content.
    pub build_files: BTreeMap<String, String>,
}

impl Distribution {
    /// Wrap a bare repository as a "stock vendor" distribution whose tree
    /// materializes every RPM (the primary mirror — nothing to link to).
    pub fn stock(name: &str, repo: Repository) -> Distribution {
        let mut tree = DistTree::new();
        for pkg in repo.iter() {
            tree.add_file(&Self::rpm_path(name, pkg), pkg.size_bytes);
        }
        Distribution { name: name.to_string(), repo, tree, build_files: BTreeMap::new() }
    }

    /// The canonical path of a package inside a distribution tree.
    /// Everything IA-32 lands under `i386/` next to `noarch` and `src`
    /// packages, mirroring Red Hat's layout; IA-64 has its own tree.
    pub fn rpm_path(dist_name: &str, pkg: &Package) -> String {
        let arch_dir = match pkg.arch {
            Arch::Ia64 => "ia64",
            _ => "i386",
        };
        format!("{dist_name}/{arch_dir}/RedHat/RPMS/{}", pkg.filename())
    }

    /// The resolved package repository.
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// Mutable repository access (the builder uses this).
    pub(crate) fn repo_mut(&mut self) -> &mut Repository {
        &mut self.repo
    }

    /// Whether the tree has an entry (link or file) for a package.
    pub fn has_package_entry(&self, pkg: &Package) -> bool {
        self.tree.contains(&Self::rpm_path(&self.name, pkg))
    }

    /// Byte size of the package set a node of `arch` can draw from.
    pub fn bytes_for_arch(&self, arch: Arch) -> u64 {
        self.repo.iter_for_arch(arch).map(|p| p.size_bytes).sum()
    }

    /// Store a profile XML file under `build/`.
    pub fn add_build_file(&mut self, filename: &str, content: &str) {
        self.build_files.insert(filename.to_string(), content.to_string());
        let path = format!("{}/build/{filename}", self.name);
        self.tree.add_file(&path, content.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_rpm::synth;

    #[test]
    fn stock_distribution_materializes_everything() {
        let repo = synth::redhat72(1);
        let package_count = repo.iter().len();
        let total = repo.total_size_bytes();
        let dist = Distribution::stock("redhat-7.2", repo);
        let (_, files, links) = dist.tree.counts();
        assert_eq!(files, package_count);
        assert_eq!(links, 0);
        assert_eq!(dist.tree.materialized_bytes(), total);
    }

    #[test]
    fn rpm_paths_follow_redhat_layout() {
        let pkg = Package::builder("dev", "3.0.6-5").arch(Arch::I386).build();
        assert_eq!(
            Distribution::rpm_path("rocks-dist", &pkg),
            "rocks-dist/i386/RedHat/RPMS/dev-3.0.6-5.i386.rpm"
        );
        let ia64 = Package::builder("kernel", "2.4.9-31").arch(Arch::Ia64).build();
        assert!(Distribution::rpm_path("d", &ia64).starts_with("d/ia64/"));
        let noarch = Package::builder("rocks-dist", "2.2.1-1").arch(Arch::Noarch).build();
        assert!(Distribution::rpm_path("d", &noarch).contains("/i386/"));
    }

    #[test]
    fn build_files_land_in_tree() {
        let mut dist = Distribution::stock("d", Repository::new("x"));
        dist.add_build_file("graph.xml", "<graph/>");
        assert!(dist.tree.contains("d/build/graph.xml"));
        assert_eq!(dist.tree.materialized_bytes(), "<graph/>".len() as u64);
    }
}
