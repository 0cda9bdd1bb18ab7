//! The distribution file tree, virtualized.
//!
//! rocks-dist "creates a new tree comprised mostly of symbolic links to
//! the mirrored software" (§6.2.3). We model the tree in memory so the
//! reproduction can count exactly how many bytes a child distribution
//! materializes versus links — the paper's "each distribution is
//! lightweight (on the order of 25MB)".

use std::collections::BTreeMap;

/// One tree entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A directory (implicit parents are created automatically).
    Dir,
    /// A real file with a byte size (metadata, profile XML, local RPMs).
    File {
        /// File size in bytes.
        bytes: u64,
    },
    /// A symbolic link to a path in another distribution's tree.
    Link {
        /// Link target (a path in an ancestor's tree).
        target: String,
    },
}

/// A distribution tree: sorted path → entry map. Paths use `/` and are
/// relative to the distribution root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistTree {
    entries: BTreeMap<String, Entry>,
}

impl DistTree {
    /// Empty tree.
    pub fn new() -> Self {
        DistTree::default()
    }

    /// Insert an entry, creating implicit parent directories.
    pub fn insert(&mut self, path: &str, entry: Entry) {
        let mut parent = String::new();
        for component in path.split('/').take(path.split('/').count() - 1) {
            if !parent.is_empty() {
                parent.push('/');
            }
            parent.push_str(component);
            self.entries.entry(parent.clone()).or_insert(Entry::Dir);
        }
        self.entries.insert(path.to_string(), entry);
    }

    /// Add a real file.
    pub fn add_file(&mut self, path: &str, bytes: u64) {
        self.insert(path, Entry::File { bytes });
    }

    /// Add a symlink.
    pub fn add_link(&mut self, path: &str, target: &str) {
        self.insert(path, Entry::Link { target: target.to_string() });
    }

    /// Whether the path exists (as any entry type).
    pub fn contains(&self, path: &str) -> bool {
        self.entries.contains_key(path)
    }

    /// Resolve a path through at most one level of symlink, returning the
    /// target path (rocks-dist links always point at real files in the
    /// parent mirror).
    pub fn resolve<'a>(&'a self, path: &'a str) -> Option<&'a str> {
        match self.entries.get(path)? {
            Entry::Link { target } => Some(target.as_str()),
            _ => Some(path),
        }
    }

    /// Count of entries by kind: `(dirs, files, links)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut dirs = 0;
        let mut files = 0;
        let mut links = 0;
        for entry in self.entries.values() {
            match entry {
                Entry::Dir => dirs += 1,
                Entry::File { .. } => files += 1,
                Entry::Link { .. } => links += 1,
            }
        }
        (dirs, files, links)
    }

    /// Bytes actually materialized in this tree (files only — links are
    /// free, which is the entire point of §6.2.3).
    pub fn materialized_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|e| match e {
                Entry::File { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_parent_directories() {
        let mut tree = DistTree::new();
        tree.add_file("rocks-dist/i386/RedHat/RPMS/glibc-2.2.4-19.i386.rpm", 100);
        for dir in [
            "rocks-dist",
            "rocks-dist/i386",
            "rocks-dist/i386/RedHat",
            "rocks-dist/i386/RedHat/RPMS",
        ] {
            assert_eq!(tree.resolve(dir), Some(dir));
        }
        assert_eq!(tree.counts(), (4, 1, 0));
    }

    #[test]
    fn materialized_vs_linked_bytes() {
        let mut tree = DistTree::new();
        tree.add_file("d/build/graph.xml", 1000);
        tree.add_link("d/RPMS/big.rpm", "parent/RPMS/big.rpm");
        assert_eq!(tree.materialized_bytes(), 1000);
    }

    #[test]
    fn resolve_chases_one_link() {
        let mut tree = DistTree::new();
        tree.add_link("a/x.rpm", "parent/x.rpm");
        tree.add_file("a/y.rpm", 5);
        assert_eq!(tree.resolve("a/x.rpm"), Some("parent/x.rpm"));
        assert_eq!(tree.resolve("a/y.rpm"), Some("a/y.rpm"));
        assert_eq!(tree.resolve("a/missing.rpm"), None);
    }
}
