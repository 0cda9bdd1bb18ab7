//! B-trees over snapshot pages: the primary-table and secondary-index
//! format inside a checkpoint.
//!
//! Keys and values are byte strings; keys are compared lexicographically
//! (callers use order-preserving encodings — big-endian rowids for
//! primary tables, `codec::put_index_key` for secondary indexes). Nodes
//! are built in memory with real size-bounded splits and then serialized
//! post-order into [`SnapshotWriter`] pages; reads descend the on-disk
//! pages directly. There is no in-place on-disk update — the engine's
//! checkpoints rebuild snapshots wholesale (an LSM-style design: the WAL
//! is the write path, the B-tree the read-optimized level).
//!
//! # Page layout (within a page's CRC-checked payload)
//!
//! ```text
//! leaf     := [1u8] [n u16] { [key_len u16] [val_len u32] key val } * n
//! internal := [2u8] [n u16] [child0 u32] { [key_len u16] key [child u32] } * n
//! ```
//!
//! In an internal node, `child0` holds keys `< key[0]`; `child[i+1]`
//! holds keys `>= key[i]`.

use crate::pager::{Pager, SnapshotMeta, SnapshotWriter, PAGE_PAYLOAD};
use crate::recovery::RecoveryError;

const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Per-cell byte overhead in a serialized leaf (key_len + val_len).
const LEAF_CELL_OVERHEAD: usize = 2 + 4;
/// Node header: kind + count.
const NODE_HEADER: usize = 3;

enum Node {
    Leaf {
        cells: Vec<(Vec<u8>, Vec<u8>)>,
        /// Serialized size, maintained incrementally.
        size: usize,
    },
    Internal {
        /// `keys.len() == children.len() - 1`.
        keys: Vec<Vec<u8>>,
        children: Vec<Node>,
    },
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf { cells: Vec::new(), size: NODE_HEADER }
    }

    fn internal_size(keys: &[Vec<u8>]) -> usize {
        NODE_HEADER + 4 + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>()
    }
}

/// An in-memory B-tree under construction (checkpoint path).
pub struct BTreeBuilder {
    root: Node,
    entries: u64,
}

impl Default for BTreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeBuilder {
    /// An empty tree.
    pub fn new() -> Self {
        BTreeBuilder { root: Node::empty_leaf(), entries: 0 }
    }

    /// Entries inserted.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert a key/value pair. Duplicate keys keep both cells adjacent
    /// (primary keys are unique rowids; secondary keys embed the rowid,
    /// so true duplicates never arise there either).
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        let cell_size = LEAF_CELL_OVERHEAD + key.len() + value.len();
        assert!(
            NODE_HEADER + cell_size <= PAGE_PAYLOAD,
            "cell of {cell_size} bytes exceeds page capacity"
        );
        self.entries += 1;
        if let Some((sep, sibling)) = Self::insert_into(&mut self.root, key, value) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::empty_leaf());
            self.root = Node::Internal { keys: vec![sep], children: vec![old_root, sibling] };
        }
    }

    /// Recursive insert; returns `Some((separator, right_sibling))` when
    /// the node split.
    fn insert_into(node: &mut Node, key: Vec<u8>, value: Vec<u8>) -> Option<(Vec<u8>, Node)> {
        match node {
            Node::Leaf { cells, size } => {
                let pos = cells.partition_point(|(k, _)| k.as_slice() <= key.as_slice());
                *size += LEAF_CELL_OVERHEAD + key.len() + value.len();
                cells.insert(pos, (key, value));
                if *size <= PAGE_PAYLOAD {
                    return None;
                }
                // Split at the byte midpoint so both halves fit.
                let mut left_size = NODE_HEADER;
                let mut cut = 0;
                for (i, (k, v)) in cells.iter().enumerate() {
                    let c = LEAF_CELL_OVERHEAD + k.len() + v.len();
                    if left_size + c > (*size - NODE_HEADER) / 2 + NODE_HEADER && i > 0 {
                        break;
                    }
                    left_size += c;
                    cut = i + 1;
                }
                let right: Vec<(Vec<u8>, Vec<u8>)> = cells.split_off(cut);
                let right_size = NODE_HEADER
                    + right
                        .iter()
                        .map(|(k, v)| LEAF_CELL_OVERHEAD + k.len() + v.len())
                        .sum::<usize>();
                *size = left_size;
                let sep = right[0].0.clone();
                Some((sep, Node::Leaf { cells: right, size: right_size }))
            }
            Node::Internal { keys, children } => {
                let child = keys.partition_point(|k| k.as_slice() <= key.as_slice());
                let split = Self::insert_into(&mut children[child], key, value)?;
                keys.insert(child, split.0);
                children.insert(child + 1, split.1);
                if Node::internal_size(keys) <= PAGE_PAYLOAD {
                    return None;
                }
                // Split the internal node down the middle; the separator
                // moves up, as in a classic B-tree.
                let mid = keys.len() / 2;
                let up = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // `up` moves to the parent.
                let right_children = children.split_off(mid + 1);
                Some((up, Node::Internal { keys: right_keys, children: right_children }))
            }
        }
    }

    /// Serialize post-order into `writer`; returns the root page id.
    pub fn serialize(self, writer: &mut SnapshotWriter) -> u32 {
        Self::write_node(&self.root, writer)
    }

    fn write_node(node: &Node, writer: &mut SnapshotWriter) -> u32 {
        match node {
            Node::Leaf { cells, .. } => {
                let mut payload = Vec::with_capacity(PAGE_PAYLOAD);
                payload.push(KIND_LEAF);
                payload.extend_from_slice(&(cells.len() as u16).to_le_bytes());
                for (k, v) in cells {
                    payload.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    payload.extend_from_slice(k);
                    payload.extend_from_slice(v);
                }
                writer.push_page(payload)
            }
            Node::Internal { keys, children } => {
                let child_ids: Vec<u32> =
                    children.iter().map(|c| Self::write_node(c, writer)).collect();
                let mut payload = Vec::with_capacity(PAGE_PAYLOAD);
                payload.push(KIND_INTERNAL);
                payload.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                payload.extend_from_slice(&child_ids[0].to_le_bytes());
                for (k, &child) in keys.iter().zip(&child_ids[1..]) {
                    payload.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    payload.extend_from_slice(k);
                    payload.extend_from_slice(&child.to_le_bytes());
                }
                writer.push_page(payload)
            }
        }
    }
}

/// Decoded page view used by the read path; keys and values are slices
/// of the page's payload.
enum PageView<'p> {
    Leaf(Vec<(&'p [u8], &'p [u8])>),
    Internal { keys: Vec<&'p [u8]>, children: Vec<u32> },
}

fn decode_page(payload: &[u8], page: u32) -> Result<PageView<'_>, RecoveryError> {
    let corrupt =
        |what: &str| RecoveryError::Corrupt(format!("b-tree page {page}: malformed node ({what})"));
    if payload.len() < NODE_HEADER {
        return Err(corrupt("short header"));
    }
    let kind = payload[0];
    let n = u16::from_le_bytes(payload[1..3].try_into().expect("2 bytes")) as usize;
    let mut pos = NODE_HEADER;
    let take = |pos: &mut usize, len: usize| -> Result<&[u8], RecoveryError> {
        if *pos + len > payload.len() {
            return Err(corrupt("cell overruns page"));
        }
        let s = &payload[*pos..*pos + len];
        *pos += len;
        Ok(s)
    };
    match kind {
        KIND_LEAF => {
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let klen =
                    u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
                let vlen =
                    u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
                let k = take(&mut pos, klen)?;
                let v = take(&mut pos, vlen)?;
                cells.push((k, v));
            }
            Ok(PageView::Leaf(cells))
        }
        KIND_INTERNAL => {
            let mut children = Vec::with_capacity(n + 1);
            children.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")));
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                let klen =
                    u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
                keys.push(take(&mut pos, klen)?);
                children.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")));
            }
            Ok(PageView::Internal { keys, children })
        }
        _ => Err(corrupt("unknown kind")),
    }
}

/// Visitor callback for [`DiskBTree::for_each`]: one call per
/// (key, value) cell, in key order.
pub type CellVisitor<'a> = dyn FnMut(&[u8], &[u8]) -> Result<(), RecoveryError> + 'a;

/// A read-only B-tree rooted at a page of the live snapshot.
pub struct DiskBTree<'a> {
    pager: &'a Pager,
    meta: &'a SnapshotMeta,
    root: u32,
}

impl<'a> DiskBTree<'a> {
    /// View the tree rooted at `root`.
    pub fn new(pager: &'a Pager, meta: &'a SnapshotMeta, root: u32) -> Self {
        DiskBTree { pager, meta, root }
    }

    /// Point lookup: the value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, RecoveryError> {
        let mut page = self.root;
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > 64 {
                return Err(RecoveryError::Corrupt("b-tree deeper than 64 levels".into()));
            }
            match decode_page(&self.pager.read_page(self.meta, page)?, page)? {
                PageView::Leaf(cells) => {
                    return Ok(cells.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_vec()));
                }
                PageView::Internal { keys, children } => {
                    let slot = keys.partition_point(|k| *k <= key);
                    page = children[slot];
                }
            }
        }
    }

    /// In-order traversal of every cell.
    pub fn for_each(&self, f: &mut CellVisitor<'_>) -> Result<(), RecoveryError> {
        self.walk(self.root, 0, f)
    }

    fn walk(&self, page: u32, depth: u32, f: &mut CellVisitor<'_>) -> Result<(), RecoveryError> {
        if depth > 64 {
            return Err(RecoveryError::Corrupt("b-tree deeper than 64 levels".into()));
        }
        match decode_page(&self.pager.read_page(self.meta, page)?, page)? {
            PageView::Leaf(cells) => {
                for (k, v) in cells {
                    f(k, v)?;
                }
                Ok(())
            }
            PageView::Internal { children, .. } => {
                for child in children {
                    self.walk(child, depth + 1, f)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{MemVfs, Vfs};
    use crate::pager::Pager;

    /// Build a tree of `n` entries with the given key/value shapes, write
    /// it through a pager, and return it for reading.
    fn build(n: u64, key: impl Fn(u64) -> Vec<u8>, val: impl Fn(u64) -> Vec<u8>) -> (Pager, u32) {
        let mut tree = BTreeBuilder::new();
        // Insert in a scrambled order so splits happen mid-node, not just
        // at the right edge.
        let mut order: Vec<u64> = (0..n).collect();
        for i in 0..order.len() {
            let j = (i * 2654435761 + 17) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            tree.insert(key(i), val(i));
        }
        assert_eq!(tree.len(), n);
        let mut w = SnapshotWriter::new();
        let root = tree.serialize(&mut w);
        let catalog_page = w.page_count();
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        pager.write_snapshot(w, catalog_page, 0, 1, 1, 1).unwrap();
        (pager, root)
    }

    #[test]
    fn multi_level_tree_round_trips() {
        // Values big enough that 5000 entries force several levels.
        let (pager, root) = build(
            5000,
            |i| i.to_be_bytes().to_vec(),
            |i| format!("row-{i}-{}", "x".repeat((i % 37) as usize)).into_bytes(),
        );
        let meta = *pager.live().unwrap();
        assert!(meta.pages > 4, "expected a multi-page tree, got {}", meta.pages);
        let tree = DiskBTree::new(&pager, &meta, root);
        // Point lookups.
        for i in [0u64, 1, 1234, 4999] {
            let v = tree.get(&i.to_be_bytes()).unwrap().expect("present");
            assert!(v.starts_with(format!("row-{i}-").as_bytes()));
        }
        assert_eq!(tree.get(&5000u64.to_be_bytes()).unwrap(), None);
        // Full scan is in key order and complete.
        let mut seen = Vec::new();
        tree.for_each(&mut |k, _| {
            seen.push(u64::from_be_bytes(k.try_into().expect("8 bytes")));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 5000);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan out of order");
    }

    #[test]
    fn empty_tree_is_valid() {
        let (pager, root) = build(0, |i| i.to_be_bytes().to_vec(), |_| Vec::new());
        let meta = *pager.live().unwrap();
        let tree = DiskBTree::new(&pager, &meta, root);
        assert_eq!(tree.get(b"anything").unwrap(), None);
        let mut count = 0;
        tree.for_each(&mut |_, _| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn large_values_split_correctly() {
        let (pager, root) = build(200, |i| i.to_be_bytes().to_vec(), |i| vec![i as u8; 900]);
        let meta = *pager.live().unwrap();
        let tree = DiskBTree::new(&pager, &meta, root);
        for i in 0..200u64 {
            assert_eq!(tree.get(&i.to_be_bytes()).unwrap().unwrap(), vec![i as u8; 900]);
        }
    }
}
