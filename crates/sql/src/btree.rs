//! B-trees over heap pages: the format of a table inside a snapshot.
//!
//! A table's tree maps rowid (the row's position, big-endian so byte
//! order is numeric order) to the encoded row. Trees are never edited
//! key by key: a checkpoint packs them bottom-up from the rows in rowid
//! order — leaves filled to the brim, then each level of internal pages
//! over the one below — and, given the [`TreeImage`] of the tree the
//! live snapshot holds and what has changed since, writes only the
//! leaves whose rows changed and the internal pages above them, naming
//! every other page where it already lies (see [`TreeImage::repack`]).
//! Recovery walks the pages (see [`load`]); nothing else reads them.
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

use crate::pager::PAGE_PAYLOAD;
use crate::recovery::RecoveryError;
use std::collections::BTreeSet;

const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Per-cell byte overhead in a serialized leaf (key_len + val_len).
const LEAF_CELL_OVERHEAD: usize = 2 + 4;
/// Node header: kind + count.
const NODE_HEADER: usize = 3;
/// A rowid key.
const KEY: usize = 8;

/// The longest value a leaf cell can carry: one cell must fit one page.
pub(crate) const MAX_VALUE: usize = PAGE_PAYLOAD - NODE_HEADER - LEAF_CELL_OVERHEAD - KEY;

/// Children of a full internal page. Every separator is a rowid, so
/// every full page holds the same number and the shape of a packed tree
/// is a function of its leaf count: node `j` of a level holds nodes
/// `j * FANOUT ..` of the level below. That is what lets a re-pack tell,
/// without reading a page, which internal pages a change leaves as they
/// are.
const FANOUT: usize = 1 + (PAGE_PAYLOAD - NODE_HEADER - 4) / (2 + KEY + 4);

/// Encodes the value of the row at a rowid onto the end of a buffer.
pub(crate) type ValueOf<'a, E> = dyn FnMut(u64, &mut Vec<u8>) -> Result<(), E> + 'a;
/// Stores a page payload and says where.
pub(crate) type PutPage<'a, E> = dyn FnMut(&[u8]) -> Result<u32, E> + 'a;

/// Where the live snapshot keeps one table — its tree's pages, level by
/// level, and the rowid each leaf starts at — and how far the table has
/// since moved away from that. One exists per table the snapshot holds,
/// and only in an engine with a journal.
#[derive(Debug)]
pub(crate) struct TreeImage {
    /// First rowid of each leaf, ascending. A leaf runs to the next
    /// one's start, the last to `rows`.
    starts: Vec<u64>,
    /// Rows in the tree.
    rows: u64,
    /// Page ids: `levels[0]` the leaves in key order, each further level
    /// the internal pages over the one before, the last the root alone.
    levels: Vec<Vec<u32>>,
    /// The row at this position and every later one may differ from the
    /// tree's: shifted by a DELETE, gone, or another table's altogether.
    /// (Rows at `rows` and beyond are new without being flagged.)
    from: u64,
    /// Leaves holding a row below `from` that was overwritten in place.
    touched: BTreeSet<usize>,
}

impl Default for TreeImage {
    /// The image of no tree at all: everything is still to be written.
    fn default() -> Self {
        TreeImage { starts: vec![], rows: 0, levels: vec![], from: 0, touched: BTreeSet::new() }
    }
}

/// One level of a tree being re-packed: the pages it had up to `cut`,
/// some of them rewritten, then new ones.
#[derive(Debug)]
struct LevelPatch {
    cut: usize,
    /// `(index, new page)`, ascending, all below `cut`.
    rewritten: Vec<(usize, u32)>,
    tail: Vec<u32>,
}

impl LevelPatch {
    fn len(&self) -> usize {
        self.cut + self.tail.len()
    }

    /// Page of node `i` once the patch applies to `old`.
    fn page(&self, old: &[u32], i: usize) -> u32 {
        if i >= self.cut {
            return self.tail[i - self.cut];
        }
        match self.rewritten.binary_search_by_key(&i, |r| r.0) {
            Ok(at) => self.rewritten[at].1,
            Err(_) => old[i],
        }
    }
}

/// What [`TreeImage::repack`] wrote, to be [applied](TreeImage::apply)
/// once a header that reaches it is durable.
#[derive(Debug)]
pub(crate) struct Repacked {
    /// The new tree's root page.
    pub root: u32,
    /// Pages of the old tree the new one does not use.
    pub released: Vec<u32>,
    levels: Vec<LevelPatch>,
    /// First rowids of the leaves in `levels[0].tail`.
    tail_starts: Vec<u64>,
    rows: u64,
}

impl TreeImage {
    /// Rows from `position` on have changed, moved or gone.
    pub(crate) fn dirty_from(&mut self, position: usize) {
        self.from = self.from.min(position as u64);
    }

    /// The row at `position` was overwritten in place.
    pub(crate) fn touch(&mut self, position: usize) {
        if (position as u64) < self.from {
            self.touched.insert(self.leaf_of(position as u64));
        }
    }

    /// The leaf holding `rowid`; the last one for a rowid past the end.
    fn leaf_of(&self, rowid: u64) -> usize {
        self.starts.partition_point(|&start| start <= rowid).saturating_sub(1)
    }

    /// The root page (a tree always has one; an image of no tree does
    /// not).
    pub(crate) fn root(&self) -> u32 {
        self.levels.last().expect("a tree has a root")[0]
    }

    /// Every page of the tree.
    pub(crate) fn pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// Write what the tree of a table now holding `rows` rows needs
    /// beyond the pages this image already names: the leaves flagged
    /// [`touch`](Self::touch)ed (in place, while their rows still fit),
    /// every leaf from the first row flagged
    /// [`dirty_from`](Self::dirty_from) on (re-packed to the end), and
    /// the internal pages over either. `None` when that is nothing.
    /// The image itself is unchanged until [`apply`](Self::apply).
    pub(crate) fn repack<E>(
        &self,
        rows: u64,
        value: &mut ValueOf<'_, E>,
        put: &mut PutPage<'_, E>,
    ) -> Result<Option<Repacked>, E> {
        let old_leaves = self.starts.len();
        // Leaves before `cut` keep their rows. Appended rows go into the
        // last leaf while it has room, so it is re-packed even when
        // nothing before the end is flagged — unless there are none.
        let mut cut = if self.from >= self.rows && rows == self.rows {
            old_leaves
        } else {
            self.leaf_of(self.from)
        };
        let (mut buf, mut page) = (Vec::new(), Vec::with_capacity(PAGE_PAYLOAD));
        let mut rewritten = Vec::new();
        for &leaf in self.touched.range(..cut) {
            let end = self.starts.get(leaf + 1).copied().unwrap_or(self.rows);
            if pack_leaf(self.starts[leaf], end, value, &mut buf, &mut page)? < end {
                // The rows have outgrown the page: from here on every
                // leaf starts at a different row.
                cut = leaf;
                break;
            }
            rewritten.push((leaf, put(&page)?));
        }
        let (mut tail, mut tail_starts) = (Vec::new(), Vec::new());
        let mut row = self.starts.get(cut).copied().unwrap_or(self.rows);
        // A table without rows still has a tree: one empty leaf.
        while row < rows || cut + tail.len() == 0 {
            tail_starts.push(row);
            row = pack_leaf(row, rows, value, &mut buf, &mut page)?;
            tail.push(put(&page)?);
        }
        if cut == old_leaves && rewritten.is_empty() && tail.is_empty() {
            return Ok(None);
        }

        let start_of = |leaf: usize| match leaf.checked_sub(cut) {
            Some(i) => tail_starts[i],
            None => self.starts[leaf],
        };
        let old_level = |l: usize| self.levels.get(l).map_or(&[][..], Vec::as_slice);
        let mut levels = vec![LevelPatch { cut, rewritten, tail }];
        // Leaves under one node of the level below the one being built.
        let mut span = 1;
        while levels.last().expect("leaf level").len() > 1 {
            let (below, below_old) =
                (levels.last().expect("leaf level"), old_level(levels.len() - 1));
            let old = old_level(levels.len());
            // A node keeps its children exactly when all of them come
            // before the cut below (or the level below kept its length).
            let kept = if below.cut == below_old.len() && below.tail.is_empty() {
                old.len()
            } else {
                below.cut / FANOUT
            };
            let mut node = |j: usize| {
                let children = j * FANOUT..below.len().min((j + 1) * FANOUT);
                page.clear();
                page.push(KIND_INTERNAL);
                page.extend_from_slice(&(children.len() as u16 - 1).to_le_bytes());
                page.extend_from_slice(&below.page(below_old, children.start).to_le_bytes());
                for child in children.skip(1) {
                    page.extend_from_slice(&(KEY as u16).to_le_bytes());
                    page.extend_from_slice(&start_of(child * span).to_be_bytes());
                    page.extend_from_slice(&below.page(below_old, child).to_le_bytes());
                }
                put(&page)
            };
            let mut rewritten: Vec<(usize, u32)> = Vec::new();
            for j in below.rewritten.iter().map(|r| r.0 / FANOUT).filter(|&j| j < kept) {
                if rewritten.last().is_none_or(|last| last.0 != j) {
                    rewritten.push((j, node(j)?));
                }
            }
            let tail =
                (kept..below.len().div_ceil(FANOUT)).map(&mut node).collect::<Result<_, E>>()?;
            levels.push(LevelPatch { cut: kept, rewritten, tail });
            span *= FANOUT;
        }

        let top = levels.last().expect("leaf level");
        let root = top.page(old_level(levels.len() - 1), 0);
        let mut released = Vec::new();
        for (l, old) in self.levels.iter().enumerate() {
            match levels.get(l) {
                Some(patch) => {
                    released.extend(patch.rewritten.iter().map(|r| old[r.0]));
                    released.extend_from_slice(&old[patch.cut..]);
                }
                None => released.extend_from_slice(old),
            }
        }
        Ok(Some(Repacked { root, released, levels, tail_starts, rows }))
    }

    /// The snapshot now holds the tree `repacked` describes, or (`None`)
    /// still this one, and the table is as that tree has it.
    pub(crate) fn apply(&mut self, repacked: Option<Repacked>) {
        self.from = u64::MAX;
        self.touched.clear();
        let Some(Repacked { levels, tail_starts, rows, .. }) = repacked else { return };
        self.starts.truncate(levels[0].cut);
        self.starts.extend(tail_starts);
        self.rows = rows;
        self.levels.resize_with(levels.len(), Vec::new);
        for (old, patch) in self.levels.iter_mut().zip(levels) {
            for (i, page) in patch.rewritten {
                old[i] = page;
            }
            old.truncate(patch.cut);
            old.extend(patch.tail);
        }
    }
}

/// Fill `page` with a leaf of the rows from `start` on, as many as fit
/// and at most up to `limit`; returns the first row left out.
fn pack_leaf<E>(
    start: u64,
    limit: u64,
    value: &mut ValueOf<'_, E>,
    buf: &mut Vec<u8>,
    page: &mut Vec<u8>,
) -> Result<u64, E> {
    page.clear();
    page.extend_from_slice(&[KIND_LEAF, 0, 0]);
    let mut row = start;
    while row < limit {
        buf.clear();
        value(row, buf)?;
        assert!(buf.len() <= MAX_VALUE, "value of {} bytes exceeds a page", buf.len());
        if page.len() + LEAF_CELL_OVERHEAD + KEY + buf.len() > PAGE_PAYLOAD {
            break;
        }
        page.extend_from_slice(&(KEY as u16).to_le_bytes());
        page.extend_from_slice(&(buf.len() as u32).to_le_bytes());
        page.extend_from_slice(&row.to_be_bytes());
        page.extend_from_slice(buf);
        row += 1;
    }
    page[1..NODE_HEADER].copy_from_slice(&((row - start) as u16).to_le_bytes());
    Ok(row)
}

/// Decoded page view used by the recovery walk; keys and values are
/// slices of the page's payload. An internal page's separator keys are
/// bounds-checked and dropped: the walk takes the children in order.
enum PageView<'p> {
    Leaf(Vec<(&'p [u8], &'p [u8])>),
    Internal { children: Vec<u32> },
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
            for _ in 0..n {
                let klen =
                    u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
                take(&mut pos, klen)?;
                children.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")));
            }
            Ok(PageView::Internal { children })
        }
        _ => Err(corrupt("unknown kind")),
    }
}

/// Reads the payload of a page; recovery's refuses a page it has
/// already read.
pub(crate) type ReadPage<'a> = dyn FnMut(u32) -> Result<Vec<u8>, RecoveryError> + 'a;
/// One call per row of a tree, in rowid order: the rowid, the value.
pub(crate) type RowVisitor<'a> = dyn FnMut(u64, &[u8]) -> Result<(), RecoveryError> + 'a;

/// Read the whole tree under `root`, handing every row to `visit`, and
/// return its clean image. Anything but a tree as
/// [`repack`](TreeImage::repack) packs them — rowids counting up from
/// zero, every leaf at one depth, every internal page but the last of
/// its level full — is corruption: the next re-pack would trust the
/// shape.
pub(crate) fn load(
    read: &mut ReadPage<'_>,
    root: u32,
    visit: &mut RowVisitor<'_>,
) -> Result<TreeImage, RecoveryError> {
    let mut loader =
        Loader { read, visit, by_depth: vec![], widths: vec![], starts: vec![], rows: 0 };
    loader.walk(root, 0)?;
    let Loader { mut by_depth, starts, rows, .. } = loader;
    by_depth.reverse();
    Ok(TreeImage { starts, rows, levels: by_depth, from: u64::MAX, touched: BTreeSet::new() })
}

struct Loader<'a, 'f> {
    read: &'a mut ReadPage<'f>,
    visit: &'a mut RowVisitor<'f>,
    /// Pages read so far by depth, the root's first.
    by_depth: Vec<Vec<u32>>,
    /// Children of the newest internal page at each depth.
    widths: Vec<usize>,
    starts: Vec<u64>,
    rows: u64,
}

impl Loader<'_, '_> {
    fn walk(&mut self, page: u32, depth: usize) -> Result<(), RecoveryError> {
        let corrupt =
            |what: String| Err(RecoveryError::Corrupt(format!("b-tree page {page}: {what}")));
        if depth > 64 {
            return corrupt("deeper than 64 levels".into());
        }
        let payload = (self.read)(page)?;
        if self.by_depth.len() == depth {
            // Only the way down to the first leaf may add a level.
            if !self.starts.is_empty() {
                return corrupt(format!("at depth {depth}, below the first leaf"));
            }
            self.by_depth.push(Vec::new());
            self.widths.push(FANOUT);
        }
        self.by_depth[depth].push(page);
        match decode_page(&payload, page)? {
            PageView::Leaf(cells) => {
                if depth + 1 != self.by_depth.len() {
                    return corrupt(format!("a leaf at depth {depth}, above the first leaf"));
                }
                self.starts.push(self.rows);
                for (key, value) in cells {
                    if key != self.rows.to_be_bytes() {
                        return corrupt(format!("key {key:?} where rowid {} belongs", self.rows));
                    }
                    (self.visit)(self.rows, value)?;
                    self.rows += 1;
                }
            }
            PageView::Internal { children } => {
                if self.widths[depth] != FANOUT || children.len() > FANOUT {
                    return corrupt(format!(
                        "{} children, after a page of {} at the same depth",
                        children.len(),
                        self.widths[depth]
                    ));
                }
                self.widths[depth] = children.len();
                for child in children {
                    self.walk(child, depth + 1)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Pages that are never overwritten: every `put` is a new id.
    #[derive(Default)]
    struct Store(Vec<Vec<u8>>);

    /// Re-pack `image` over `model` (the values by rowid), apply, and
    /// return how many pages that wrote and which it released.
    fn checkpoint(
        store: &mut Store,
        image: &mut TreeImage,
        model: &[Vec<u8>],
    ) -> (usize, Vec<u32>) {
        let before = store.0.len();
        let repacked = image
            .repack::<()>(
                model.len() as u64,
                &mut |rowid, buf| {
                    buf.extend_from_slice(&model[rowid as usize]);
                    Ok(())
                },
                &mut |page| {
                    store.0.push(page.to_vec());
                    Ok(store.0.len() as u32 - 1)
                },
            )
            .unwrap();
        let released = repacked.as_ref().map_or(vec![], |r| r.released.clone());
        image.apply(repacked);
        (store.0.len() - before, released)
    }

    /// The tree on the pages holds exactly `model`, and reading it back
    /// gives the image the re-pack arrived at.
    fn assert_holds(store: &Store, image: &TreeImage, model: &[Vec<u8>]) {
        let mut rows = 0;
        let loaded = load(
            &mut |page| Ok(store.0[page as usize].clone()),
            image.root(),
            &mut |rowid, value| {
                assert_eq!(value, model[rowid as usize], "row {rowid}");
                rows += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(rows, model.len());
        assert_eq!(
            (&loaded.starts, loaded.rows, &loaded.levels),
            (&image.starts, image.rows, &image.levels)
        );
        assert!(image.touched.is_empty() && image.from == u64::MAX);
    }

    #[test]
    fn multi_level_tree_round_trips() {
        // Two values to a leaf: 700 rows make 350 leaves under two
        // internal pages under a root.
        let model: Vec<Vec<u8>> =
            (0..700u32).map(|i| vec![i as u8; 1900 + i as usize % 37]).collect();
        let (mut store, mut image) = (Store::default(), TreeImage::default());
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!(image.levels.iter().map(Vec::len).collect::<Vec<_>>(), [350, 2, 1]);
        assert_eq!((written, released), (353, vec![]));
        assert_holds(&store, &image, &model);
        // Nothing flagged, nothing written.
        assert_eq!(checkpoint(&mut store, &mut image, &model), (0, vec![]));
    }

    #[test]
    fn empty_tree_is_one_empty_leaf() {
        let (mut store, mut image) = (Store::default(), TreeImage::default());
        assert_eq!(checkpoint(&mut store, &mut image, &[]).0, 1);
        assert_holds(&store, &image, &[]);
        // Filled and emptied again, it is back to one leaf.
        let model = vec![vec![7u8; 3000]; 5];
        image.dirty_from(0);
        checkpoint(&mut store, &mut image, &model);
        assert_holds(&store, &image, &model);
        image.dirty_from(0);
        assert_eq!(checkpoint(&mut store, &mut image, &[]).0, 1);
        assert_holds(&store, &image, &[]);
        assert_eq!(image.levels, [[store.0.len() as u32 - 1]]);
    }

    #[test]
    fn values_up_to_the_limit_fit_a_page() {
        let model = vec![vec![1u8; MAX_VALUE], vec![2u8; MAX_VALUE - 1], vec![3u8; 1]];
        let (mut store, mut image) = (Store::default(), TreeImage::default());
        checkpoint(&mut store, &mut image, &model);
        assert_eq!(image.starts, [0, 1, 2]);
        assert_holds(&store, &image, &model);
    }

    /// What a write costs in pages, case by case, on a three-level tree.
    #[test]
    fn a_repack_writes_the_changed_leaves_and_the_pages_above_them() {
        let mut model: Vec<Vec<u8>> = (0..700u32).map(|i| vec![i as u8; 1900]).collect();
        let (mut store, mut image) = (Store::default(), TreeImage::default());
        checkpoint(&mut store, &mut image, &model);
        let old = image.levels.clone();

        // A same-size overwrite: its leaf, the internal page over it,
        // the root — and exactly those released.
        model[3] = vec![0xEE; 1900];
        image.touch(3);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!((written, released), (3, vec![old[0][1], old[1][0], old[2][0]]));
        assert_holds(&store, &image, &model);
        assert_eq!(image.levels[0][2..], old[0][2..], "clean leaves stay where they lie");
        assert_eq!(image.levels[1][1], old[1][1], "and so does the clean internal page");

        // An append: the last leaf re-packed (it was full, so the new
        // row takes a leaf of its own), the last internal page, the root.
        model.push(vec![0xAA; 1900]);
        image.dirty_from(700);
        assert_eq!(checkpoint(&mut store, &mut image, &model).0, 2 + 2);
        assert_holds(&store, &image, &model);

        // Appended and taken away again: no change.
        image.dirty_from(701);
        assert_eq!(checkpoint(&mut store, &mut image, &model).0, 0);

        // An overwrite that outgrows its leaf re-packs from there on.
        model[696] = vec![0xBB; 3000];
        image.touch(696);
        let (written, _) = checkpoint(&mut store, &mut image, &model);
        assert_eq!(written, 3 + 2, "rows 696..701 in three leaves, one internal page, the root");
        assert_holds(&store, &image, &model);

        // A DELETE in the middle shifts everything after it.
        model.remove(350);
        image.dirty_from(350);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!(image.levels[0].len(), 351);
        assert_eq!(written, (351 - 175) + 2 + 1, "leaves 175.., both internal pages, the root");
        assert_eq!(released.len(), written);
        assert_holds(&store, &image, &model);

        // Cut back to one leaf, the tree is one page high again.
        model.truncate(2);
        image.dirty_from(2);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!((written, image.levels.len()), (0, 1), "leaf 0 already holds exactly these");
        assert_eq!(released.len(), 350 + 2 + 1);
        assert_holds(&store, &image, &model);
    }

    /// Seeded edits against a model, every image checked against the
    /// pages and no page released while the tree still names it.
    #[test]
    fn random_edits_keep_image_and_pages_in_step() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x7AEE ^ seed);
            let value =
                |rng: &mut StdRng| vec![rng.gen::<u32>() as u8; rng.gen_range(1usize..40) * 50];
            let (mut store, mut image, mut model) =
                (Store::default(), TreeImage::default(), vec![]);
            let mut live = BTreeSet::new();
            for step in 0..60 {
                for _ in 0..rng.gen_range(0usize..4) {
                    match rng.gen_range(0u8..5) {
                        0 | 1 => {
                            image.dirty_from(model.len());
                            model.extend((0..rng.gen_range(1usize..400)).map(|_| value(&mut rng)));
                        }
                        2 if !model.is_empty() => {
                            let from = rng.gen_range(0..model.len());
                            let to = (from + rng.gen_range(1usize..300)).min(model.len());
                            image.dirty_from(from);
                            model.drain(from..to);
                        }
                        3 if !model.is_empty() => {
                            let at = rng.gen_range(0..model.len());
                            image.touch(at);
                            model[at] = value(&mut rng);
                        }
                        4 if !model.is_empty() => {
                            let at = rng.gen_range(0..model.len());
                            image.touch(at);
                            model[at].iter_mut().for_each(|b| *b ^= 0x55);
                        }
                        _ => {}
                    }
                }
                let first = store.0.len() as u32;
                let (written, released) = checkpoint(&mut store, &mut image, &model);
                assert_holds(&store, &image, &model);
                live.extend(first..first + written as u32);
                for page in released {
                    assert!(
                        live.remove(&page),
                        "seed {seed} step {step}: page {page} released twice"
                    );
                }
                let named: BTreeSet<u32> = image.pages().collect();
                assert_eq!(named, live, "seed {seed} step {step}: pages leaked or lost");
            }
        }
    }

    #[test]
    fn a_tree_not_packed_like_ours_is_corrupt() {
        let model: Vec<Vec<u8>> = (0..700u32).map(|i| vec![i as u8; 1900]).collect();
        let (mut store, mut image) = (Store::default(), TreeImage::default());
        checkpoint(&mut store, &mut image, &model);
        let root = image.root();
        // Load the tree with one page replaced.
        let load_with = |page: u32, payload: &[u8]| {
            let read =
                |p: u32| Ok(if p == page { payload.to_vec() } else { store.0[p as usize].clone() });
            load(&mut { read }, root, &mut |_, _| Ok(())).map(|_| ()).unwrap_err()
        };
        let internal = |children: &[u32]| {
            let mut page = vec![KIND_INTERNAL];
            page.extend_from_slice(&(children.len() as u16 - 1).to_le_bytes());
            page.extend_from_slice(&children[0].to_le_bytes());
            for child in &children[1..] {
                page.extend_from_slice(&[0, 0]);
                page.extend_from_slice(&child.to_le_bytes());
            }
            page
        };
        // An internal page short of full that is not the last of its
        // level: the next re-pack would take it for leaves 0..292.
        let short = internal(&image.levels[0][..200]);
        assert!(matches!(load_with(image.levels[1][0], &short), RecoveryError::Corrupt(_)));
        // A leaf where an internal page belongs, and the reverse.
        let leaf = store.0[image.levels[0][0] as usize].clone();
        assert!(matches!(load_with(image.levels[1][1], &leaf), RecoveryError::Corrupt(_)));
        let deep = internal(&image.levels[0][..2]);
        assert!(matches!(load_with(image.levels[0][349], &deep), RecoveryError::Corrupt(_)));
        // A leaf run that repeats rowids, and one that skips some.
        let second = store.0[image.levels[0][1] as usize].clone();
        assert!(matches!(load_with(image.levels[0][2], &second), RecoveryError::Corrupt(_)));
        assert!(matches!(load_with(image.levels[0][0], &second), RecoveryError::Corrupt(_)));
        // A separator key that runs past the payload.
        let mut overrun = internal(&image.levels[0][..2]);
        overrun[7..9].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(load_with(root, &overrun), RecoveryError::Corrupt(_)));
    }
}
