//! Leaf lists over heap pages: the format of a table inside a snapshot.
//!
//! A table is its rows in order (a row's position is its rowid) cut into
//! leaves filled to the brim, and the leaves are named in order by list
//! pages, which the catalog names. Nothing searches a snapshot: recovery
//! reads it front to back (see [`load`]), and a checkpoint, given the
//! [`TableImage`] of what the live snapshot holds and what has changed
//! since, writes only the leaves whose rows changed and the list pages
//! naming them, and names every other page where it already lies (see
//! [`TableImage::repack`]).
//!
//! # Page layout (within a page's CRC-checked payload)
//!
//! ```text
//! list := [n u16] { leaf u32 } * n
//! leaf := [start u64] [n u16] { [len u16] value } * n
//! ```
//!
//! Every list page but the last holds [`LIST_IDS`] leaves, so list `j`
//! names leaves `j * LIST_IDS ..` and a re-pack can tell, without reading
//! a page, which list pages a change leaves as they are. A leaf's `start`
//! is the rowid of its first row: it is what tells recovery that a leaf
//! was copied over, or swapped with, another one, which the page CRC
//! does not.

use crate::codec::Reader;
use crate::pager::PAGE_PAYLOAD;
use crate::recovery::RecoveryError;
use std::collections::BTreeSet;

/// A leaf's header: its first rowid and its row count.
const LEAF_HEADER: usize = 8 + 2;
/// A row's header in a leaf: its length.
const ROW_HEADER: usize = 2;
/// Leaf ids of a full list page, after its count.
const LIST_IDS: usize = (PAGE_PAYLOAD - 2) / 4;

/// The longest value a leaf can carry: one row must fit one page.
pub(crate) const MAX_VALUE: usize = PAGE_PAYLOAD - LEAF_HEADER - ROW_HEADER;

/// Encodes the value of the row at a rowid onto the end of a buffer.
pub(crate) type ValueOf<'a, E> = dyn FnMut(u64, &mut Vec<u8>) -> Result<(), E> + 'a;
/// Stores a page payload and says where.
pub(crate) type PutPage<'a, E> = dyn FnMut(&[u8]) -> Result<u32, E> + 'a;

/// Where the live snapshot keeps one table — its leaves and the rowid
/// each starts at, and its list pages — and how far the table has since
/// moved away from that. One exists per table the snapshot holds, and
/// only in an engine with a journal.
#[derive(Debug, Default)]
pub(crate) struct TableImage {
    /// First rowid of each leaf, ascending. A leaf runs to the next
    /// one's start, the last to `rows`.
    starts: Vec<u64>,
    /// Rows in the snapshot's table.
    rows: u64,
    /// Leaf pages in row order.
    leaves: Vec<u32>,
    /// List pages in order: list `j` names leaves `j * LIST_IDS ..`.
    lists: Vec<u32>,
    /// The row at this position and every later one may differ from the
    /// snapshot's: shifted by a DELETE, gone, or another table's
    /// altogether. (Rows at `rows` and beyond are new without being
    /// flagged.)
    from: u64,
    /// Leaves holding a row below `from` that was overwritten in place.
    touched: BTreeSet<usize>,
}

/// What [`TableImage::repack`] wrote, to be [applied](TableImage::apply)
/// once a header that reaches it is durable.
#[derive(Debug)]
pub(crate) struct Repacked {
    /// The new table's list pages, in order.
    pub lists: Vec<u32>,
    /// Pages of the old table the new one does not use.
    pub released: Vec<u32>,
    /// Leaves before this one keep their rows.
    cut: usize,
    /// `(leaf, new page)`, ascending, all below `cut`.
    rewritten: Vec<(usize, u32)>,
    /// The leaves from `cut` on, and their first rowids.
    tail: Vec<u32>,
    tail_starts: Vec<u64>,
    rows: u64,
}

impl TableImage {
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

    /// The list pages, which the catalog names.
    pub(crate) fn lists(&self) -> &[u32] {
        &self.lists
    }

    /// Every page of the table.
    pub(crate) fn pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.leaves.iter().chain(&self.lists).copied()
    }

    /// Write what a table now holding `rows` rows needs beyond the pages
    /// this image already names: the leaves flagged
    /// [`touch`](Self::touch)ed (in place, while their rows still fit),
    /// every leaf from the first row flagged
    /// [`dirty_from`](Self::dirty_from) on (re-packed to the end), and
    /// the list pages naming either. `None` when that is nothing. The
    /// image itself is unchanged until [`apply`](Self::apply).
    pub(crate) fn repack<E>(
        &self,
        rows: u64,
        value: &mut ValueOf<'_, E>,
        put: &mut PutPage<'_, E>,
    ) -> Result<Option<Repacked>, E> {
        let old_leaves = self.leaves.len();
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
        while row < rows {
            tail_starts.push(row);
            row = pack_leaf(row, rows, value, &mut buf, &mut page)?;
            tail.push(put(&page)?);
        }
        if cut == old_leaves && rewritten.is_empty() && tail.is_empty() {
            return Ok(None);
        }

        let leaves = cut + tail.len();
        let leaf_page = |i: usize| match i.checked_sub(cut) {
            Some(at) => tail[at],
            None => match rewritten.binary_search_by_key(&i, |r| r.0) {
                Ok(at) => rewritten[at].1,
                Err(_) => self.leaves[i],
            },
        };
        let mut list = |j: usize| {
            let ids = j * LIST_IDS..leaves.min((j + 1) * LIST_IDS);
            page.clear();
            page.extend_from_slice(&(ids.len() as u16).to_le_bytes());
            ids.for_each(|i| page.extend_from_slice(&leaf_page(i).to_le_bytes()));
            put(&page)
        };
        // A list page keeps its ids exactly when all of them come before
        // the cut (or the leaves kept their count).
        let kept =
            if cut == old_leaves && tail.is_empty() { self.lists.len() } else { cut / LIST_IDS };
        let mut lists = self.lists[..kept].to_vec();
        let mut released = self.lists[kept..].to_vec();
        let mut stale: Vec<usize> =
            rewritten.iter().map(|r| r.0 / LIST_IDS).filter(|&j| j < kept).collect();
        stale.dedup();
        for j in stale {
            released.push(self.lists[j]);
            lists[j] = list(j)?;
        }
        for j in kept..leaves.div_ceil(LIST_IDS) {
            lists.push(list(j)?);
        }
        released.extend(rewritten.iter().map(|r| self.leaves[r.0]));
        released.extend_from_slice(&self.leaves[cut..]);
        Ok(Some(Repacked { lists, released, cut, rewritten, tail, tail_starts, rows }))
    }

    /// The snapshot now holds the table `repacked` describes, or
    /// (`None`) still this one, and the table is as the snapshot has it.
    pub(crate) fn apply(&mut self, repacked: Option<Repacked>) {
        self.from = u64::MAX;
        self.touched.clear();
        let Some(Repacked { lists, cut, rewritten, tail, tail_starts, rows, .. }) = repacked else {
            return;
        };
        for (i, page) in rewritten {
            self.leaves[i] = page;
        }
        self.leaves.truncate(cut);
        self.leaves.extend(tail);
        self.starts.truncate(cut);
        self.starts.extend(tail_starts);
        self.lists = lists;
        self.rows = rows;
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
    page.extend_from_slice(&start.to_le_bytes());
    page.extend_from_slice(&[0, 0]);
    let mut row = start;
    while row < limit {
        buf.clear();
        value(row, buf)?;
        assert!(buf.len() <= MAX_VALUE, "value of {} bytes exceeds a page", buf.len());
        if page.len() + ROW_HEADER + buf.len() > PAGE_PAYLOAD {
            break;
        }
        page.extend_from_slice(&(buf.len() as u16).to_le_bytes());
        page.extend_from_slice(buf);
        row += 1;
    }
    page[8..LEAF_HEADER].copy_from_slice(&((row - start) as u16).to_le_bytes());
    Ok(row)
}

/// Reads the payload of a page; recovery's refuses a page it has
/// already read.
pub(crate) type ReadPage<'a> = dyn FnMut(u32) -> Result<Vec<u8>, RecoveryError> + 'a;
/// One call per row of a table, in rowid order: the rowid, the value.
pub(crate) type RowVisitor<'a> = dyn FnMut(u64, &[u8]) -> Result<(), RecoveryError> + 'a;

/// Read the table on the list pages `lists`, handing every row to
/// `visit`, and return its clean image. Anything
/// [`repack`](TableImage::repack) does not write — a list page short of
/// full that is not the last, a leaf without rows or one that does not
/// start at the row the ones before it end at — is corruption: the next
/// re-pack would trust the layout.
pub(crate) fn load(
    read: &mut ReadPage<'_>,
    lists: &[u32],
    visit: &mut RowVisitor<'_>,
) -> Result<TableImage, RecoveryError> {
    let mut image = TableImage { from: u64::MAX, ..TableImage::default() };
    for (j, &list) in lists.iter().enumerate() {
        let corrupt = |what: String| RecoveryError::Corrupt(format!("list page {list}: {what}"));
        let payload = read(list)?;
        let mut ids = Reader::new(&payload);
        let n = ids.u16().map_err(|e| corrupt(e.0))? as usize;
        if n == 0 || n > LIST_IDS || n < LIST_IDS && j + 1 < lists.len() {
            return Err(corrupt(format!("{n} leaves in list {j} of {}", lists.len())));
        }
        for _ in 0..n {
            let leaf = ids.u32().map_err(|e| corrupt(e.0))?;
            let corrupt =
                |what: String| RecoveryError::Corrupt(format!("leaf page {leaf}: {what}"));
            let payload = read(leaf)?;
            let mut cells = Reader::new(&payload);
            let start = cells.u64().map_err(|e| corrupt(e.0))?;
            let n = cells.u16().map_err(|e| corrupt(e.0))?;
            if start != image.rows || n == 0 {
                return Err(corrupt(format!(
                    "{n} rows from row {start}, after leaves that end at row {}",
                    image.rows
                )));
            }
            image.starts.push(start);
            image.leaves.push(leaf);
            for _ in 0..n {
                let len = cells.u16().map_err(|e| corrupt(e.0))?;
                visit(image.rows, cells.take(len as usize).map_err(|e| corrupt(e.0))?)?;
                image.rows += 1;
            }
        }
        image.lists.push(list);
    }
    Ok(image)
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
        image: &mut TableImage,
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

    /// The pages hold exactly `model`, and reading them back gives the
    /// image the re-pack arrived at.
    fn assert_holds(store: &Store, image: &TableImage, model: &[Vec<u8>]) {
        let mut rows = 0;
        let loaded = load(
            &mut |page| Ok(store.0[page as usize].clone()),
            image.lists(),
            &mut |rowid, value| {
                assert_eq!(value, model[rowid as usize], "row {rowid}");
                rows += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(rows, model.len());
        assert_eq!(
            (&loaded.starts, loaded.rows, &loaded.leaves, &loaded.lists),
            (&image.starts, image.rows, &image.leaves, &image.lists)
        );
        assert!(image.touched.is_empty() && image.from == u64::MAX);
    }

    /// One row to a leaf: `leaves` leaves on `leaves / LIST_IDS + 1`
    /// list pages.
    fn one_row_leaves(leaves: usize) -> Vec<Vec<u8>> {
        (0..leaves).map(|i| vec![i as u8; 2100 + i % 37]).collect()
    }

    #[test]
    fn many_list_pages_round_trip() {
        let model = one_row_leaves(LIST_IDS + 5);
        let (mut store, mut image) = (Store::default(), TableImage::default());
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!((image.leaves.len(), image.lists.len()), (LIST_IDS + 5, 2));
        assert_eq!((written, released), (LIST_IDS + 5 + 2, vec![]));
        assert_holds(&store, &image, &model);
        // Nothing flagged, nothing written.
        assert_eq!(checkpoint(&mut store, &mut image, &model), (0, vec![]));
    }

    #[test]
    fn an_empty_table_has_no_pages() {
        let (mut store, mut image) = (Store::default(), TableImage::default());
        assert_eq!(checkpoint(&mut store, &mut image, &[]).0, 0);
        assert_holds(&store, &image, &[]);
        // Filled and emptied again, it is back to none.
        let model = vec![vec![7u8; 3000]; 5];
        image.dirty_from(0);
        checkpoint(&mut store, &mut image, &model);
        assert_holds(&store, &image, &model);
        image.dirty_from(0);
        let (written, released) = checkpoint(&mut store, &mut image, &[]);
        assert_eq!((written, released.len()), (0, 5 + 1));
        assert_holds(&store, &image, &[]);
        assert_eq!(image.pages().count(), 0);
    }

    #[test]
    fn values_up_to_the_limit_fit_a_page() {
        let model = vec![vec![1u8; MAX_VALUE], vec![2u8; MAX_VALUE - 1], vec![3u8; 1]];
        let (mut store, mut image) = (Store::default(), TableImage::default());
        checkpoint(&mut store, &mut image, &model);
        assert_eq!(image.starts, [0, 1, 2]);
        assert_holds(&store, &image, &model);
    }

    /// What a write costs in pages, case by case, on two list pages.
    #[test]
    fn a_repack_writes_the_changed_leaves_and_the_lists_naming_them() {
        let mut model = one_row_leaves(LIST_IDS + 5);
        let (mut store, mut image) = (Store::default(), TableImage::default());
        checkpoint(&mut store, &mut image, &model);
        let (leaves, lists) = (image.leaves.clone(), image.lists.clone());

        // A same-size overwrite: its leaf and its list page, and exactly
        // those released.
        model[3] = vec![0xEE; model[3].len()];
        image.touch(3);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!((written, released), (2, vec![lists[0], leaves[3]]));
        assert_holds(&store, &image, &model);
        assert_eq!(image.leaves[4..], leaves[4..], "clean leaves stay where they lie");
        assert_eq!(image.lists[1], lists[1], "and so does the clean list page");

        // An append: the last leaf re-packed (it was full, so the new
        // row takes a leaf of its own) and the last list page.
        model.push(vec![0xAA; 2100]);
        image.dirty_from(model.len() - 1);
        assert_eq!(checkpoint(&mut store, &mut image, &model).0, 2 + 1);
        assert_holds(&store, &image, &model);

        // Appended and taken away again: no change.
        image.dirty_from(model.len());
        assert_eq!(checkpoint(&mut store, &mut image, &model).0, 0);

        // An overwrite that outgrows its leaf re-packs from there on:
        // two rows that shared a leaf no longer fit one.
        model.truncate(LIST_IDS + 4);
        model.extend([vec![0xBB; 1000], vec![0xCC; 1000]]);
        image.dirty_from(LIST_IDS + 4);
        assert_eq!(checkpoint(&mut store, &mut image, &model).0, 1 + 1);
        model[LIST_IDS + 5] = vec![0xDD; 3500];
        image.touch(LIST_IDS + 5);
        let (written, _) = checkpoint(&mut store, &mut image, &model);
        assert_eq!(written, 2 + 1, "the two rows in a leaf each, the last list page");
        assert_holds(&store, &image, &model);

        // A DELETE in the first list page shifts everything after it;
        // packed afresh, the first short row shares the leaf before it.
        model.remove(500);
        image.dirty_from(500);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!(image.leaves.len(), LIST_IDS + 4, "two leaves fewer");
        assert_eq!(written, (LIST_IDS + 4 - 500) + 2, "leaves 500.., both list pages");
        assert_eq!(released.len(), written + 2);
        assert_holds(&store, &image, &model);

        // Cut back to the first list page: it stays, the second goes.
        model.truncate(LIST_IDS);
        image.dirty_from(LIST_IDS);
        let (written, released) = checkpoint(&mut store, &mut image, &model);
        assert_eq!((written, image.lists.len()), (0, 1), "list 0 already names these");
        assert_eq!(released.len(), 4 + 1);
        assert_holds(&store, &image, &model);
    }

    /// Seeded edits against a model, every image checked against the
    /// pages and no page released while the table still names it. Rows
    /// run to two a leaf, so the tables cross list pages.
    #[test]
    fn random_edits_keep_image_and_pages_in_step() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x7AEE ^ seed);
            let value =
                |rng: &mut StdRng| vec![rng.gen::<u32>() as u8; rng.gen_range(1usize..80) * 50];
            let (mut store, mut image, mut model) =
                (Store::default(), TableImage::default(), vec![]);
            let (mut live, mut most) = (BTreeSet::new(), 0);
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
                most = most.max(image.lists.len());
            }
            assert!(most >= 2, "seed {seed}: never more than {most} list pages");
        }
    }

    #[test]
    fn a_table_not_packed_like_ours_is_corrupt() {
        let model = one_row_leaves(LIST_IDS + 5);
        let (mut store, mut image) = (Store::default(), TableImage::default());
        checkpoint(&mut store, &mut image, &model);
        // Load the table with one page replaced.
        let load_with = |page: u32, payload: &[u8]| {
            let read =
                |p: u32| Ok(if p == page { payload.to_vec() } else { store.0[p as usize].clone() });
            match load(&mut { read }, &image.lists, &mut |_, _| Ok(())) {
                Err(RecoveryError::Corrupt(_)) => {}
                other => panic!("{:?}", other.map(|_| ())),
            }
        };
        let list = |leaves: &[u32]| {
            let mut page = (leaves.len() as u16).to_le_bytes().to_vec();
            leaves.iter().for_each(|leaf| page.extend_from_slice(&leaf.to_le_bytes()));
            page
        };
        // A first list page short of full: the next re-pack would take
        // the second for leaves LIST_IDS.., and a list of no leaves.
        load_with(image.lists[0], &list(&image.leaves[..LIST_IDS - 1]));
        load_with(image.lists[1], &list(&[]));
        // More ids than a page holds, and a count past the page.
        load_with(image.lists[1], &list(&image.leaves[..LIST_IDS + 1]));
        let mut past = list(&image.leaves[LIST_IDS..]);
        past[..2].copy_from_slice(&1000u16.to_le_bytes());
        load_with(image.lists[1], &past);
        // A leaf repeated (its start is behind), one skipped (ahead), one
        // without rows, one whose row runs past its bytes.
        let leaf = |i: usize| store.0[image.leaves[i] as usize].clone();
        load_with(image.leaves[2], &leaf(1));
        load_with(image.leaves[0], &leaf(1));
        let mut empty = leaf(4);
        empty[8..10].copy_from_slice(&0u16.to_le_bytes());
        load_with(image.leaves[4], &empty);
        let mut short = leaf(4);
        short[10..12].copy_from_slice(&u16::MAX.to_le_bytes());
        load_with(image.leaves[4], &short);
        load_with(image.leaves[4], &leaf(4)[..9]);
    }
}
