//! The B+-tree proper: lookup, insert, delete, range scans and bulk loading.

use std::sync::RwLock;
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};

use pcube_storage::{PageId, Pager, StorageError};

use crate::node::{self, TYPE_LEAF};

/// A disk-based B+-tree mapping `u64` keys to `u64` values.
///
/// All node accesses are charged to the owning [`Pager`]'s I/O category. Keys
/// are unique; [`BPlusTree::insert`] replaces and returns any previous value.
///
/// Internal (non-leaf) pages are pinned: served from an in-memory cache
/// after their first read — the standard buffer-pool assumption for index
/// upper levels — so a point lookup costs one counted leaf read once the
/// cache is warm. Any mutation drops the cache.
pub struct BPlusTree {
    pager: Pager,
    root: PageId,
    height: usize,
    len: u64,
    leaf_cap: usize,
    internal_cap: usize,
    /// `RwLock` so concurrent query threads can serve pinned internal
    /// pages from the cache; writes happen only on first read of a page and
    /// on invalidation. Lock poisoning is recovered from, not propagated:
    /// the cache holds whole-page copies installed atomically, so whatever a
    /// panicking holder left behind is still servable (or clearable).
    internal_cache: RwLock<HashMap<PageId, Box<[u8]>>>,
}

/// Where one step of a descent leads.
enum Step<'a> {
    /// The page is a leaf: the pager's own bytes.
    Leaf(&'a [u8]),
    /// The page is internal: the child covering the key.
    Child(PageId),
}

impl Clone for BPlusTree {
    /// Deep copy over a cloned pager, with a cold internal cache (it refills
    /// lazily on first reads).
    fn clone(&self) -> Self {
        BPlusTree::from_parts(self.pager.clone(), self.root, self.height, self.len)
    }
}

impl BPlusTree {
    /// Creates an empty tree that stores its nodes in `pager`.
    pub fn new(mut pager: Pager) -> Self {
        let root = pager.allocate();
        let mut page = vec![0u8; pager.page_size()];
        node::init_leaf(&mut page);
        pager.write(root, &page);
        BPlusTree::from_parts(pager, root, 1, 0)
    }

    /// Structural metadata needed to re-open the tree over a deserialized
    /// pager: `(root page, height, entry count)`.
    pub fn parts(&self) -> (PageId, usize, u64) {
        (self.root, self.height, self.len)
    }

    /// Re-opens a tree over a pager that already holds its pages (the
    /// counterpart of [`BPlusTree::parts`] after pager deserialization).
    pub fn from_parts(pager: Pager, root: PageId, height: usize, len: u64) -> Self {
        let leaf_cap = node::leaf_capacity(pager.page_size());
        let internal_cap = node::internal_capacity(pager.page_size());
        BPlusTree {
            pager,
            root,
            height,
            len,
            leaf_cap,
            internal_cap,
            internal_cache: RwLock::new(HashMap::new()),
        }
    }

    fn invalidate_cache(&mut self) {
        self.internal_cache.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Builds a tree from an iterator of **strictly increasing** keys,
    /// packing leaves to `fill` (a fraction in `(0, 1]`, typically `1.0` for
    /// read-only indexes or `0.7` to leave room for inserts).
    ///
    /// # Panics
    /// Panics if keys are not strictly increasing or `fill` is out of range.
    pub fn bulk_load(mut pager: Pager, entries: impl IntoIterator<Item = (u64, u64)>, fill: f64) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0,1]");
        let per_leaf = ((node::leaf_capacity(pager.page_size()) as f64 * fill) as usize).max(1);
        let per_internal = ((node::internal_capacity(pager.page_size()) as f64 * fill) as usize).max(2);

        // Build the leaf level. A full leaf is written once the next key
        // arrives: its successor is allocated first, so the leaf goes out
        // chained and is never read back.
        let mut page = vec![0u8; pager.page_size()];
        node::init_leaf(&mut page);
        let mut pid = pager.allocate();
        let mut in_page = 0usize;
        let mut len = 0u64;
        let mut last_key: Option<u64> = None;
        // (first key, page id) per completed leaf
        let mut level: Vec<(u64, PageId)> = Vec::new();
        let mut first_key_in_page = 0u64;
        for (key, value) in entries {
            if let Some(prev) = last_key {
                assert!(key > prev, "bulk_load requires strictly increasing keys");
            }
            last_key = Some(key);
            if in_page == per_leaf {
                let next = pager.allocate();
                node::set_next_leaf(&mut page, next);
                node::set_count(&mut page, in_page);
                pager.write(pid, &page);
                level.push((first_key_in_page, pid));
                node::init_leaf(&mut page);
                pid = next;
                in_page = 0;
            }
            if in_page == 0 {
                first_key_in_page = key;
            }
            node::set_leaf_entry(&mut page, in_page, key, value);
            in_page += 1;
            len += 1;
        }
        // Flush the final (possibly empty) leaf, the end of the chain.
        node::set_count(&mut page, in_page);
        pager.write(pid, &page);
        level.push((first_key_in_page, pid));

        // Build internal levels bottom-up.
        let mut height = 1usize;
        let mut current = level;
        while current.len() > 1 {
            height += 1;
            let mut upper: Vec<(u64, PageId)> = Vec::new();
            let mut i = 0usize;
            while i < current.len() {
                let group_end = (i + per_internal + 1).min(current.len());
                // Avoid a trailing group with a single child: steal one.
                let group_end = if group_end < current.len() && current.len() - group_end == 1 {
                    group_end - 1
                } else {
                    group_end
                };
                let mut p = vec![0u8; pager.page_size()];
                node::init_internal(&mut p);
                node::set_internal_child(&mut p, 0, current[i].1);
                let mut n_keys = 0usize;
                for (j, &(first, child)) in current[i + 1..group_end].iter().enumerate() {
                    node::set_internal_key(&mut p, j, first);
                    node::set_internal_child(&mut p, j + 1, child);
                    n_keys += 1;
                }
                node::set_count(&mut p, n_keys);
                let pid = pager.allocate();
                pager.write(pid, &p);
                upper.push((current[i].0, pid));
                i = group_end;
            }
            current = upper;
        }
        BPlusTree::from_parts(pager, current[0].1, height, len)
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Maximum number of entries one leaf page of this tree holds.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// The pager backing this tree (for size/I-O accounting).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Mutable access to the backing pager — the hook chaos tests use to
    /// install fault plans or corrupt pages underneath the tree.
    pub fn pager_mut(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// One step of a descent towards `key` from page `pid`, the tree's one
    /// page reader. A pinned internal page is read in place, under the
    /// cache's read lock: uncounted, unfaulted, and as it was when pinned.
    /// Any other page is the pager's own bytes — pager errors propagate, and
    /// a page whose entry count is structurally impossible is
    /// [`StorageError::Malformed`] rather than a slice panic later — and an
    /// internal page is pinned (copied once) on this first read.
    fn try_step(&self, pid: PageId, key: u64) -> Result<Step<'_>, StorageError> {
        let child = |page: &[u8]| node::internal_child(page, node::internal_descend(page, key));
        if let Some(page) = self.internal_cache.read().unwrap_or_else(|e| e.into_inner()).get(&pid) {
            return Ok(Step::Child(child(page)));
        }
        let page = self.pager.try_read(pid)?;
        let leaf = node::node_type(page) == TYPE_LEAF;
        if node::count(page) > if leaf { self.leaf_cap } else { self.internal_cap } {
            return Err(StorageError::Malformed { pid, what: "node count exceeds page capacity" });
        }
        if leaf {
            return Ok(Step::Leaf(page));
        }
        self.internal_cache.write().unwrap_or_else(|e| e.into_inner()).insert(pid, page.into());
        Ok(Step::Child(child(page)))
    }

    /// The leaf whose key range covers `key`. The descent is bounded by the
    /// tree height, so a corrupt child pointer cannot loop forever.
    #[inline(always)]
    fn try_leaf(&self, key: u64) -> Result<&[u8], StorageError> {
        let mut pid = self.root;
        for _ in 0..self.height {
            match self.try_step(pid, key)? {
                Step::Leaf(page) => return Ok(page),
                Step::Child(child) => pid = child,
            }
        }
        Err(StorageError::Malformed { pid, what: "descent exceeded the tree height" })
    }

    /// Looks up `key`, charging one counted read per level (pinned internal
    /// pages are free after first touch).
    ///
    /// Infallible [`BPlusTree::try_get`]; panics where that errors.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.try_get(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BPlusTree::get`]: corrupt or unreadable pages yield a
    /// [`StorageError`] instead of panicking.
    pub fn try_get(&self, key: u64) -> Result<Option<u64>, StorageError> {
        let page = self.try_leaf(key)?;
        Ok(node::leaf_search(page, key).ok().map(|i| node::leaf_value(page, i)))
    }

    /// Entries whose keys fall in `range`, in key order.
    ///
    /// I/O cost: one counted read per unpinned level to locate the first
    /// leaf, then one counted read per visited leaf.
    ///
    /// Infallible [`BPlusTree::try_range_collect`]; panics where that errors.
    pub fn range(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, u64)> {
        self.try_range_collect(range).unwrap_or_else(|e| panic!("{e}")).into_iter()
    }

    /// Every entry in key order; [`BPlusTree::range`] over `..`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> {
        self.range(..)
    }

    /// Fallible [`BPlusTree::range`]: collects every `(key, value)` with key
    /// in `range`, returning a [`StorageError`] on corrupt or unreadable
    /// pages. The leaf walk is bounded by the pager's page count, so a
    /// corrupt next-leaf pointer cannot cycle.
    pub fn try_range_collect(
        &self,
        range: impl RangeBounds<u64>,
    ) -> Result<Vec<(u64, u64)>, StorageError> {
        let lo = match range.start_bound() {
            Bound::Included(&k) => Some(k),
            Bound::Excluded(&k) => k.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let hi = match range.end_bound() {
            Bound::Included(&k) => Some(k),
            Bound::Excluded(&k) => k.checked_sub(1),
            Bound::Unbounded => Some(u64::MAX),
        };
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return Ok(Vec::new());
        };
        let mut page = self.try_leaf(lo)?;
        let mut idx = match node::leaf_search(page, lo) {
            Ok(i) | Err(i) => i,
        };
        let mut out = Vec::new();
        // A well-formed leaf chain visits each allocated page at most once.
        let mut hops = self.pager.live_pages();
        loop {
            // The leaf's entries up to the first key past `hi`, taken at once
            // so the result grows by the exact count.
            let n = node::count(page);
            let end = (idx..n).find(|&i| node::leaf_key(page, i) > hi);
            let entries = idx..end.unwrap_or(n);
            out.extend(entries.map(|i| (node::leaf_key(page, i), node::leaf_value(page, i))));
            if end.is_some() {
                return Ok(out);
            }
            let next = node::next_leaf(page);
            if next.is_invalid() {
                return Ok(out);
            }
            if hops == 0 {
                return Err(StorageError::Malformed { pid: next, what: "leaf chain longer than the page count (cycle?)" });
            }
            hops -= 1;
            page = match self.try_step(next, hi)? {
                Step::Leaf(page) => page,
                Step::Child(_) => {
                    return Err(StorageError::Malformed { pid: next, what: "leaf chain points at a non-leaf page" })
                }
            };
            idx = 0;
        }
    }

    /// Inserts `key -> value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.invalidate_cache();
        let (old, split) = self.insert_rec(self.root, self.height, key, value);
        if let Some((sep, right)) = split {
            let mut p = vec![0u8; self.pager.page_size()];
            node::init_internal(&mut p);
            node::set_internal_child(&mut p, 0, self.root);
            node::set_internal_key(&mut p, 0, sep);
            node::set_internal_child(&mut p, 1, right);
            node::set_count(&mut p, 1);
            let new_root = self.pager.allocate();
            self.pager.write(new_root, &p);
            self.root = new_root;
            self.height += 1;
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        key: u64,
        value: u64,
    ) -> (Option<u64>, Option<(u64, PageId)>) {
        let mut page = self.pager.read(pid).to_vec();
        if level == 1 {
            debug_assert_eq!(node::node_type(&page), TYPE_LEAF);
            let n = node::count(&page);
            match node::leaf_search(&page, key) {
                Ok(i) => {
                    let old = node::leaf_value(&page, i);
                    node::set_leaf_entry(&mut page, i, key, value);
                    self.pager.write(pid, &page);
                    return (Some(old), None);
                }
                Err(i) => {
                    if n < self.leaf_cap {
                        node::leaf_open_slot(&mut page, i, n);
                        node::set_leaf_entry(&mut page, i, key, value);
                        node::set_count(&mut page, n + 1);
                        self.pager.write(pid, &page);
                        return (None, None);
                    }
                    // Split the leaf: left keeps [0, mid), right gets [mid, n).
                    let mid = n / 2;
                    let mut right = vec![0u8; self.pager.page_size()];
                    node::init_leaf(&mut right);
                    for j in mid..n {
                        node::set_leaf_entry(&mut right, j - mid, node::leaf_key(&page, j), node::leaf_value(&page, j));
                    }
                    node::set_count(&mut right, n - mid);
                    node::set_next_leaf(&mut right, node::next_leaf(&page));
                    node::set_count(&mut page, mid);
                    let right_pid = self.pager.allocate();
                    node::set_next_leaf(&mut page, right_pid);
                    // Insert into the proper half.
                    if i < mid {
                        let ln = mid;
                        node::leaf_open_slot(&mut page, i, ln);
                        node::set_leaf_entry(&mut page, i, key, value);
                        node::set_count(&mut page, ln + 1);
                    } else {
                        let ri = i - mid;
                        let rn = n - mid;
                        node::leaf_open_slot(&mut right, ri, rn);
                        node::set_leaf_entry(&mut right, ri, key, value);
                        node::set_count(&mut right, rn + 1);
                    }
                    let sep = node::leaf_key(&right, 0);
                    self.pager.write(pid, &page);
                    self.pager.write(right_pid, &right);
                    return (None, Some((sep, right_pid)));
                }
            }
        }
        // Internal node.
        let slot = node::internal_descend(&page, key);
        let child = node::internal_child(&page, slot);
        let (old, split) = self.insert_rec(child, level - 1, key, value);
        let Some((sep, new_child)) = split else {
            return (old, None);
        };
        let n = node::count(&page);
        if n < self.internal_cap {
            node::internal_open_slot(&mut page, slot, n);
            node::set_internal_key(&mut page, slot, sep);
            node::set_internal_child(&mut page, slot + 1, new_child);
            node::set_count(&mut page, n + 1);
            self.pager.write(pid, &page);
            return (old, None);
        }
        // Split the internal node. Collect keys/children, insert, redistribute.
        let mut keys: Vec<u64> = (0..n).map(|j| node::internal_key(&page, j)).collect();
        let mut children: Vec<PageId> = (0..=n).map(|j| node::internal_child(&page, j)).collect();
        keys.insert(slot, sep);
        children.insert(slot + 1, new_child);
        let total = keys.len();
        let mid = total / 2; // key `mid` moves up
        let up_key = keys[mid];
        let mut left = vec![0u8; self.pager.page_size()];
        node::init_internal(&mut left);
        node::set_internal_child(&mut left, 0, children[0]);
        for j in 0..mid {
            node::set_internal_key(&mut left, j, keys[j]);
            node::set_internal_child(&mut left, j + 1, children[j + 1]);
        }
        node::set_count(&mut left, mid);
        let mut right = vec![0u8; self.pager.page_size()];
        node::init_internal(&mut right);
        node::set_internal_child(&mut right, 0, children[mid + 1]);
        for j in mid + 1..total {
            node::set_internal_key(&mut right, j - mid - 1, keys[j]);
            node::set_internal_child(&mut right, j - mid, children[j + 1]);
        }
        node::set_count(&mut right, total - mid - 1);
        let right_pid = self.pager.allocate();
        self.pager.write(pid, &left);
        self.pager.write(right_pid, &right);
        (old, Some((up_key, right_pid)))
    }

    /// Removes `key`, returning its value if present.
    ///
    /// Uses relaxed deletion: nodes may underflow and empty leaves stay in
    /// place (scans skip them; lookups in them simply miss). Only a root that
    /// loses all separators is collapsed. Full rebalancing on delete buys
    /// little for the workloads here, where deletion only appears in
    /// incremental maintenance, and relaxed deletion keeps the leaf chain
    /// trivially consistent.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.invalidate_cache();
        let removed = self.remove_rec(self.root, self.height, key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(&mut self, pid: PageId, level: usize, key: u64) -> Option<u64> {
        let mut page = self.pager.read(pid).to_vec();
        if level == 1 {
            let n = node::count(&page);
            let i = node::leaf_search(&page, key).ok()?;
            let old = node::leaf_value(&page, i);
            node::leaf_close_slot(&mut page, i, n);
            node::set_count(&mut page, n - 1);
            self.pager.write(pid, &page);
            return Some(old);
        }
        // Internal nodes are untouched under relaxed deletion.
        let slot = node::internal_descend(&page, key);
        let child = node::internal_child(&page, slot);
        self.remove_rec(child, level - 1, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_storage::{IoCategory, IoStats, SharedStats};

    fn tree_with(page_size: usize) -> (BPlusTree, SharedStats) {
        let stats = IoStats::new_shared();
        let pager = Pager::new(page_size, IoCategory::BptreePage, stats.clone());
        (BPlusTree::new(pager), stats)
    }

    #[test]
    fn insert_get_small() {
        let (mut t, _) = tree_with(4096);
        assert_eq!(t.get(1), None);
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_with_tiny_pages_force_deep_splits() {
        // 64-byte pages: leaf cap 3, internal cap 4 — exercises multi-level splits.
        let (mut t, _) = tree_with(64);
        let keys: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 1000).collect();
        let mut inserted = std::collections::BTreeMap::new();
        for &k in &keys {
            let expect = inserted.insert(k, k + 1);
            assert_eq!(t.insert(k, k + 1), expect);
        }
        assert_eq!(t.len(), inserted.len() as u64);
        for (&k, &v) in &inserted {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
        assert!(t.height() > 2, "tiny pages should force height > 2, got {}", t.height());
        let scanned: Vec<(u64, u64)> = t.iter().collect();
        let expect: Vec<(u64, u64)> = inserted.into_iter().collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn descending_inserts_stay_sorted() {
        let (mut t, _) = tree_with(64);
        for k in (0..200u64).rev() {
            t.insert(k, k);
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans_respect_bounds() {
        let (mut t, _) = tree_with(64);
        for k in (0..100u64).map(|i| i * 2) {
            t.insert(k, k);
        }
        let got: Vec<u64> = t.range(10..=20).map(|(k, _)| k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        let got: Vec<u64> = t.range(11..20).map(|(k, _)| k).collect();
        assert_eq!(got, vec![12, 14, 16, 18]);
        let got: Vec<u64> = t.range(..4).map(|(k, _)| k).collect();
        assert_eq!(got, vec![0, 2]);
        let got: Vec<u64> = t.range(196..).map(|(k, _)| k).collect();
        assert_eq!(got, vec![196, 198]);
        assert_eq!(t.range(..0).count(), 0);
        assert_eq!(t.range(300..).count(), 0);
    }

    #[test]
    fn lookups_touch_height_pages() {
        let (mut t, stats) = tree_with(4096);
        for k in 0..10_000u64 {
            t.insert(k, k);
        }
        stats.reset();
        assert_eq!(t.get(9_999), Some(9_999));
        assert_eq!(stats.reads(IoCategory::BptreePage), t.height() as u64);
    }

    #[test]
    fn internal_pinning_reduces_counted_reads_to_leaf_only() {
        let (mut t, stats) = tree_with(4096);
        for k in 0..50_000u64 {
            t.insert(k, k);
        }
        assert!(t.height() >= 2);
        // Warm the cache.
        let _ = t.get(1);
        stats.reset();
        for k in (0..50_000u64).step_by(997) {
            assert_eq!(t.get(k), Some(k));
        }
        let lookups = 50_000u64.div_ceil(997);
        let reads = stats.reads(IoCategory::BptreePage);
        // One leaf read per lookup, plus at most a handful of cold internal
        // pages the warm-up path did not touch.
        assert!(
            reads <= lookups + 4,
            "warm pinned lookups should cost ~one leaf read each: {reads} for {lookups}"
        );
        assert!(
            reads < lookups * t.height() as u64,
            "pinning must beat the unpinned cost of height reads per lookup"
        );
        // Mutation drops the cache; lookups still correct.
        t.insert(999_999, 1);
        assert_eq!(t.get(999_999), Some(1));
        assert_eq!(t.get(3), Some(3));
    }

    #[test]
    fn a_pinned_page_outlives_its_rot_and_a_clone_refuses_it() {
        let (mut t, stats) = tree_with(256);
        for k in 0..2_000u64 {
            t.insert(k, k + 1);
        }
        assert!(t.height() >= 3, "height {}", t.height());
        t.pager_mut().set_checksums(true);
        // Warm: every key's descent pins every internal page.
        for k in 0..2_000u64 {
            assert_eq!(t.try_get(k), Ok(Some(k + 1)));
        }
        let root = t.parts().0;
        t.pager_mut().corrupt_page(root, 8, 0xFF).expect("the root is live");

        // The warm tree answers from its pinned copies: one counted read per
        // lookup — the leaf — and never the rotten root.
        stats.reset();
        let keys: Vec<u64> = (0..2_000u64).step_by(37).collect();
        for &k in &keys {
            assert_eq!(t.try_get(k), Ok(Some(k + 1)));
        }
        assert_eq!(stats.reads(IoCategory::BptreePage), keys.len() as u64);
        assert_eq!(t.try_range_collect(10..13), Ok(vec![(10, 11), (11, 12), (12, 13)]));

        // A clone starts cold: its first descent reads the root and refuses it.
        let cold = t.clone();
        assert!(matches!(cold.try_get(5), Err(StorageError::Corrupt { pid, .. }) if pid == root));
        assert_eq!(t.try_get(5), Ok(Some(6)), "the clone's refusal leaves the warm tree alone");
    }

    #[test]
    fn remove_roundtrip() {
        let (mut t, _) = tree_with(64);
        for k in 0..300u64 {
            t.insert(k, k * 2);
        }
        for k in (0..300u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 2));
            assert_eq!(t.remove(k), None, "double remove of {k}");
        }
        assert_eq!(t.len(), 150);
        for k in 0..300u64 {
            let expect = if k % 2 == 1 { Some(k * 2) } else { None };
            assert_eq!(t.get(k), expect, "key {k}");
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (1..300u64).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let (mut t, _) = tree_with(64);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        for k in 0..100u64 {
            assert_eq!(t.remove(k), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        // Tree remains usable after total deletion.
        t.insert(5, 50);
        assert_eq!(t.get(5), Some(50));
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let stats = IoStats::new_shared();
        let pager = Pager::new(64, IoCategory::BptreePage, stats);
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 3, k)).collect();
        let t = BPlusTree::bulk_load(pager, entries.iter().copied(), 1.0);
        assert_eq!(t.len(), 1000);
        for &(k, v) in &entries {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.get(1), None);
        let scanned: Vec<(u64, u64)> = t.iter().collect();
        assert_eq!(scanned, entries);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let stats = IoStats::new_shared();
        let pager = Pager::new(4096, IoCategory::BptreePage, stats.clone());
        let t = BPlusTree::bulk_load(pager, std::iter::empty(), 1.0);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        let pager = Pager::new(4096, IoCategory::BptreePage, stats);
        let t = BPlusTree::bulk_load(pager, [(7u64, 8u64)], 0.5);
        assert_eq!(t.get(7), Some(8));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_load_writes_every_page_once_and_reads_none() {
        let stats = IoStats::new_shared();
        let pager = Pager::new(4096, IoCategory::BptreePage, stats.clone());
        let entries: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k * 2, k)).collect();
        let t = BPlusTree::bulk_load(pager, entries.iter().copied(), 1.0);
        let pages = t.pager().live_pages() as u64;
        assert_eq!(pages, 396);
        assert_eq!(stats.writes(IoCategory::BptreePage), pages);
        assert_eq!(stats.reads(IoCategory::BptreePage), 0);
        // The leaves are pages 0.. in key order, each chained to the next.
        let leaves = entries.len().div_ceil(t.leaf_capacity()) as u32;
        for pid in 0..leaves {
            let page = t.pager().page_bytes(PageId(pid)).expect("a live leaf");
            assert_eq!(node::node_type(page), TYPE_LEAF);
            let next = if pid + 1 == leaves { PageId::INVALID } else { PageId(pid + 1) };
            assert_eq!(node::next_leaf(page), next, "leaf {pid}");
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), entries);
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts() {
        let stats = IoStats::new_shared();
        let pager = Pager::new(64, IoCategory::BptreePage, stats);
        let mut t = BPlusTree::bulk_load(pager, (0..100u64).map(|k| (k * 2, k)), 0.7);
        for k in 0..100u64 {
            t.insert(k * 2 + 1, 999);
        }
        assert_eq!(t.len(), 200);
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn try_get_surfaces_injected_faults_and_corruption() {
        let (mut t, _) = tree_with(64);
        for k in 0..300u64 {
            t.insert(k, k + 1);
        }
        assert_eq!(t.try_get(42), Ok(Some(43)));
        assert_eq!(t.try_range_collect(10..13), Ok(vec![(10, 11), (11, 12), (12, 13)]));
        // Injected read errors become typed errors, not panics.
        t.pager_mut()
            .set_fault_plan(pcube_storage::FaultPlan::seeded(9).with_read_errors(1.0));
        assert!(matches!(t.try_get(42), Err(StorageError::Io { .. })));
        assert!(t.try_range_collect(..).is_err());
        t.pager_mut().take_fault_plan();
        assert_eq!(t.try_get(42), Ok(Some(43)));
        // A page whose count field is garbage is Malformed, not a panic. The
        // root is pinned by now, so it is read back through a clone, whose
        // cache is cold.
        let root = t.parts().0;
        t.pager_mut().update(root, |p| node::set_count(p, 60_000));
        assert!(matches!(
            t.clone().try_get(42),
            Err(StorageError::Malformed { what: "node count exceeds page capacity", .. })
        ));
    }

    #[test]
    #[should_panic]
    fn bulk_load_rejects_unsorted() {
        let stats = IoStats::new_shared();
        let pager = Pager::new(4096, IoCategory::BptreePage, stats);
        let _ = BPlusTree::bulk_load(pager, [(2u64, 0u64), (1, 0)], 1.0);
    }
}
