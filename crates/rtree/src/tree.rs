//! The R-tree proper: construction, mutation (with path tracking) and node
//! access for the query processors.

use pcube_storage::{PageId, PageOp, Pager, StorageError};

use crate::geom::Mbr;
use crate::node::{self, DecodedEntry, DecodedNode, Layout, NodeView};
use crate::path::Path;
use crate::split::rstar_split;

/// Structural parameters of an R-tree.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Number of preference dimensions indexed.
    pub dims: usize,
    /// Maximum entries per node (`M` in the paper; also the signature
    /// bit-array length per node).
    pub m_max: usize,
    /// Minimum entries per node after a split (`m`).
    pub m_min: usize,
}

impl RTreeConfig {
    /// Derives the largest fanout that fits `page_size`, with the R* default
    /// minimum fill of 40 %.
    pub fn for_page(dims: usize, page_size: usize) -> Self {
        let m_max = Layout::max_capacity(dims, page_size);
        RTreeConfig { dims, m_max, m_min: (m_max * 2 / 5).max(1) }
    }

    /// Explicit fanout, e.g. the paper's worked example uses `m = 1, M = 2`.
    ///
    /// # Panics
    /// Panics unless `1 <= m_min <= m_max / 2` and `m_max >= 2`.
    pub fn explicit(dims: usize, m_min: usize, m_max: usize) -> Self {
        assert!(m_max >= 2, "M must be at least 2");
        assert!(m_min >= 1 && 2 * m_min <= m_max + 1, "need 1 <= m <= (M+1)/2");
        RTreeConfig { dims, m_max, m_min }
    }
}

/// Which tuple paths an insert or delete changed; the input to incremental
/// signature maintenance (§IV-B.3).
#[derive(Debug, Clone, Default)]
pub struct PathDelta {
    /// The newly inserted tuple and its path.
    pub inserted: Option<(u64, Path)>,
    /// The deleted tuple and the path it had.
    pub removed: Option<(u64, Path)>,
    /// Tuples relocated by node splits: `(tid, old path, new path)`.
    pub moved: Vec<(u64, Path, Path)>,
}

struct Step {
    pid: PageId,
    /// Slot of this node inside its parent (`usize::MAX` for the root).
    slot_in_parent: usize,
    /// Whether the node had no free slot when the descent visited it.
    full: bool,
}

/// A paged R-tree over points in `dims` dimensions. See the crate docs for
/// why slots are stable and how paths work.
///
/// `Clone` is a deep copy over a cloned pager (sharing the I/O ledger);
/// epoch snapshots in `pcube-core` use it to publish immutable copies.
#[derive(Clone)]
pub struct RTree {
    pager: Pager,
    layout: Layout,
    config: RTreeConfig,
    root: PageId,
    height: usize,
    len: u64,
}

impl RTree {
    /// Creates an empty tree (a single empty leaf as root).
    pub fn new(mut pager: Pager, config: RTreeConfig) -> Self {
        let layout = Layout::new(config.dims, config.m_max, pager.page_size());
        let root = pager.allocate();
        let mut page = vec![0u8; pager.page_size()];
        node::init_node(&mut page, true);
        pager.write(root, &page);
        RTree { pager, layout, config, root, height: 1, len: 0 }
    }

    /// Bulk loads with Sort-Tile-Recursive packing, filling each node to
    /// `fill · M` entries (use `1.0` for a read-mostly tree, lower to leave
    /// slack for subsequent inserts).
    ///
    /// # Panics
    /// Panics if `fill` is out of `(0, 1]` or any point has the wrong
    /// dimensionality.
    pub fn bulk_load(
        mut pager: Pager,
        config: RTreeConfig,
        items: Vec<(u64, Vec<f64>)>,
        fill: f64,
    ) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0,1]");
        let layout = Layout::new(config.dims, config.m_max, pager.page_size());
        let cap = ((config.m_max as f64 * fill) as usize).clamp(config.m_min.max(1), config.m_max);
        for (_, coords) in &items {
            assert_eq!(coords.len(), config.dims, "point dimensionality mismatch");
        }
        if items.is_empty() {
            return RTree::new(pager, config);
        }
        let len = items.len() as u64;

        // Pack the leaf level.
        let mut order: Vec<usize> = (0..items.len()).collect();
        str_order(&mut order, &|i, d| items[i].1[d], config.dims, cap);
        let mut level: Vec<(PageId, Mbr)> = Vec::new();
        let mut page = vec![0u8; pager.page_size()];
        for chunk in order.chunks(cap) {
            node::init_node(&mut page, true);
            let mut mbr = Mbr::empty(config.dims);
            for (slot, &i) in chunk.iter().enumerate() {
                node::write_leaf_entry(&mut page, &layout, slot, items[i].0, &items[i].1);
                mbr.expand_point(&items[i].1);
            }
            let pid = pager.allocate();
            pager.write(pid, &page);
            level.push((pid, mbr));
        }

        // Pack internal levels until a single root remains.
        let mut height = 1usize;
        while level.len() > 1 {
            height += 1;
            let centers: Vec<Vec<f64>> = level
                .iter()
                .map(|(_, m)| (0..config.dims).map(|d| (m.min[d] + m.max[d]) / 2.0).collect())
                .collect();
            let mut order: Vec<usize> = (0..level.len()).collect();
            str_order(&mut order, &|i, d| centers[i][d], config.dims, cap);
            let mut upper: Vec<(PageId, Mbr)> = Vec::new();
            for chunk in order.chunks(cap) {
                node::init_node(&mut page, false);
                let mut mbr = Mbr::empty(config.dims);
                for (slot, &i) in chunk.iter().enumerate() {
                    node::write_internal_entry(&mut page, &layout, slot, level[i].0, &level[i].1);
                    mbr.expand(&level[i].1);
                }
                let pid = pager.allocate();
                pager.write(pid, &page);
                upper.push((pid, mbr));
            }
            level = upper;
        }
        // invariant: the while-loop above only exits with level.len() == 1,
        // and the empty-input case returned earlier.
        let root = level[0].0;
        RTree { pager, layout, config, root, height, len }
    }

    /// Structural metadata needed to re-open the tree over a deserialized
    /// pager: `(root page, height, tuple count)`.
    pub fn parts(&self) -> (PageId, usize, u64) {
        (self.root, self.height, self.len)
    }

    /// Re-opens a tree over a pager that already holds its pages (the
    /// counterpart of [`RTree::parts`] after pager deserialization).
    pub fn from_parts(
        pager: Pager,
        config: RTreeConfig,
        root: PageId,
        height: usize,
        len: u64,
    ) -> Self {
        let layout = Layout::new(config.dims, config.m_max, pager.page_size());
        RTree { pager, layout, config, root, height, len }
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of preference dimensions.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Maximum entries per node — the `M` used for signature bit arrays and
    /// SID computation.
    pub fn m_max(&self) -> usize {
        self.config.m_max
    }

    /// Minimum entries per node after a split (`m`).
    pub fn m_min(&self) -> usize {
        self.config.m_min
    }

    /// The root node's page.
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// The pager holding this tree's nodes.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Mutable access to the backing pager — the hook chaos tests use to
    /// install fault plans or corrupt pages underneath the tree.
    pub fn pager_mut(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Reads and decodes a node, charging one R-tree block retrieval.
    ///
    /// Infallible [`RTree::try_read_node`]; panics where that errors.
    #[inline]
    pub fn read_node(&self, pid: PageId) -> DecodedNode {
        self.try_read_node(pid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`RTree::read_node`]: dead pages, injected faults and
    /// checksum mismatches surface as [`pcube_storage::StorageError`].
    pub fn try_read_node(&self, pid: PageId) -> Result<DecodedNode, pcube_storage::StorageError> {
        Ok(self.try_view_node(pid)?.decode())
    }

    /// Reads a node as a borrowed [`NodeView`] over its page, charging one
    /// R-tree block retrieval exactly like [`RTree::read_node`] but
    /// decoding nothing up front — the query kernel's expansion path.
    ///
    /// Infallible [`RTree::try_view_node`]; panics where that errors.
    #[inline]
    pub fn view_node(&self, pid: PageId) -> NodeView<'_> {
        self.try_view_node(pid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`RTree::view_node`].
    pub fn try_view_node(&self, pid: PageId) -> Result<NodeView<'_>, pcube_storage::StorageError> {
        Ok(NodeView::new(self.pager.try_read(pid)?, &self.layout))
    }

    /// Reads and decodes a node without charging I/O (for rebuild passes and
    /// invariant checks, not query processing).
    pub fn read_node_uncounted(&self, pid: PageId) -> DecodedNode {
        node::decode(self.page(pid), &self.layout)
    }

    /// A live page's bytes as memory holds them: uncounted, unfaulted,
    /// unverified.
    ///
    /// # Panics
    /// Panics if `pid` is not a live page.
    fn page(&self, pid: PageId) -> &[u8] {
        self.pager
            .page_bytes(pid)
            .unwrap_or_else(|| panic!("{}", StorageError::DeadPage { pid, op: PageOp::Read }))
    }

    /// Visits every tuple with its path, in depth-first slot order.
    ///
    /// Reads are uncounted: callers that want construction I/O measured
    /// (e.g. signature generation) account for it at their own layer via the
    /// number of nodes, available as [`RTree::count_nodes`].
    pub fn for_each_tuple(&self, mut f: impl FnMut(u64, &Path, &[f64])) {
        self.visit(self.root, &mut Path::root(), &mut f);
    }

    /// Walks the subtree at `pid` depth-first in slot order, calling `f` on
    /// every tuple, and returns the number of nodes it read. `path` is the
    /// walk's one buffer: the path of the node `pid` on entry and on return,
    /// each entry's in between.
    fn visit(&self, pid: PageId, path: &mut Path, f: &mut impl FnMut(u64, &Path, &[f64])) -> usize {
        let n = self.read_node_uncounted(pid);
        let mut nodes = 1;
        for (slot, entry) in &n.entries {
            path.0.push(*slot as u16 + 1);
            match entry {
                DecodedEntry::Tuple { tid, coords } => f(*tid, path, coords),
                DecodedEntry::Child { child, .. } => nodes += self.visit(*child, path, f),
            }
            path.0.pop();
        }
        nodes
    }

    /// All `(tid, path)` pairs — the paper's `path` column of Table I.
    pub fn tuple_paths(&self) -> Vec<(u64, Path)> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each_tuple(|tid, path, _| out.push((tid, path.clone())));
        out
    }

    /// Appends the `(tid, path)` pairs of the subtree at `pid`, whose own
    /// path is `prefix`, to `out`.
    fn paths_under(&self, pid: PageId, prefix: &Path, out: &mut Vec<(u64, Path)>) {
        self.visit(pid, &mut prefix.clone(), &mut |tid, path, _| out.push((tid, path.clone())));
    }

    /// Total number of nodes (counted without charging I/O).
    pub fn count_nodes(&self) -> usize {
        self.visit(self.root, &mut Path::root(), &mut |_, _, _| {})
    }

    /// Inserts a tuple without path tracking.
    pub fn insert(&mut self, tid: u64, coords: &[f64]) {
        let _ = self.insert_inner(tid, coords, false);
    }

    /// Inserts a tuple and reports every path change, for signature
    /// maintenance. In the common non-split case the delta contains only the
    /// inserted path; when nodes split, the affected subtree is traversed
    /// before and after (the paper's method) to produce old → new pairs.
    pub fn insert_tracked(&mut self, tid: u64, coords: &[f64]) -> PathDelta {
        self.insert_inner(tid, coords, true)
    }

    fn insert_inner(&mut self, tid: u64, coords: &[f64], tracked: bool) -> PathDelta {
        assert_eq!(coords.len(), self.config.dims, "point dimensionality mismatch");
        let steps = self.choose_path(coords);
        // invariant: choose_path walks root→leaf over height ≥ 1 levels, so
        // it always returns at least the root step.
        let leaf = steps.last().expect("descent reaches a leaf");
        let leaf_page = self.pager.read(leaf.pid).to_vec();

        if let Some(slot) = node::first_free_slot(&leaf_page, &self.layout) {
            // Simple case: "only the path of the newly inserted tuple is
            // updated, and those for other tuples keep the same."
            let mut page = leaf_page;
            node::write_leaf_entry(&mut page, &self.layout, slot, tid, coords);
            self.pager.write(leaf.pid, &page);
            self.fix_mbrs_along(&steps);
            self.len += 1;
            let path = Self::steps_to_path(&steps).child(slot as u16 + 1);
            return PathDelta { inserted: Some((tid, path)), ..Default::default() };
        }

        // Split cascade. `j` = index of the highest node that must split
        // (all of steps[j..] are full).
        let mut j = steps.len();
        while j > 0 && steps[j - 1].full {
            j -= 1;
        }

        // Collect old paths under the subtree that will be restructured.
        let (old_paths, scope_prefix, scope_pid) = if !tracked {
            (Vec::new(), Path::root(), self.root)
        } else if j == 0 {
            // Root splits: every path gains a level; diff the whole tree.
            (self.tuple_paths(), Path::root(), self.root)
        } else {
            let prefix = Self::steps_to_path(&steps[..=j]);
            let pid = steps[j].pid;
            let mut old = Vec::new();
            self.paths_under(pid, &prefix, &mut old);
            (old, prefix, pid)
        };

        let top_new = self.split_cascade(&steps, j, DecodedEntry::Tuple { tid, coords: coords.to_vec() });
        self.len += 1;

        if !tracked {
            return PathDelta::default();
        }

        // Collect new paths over the same scope plus the new sibling subtree.
        let mut new_paths = Vec::new();
        if j == 0 {
            self.paths_under(self.root, &Path::root(), &mut new_paths);
        } else {
            self.paths_under(scope_pid, &scope_prefix, &mut new_paths);
            // invariant: j > 0 means the split cascade stopped below the
            // root, and every non-root cascade level produced a sibling that
            // split_cascade recorded as top_new.
            let (y_pid, y_slot) = top_new.expect("non-root cascade yields a new sibling");
            let y_prefix = Self::steps_to_path(&steps[..j]).child(y_slot as u16 + 1);
            self.paths_under(y_pid, &y_prefix, &mut new_paths);
        }

        let old_map: std::collections::HashMap<u64, Path> = old_paths.into_iter().collect();
        let mut delta = PathDelta::default();
        for (t, new_path) in new_paths {
            match old_map.get(&t) {
                None => {
                    debug_assert_eq!(t, tid, "only the inserted tuple can be new in scope");
                    delta.inserted = Some((t, new_path));
                }
                Some(old) if *old != new_path => delta.moved.push((t, old.clone(), new_path)),
                Some(_) => {}
            }
        }
        debug_assert!(delta.inserted.is_some());
        delta
    }

    /// Runs the split cascade from the leaf (last step) up to `steps[j]`,
    /// inserting `carry` at the bottom. Returns the page and parent slot of
    /// the top-most new sibling, or `None` if the root split.
    fn split_cascade(
        &mut self,
        steps: &[Step],
        j: usize,
        carry: DecodedEntry,
    ) -> Option<(PageId, usize)> {
        let mut carry = carry;
        let mut level = steps.len() - 1;
        loop {
            let x_pid = steps[level].pid;
            let x_page = self.pager.read(x_pid).to_vec();
            let decoded = node::decode(&x_page, &self.layout);
            let is_leaf = decoded.is_leaf;

            // All current entries plus the carried one.
            let mut slots: Vec<Option<usize>> = decoded.entries.iter().map(|(s, _)| Some(*s)).collect();
            let mut entries: Vec<DecodedEntry> =
                decoded.entries.into_iter().map(|(_, e)| e).collect();
            slots.push(None);
            entries.push(carry.clone());

            let (ga, gb) = rstar_split(&entries, self.config.dims, self.config.m_min);
            // The group with more original entries stays in place, so fewer
            // tuples change paths.
            let orig = |g: &[usize]| g.iter().filter(|&&i| slots[i].is_some()).count();
            let (stay, go) = if orig(&ga) >= orig(&gb) { (ga, gb) } else { (gb, ga) };

            // Rewrite X: clear moved slots, keep staying slots, place the
            // carry (if staying) into the first freed slot.
            let mut page = x_page;
            for &i in &go {
                if let Some(s) = slots[i] {
                    node::set_occupied(&mut page, s, false);
                }
            }
            if let Some(ci) = stay.iter().find(|&&i| slots[i].is_none()) {
                // invariant: the moving group is non-empty (m_min ≤ |move|),
                // and its slots were just vacated above, so at least one
                // free slot exists for the staying entry.
                let free = node::first_free_slot(&page, &self.layout)
                    .expect("split must free at least one slot");
                Self::write_entry(&mut page, &self.layout, free, &entries[*ci]);
            }
            self.pager.write(x_pid, &page);
            let x_mbr = node::decode(&page, &self.layout).mbr(self.config.dims);

            // Build the sibling Y with the moving group in fresh slots.
            let mut y_page = vec![0u8; self.pager.page_size()];
            node::init_node(&mut y_page, is_leaf);
            for (slot, &i) in go.iter().enumerate() {
                Self::write_entry(&mut y_page, &self.layout, slot, &entries[i]);
            }
            let y_pid = self.pager.allocate();
            self.pager.write(y_pid, &y_page);
            let y_mbr = node::decode(&y_page, &self.layout).mbr(self.config.dims);

            if level == 0 {
                // Root split: new root with X in slot 0 and Y in slot 1.
                let mut r_page = vec![0u8; self.pager.page_size()];
                node::init_node(&mut r_page, false);
                node::write_internal_entry(&mut r_page, &self.layout, 0, x_pid, &x_mbr);
                node::write_internal_entry(&mut r_page, &self.layout, 1, y_pid, &y_mbr);
                let new_root = self.pager.allocate();
                self.pager.write(new_root, &r_page);
                self.root = new_root;
                self.height += 1;
                return None;
            }

            // Update X's MBR in the parent; then place or carry Y.
            let parent_pid = steps[level - 1].pid;
            let x_slot = steps[level].slot_in_parent;
            let placed = self.pager.update(parent_pid, |p| {
                node::write_internal_entry(p, &self.layout, x_slot, x_pid, &x_mbr);
                if let Some(free) = node::first_free_slot(p, &self.layout) {
                    node::write_internal_entry(p, &self.layout, free, y_pid, &y_mbr);
                    Some(free)
                } else {
                    None
                }
            });
            match placed {
                Some(free) => {
                    debug_assert!(level > j.saturating_sub(1));
                    self.fix_mbrs_along(&steps[..level]);
                    return Some((y_pid, free));
                }
                None => {
                    debug_assert!(level > j, "cascade must stop at the non-full ancestor");
                    carry = DecodedEntry::Child { child: y_pid, mbr: y_mbr };
                    level -= 1;
                }
            }
        }
    }

    fn write_entry(page: &mut [u8], layout: &Layout, slot: usize, entry: &DecodedEntry) {
        match entry {
            DecodedEntry::Tuple { tid, coords } => {
                node::write_leaf_entry(page, layout, slot, *tid, coords)
            }
            DecodedEntry::Child { child, mbr } => {
                node::write_internal_entry(page, layout, slot, *child, mbr)
            }
        }
    }

    /// Deletes a tuple (located by its coordinates and tid). Returns the path
    /// it occupied, or `None` if absent. Stable slots mean no other tuple
    /// moves; an emptied node is unlinked from its parent recursively.
    pub fn delete_tracked(&mut self, tid: u64, coords: &[f64]) -> Option<Path> {
        let found = self.find_tuple(self.root, &Path::root(), tid, coords)?;
        let (leaf_steps, path) = found;
        // Clear the leaf slot.
        // invariant: find_tuple returned Some, so the path has one component
        // per level (≥ 1) and leaf_steps ends with the leaf's page id.
        let leaf_slot = *path.0.last().expect("path has one component per level") as usize - 1;
        let leaf_pid = *leaf_steps.last().expect("leaf_steps ends with the leaf's page id");
        self.pager.update(leaf_pid, |p| node::set_occupied(p, leaf_slot, false));
        // Unlink emptied nodes bottom-up (never the root).
        let mut freed = std::collections::HashSet::new();
        for i in (1..leaf_steps.len()).rev() {
            let pid = leaf_steps[i];
            let n = node::count_occupied(self.page(pid), &self.layout);
            if n > 0 {
                break;
            }
            let parent = leaf_steps[i - 1];
            let slot = path.0[i - 1] as usize - 1;
            self.pager.update(parent, |p| node::set_occupied(p, slot, false));
            self.pager.free(pid);
            freed.insert(pid);
        }
        // Recompute ancestor MBRs for the surviving nodes on the path.
        for i in (1..leaf_steps.len()).rev() {
            let child_pid = leaf_steps[i];
            if freed.contains(&child_pid) {
                continue;
            }
            let mbr =
                node::decode(self.page(child_pid), &self.layout).mbr(self.config.dims);
            let slot = path.0[i - 1] as usize - 1;
            self.pager.update(leaf_steps[i - 1], |p| {
                node::write_internal_entry(p, &self.layout, slot, child_pid, &mbr);
            });
        }
        self.len -= 1;
        // Single-child internal roots are deliberately NOT collapsed: doing
        // so would change every remaining tuple's path, defeating the point
        // of tracked deletion. Only a fully emptied tree resets to a fresh
        // leaf root (there are no paths left to invalidate).
        if self.len == 0 {
            let mut page = vec![0u8; self.pager.page_size()];
            node::init_node(&mut page, true);
            self.pager.write(self.root, &page);
            self.height = 1;
        }
        Some(path)
    }

    /// Deletes without reporting the path.
    pub fn delete(&mut self, tid: u64, coords: &[f64]) -> bool {
        self.delete_tracked(tid, coords).is_some()
    }

    fn find_tuple(
        &self,
        pid: PageId,
        prefix: &Path,
        tid: u64,
        coords: &[f64],
    ) -> Option<(Vec<PageId>, Path)> {
        let n = self.read_node_uncounted(pid);
        for (slot, entry) in &n.entries {
            match entry {
                DecodedEntry::Tuple { tid: t, coords: c } if *t == tid && c == coords => {
                    return Some((vec![pid], prefix.child(*slot as u16 + 1)));
                }
                DecodedEntry::Child { child, mbr } if mbr.contains_point(coords) => {
                    if let Some((mut pids, path)) =
                        self.find_tuple(*child, &prefix.child(*slot as u16 + 1), tid, coords)
                    {
                        pids.insert(0, pid);
                        return Some((pids, path));
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// R* choose-subtree descent; records pid, parent slot and fullness per
    /// level.
    fn choose_path(&self, coords: &[f64]) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.height);
        let mut pid = self.root;
        let mut slot_in_parent = usize::MAX;
        loop {
            let page = self.pager.read(pid);
            let full = node::first_free_slot(page, &self.layout).is_none();
            let decoded = node::decode(page, &self.layout);
            steps.push(Step { pid, slot_in_parent, full });
            if decoded.is_leaf {
                return steps;
            }
            let children_are_leaves = steps.len() == self.height - 1;
            let point = Mbr::point(coords);
            let mut best: Option<(usize, PageId, f64, f64, f64)> = None;
            for (slot, entry) in &decoded.entries {
                // invariant: this loop only runs above the leaf level
                // (steps.len() < height), where every entry is a child ref.
                let DecodedEntry::Child { child, mbr } = entry else { unreachable!() };
                // R*: minimize overlap enlargement at the leaf level, area
                // enlargement above; ties by area enlargement then area.
                let overlap_delta = if children_are_leaves {
                    let grown = mbr.union(&point);
                    decoded
                        .entries
                        .iter()
                        .filter(|(s, _)| s != slot)
                        .map(|(_, e)| {
                            let other = e.mbr();
                            grown.overlap(&other) - mbr.overlap(&other)
                        })
                        .sum::<f64>()
                } else {
                    0.0
                };
                let enlargement = mbr.enlargement(&point);
                let area = mbr.area();
                let better = match &best {
                    None => true,
                    Some((_, _, bo, be, ba)) => {
                        (overlap_delta, enlargement, area) < (*bo, *be, *ba)
                    }
                };
                if better {
                    best = Some((*slot, *child, overlap_delta, enlargement, area));
                }
            }
            // invariant: tree invariants guarantee every internal node holds
            // ≥ 1 entry (checked by check_invariants), so `best` was set.
            let (slot, child, ..) = best.expect("internal node has at least one child");
            pid = child;
            slot_in_parent = slot;
        }
    }

    /// Recomputes tight MBRs for the nodes on `steps`, bottom-up, writing
    /// each into its parent entry.
    fn fix_mbrs_along(&mut self, steps: &[Step]) {
        for i in (1..steps.len()).rev() {
            let child_pid = steps[i].pid;
            // Skip nodes that were freed by a delete.
            let mbr = {
                let page = self.page(steps[i - 1].pid);
                if !node::occupied(page, steps[i].slot_in_parent) {
                    continue;
                }
                node::decode(self.page(child_pid), &self.layout)
                    .mbr(self.config.dims)
            };
            let slot = steps[i].slot_in_parent;
            self.pager.update(steps[i - 1].pid, |p| {
                node::write_internal_entry(p, &self.layout, slot, child_pid, &mbr);
            });
        }
    }

    fn steps_to_path(steps: &[Step]) -> Path {
        // invariant: callers pass the full descent including the root step,
        // so steps is non-empty and `steps[1..]` cannot be out of bounds.
        Path(steps[1..].iter().map(|s| s.slot_in_parent as u16 + 1).collect())
    }

    /// Exhaustively checks structural invariants; for tests and debugging.
    ///
    /// Verifies: parent MBRs tightly contain children, node occupancy within
    /// `[m_min, m_max]` (root exempt from the minimum), uniform leaf depth,
    /// unique tids, and `len` consistency.
    pub fn check_invariants(&self) {
        let mut tids = std::collections::HashSet::new();
        let mut leaf_depths = std::collections::HashSet::new();
        self.check_node(self.root, 0, true, &mut tids, &mut leaf_depths);
        assert_eq!(tids.len() as u64, self.len, "len mismatch");
        assert!(leaf_depths.len() <= 1, "leaves at different depths: {leaf_depths:?}");
        if let Some(&d) = leaf_depths.iter().next() {
            assert_eq!(d + 1, self.height, "height mismatch");
        }
    }

    fn check_node(
        &self,
        pid: PageId,
        depth: usize,
        is_root: bool,
        tids: &mut std::collections::HashSet<u64>,
        leaf_depths: &mut std::collections::HashSet<usize>,
    ) -> Mbr {
        let n = self.read_node_uncounted(pid);
        let count = n.entries.len();
        assert!(count <= self.config.m_max, "node {pid} over capacity");
        if !is_root && !n.is_leaf {
            // Internal nodes get entries only via splits, so the R* minimum
            // holds; leaves may underflow after deletes (relaxed deletion).
            assert!(count >= 1, "non-root internal node {pid} is empty");
        }
        if n.is_leaf {
            leaf_depths.insert(depth);
        }
        let mut mbr = Mbr::empty(self.config.dims);
        for (_, entry) in &n.entries {
            match entry {
                DecodedEntry::Tuple { tid, coords } => {
                    assert!(tids.insert(*tid), "duplicate tid {tid}");
                    mbr.expand_point(coords);
                }
                DecodedEntry::Child { child, mbr: stored } => {
                    let actual = self.check_node(*child, depth + 1, false, tids, leaf_depths);
                    assert!(
                        stored.contains(&actual),
                        "parent MBR {stored:?} does not contain child {actual:?}"
                    );
                    mbr.expand(stored);
                }
            }
        }
        mbr
    }
}

/// Orders `idx` by Sort-Tile-Recursive tiling so that consecutive runs of
/// `cap` indices form spatially coherent nodes.
fn str_order(idx: &mut [usize], coord: &dyn Fn(usize, usize) -> f64, dims: usize, cap: usize) {
    fn rec(idx: &mut [usize], coord: &dyn Fn(usize, usize) -> f64, d: usize, dims: usize, cap: usize) {
        // total_cmp keeps the sort total even if NaN coordinates sneak in
        // (they would previously collapse to Equal and scramble the order).
        idx.sort_by(|&a, &b| coord(a, d).total_cmp(&coord(b, d)));
        if d + 1 == dims {
            return;
        }
        let n = idx.len();
        let n_nodes = n.div_ceil(cap);
        let remaining = dims - d;
        let slabs = (n_nodes as f64).powf(1.0 / remaining as f64).ceil() as usize;
        let slab_len = n.div_ceil(slabs.max(1));
        if slab_len == 0 || slab_len >= n {
            rec(idx, coord, d + 1, dims, cap);
            return;
        }
        let mut start = 0;
        while start < n {
            let end = (start + slab_len).min(n);
            rec(&mut idx[start..end], coord, d + 1, dims, cap);
            start = end;
        }
    }
    rec(idx, coord, 0, dims, cap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_storage::{IoCategory, IoStats, SharedStats};
    use std::collections::HashMap;

    fn pager(page_size: usize) -> (Pager, SharedStats) {
        let stats = IoStats::new_shared();
        (Pager::new(page_size, IoCategory::RtreeBlock, stats.clone()), stats)
    }

    fn grid_points(n: usize) -> Vec<(u64, Vec<f64>)> {
        // Deterministic scattered points via a Weyl-like sequence.
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.754_877_666) % 1.0;
                let y = (i as f64 * 0.569_840_290) % 1.0;
                (i as u64, vec![x, y])
            })
            .collect()
    }

    #[test]
    fn paper_sample_database_tree_shape() {
        // Table I / Fig 1: 8 tuples, m = 1, M = 2 — three levels, and the
        // paths must be exactly the paper's `path` column when bulk-loaded
        // in the paper's layout.
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 1, 2);
        let pts: Vec<(u64, Vec<f64>)> = vec![
            (1, vec![0.00, 0.40]),
            (2, vec![0.20, 0.60]),
            (3, vec![0.30, 0.70]),
            (4, vec![0.50, 0.40]),
            (5, vec![0.60, 0.00]),
            (6, vec![0.72, 0.30]),
            (7, vec![0.72, 0.36]),
            (8, vec![0.85, 0.62]),
        ];
        let tree = RTree::bulk_load(p, cfg, pts, 1.0);
        tree.check_invariants();
        assert_eq!(tree.len(), 8);
        assert_eq!(tree.height(), 3);
        let paths: HashMap<u64, Path> = tree.tuple_paths().into_iter().collect();
        // Every tuple has a depth-3 path with positions in 1..=2.
        for tid in 1..=8u64 {
            let p = &paths[&tid];
            assert_eq!(p.depth(), 3, "tid {tid} path {p}");
            assert!(p.0.iter().all(|&x| (1..=2).contains(&x)));
        }
        // All eight paths are distinct (a full binary tree of depth 3).
        let unique: std::collections::HashSet<_> = paths.values().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn bulk_load_then_check_invariants_various_sizes() {
        for n in [0usize, 1, 5, 50, 500] {
            let (p, _) = pager(512);
            let cfg = RTreeConfig::for_page(2, 512);
            let tree = RTree::bulk_load(p, cfg, grid_points(n), 1.0);
            tree.check_invariants();
            assert_eq!(tree.len(), n as u64);
            assert_eq!(tree.tuple_paths().len(), n);
        }
    }

    #[test]
    fn insert_one_by_one_matches_bulk_contents() {
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 2, 5);
        let mut tree = RTree::new(p, cfg);
        let pts = grid_points(300);
        for (tid, coords) in &pts {
            tree.insert(*tid, coords);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 300);
        let mut seen: Vec<u64> = Vec::new();
        tree.for_each_tuple(|tid, path, coords| {
            seen.push(tid);
            assert_eq!(coords, &pts[tid as usize].1[..]);
            assert!(path.depth() >= 1);
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn tracked_insert_without_split_reports_only_new_path() {
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 1, 4);
        let mut tree = RTree::new(p, cfg);
        let delta = tree.insert_tracked(7, &[0.5, 0.5]);
        assert!(delta.moved.is_empty());
        let (tid, path) = delta.inserted.unwrap();
        assert_eq!(tid, 7);
        assert_eq!(path, Path(vec![1]));
        // Second insert into the same leaf takes the next free slot.
        let delta = tree.insert_tracked(8, &[0.6, 0.6]);
        assert!(delta.moved.is_empty());
        assert_eq!(delta.inserted.unwrap().1, Path(vec![2]));
    }

    #[test]
    fn tracked_insert_deltas_always_match_full_diff() {
        // The gold standard: replay inserts, comparing the reported delta
        // with a brute-force before/after diff of all tuple paths.
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 1, 3);
        let mut tree = RTree::new(p, cfg);
        let pts = grid_points(120);
        for (tid, coords) in &pts {
            let before: HashMap<u64, Path> = tree.tuple_paths().into_iter().collect();
            let delta = tree.insert_tracked(*tid, coords);
            let after: HashMap<u64, Path> = tree.tuple_paths().into_iter().collect();
            tree.check_invariants();

            // Reported insert matches reality.
            let (itid, ipath) = delta.inserted.clone().unwrap();
            assert_eq!(itid, *tid);
            assert_eq!(after[&itid], ipath);

            // Reported moves match the diff exactly.
            let mut expected_moves: Vec<(u64, Path, Path)> = before
                .iter()
                .filter(|(t, old)| after[t] != **old)
                .map(|(t, old)| (*t, old.clone(), after[t].clone()))
                .collect();
            expected_moves.sort_by_key(|(t, _, _)| *t);
            let mut got = delta.moved.clone();
            got.sort_by_key(|(t, _, _)| *t);
            assert_eq!(got, expected_moves, "delta mismatch at tid {tid}");
        }
    }

    #[test]
    fn delete_returns_path_and_leaves_others_in_place() {
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 1, 3);
        let mut tree = RTree::new(p, cfg);
        let pts = grid_points(60);
        for (tid, coords) in &pts {
            tree.insert(*tid, coords);
        }
        let before: HashMap<u64, Path> = tree.tuple_paths().into_iter().collect();
        let victim = 31u64;
        let path = tree.delete_tracked(victim, &pts[victim as usize].1).unwrap();
        assert_eq!(path, before[&victim]);
        assert_eq!(tree.len(), 59);
        tree.check_invariants();
        let after: HashMap<u64, Path> = tree.tuple_paths().into_iter().collect();
        assert!(!after.contains_key(&victim));
        for (t, p) in &after {
            assert_eq!(p, &before[t], "stable slots: tid {t} must not move on delete");
        }
        // Deleting again fails cleanly.
        assert!(!tree.delete(victim, &pts[victim as usize].1));
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let (p, _) = pager(512);
        let cfg = RTreeConfig::explicit(2, 1, 3);
        let mut tree = RTree::new(p, cfg);
        let pts = grid_points(40);
        for (tid, coords) in &pts {
            tree.insert(*tid, coords);
        }
        for (tid, coords) in &pts {
            assert!(tree.delete(*tid, coords), "tid {tid}");
        }
        assert!(tree.is_empty());
        for (tid, coords) in &pts {
            tree.insert(*tid, coords);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 40);
    }

    #[test]
    fn node_reads_are_counted() {
        let (p, stats) = pager(512);
        let cfg = RTreeConfig::for_page(2, 512);
        let tree = RTree::bulk_load(p, cfg, grid_points(200), 1.0);
        stats.reset();
        let _ = tree.read_node(tree.root_pid());
        assert_eq!(stats.reads(IoCategory::RtreeBlock), 1);
        let _ = tree.read_node_uncounted(tree.root_pid());
        assert_eq!(stats.reads(IoCategory::RtreeBlock), 1);
    }

    #[test]
    fn bulk_load_fill_factor_leaves_slack() {
        let (p, _) = pager(4096);
        let cfg = RTreeConfig::for_page(2, 4096);
        let full = RTree::bulk_load(p, cfg, grid_points(5000), 1.0);
        let (p2, _) = pager(4096);
        let half = RTree::bulk_load(p2, cfg, grid_points(5000), 0.5);
        assert!(half.count_nodes() > full.count_nodes());
        half.check_invariants();
        full.check_invariants();
    }

    #[test]
    fn three_dims_work() {
        let (p, _) = pager(512);
        let cfg = RTreeConfig::for_page(3, 512);
        let pts: Vec<(u64, Vec<f64>)> = (0..200)
            .map(|i| {
                let f = i as f64;
                (i as u64, vec![(f * 0.17) % 1.0, (f * 0.29) % 1.0, (f * 0.41) % 1.0])
            })
            .collect();
        let mut tree = RTree::bulk_load(p, cfg, pts.clone(), 0.8);
        for i in 200..260u64 {
            let f = i as f64;
            tree.insert(i, &[(f * 0.17) % 1.0, (f * 0.29) % 1.0, (f * 0.41) % 1.0]);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 260);
    }
}
