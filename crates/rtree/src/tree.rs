//! The R-tree proper: construction, mutation (with path tracking) and node
//! access for the query processors.

use std::collections::{HashMap, HashSet};

use pcube_storage::{PageId, PageOp, Pager, StorageError};

use crate::geom::Mbr;
use crate::node::{self, DecodedEntry, Layout, NodeView};
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

/// One node of a root-to-leaf descent.
#[derive(Clone, Copy)]
struct Step {
    pid: PageId,
    /// Slot of this node inside its parent (`usize::MAX` for the root).
    slot_in_parent: usize,
}

/// What [`RTree::walk`] shows its visitor, in depth-first slot order.
enum Visit<'w> {
    /// A node on arrival, with its depth below the node the walk started
    /// at (0 for that node). The visitor's answer is ignored.
    Node(PageId, NodeView<'w>, usize),
    /// A child entry with the box its parent stores for it, before the walk
    /// descends: the visitor answers whether to descend.
    Child(PageId, &'w Mbr),
    /// A tuple with its path and coordinates: the visitor answers whether
    /// the walk goes on.
    Tuple(u64, &'w Path, &'w [f64]),
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
    /// `fill · M` entries; a lower fill leaves slack for subsequent inserts.
    /// A fuller tree has fewer nodes to read but may take another height,
    /// which moves every cost that depends on the level structure (a
    /// P-Cube's signature partials restart at a level of this tree). A
    /// flatten-and-call of [`RTree::bulk_load_points`].
    ///
    /// # Panics
    /// Panics if `fill` is out of `(0, 1]`, or any point has the wrong
    /// dimensionality or a coordinate that is not finite.
    pub fn bulk_load(
        pager: Pager,
        config: RTreeConfig,
        items: Vec<(u64, Vec<f64>)>,
        fill: f64,
    ) -> Self {
        let mut tids = Vec::with_capacity(items.len());
        let mut coords = Vec::with_capacity(items.len() * config.dims);
        for (tid, point) in &items {
            assert_point(point, config.dims);
            tids.push(*tid);
            coords.extend_from_slice(point);
        }
        RTree::bulk_load_points(pager, config, &tids, &coords, fill)
    }

    /// [`RTree::bulk_load`] over one flat point set: tuple `tids[i]` at
    /// `coords[i * dims..][..dims]`. Leaves are packed in [`str_order`],
    /// and each upper level in the STR order of its children's centres.
    ///
    /// # Panics
    /// Panics if `fill` is out of `(0, 1]`, `coords` does not hold `dims`
    /// coordinates per tid, a coordinate is not finite, or there are more
    /// than `u32::MAX` points.
    pub fn bulk_load_points(
        mut pager: Pager,
        config: RTreeConfig,
        tids: &[u64],
        coords: &[f64],
        fill: f64,
    ) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0,1]");
        let dims = config.dims;
        assert_eq!(coords.len(), tids.len() * dims, "point dimensionality mismatch");
        if let Some(at) = coords.iter().position(|c| !c.is_finite()) {
            panic!("non-finite coordinate {} in point {}", coords[at], at / dims);
        }
        if tids.is_empty() {
            return RTree::new(pager, config);
        }
        let layout = Layout::new(dims, config.m_max, pager.page_size());
        let cap = ((config.m_max as f64 * fill) as usize).clamp(config.m_min.max(1), config.m_max);

        // Pack the leaf level.
        let mut level: Vec<(PageId, Mbr)> = Vec::new();
        let mut page = vec![0u8; pager.page_size()];
        for chunk in str_order(coords, dims, cap).chunks(cap) {
            node::init_node(&mut page, true);
            let mut mbr = Mbr::empty(dims);
            for (slot, &i) in chunk.iter().enumerate() {
                let point = &coords[i as usize * dims..][..dims];
                node::write_leaf_entry(&mut page, &layout, slot, tids[i as usize], point);
                mbr.expand_point(point);
            }
            let pid = pager.allocate();
            pager.write(pid, &page);
            level.push((pid, mbr));
        }

        // Pack internal levels until a single root remains.
        let mut height = 1usize;
        while level.len() > 1 {
            height += 1;
            let centers: Vec<f64> = level
                .iter()
                .flat_map(|(_, m)| (0..dims).map(|d| (m.min[d] + m.max[d]) / 2.0))
                .collect();
            let mut upper: Vec<(PageId, Mbr)> = Vec::new();
            for chunk in str_order(&centers, dims, cap).chunks(cap) {
                node::init_node(&mut page, false);
                let mut mbr = Mbr::empty(dims);
                for (slot, &i) in chunk.iter().enumerate() {
                    let (child, child_mbr) = &level[i as usize];
                    node::write_internal_entry(&mut page, &layout, slot, *child, child_mbr);
                    mbr.expand(child_mbr);
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
        RTree { pager, layout, config, root, height, len: tids.len() as u64 }
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

    /// Reads a node, charging one R-tree block retrieval: a borrowed
    /// [`NodeView`] over its page, parsed in place as it is asked.
    ///
    /// Infallible [`RTree::try_read_node`]; panics where that errors.
    #[inline]
    pub fn read_node(&self, pid: PageId) -> NodeView<'_> {
        self.try_read_node(pid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`RTree::read_node`]: dead pages, injected faults and
    /// checksum mismatches surface as [`pcube_storage::StorageError`].
    pub fn try_read_node(&self, pid: PageId) -> Result<NodeView<'_>, StorageError> {
        Ok(NodeView::new(self.pager.try_read(pid)?, &self.layout))
    }

    /// The tight box around every indexed tuple, read from the root as
    /// memory holds it — uncounted; `None` for an empty tree.
    pub fn bounds(&self) -> Option<Mbr> {
        (!self.is_empty()).then(|| self.view(self.root).mbr())
    }

    /// A live node as memory holds it: uncounted, unfaulted, unverified.
    ///
    /// # Panics
    /// Panics if `pid` is not a live page.
    fn view(&self, pid: PageId) -> NodeView<'_> {
        match self.pager.page_bytes(pid) {
            Some(page) => NodeView::new(page, &self.layout),
            None => panic!("{}", StorageError::DeadPage { pid, op: PageOp::Read }),
        }
    }

    /// The tree's one walk: depth-first from `from`, children in slot order,
    /// pages read uncounted. The stack holds one frame per level and may not
    /// grow past the height: pages that form a cycle panic here instead of
    /// walking forever. `path` is the walk's one buffer: the
    /// path of `from` on entry and on return, each entry's in between.
    ///
    /// Returns the descent from `from` to the tuple at which the visitor
    /// ended the walk, `path` left at that tuple's path; `None` if the walk
    /// ran to its end.
    fn walk(
        &self,
        from: PageId,
        path: &mut Path,
        mut visit: impl FnMut(Visit<'_>) -> bool,
    ) -> Option<Vec<Step>> {
        let (mut coords, mut mbr) = (Vec::new(), Mbr::empty(self.config.dims));
        let start = self.view(from);
        visit(Visit::Node(from, start, 0));
        let root = Step { pid: from, slot_in_parent: usize::MAX };
        let mut stack = vec![(root, start, start.slots())];
        while let Some((_, node, slots)) = stack.last_mut() {
            let node = *node;
            let Some(slot) = slots.next() else {
                stack.pop();
                if !stack.is_empty() {
                    path.0.pop();
                }
                continue;
            };
            path.0.push(slot as u16 + 1);
            if node.is_leaf() {
                node.coords_into(slot, &mut coords);
                if !visit(Visit::Tuple(node.tid(slot), path, &coords)) {
                    return Some(stack.iter().map(|(step, ..)| *step).collect());
                }
            } else {
                let child = node.child(slot);
                node.mbr_into(slot, &mut mbr);
                if visit(Visit::Child(child, &mbr)) {
                    // Only a cycle among the pages, or a height that lies,
                    // takes the walk below the leaves.
                    assert!(stack.len() < self.height, "node {child} lies below the leaf level");
                    let view = self.view(child);
                    visit(Visit::Node(child, view, stack.len()));
                    stack.push((Step { pid: child, slot_in_parent: slot }, view, view.slots()));
                    continue;
                }
            }
            path.0.pop();
        }
        None
    }

    /// Visits every tuple with its path, in depth-first slot order.
    ///
    /// Reads are uncounted: callers that want construction I/O measured
    /// (e.g. signature generation) account for it at their own layer via the
    /// number of nodes, available as [`RTree::count_nodes`].
    pub fn for_each_tuple(&self, mut f: impl FnMut(u64, &Path, &[f64])) {
        self.walk(self.root, &mut Path::root(), |visit| {
            if let Visit::Tuple(tid, path, coords) = visit {
                f(tid, path, coords);
            }
            true
        });
    }

    /// All `(tid, path)` pairs — the paper's `path` column of Table I.
    pub fn tuple_paths(&self) -> Vec<(u64, Path)> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each_tuple(|tid, path, _| out.push((tid, path.clone())));
        out
    }

    /// Total number of nodes (counted without charging I/O).
    pub fn count_nodes(&self) -> usize {
        let mut nodes = 0;
        self.walk(self.root, &mut Path::root(), |visit| {
            nodes += usize::from(matches!(visit, Visit::Node(..)));
            true
        });
        nodes
    }

    /// Inserts a tuple without path tracking.
    ///
    /// # Panics
    /// Panics if the point has the wrong dimensionality or a coordinate that
    /// is not finite (an R-tree box cannot hold a NaN, so the tuple could
    /// never be found again).
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
        assert_point(coords, self.config.dims);
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
        let full = |step: &&Step| self.view(step.pid).slots().count() == self.config.m_max;
        let j = steps.len() - steps.iter().rev().take_while(full).count();

        // The scope the cascade restructures: the subtree at steps[j], or the
        // whole tree when the root splits (every path gains a level). Its
        // paths are taken before the cascade and diffed after it.
        let (scope_pid, scope_path) = if j == 0 {
            (self.root, Path::root())
        } else {
            (steps[j].pid, Self::steps_to_path(&steps[..=j]))
        };
        let mut old = HashMap::new();
        if tracked {
            self.walk(scope_pid, &mut scope_path.clone(), |visit| {
                if let Visit::Tuple(t, path, _) = visit {
                    old.insert(t, path.clone());
                }
                true
            });
        }

        let top_new = self.split_cascade(&steps, j, DecodedEntry::Tuple { tid, coords: coords.to_vec() });
        self.len += 1;

        if !tracked {
            return PathDelta::default();
        }

        // The same scope after the cascade (the new root's tree after a root
        // split), then the new sibling's subtree.
        let mut scopes = vec![(if j == 0 { self.root } else { scope_pid }, scope_path)];
        if j > 0 {
            // invariant: j > 0 means the split cascade stopped below the
            // root, and every non-root cascade level produced a sibling that
            // split_cascade recorded as top_new.
            let (y_pid, y_slot) = top_new.expect("non-root cascade yields a new sibling");
            scopes.push((y_pid, Self::steps_to_path(&steps[..j]).child(y_slot as u16 + 1)));
        }
        let mut delta = PathDelta::default();
        for (pid, mut path) in scopes {
            self.walk(pid, &mut path, |visit| {
                if let Visit::Tuple(t, new, _) = visit {
                    match old.get(&t) {
                        None => {
                            debug_assert_eq!(t, tid, "only the inserted tuple can be new in scope");
                            delta.inserted = Some((t, new.clone()));
                        }
                        Some(was) if was != new => delta.moved.push((t, was.clone(), new.clone())),
                        Some(_) => {}
                    }
                }
                true
            });
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
        mut carry: DecodedEntry,
    ) -> Option<(PageId, usize)> {
        let mut level = steps.len() - 1;
        loop {
            let x_pid = steps[level].pid;
            let x_page = self.pager.read(x_pid).to_vec();
            let x = NodeView::new(&x_page, &self.layout);
            let is_leaf = x.is_leaf();

            // All current entries plus the carried one.
            let (mut slots, mut entries): (Vec<Option<usize>>, Vec<DecodedEntry>) =
                x.slots().map(|s| (Some(s), x.entry(s))).unzip();
            slots.push(None);
            entries.push(carry);

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
            let x_mbr = NodeView::new(&page, &self.layout).mbr();

            // Build the sibling Y with the moving group in fresh slots.
            let mut y_page = vec![0u8; self.pager.page_size()];
            node::init_node(&mut y_page, is_leaf);
            for (slot, &i) in go.iter().enumerate() {
                Self::write_entry(&mut y_page, &self.layout, slot, &entries[i]);
            }
            let y_pid = self.pager.allocate();
            self.pager.write(y_pid, &y_page);
            let y_mbr = NodeView::new(&y_page, &self.layout).mbr();

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
        // The search descends only into boxes that hold the point.
        let mut path = Path::root();
        let mut steps = self.walk(self.root, &mut path, |visit| match visit {
            Visit::Node(..) => true,
            Visit::Child(_, mbr) => mbr.contains_point(coords),
            Visit::Tuple(t, _, c) => t != tid || c != coords,
        })?;
        // invariant: the walk ended at a tuple, so the path has one
        // component per level (≥ 1) and the descent ends with its leaf.
        let leaf_slot = *path.0.last().expect("path has one component per level") as usize - 1;
        let leaf = steps.last().expect("the descent ends with the leaf").pid;
        self.pager.update(leaf, |p| node::set_occupied(p, leaf_slot, false));
        // Unlink emptied nodes bottom-up (never the root), then recompute
        // the MBRs of the nodes that remain on the descent.
        while let [.., parent, last] = steps[..] {
            if self.view(last.pid).slots().next().is_some() {
                break;
            }
            self.pager.update(parent.pid, |p| node::set_occupied(p, last.slot_in_parent, false));
            self.pager.free(last.pid);
            steps.pop();
        }
        self.fix_mbrs_along(&steps);
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

    /// R* choose-subtree descent; records pid and parent slot per level.
    fn choose_path(&self, coords: &[f64]) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.height);
        let mut step = Step { pid: self.root, slot_in_parent: usize::MAX };
        let point = Mbr::point(coords);
        let (mut mbr, mut other) = (Mbr::empty(self.config.dims), Mbr::empty(self.config.dims));
        loop {
            let node = self.read_node(step.pid);
            steps.push(step);
            if node.is_leaf() {
                return steps;
            }
            let children_are_leaves = steps.len() == self.height - 1;
            let mut best: Option<(Step, (f64, f64, f64))> = None;
            for slot in node.slots() {
                node.mbr_into(slot, &mut mbr);
                // R*: minimize overlap enlargement at the leaf level, area
                // enlargement above; ties by area enlargement then area.
                let overlap_delta = if children_are_leaves {
                    let grown = mbr.union(&point);
                    node.slots()
                        .filter(|&s| s != slot)
                        .map(|s| {
                            node.mbr_into(s, &mut other);
                            grown.overlap(&other) - mbr.overlap(&other)
                        })
                        .sum::<f64>()
                } else {
                    0.0
                };
                let enlargement = mbr.enlargement(&point);
                let area = mbr.area();
                let key = (overlap_delta, enlargement, area);
                if best.is_none_or(|(_, best_key)| key < best_key) {
                    best = Some((Step { pid: node.child(slot), slot_in_parent: slot }, key));
                }
            }
            // invariant: tree invariants guarantee every internal node holds
            // ≥ 1 entry (checked by check_invariants), so `best` was set.
            (step, _) = best.expect("internal node has at least one child");
        }
    }

    /// Recomputes tight MBRs for the nodes on `steps`, bottom-up, writing
    /// each into its parent entry.
    fn fix_mbrs_along(&mut self, steps: &[Step]) {
        for pair in steps.windows(2).rev() {
            let (parent, child) = (pair[0], pair[1]);
            let mbr = self.view(child.pid).mbr();
            self.pager.update(parent.pid, |p| {
                node::write_internal_entry(p, &self.layout, child.slot_in_parent, child.pid, &mbr);
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
    /// Verifies: every parent entry's box is its child's tight MBR, every
    /// non-root internal node holds an entry (leaves may underflow after
    /// deletes), leaves sit at one depth that matches the height, tids are
    /// unique and match `len`, and every live page of the pager is a node of
    /// the tree.
    pub fn check_invariants(&self) {
        let mut tids = HashSet::new();
        let mut leaf_depths = HashSet::new();
        self.walk(self.root, &mut Path::root(), |visit| {
            match visit {
                Visit::Node(pid, node, depth) => {
                    if node.is_leaf() {
                        leaf_depths.insert(depth);
                    } else if depth > 0 {
                        // Internal nodes get entries only via splits, so the
                        // R* minimum holds; leaves may underflow after deletes
                        // (relaxed deletion).
                        let empty = node.slots().next().is_none();
                        assert!(!empty, "non-root internal node {pid} is empty");
                    }
                }
                Visit::Child(child, stored) => {
                    let actual = self.view(child).mbr();
                    assert_eq!(*stored, actual, "parent box of node {child} is not its tight MBR");
                }
                Visit::Tuple(tid, ..) => assert!(tids.insert(tid), "duplicate tid {tid}"),
            }
            true
        });
        assert_eq!(tids.len() as u64, self.len, "len mismatch");
        assert!(leaf_depths.len() <= 1, "leaves at different depths: {leaf_depths:?}");
        if let Some(&d) = leaf_depths.iter().next() {
            assert_eq!(d + 1, self.height, "height mismatch");
        }
        let nodes = self.count_nodes();
        assert_eq!(nodes, self.pager.live_pages(), "a live page is no node of the tree");
    }
}

/// Refuses a point the tree cannot index: the wrong dimensionality, or a
/// coordinate that is not finite.
fn assert_point(coords: &[f64], dims: usize) {
    assert_eq!(coords.len(), dims, "point dimensionality mismatch");
    assert!(coords.iter().all(|c| c.is_finite()), "non-finite coordinate in {coords:?}");
}

/// The Sort-Tile-Recursive order of the points `coords` holds flat at
/// stride `dims`: point indexes such that consecutive runs of `cap` form
/// spatially coherent nodes. The points are sorted on dimension 0, cut into
/// slabs, each slab sorted on dimension 1, and so on; a sort is stable —
/// points that tie on its dimension keep the order they had — and compares
/// coordinates as `f64::total_cmp` does (`-0.0` before `0.0`).
///
/// Each sort is an unstable sort of unique `(key, position in slab)` pairs,
/// the key a `u64` whose order is `total_cmp`'s: equal to a stable sort by
/// coordinate, without reading a coordinate per comparison.
///
/// # Panics
/// Panics if there are more than `u32::MAX` points.
pub fn str_order(coords: &[f64], dims: usize, cap: usize) -> Vec<u32> {
    let n = u32::try_from(coords.len() / dims).expect("more points than a u32 counts");
    let mut order: Vec<u32> = (0..n).collect();
    let mut keyed = Vec::with_capacity(n as usize);
    str_slab(&mut order, coords, 0, dims, cap, &mut keyed);
    order
}

/// Sorts one slab of `str_order` on dimension `d` and recurses into its
/// slabs on the next. `keyed` is scratch, `(key, position, point)`.
fn str_slab(
    slab: &mut [u32],
    coords: &[f64],
    d: usize,
    dims: usize,
    cap: usize,
    keyed: &mut Vec<(u64, u32, u32)>,
) {
    keyed.clear();
    let key = |i: u32| total_order_key(coords[i as usize * dims + d]);
    keyed.extend((0u32..).zip(slab.iter()).map(|(at, &i)| (key(i), at, i)));
    keyed.sort_unstable();
    for (slot, &(_, _, i)) in slab.iter_mut().zip(keyed.iter()) {
        *slot = i;
    }
    if d + 1 == dims {
        return;
    }
    let n = slab.len();
    let n_nodes = n.div_ceil(cap);
    let remaining = dims - d;
    let slabs = (n_nodes as f64).powf(1.0 / remaining as f64).ceil() as usize;
    let slab_len = n.div_ceil(slabs.max(1));
    if slab_len == 0 || slab_len >= n {
        str_slab(slab, coords, d + 1, dims, cap, keyed);
        return;
    }
    for part in slab.chunks_mut(slab_len) {
        str_slab(part, coords, d + 1, dims, cap, keyed);
    }
}

/// A `u64` whose unsigned order is `f64::total_cmp`'s: a negative float's
/// bits inverted, a positive one's with the sign bit set.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
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
        assert!(tree.delete_tracked(victim, &pts[victim as usize].1).is_none());
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
            assert!(tree.delete_tracked(*tid, coords).is_some(), "tid {tid}");
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
        // The walk behind every whole-tree pass reads uncounted.
        assert!(tree.count_nodes() > 1);
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

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn insert_refuses_a_nan_coordinate() {
        // A NaN drops out of every box's min and max, so no search could
        // find the tuple again to delete it.
        let (p, _) = pager(512);
        let mut tree = RTree::new(p, RTreeConfig::explicit(2, 1, 3));
        tree.insert_tracked(0, &[f64::NAN, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn bulk_load_refuses_an_infinite_coordinate() {
        let (p, _) = pager(512);
        let mut pts = grid_points(20);
        pts[7].1[1] = f64::INFINITY;
        let _ = RTree::bulk_load(p, RTreeConfig::explicit(2, 1, 3), pts, 1.0);
    }

    #[test]
    #[should_panic(expected = "below the leaf level")]
    fn a_cycle_among_the_pages_stops_the_walk() {
        let (p, _) = pager(512);
        let mut tree = RTree::bulk_load(p, RTreeConfig::explicit(2, 1, 3), grid_points(40), 1.0);
        let root = tree.root_pid();
        let first_child = tree.read_node(root).child(0);
        let page = tree.pager().read(root).to_vec();
        tree.pager_mut().write(first_child, &page);
        tree.for_each_tuple(|_, _, _| {});
    }
}
