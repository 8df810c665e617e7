//! Building the P-Cube, answering probe requests, and incremental
//! maintenance (§IV, §IV-B.3).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use pcube_cube::{
    group_rows, normalize, CellKey, CellRegistry, CuboidMask, MaterializationPlan, Predicate,
    Relation, Selection,
};
use pcube_rtree::{Path, PathDelta, RTree, RTreeConfig};
use pcube_storage::{IoCategory, IoStats, Pager, SharedStats};

use crate::boolean_index::BooleanIndexSet;
use crate::plan::Planner;
use crate::signature::Signature;
use crate::store::{BooleanProbe, SignatureCursor, SignatureStore};

/// Per-cell pending signature maintenance: `(cleared paths, set paths)`.
type CellChanges = (Vec<Path>, Vec<Path>);

/// Build-time options for a P-Cube.
#[derive(Debug, Clone)]
pub struct PCubeConfig {
    /// Which cuboids get materialized signatures. The paper's experiments
    /// use [`MaterializationPlan::Atomic`].
    pub plan: MaterializationPlan,
    /// Page size for signature pages, R-tree nodes and B+-trees (the paper
    /// uses 4 KB).
    pub page_size: usize,
    /// STR fill factor for the R-tree bulk load. The default 0.7 mimics the
    /// occupancy of a dynamically built R-tree (≈ ln 2), so incremental
    /// inserts rarely cascade splits; use 1.0 for a packed read-only tree.
    pub rtree_fill: f64,
}

impl Default for PCubeConfig {
    fn default() -> Self {
        PCubeConfig {
            plan: MaterializationPlan::Atomic,
            page_size: pcube_storage::PAGE_SIZE,
            rtree_fill: 0.7,
        }
    }
}

/// One cell signature touched by a maintenance operation: how many path
/// bits were set and cleared. [`PCube::apply_delta`] reports these (in
/// ascending cell-code order) so the durable engine can log per-cell
/// `SigUpdate` WAL records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigTouch {
    /// The affected cell's registry code.
    pub cell: u32,
    /// Signature bits set (paths added).
    pub sets: u32,
    /// Signature bits cleared (paths removed).
    pub clears: u32,
}

/// The signature cube: one signature per materialized cell, stored
/// compressed and decomposed on counted pages.
///
/// `Clone` is a deep copy over cloned pagers (see [`SignatureStore`]).
#[derive(Clone)]
pub struct PCube {
    /// `Arc` so epoch snapshots share the cell registry instead of
    /// reallocating every key: maintenance of an existing cell only reads
    /// it, and the rare first-seen cell re-owns it once.
    pub(crate) registry: Arc<CellRegistry>,
    pub(crate) store: SignatureStore,
    pub(crate) cuboids: Vec<CuboidMask>,
}

/// Registry intern that preserves sharing: a hit (the overwhelmingly common
/// case during maintenance) never clones; only a genuinely new cell re-owns
/// the shared registry.
fn intern_cow(registry: &mut Arc<CellRegistry>, key: CellKey) -> u32 {
    if let Some(code) = registry.code(&key) {
        return code;
    }
    Arc::make_mut(registry).intern(key)
}

impl PCube {
    /// Computes signatures for every cell of every cuboid in `plan`.
    pub fn build(
        relation: &Relation,
        rtree: &RTree,
        plan: &MaterializationPlan,
        page_size: usize,
        stats: SharedStats,
    ) -> Self {
        let sig_pager = Pager::new(page_size, IoCategory::SignaturePage, stats.clone());
        let dir_pager = Pager::new(page_size, IoCategory::BptreePage, stats);
        let mut store = SignatureStore::new(sig_pager, dir_pager, rtree.m_max(), rtree.height());
        let mut registry = CellRegistry::new();
        let cuboids = plan.cuboids(relation.schema().n_bool());
        generate(relation, rtree, &cuboids, |_| true, |cell, sig| {
            let code = registry.intern(cell);
            store.write_signature(code, &sig);
        });
        PCube { registry: Arc::new(registry), store, cuboids }
    }

    /// Regenerates the signatures of `cells` from the live rows — the
    /// generator of [`PCube::build`] restricted to their cuboids, so a
    /// regenerated cell is byte-identical to a built one — and writes them
    /// in the order given. A cell with no live row (or no key) gets the
    /// empty signature, which deletes its partials.
    pub(crate) fn regenerate(&mut self, relation: &Relation, rtree: &RTree, cells: &[u32]) {
        let codes: HashMap<&CellKey, u32> =
            cells.iter().filter_map(|&c| Some((self.registry.key(c)?, c))).collect();
        let mut cuboids: Vec<CuboidMask> = codes.keys().map(|key| key.mask).collect();
        cuboids.sort_unstable();
        cuboids.dedup();
        let mut sigs: HashMap<u32, Signature> = HashMap::new();
        generate(relation, rtree, &cuboids, |key| codes.contains_key(key), |key, sig| {
            sigs.insert(codes[&key], sig);
        });
        let empty = Signature::empty(rtree.m_max());
        for &cell in cells {
            self.store.write_signature(cell, sigs.get(&cell).unwrap_or(&empty));
        }
    }

    /// The signature store (sizes, partial counts, raw loads).
    pub fn store(&self) -> &SignatureStore {
        &self.store
    }

    /// Mutable access to the signature store (chaos-testing hook: reach the
    /// pagers to install fault plans or corrupt pages).
    pub fn store_mut(&mut self) -> &mut SignatureStore {
        &mut self.store
    }

    /// The cell registry (cell key ↔ dense code).
    pub fn registry(&self) -> &CellRegistry {
        &self.registry
    }

    /// The materialized cuboids.
    pub fn cuboids(&self) -> &[CuboidMask] {
        &self.cuboids
    }

    /// Total materialized bytes (signature pages + directory).
    pub fn size_bytes(&self) -> u64 {
        self.store.size_bytes()
    }

    /// Builds the boolean-pruning probe for a selection (§IV-B.2): one
    /// lazily loading cursor per conjunct. No predicate is no cursor at
    /// all; a materialized cell is one cursor; otherwise each atomic cell
    /// gets one, and the probe ANDs them with the recursive fix-up (Fig
    /// 3.c). A predicate value never seen in the data has no cell: one
    /// cursor over nothing serves the whole selection and prunes
    /// everything.
    ///
    /// `eager` decides only when partials are loaded: every cursor loads
    /// all of its partials before the probe is returned, so the search reads
    /// no signature or directory page. The pruning is the same.
    pub fn probe(&self, selection: &Selection, eager: bool) -> BooleanProbe<'_> {
        let selection = normalize(selection);
        let codes: Option<Vec<u32>> = if selection.is_empty() {
            Some(Vec::new())
        } else if let Some(code) = self.registry.code(&CellKey::from_selection(&selection)) {
            Some(vec![code])
        } else {
            selection.iter().map(|p| self.registry.code(&CellKey::atomic(p.dim, p.value))).collect()
        };
        let mut cursors: Vec<SignatureCursor<'_>> = match codes {
            Some(codes) => codes.into_iter().map(|c| self.store.cursor(c)).collect(),
            None => vec![self.store.empty_cursor()],
        };
        if eager {
            cursors.iter_mut().for_each(SignatureCursor::load_all);
        }
        BooleanProbe::cursors(cursors)
    }

    /// Applies the path changes of one R-tree insert/delete to every
    /// affected cell signature (§IV-B.3).
    ///
    /// "Only the signatures of cells [the changed tuples belong to] are
    /// affected. Furthermore, only the entries on the path … are possibly
    /// affected." Changes are grouped per cell; each affected cell's
    /// signature is loaded, patched and rewritten.
    ///
    /// `rtree_height` must be the tree's height *after* the mutation (a root
    /// split deepens every path).
    ///
    /// Returns one [`SigTouch`] per affected cell, in ascending cell-code
    /// order (deterministic, so WAL records built from it are reproducible).
    pub fn apply_delta(
        &mut self,
        relation: &Relation,
        delta: &PathDelta,
        rtree_height: usize,
    ) -> Vec<SigTouch> {
        self.store.set_height(rtree_height);
        // (cell code, clears, sets)
        let mut changes: HashMap<u32, CellChanges> = HashMap::new();
        let mut add = |registry: &mut Arc<CellRegistry>,
                       cuboids: &[CuboidMask],
                       tid: u64,
                       old: Option<&Path>,
                       new: Option<&Path>| {
            for &cuboid in cuboids {
                let values: Vec<u32> =
                    cuboid.dims().iter().map(|&d| relation.bool_code(tid, d)).collect();
                let code = intern_cow(registry, CellKey { mask: cuboid, values });
                let entry = changes.entry(code).or_default();
                if let Some(p) = old {
                    entry.0.push(p.clone());
                }
                if let Some(p) = new {
                    entry.1.push(p.clone());
                }
            }
        };
        for (tid, old, new) in &delta.moved {
            add(&mut self.registry, &self.cuboids, *tid, Some(old), Some(new));
        }
        if let Some((tid, path)) = &delta.inserted {
            add(&mut self.registry, &self.cuboids, *tid, None, Some(path));
        }
        if let Some((tid, path)) = &delta.removed {
            add(&mut self.registry, &self.cuboids, *tid, Some(path), None);
        }
        let mut ordered: Vec<(u32, CellChanges)> = changes.into_iter().collect();
        ordered.sort_unstable_by_key(|(code, _)| *code);
        let mut touched = Vec::with_capacity(ordered.len());
        for (code, (clears, sets)) in ordered {
            touched.push(SigTouch {
                cell: code,
                sets: sets.len() as u32,
                clears: clears.len() as u32,
            });
            // Pure insertions take the paper's fast path: flip bits inside
            // the partials already on disk. Anything involving clears (or a
            // page overflow) falls back to a full per-cell rewrite.
            if clears.is_empty() && self.store.apply_sets_in_place(code, &sets) {
                continue;
            }
            let mut sig = self.store.load_full(code);
            for p in &clears {
                sig.clear_path(p);
            }
            for p in &sets {
                sig.set_path(p);
            }
            self.store.write_signature(code, &sig);
        }
        touched
    }
}

/// The tuple-oriented generation of §IV-B.1: one R-tree traversal yields
/// the `path` column, then each cuboid group-by turns its cells' path lists
/// into signatures, handed to `emit` cuboid by cuboid for every cell `keep`
/// accepts. The rows are the R-tree's tuples — live by construction,
/// whatever `relation` still holds as tombstones — taken in the traversal's
/// depth-first order, which every cell inherits: its paths arrive sorted,
/// so its node table fills in SID order with no lookup
/// (`Signature::from_sorted_paths`).
fn generate(
    relation: &Relation,
    rtree: &RTree,
    cuboids: &[CuboidMask],
    keep: impl Fn(&CellKey) -> bool,
    mut emit: impl FnMut(CellKey, Signature),
) {
    let (m_max, height) = (rtree.m_max(), rtree.height());
    // The `path` column, flat: every tuple path has one slot per node
    // level, and tids index the rows.
    let mut slots = vec![0u16; relation.len() * height];
    let mut walk_order = Vec::with_capacity(rtree.len() as usize);
    rtree.for_each_tuple(|tid, path, _| {
        slots[tid as usize * height..][..height].copy_from_slice(&path.0);
        walk_order.push(tid);
    });
    for &cuboid in cuboids {
        for (cell, tids) in group_rows(relation, cuboid, &walk_order) {
            if keep(&cell) {
                let paths = tids.iter().map(|&tid| &slots[tid as usize * height..][..height]);
                emit(cell, Signature::from_sorted_paths(m_max, paths));
            }
        }
    }
}

/// A complete P-Cube database: base relation, shared R-tree partition,
/// signature cube, and one I/O ledger across all of them.
///
/// This is the type queries run against: see [`PCubeDb::run`] and the
/// query classes in [`crate::query::class`].
pub struct PCubeDb {
    pub(crate) relation: Relation,
    pub(crate) rtree: RTree,
    pub(crate) pcube: PCube,
    pub(crate) stats: SharedStats,
    /// Data derived from this version of the rows: the §VI catalog
    /// ([`PCubeDb::planner`]) and the baselines' boolean indexes
    /// ([`BooleanIndexSet::of`]). Each is built on first use — concurrent
    /// first users build once, the others wait — and then shared, by later
    /// calls and by every [`PCubeDb::clone_snapshot`] (so every published
    /// epoch) taken since, until the next insert or delete on this value
    /// empties it in place. Nothing else drops it: not scrub, repair,
    /// checkpoints, fault plans or read latencies, which leave rows and
    /// R-tree shape alone.
    pub(crate) catalog: OnceLock<Arc<Planner>>,
    /// See `catalog`.
    pub(crate) indexes: OnceLock<Arc<BooleanIndexSet>>,
}

impl PCubeDb {
    /// Builds the R-tree partition and the P-Cube over the live rows of
    /// `relation`: a table with tombstones builds the cube of its compacted
    /// copy (same tree shape, same signatures; only the tids differ).
    pub fn build(mut relation: Relation, config: &PCubeConfig) -> Self {
        let stats = IoStats::new_shared();
        relation.attach_stats(stats.clone());
        let rtree_pager = Pager::new(config.page_size, IoCategory::RtreeBlock, stats.clone());
        let rtree_cfg = RTreeConfig::for_page(relation.schema().n_pref(), config.page_size);
        // The flat points go before the cube is generated.
        let rtree = {
            let (tids, coords) = relation.live_points();
            RTree::bulk_load_points(rtree_pager, rtree_cfg, &tids, &coords, config.rtree_fill)
        };
        let pcube = PCube::build(&relation, &rtree, &config.plan, config.page_size, stats.clone());
        PCubeDb::from_parts(relation, rtree, pcube, stats)
    }

    /// The one constructor: a database over its parts, nothing derived yet.
    pub(crate) fn from_parts(
        relation: Relation,
        rtree: RTree,
        pcube: PCube,
        stats: SharedStats,
    ) -> Self {
        let (catalog, indexes) = (OnceLock::new(), OnceLock::new());
        PCubeDb { relation, rtree, pcube, stats, catalog, indexes }
    }

    /// The base relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The shared R-tree partition template.
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// The signature cube.
    pub fn pcube(&self) -> &PCube {
        &self.pcube
    }

    /// Mutable access to the signature store (chaos-testing hook: install
    /// fault plans, enable checksums, or corrupt signature pages).
    pub fn signature_store_mut(&mut self) -> &mut SignatureStore {
        self.pcube.store_mut()
    }

    /// The shared I/O ledger.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Runs an online, budget-limited integrity scrub over the signature
    /// store (see [`crate::scrub::scrub`]). Takes `&self`, so it can run
    /// concurrently with the `par_*` query paths.
    pub fn scrub(&self, budget: &crate::query::QueryBudget) -> crate::scrub::ScrubReport {
        crate::scrub::scrub(self, budget)
    }

    /// Installs (or clears) a wall-clock latency charged per counted read
    /// on every pager-backed structure a query touches: R-tree blocks,
    /// signature pages, and directory pages. This pays the paper's block
    /// cost model in real time — `serve_bench --wall-io-us` uses it so
    /// wall-clock throughput measures read-path *concurrency* (sleeps
    /// overlap across threads only if no lock is held across a page read),
    /// not memory bandwidth.
    ///
    /// Note [`crate::pcube::PCubeDb::relation`] tuple fetches charge the
    /// `TupleRandomAccess` category straight to the ledger without a pager,
    /// so they are not delayed; the traversal structures dominate the block
    /// counts (Fig 9) and are what concurrency contends on.
    pub fn set_wall_read_latency(&mut self, delay: Option<std::time::Duration>) {
        self.rtree.pager_mut().set_read_delay(delay);
        let store = self.pcube.store_mut();
        store.sig_pager_mut().set_read_delay(delay);
        store.dir_pager_mut().set_read_delay(delay);
    }

    /// Inserts a row (string boolean values) and incrementally maintains the
    /// R-tree and every affected signature. Returns the new tid.
    pub fn insert(&mut self, bool_values: &[&str], coords: &[f64]) -> u64 {
        let tid = self.relation.push(bool_values, coords);
        self.finish_insert(tid, coords);
        tid
    }

    /// Inserts a row given pre-encoded boolean codes.
    pub fn insert_coded(&mut self, bool_codes: &[u32], coords: &[f64]) -> u64 {
        self.insert_coded_tracked(bool_codes, coords).0
    }

    /// [`PCubeDb::insert_coded`], also reporting which cell signatures the
    /// maintenance touched (the durable engine logs these as WAL records).
    pub fn insert_coded_tracked(
        &mut self,
        bool_codes: &[u32],
        coords: &[f64],
    ) -> (u64, Vec<SigTouch>) {
        let tid = self.relation.push_coded(bool_codes, coords);
        (tid, self.finish_insert(tid, coords))
    }

    fn finish_insert(&mut self, tid: u64, coords: &[f64]) -> Vec<SigTouch> {
        self.forget_derived();
        let delta = self.rtree.insert_tracked(tid, coords);
        self.pcube.apply_delta(&self.relation, &delta, self.rtree.height())
    }

    /// Deletes tuple `tid`: removes it from the R-tree partition and clears
    /// its path bit from every affected cell signature (§VIII, the deletion
    /// half of incremental maintenance). The relation row is retained as a
    /// tombstone — tids stay stable — and leaves the relation's live set, so
    /// the tuple vanishes from every engine's results. Returns `false` if
    /// `tid` is out of range or already deleted.
    pub fn delete(&mut self, tid: u64) -> bool {
        self.delete_tracked(tid).is_some()
    }

    /// [`PCubeDb::delete`], reporting the touched cell signatures.
    pub fn delete_tracked(&mut self, tid: u64) -> Option<Vec<SigTouch>> {
        if tid >= self.relation.len() as u64 {
            return None;
        }
        let coords = self.relation.pref_coords(tid);
        let path = self.rtree.delete_tracked(tid, &coords)?;
        self.relation.mark_deleted(tid);
        self.forget_derived();
        let delta = PathDelta { removed: Some((tid, path)), ..PathDelta::default() };
        Some(self.pcube.apply_delta(&self.relation, &delta, self.rtree.height()))
    }

    /// Drops the derived data of the version a row change ends. Emptied in
    /// place: a field nobody filled costs the write path nothing.
    fn forget_derived(&mut self) {
        self.catalog.take();
        self.indexes.take();
    }

    /// An independently-queryable copy for epoch snapshots. Pagers and
    /// relation columns are copy-on-write (`O(1)` refcount bumps; see
    /// `pcube_storage::Pager` and `pcube_cube::Relation`), so this is cheap
    /// regardless of database size — the writer re-owns only the pages and
    /// column chunks it actually dirties afterwards. Only the I/O ledger is
    /// shared (snapshot reads keep being charged to the database's cost
    /// accounting), and so is the derived data built so far: a catalog or
    /// index set still being built when the snapshot is taken is not, and
    /// the snapshot builds its own on first use.
    pub fn clone_snapshot(&self) -> PCubeDb {
        let mut snapshot = PCubeDb::from_parts(
            self.relation.clone(),
            self.rtree.clone(),
            self.pcube.clone(),
            self.stats.clone(),
        );
        snapshot.catalog = self.catalog.clone();
        snapshot.indexes = self.indexes.clone();
        snapshot
    }
}

/// Same as [`PCubeDb::clone_snapshot`] — exists so `Arc::make_mut` can
/// re-own a shared database on the copy-on-write write path.
impl Clone for PCubeDb {
    fn clone(&self) -> Self {
        self.clone_snapshot()
    }
}

impl PCubeDb {
    /// Builds a [`Selection`] from `(dimension name, value)` pairs.
    ///
    /// # Panics
    /// Panics on an unknown dimension name; an unknown *value* yields a
    /// selection that matches nothing (a valid query).
    pub fn selection(&self, preds: &[(&str, &str)]) -> Selection {
        preds
            .iter()
            .map(|(dim_name, value)| {
                let dim = self
                    .relation
                    .schema()
                    .bool_index(dim_name)
                    .unwrap_or_else(|| panic!("unknown boolean dimension {dim_name}"));
                let value = self
                    .relation
                    .dictionary(dim)
                    .code(value)
                    // Unseen value: a code beyond any dictionary entry.
                    .unwrap_or(u32::MAX);
                Predicate { dim, value }
            })
            .collect()
    }
}

// The whole read path must stay shareable across threads: the parallel
// engines and any multi-client server lean on this.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PCubeDb>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_cube::{group_by, Predicate, Schema};

    /// The paper's Table I as a PCubeDb (coordinates force Fig 1's grouping
    /// only approximately — STR packs its own tiles — but every signature
    /// property is checked against brute force, not fixed constants).
    fn table1_db() -> PCubeDb {
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X", "Y"]));
        let rows = [
            ("a1", "b1", 0.00, 0.40),
            ("a2", "b2", 0.20, 0.60),
            ("a1", "b1", 0.30, 0.70),
            ("a3", "b3", 0.50, 0.40),
            ("a4", "b1", 0.60, 0.00),
            ("a2", "b3", 0.72, 0.30),
            ("a4", "b2", 0.72, 0.36),
            ("a3", "b3", 0.85, 0.62),
        ];
        for (a, b, x, y) in rows {
            r.push(&[a, b], &[x, y]);
        }
        PCubeDb::build(r, &PCubeConfig::default())
    }

    /// Checks that every materialized signature equals one rebuilt from the
    /// R-tree's current tuple paths — the master consistency invariant.
    fn assert_signatures_consistent(db: &PCubeDb) {
        let mut paths: HashMap<u64, Path> = HashMap::new();
        db.rtree().for_each_tuple(|tid, path, _| {
            paths.insert(tid, path.clone());
        });
        for &cuboid in db.pcube().cuboids() {
            for (cell, tids) in group_by(db.relation(), cuboid) {
                let expect = Signature::from_paths(
                    db.rtree().m_max(),
                    tids.iter().map(|t| &paths[t]),
                );
                let code = db.pcube().registry().code(&cell).expect("cell registered");
                let got = db.pcube().store().load_full(code);
                assert_eq!(got, expect, "cell {cell:?}");
                got.validate(db.rtree().height());
            }
        }
    }

    #[test]
    fn build_registers_atomic_cells_and_valid_signatures() {
        let db = table1_db();
        // A has 4 values, B has 3 → 7 atomic cells.
        assert_eq!(db.pcube().registry().len(), 7);
        assert_signatures_consistent(&db);
    }

    #[test]
    fn tombstoned_relation_builds_the_cube_of_its_compacted_copy() {
        let schema = || Schema::new(&["A", "B"], &["X", "Y"]);
        let (mut tombstoned, mut compacted) = (Relation::new(schema()), Relation::new(schema()));
        let mut dead = Vec::new();
        for i in 0..600u32 {
            let f = f64::from(i);
            let coords = [(f * 0.137) % 1.0, (f * 0.311) % 1.0];
            // A = 9 is carried by deleted rows only.
            let dies = i % 4 == 1;
            let codes = [if dies && i % 3 == 0 { 9 } else { i % 5 }, i % 3];
            let tid = tombstoned.push_coded(&codes, &coords);
            if dies {
                dead.push(tid);
            } else {
                compacted.push_coded(&codes, &coords);
            }
        }
        for tid in dead {
            assert!(tombstoned.mark_deleted(tid));
        }
        // Small pages: a three-level tree, cells of several partials.
        let cfg = PCubeConfig { page_size: 256, ..PCubeConfig::default() };
        let (tombstoned, compacted) =
            (PCubeDb::build(tombstoned, &cfg), PCubeDb::build(compacted, &cfg));
        assert_eq!(tombstoned.rtree().len(), 450);
        assert!(tombstoned.rtree().height() >= 3);
        assert_signatures_consistent(&tombstoned);
        let (got, expect) = (tombstoned.pcube(), compacted.pcube());
        assert_eq!(got.registry().len(), expect.registry().len(), "a cell for dead rows only");
        assert_eq!(got.registry().code(&CellKey::atomic(0, 9)), None);
        for code in 0..expect.registry().len() as u32 {
            assert_eq!(got.registry().key(code), expect.registry().key(code));
            assert_eq!(got.store().load_full(code), expect.store().load_full(code), "cell {code}");
        }
        assert_eq!(got.size_bytes(), expect.size_bytes());
    }

    #[test]
    fn probe_for_single_predicate_matches_brute_force() {
        let db = table1_db();
        let a1 = db.selection(&[("A", "a1")]);
        let mut probe = db.pcube().probe(&a1, false);
        let mut paths: HashMap<u64, Path> = HashMap::new();
        db.rtree().for_each_tuple(|tid, p, _| {
            paths.insert(tid, p.clone());
        });
        for tid in 0..db.relation().len() as u64 {
            let expected = db.relation().matches(tid, &a1);
            assert_eq!(probe.contains(&paths[&tid]), expected, "tid {tid}");
        }
    }

    /// 600 rows on 256-byte pages: a three-level tree whose cells span
    /// several partial signatures. `A` takes `a0`..`a4`, `B` `b0`..`b2`.
    fn small_page_db() -> PCubeDb {
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X", "Y"]));
        for i in 0..600u32 {
            let f = f64::from(i);
            r.push(
                &[&format!("a{}", i % 5), &format!("b{}", i % 3)],
                &[(f * 0.137) % 1.0, (f * 0.311) % 1.0],
            );
        }
        PCubeDb::build(r, &PCubeConfig { page_size: 256, ..PCubeConfig::default() })
    }

    /// A value never seen in the data — alone, or beside one that exists —
    /// gets one cursor over nothing, lazily or eagerly: it contains no
    /// tuple, and building it and running with it read the root block and
    /// no signature or directory page.
    #[test]
    fn probe_for_unknown_value_prunes_everything() {
        let class = crate::SkylineClass::new(vec![0, 1]);
        for db in [table1_db(), small_page_db()] {
            for preds in [&[("A", "a99")][..], &[("A", "a1"), ("B", "b99")]] {
                let sel = db.selection(preds);
                for eager in [false, true] {
                    let mut probe = db.pcube().probe(&sel, eager);
                    assert_eq!(probe.cursor_count(), 1, "{preds:?}, eager {eager}");
                    let mut any = false;
                    db.rtree().for_each_tuple(|_, p, _| {
                        any |= probe.contains(p);
                    });
                    assert!(!any);

                    db.stats().reset();
                    let out = db.run_with_probe(&sel, &class, db.pcube().probe(&sel, eager));
                    assert!(out.rows.is_empty());
                    let reads = |c| db.stats().reads(c);
                    assert_eq!(
                        [IoCategory::RtreeBlock, IoCategory::SignaturePage, IoCategory::BptreePage]
                            .map(reads),
                        [1, 0, 0],
                        "{preds:?}, eager {eager}: the root block only"
                    );
                }
            }
        }
    }

    /// An eager probe loads every partial of its cursors while it is built
    /// and counts those loads; the search after it reads no signature or
    /// directory page and answers what the lazy probe answers.
    #[test]
    fn an_eager_probe_counts_its_loads_and_the_search_reads_none() {
        let db = small_page_db();
        let sel = db.selection(&[("A", "a1"), ("B", "b2")]);
        let class = crate::SkylineClass::new(vec![0, 1]);
        let lazy = db.run_with_probe(&sel, &class, db.pcube().probe(&sel, false));
        assert!(!lazy.rows.is_empty());

        db.stats().reset();
        let probe = db.pcube().probe(&sel, true);
        let up_front = db.stats().reads(IoCategory::SignaturePage);
        let eager = db.run_with_probe(&sel, &class, probe);
        assert!(up_front > 2, "two cells of several partials, read {up_front}");
        assert_eq!(eager.stats.partials_loaded, up_front);
        assert_eq!(eager.stats.io.reads(IoCategory::SignaturePage), 0);
        assert_eq!(eager.stats.io.reads(IoCategory::BptreePage), 0);
        assert_eq!(eager.rows, lazy.rows);
    }

    #[test]
    fn probe_multi_predicate_lazy_and_eager_are_tuple_exact() {
        let db = table1_db();
        let sel = db.selection(&[("A", "a2"), ("B", "b2")]);
        let mut paths: HashMap<u64, Path> = HashMap::new();
        db.rtree().for_each_tuple(|tid, p, _| {
            paths.insert(tid, p.clone());
        });
        for eager in [false, true] {
            let mut probe = db.pcube().probe(&sel, eager);
            for tid in 0..db.relation().len() as u64 {
                let expected = db.relation().matches(tid, &sel);
                assert_eq!(probe.contains(&paths[&tid]), expected, "tid {tid}, eager {eager}");
            }
        }
    }

    #[test]
    fn empty_selection_probe_accepts_all() {
        let db = table1_db();
        let mut probe = db.pcube().probe(&Vec::new(), false);
        db.rtree().for_each_tuple(|_, p, _| {
            assert!(probe.contains(p));
        });
    }

    #[test]
    fn incremental_insert_keeps_signatures_consistent() {
        let mut db = table1_db();
        // Insert enough rows to force leaf and root splits.
        for i in 0..60u32 {
            let f = f64::from(i);
            let a = format!("a{}", i % 5 + 1);
            let b = format!("b{}", i % 4 + 1);
            db.insert(&[&a, &b], &[(f * 0.137) % 1.0, (f * 0.311) % 1.0]);
            if i % 10 == 0 {
                assert_signatures_consistent(&db);
            }
        }
        db.rtree().check_invariants();
        assert_signatures_consistent(&db);
        assert_eq!(db.relation().len(), 68);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn insert_refuses_a_nan_coordinate() {
        // Accepted, the row could never be found again: it would stay live,
        // undeletable, and outside every skyline.
        let mut db = table1_db();
        db.insert(&["a1", "b1"], &[f64::NAN, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn build_refuses_a_nan_coordinate() {
        let mut r = Relation::new(Schema::new(&["A"], &["X", "Y"]));
        r.push(&["a1"], &[0.25, 0.5]);
        r.push(&["a2"], &[0.75, f64::NAN]);
        let _ = PCubeDb::build(r, &PCubeConfig::default());
    }

    #[test]
    fn insert_with_new_dictionary_value_creates_cell() {
        let mut db = table1_db();
        let before = db.pcube().registry().len();
        db.insert(&["a9", "b9"], &[0.99, 0.99]);
        assert_eq!(db.pcube().registry().len(), before + 2);
        assert_signatures_consistent(&db);
        // The new cell is immediately queryable.
        let sel = db.selection(&[("A", "a9")]);
        let mut probe = db.pcube().probe(&sel, false);
        let mut hits = 0;
        db.rtree().for_each_tuple(|_, p, _| {
            if probe.contains(p) {
                hits += 1;
            }
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn materializing_level2_cuboids_serves_composite_cells_directly() {
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X", "Y"]));
        for i in 0..40u32 {
            let f = f64::from(i);
            r.push(
                &[&format!("a{}", i % 3), &format!("b{}", i % 2)],
                &[(f * 0.7) % 1.0, (f * 0.3) % 1.0],
            );
        }
        let cfg = PCubeConfig {
            plan: MaterializationPlan::UpToLevel(2),
            ..PCubeConfig::default()
        };
        let db = PCubeDb::build(r, &cfg);
        assert_eq!(db.pcube().cuboids().len(), 3);
        let sel = vec![Predicate { dim: 0, value: 1 }, Predicate { dim: 1, value: 0 }];
        let probe = db.pcube().probe(&sel, false);
        assert_eq!(probe.cursor_count(), 1, "composite cell should be direct");
        assert_signatures_consistent(&db);
    }
}
