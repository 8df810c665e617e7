//! The boolean probe of Algorithm 1 (§V): one signature cursor per
//! conjunct, the lazy emptiness fix-up of Fig 3.c over them, and the three
//! questions the query kernel asks of a node or a tuple.

use pcube_cube::Selection;
use pcube_rtree::{Path, Sid};

use super::cursor::ONES;
use super::SignatureCursor;
use crate::pcube::PCubeDb;
use crate::query::{BooleanPruner, Candidate, VerifyAllPruner};

/// The boolean-pruning side of Algorithm 1: answers "may the subtree/tuple
/// at this path contain data satisfying the selection?".
///
/// One lazily-loaded cursor per conjunct, ANDed: none for no predicate
/// (`BP = ∅`, prunes nothing), one for a materialized cell or for a value
/// never seen in the data (a cursor over nothing, which prunes everything
/// below the root), k for k atomic cells. Under k ≥ 2 the recursive
/// emptiness fix-up of Fig 3.c runs lazily, so on a clean store no node
/// below the root is read that holds no tuple of every conjunct: the probe
/// is exact for tuples and for nodes alike. An eager probe
/// ([`crate::PCube::probe`] with `eager`) is the same probe with every
/// partial loaded before the search: the same pruning, all loads up front
/// (the `assemble-eager` ablation compares the two).
///
/// # The probe contract
///
/// Algorithm 1 asks the two questions of [`BooleanPruner`], and the kernel
/// a third:
///
/// * [`BooleanPruner::keep`], of a popped entry. It starts with the full
///   root-to-path walk ([`BooleanProbe::contains`]): the entry may be the
///   root seed, restored from a saved list, or pushed by the search itself.
///   A tuple the walk keeps is verified against the base table if a cursor
///   degraded. A node the walk keeps gets the *subtree check* before its
///   page is read: the whole fix-up from that node down. The conjuncts'
///   arrays of the node are ANDed; at the leaf level a set bit is a
///   qualifying tuple, above it each shared bit's child is checked the same
///   way, loading its bits by the retrieval rule, until one is proven
///   non-empty. Exact verdicts are memoised for the rest of the query, one
///   byte per row of the first cursor's table, so the memo is found with
///   the lookup that fetches that cursor's row. Only two or more cursors
///   answer it, and never for the root, which the parallel driver reads
///   unprobed: its check would be the whole query's emptiness test, priced
///   at up to every partial of every conjunct. A node kept becomes the
///   node under expansion, and the child masks of it whose bits are
///   already in memory are fetched then, in conjunct order, up to the
///   first conjunct that would need a read.
/// * [`BooleanPruner::keep_child`], of each child of that node. Each
///   conjunct's *child mask* — the row of its table holding its bit array
///   of the node, or a constant row of zeros or ones — is fetched with one
///   node lookup at the first child that reaches it
///   (children are asked in slot order, and a child stops at the first mask
///   whose bit is clear, as `contains` stops at the first cursor), which is
///   what keeps partial signatures loaded lazily per predicate. A child is
///   kept iff its bit is set in every mask, which equals `contains` of the
///   child's path: the node passed `contains`, so only the last level is
///   undecided. A tuple child is decided by the masks alone. A node child
///   is then *looked ahead* at under two or more cursors: do the conjuncts'
///   bit arrays of that child share a set bit? One level of the fix-up, so
///   a child whose subtree holds data of every conjunct but no tuple of all
///   of them is dropped unread when the disagreement shows one level down;
///   exact for a leaf-level child, sound above it. One cursor's set bit
///   already proves a child non-empty.
/// * [`BooleanPruner::rules_out`], of a child before it is decoded: is its
///   bit clear in a mask already fetched for the node under expansion? It
///   reads nothing else and loads nothing. `keep_child` checks those masks
///   first, in the same order, and stops at a clear bit before it fetches
///   another, so `true` here is exactly a `false` there that loads nothing.
///   A mask not fetched for this node is stale (it belongs to the node
///   expanded before) and is never read.
///
/// The first two load partial signatures by the retrieval rule, counted
/// in [`BooleanPruner::partials_loaded`] and timed in
/// [`BooleanPruner::load_seconds`], an eager probe's up-front loads
/// included. A cursor that degraded after a storage failure may answer a
/// false positive, never a false negative.
///
/// All three read bits the same way: each cursor keeps the nodes it loaded
/// as rows of one node table, so a walk's bit and a child mask are a row,
/// and a node with no bits is one of two constant rows (zeros; ones on a
/// degraded cursor). A node's row is looked up once per conjunct per
/// visit — once per level of a walk, once per child mask, once per
/// conjunct of a look-ahead or of a subtree check's node, and the pop-time
/// fetch reuses the rows its subtree check found. The look-ahead and the
/// subtree check AND the conjuncts' rows of a node into a scratch of
/// ⌈M/64⌉ words per tree level, reused for the whole query. A loaded
/// partial is decoded straight into its cursor's table; one that fails at
/// any node is rolled back — none of its nodes gets a row — and degrades
/// that cursor. Nothing is allocated per node or per partial, only the
/// growth steps of the tables, the SID maps and the memo.
pub struct BooleanProbe<'a> {
    cursors: Vec<SignatureCursor<'a>>,
    /// The subtree check's exact verdicts, one per row of the first
    /// cursor's table (`None`: not known yet).
    verdicts: Vec<Option<bool>>,
    /// The look-ahead's and the subtree check's AND of the conjuncts' rows
    /// of a node: ⌈M/64⌉ words per tree level, so a node's AND stays put
    /// while its children's are taken.
    and: Vec<u64>,
    /// The node kept last, whose children [`BooleanPruner::keep_child`] is
    /// asked about.
    expanding: Expansion,
}

/// The node under expansion: its SID and depth, and how many conjuncts'
/// child masks of it are fetched (always the first ones).
struct Expansion {
    sid: Sid,
    depth: usize,
    fetched: usize,
}

impl<'a> BooleanProbe<'a> {
    /// A probe ANDing `cursors`.
    pub fn cursors(cursors: Vec<SignatureCursor<'a>>) -> Self {
        let and = cursors.first().map_or_else(Vec::new, |c| vec![0; c.store.height * c.table.stride()]);
        BooleanProbe {
            cursors,
            verdicts: Vec::new(),
            and,
            expanding: Expansion { sid: Sid::ROOT, depth: 0, fetched: 0 },
        }
    }

    /// `true` if the path may contain qualifying data (never a false
    /// negative; a degraded cursor may answer a false positive).
    pub fn contains(&mut self, path: &Path) -> bool {
        self.cursors.iter_mut().all(|c| c.contains(path))
    }

    /// `true` if a cursor degraded after a storage failure, so the probe
    /// can report false positives (a tuple it keeps is then verified
    /// against the base table).
    pub fn is_lossy(&self) -> bool {
        self.cursors.iter().any(SignatureCursor::is_degraded)
    }

    /// The number of cursors the probe ANDs.
    #[cfg(test)]
    pub(crate) fn cursor_count(&self) -> usize {
        self.cursors.len()
    }

    /// [`BooleanPruner::keep`] of the node at `path`: the walk, then the
    /// subtree check (`fix_up`, which a degraded cursor makes answer
    /// `true`). A node kept becomes the node under expansion, with the
    /// child masks already in memory fetched.
    fn keep_node(&mut self, path: &Path) -> bool {
        if !self.contains(path) {
            return false;
        }
        let Some(first) = self.cursors.first() else {
            return true;
        };
        let (sid, depth) = (path.sid(first.store.m_max), path.depth());
        self.expanding = Expansion { sid, depth, fetched: 0 };
        let e = &mut self.expanding;
        if self.cursors.len() > 1
            && depth > 0
            && !fix_up(&mut self.cursors, &mut self.verdicts, &mut self.and, sid, depth, Some(&mut e.fetched))
                .unwrap_or(true)
        {
            return false;
        }
        // The masks whose bits are already in memory, in conjunct order,
        // up to the first that would need a read: fetched now, they let
        // `rules_out` answer from the first child on. The subtree check
        // fetched every row it resolved; the rest are looked up here,
        // unless the check stopped at a degraded cursor with no bits.
        if self.cursors[..e.fetched].last().is_none_or(|c| c.mask > ONES) {
            for c in &mut self.cursors[e.fetched..] {
                let Some(&row) = c.rows.get(&sid) else { break };
                c.mask = row;
                e.fetched += 1;
            }
        }
        true
    }
}

impl BooleanPruner for BooleanProbe<'_> {
    /// A degraded cursor may pass non-qualifying tuples: a tuple then pays
    /// what domination-first pays, one counted random access. The empty
    /// selection has nothing to get wrong.
    fn keep(&mut self, db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        match cand {
            Candidate::Tuple { path, .. } => {
                self.contains(path)
                    && (!self.is_lossy()
                        || selection.is_empty()
                        || VerifyAllPruner.keep(db, selection, cand))
            }
            Candidate::Node { path, .. } => self.keep_node(path),
        }
    }

    /// A conjunct's child mask is its row of the node under expansion,
    /// loaded by the retrieval rule if need be at the first child that
    /// reaches it. The node passed `contains`, so its ancestors' bits are
    /// set (or lost to a fault, when the walk would keep the child too) and
    /// the mask's bit decides alone. The child's SID is derived from the
    /// expanding node's; no [`Path`] is built.
    fn keep_child(&mut self, slot: usize, is_node: bool) -> bool {
        let (e, cs) = (&mut self.expanding, &mut self.cursors);
        for (i, c) in cs.iter_mut().enumerate() {
            if i == e.fetched {
                c.mask = c.load_sid(e.sid, e.depth);
                e.fetched += 1;
            }
            if !c.mask_bit(slot) {
                return false;
            }
        }
        !is_node || cs.len() < 2 || {
            let child = e.sid.child(slot as u16 + 1, cs[0].store.m_max);
            arrays_meet(cs, &mut self.and, child, e.depth + 1)
        }
    }

    /// A clear bit in a mask already fetched for the node under expansion:
    /// `keep_child` stops at that mask before it reaches one it would fetch.
    #[inline]
    fn rules_out(&self, slot: usize) -> bool {
        self.cursors[..self.expanding.fetched].iter().any(|c| !c.mask_bit(slot))
    }

    fn partials_loaded(&self) -> u64 {
        self.cursors.iter().map(SignatureCursor::partials_loaded).sum()
    }

    fn load_seconds(&self) -> f64 {
        self.cursors.iter().map(|c| c.load_seconds).sum()
    }
}

/// The look-ahead, one level of the fix-up of Fig 3.c: do the cursors' bit
/// arrays of the node `sid` at `depth` share a set bit? Each conjunct's row
/// is found once and ANDed into the scratch of that level, stopping at the
/// first conjunct that empties the AND; a degraded cursor that cannot load
/// the bits answers all ones and never prunes.
fn arrays_meet(cs: &mut [SignatureCursor<'_>], and: &mut [u64], sid: Sid, depth: usize) -> bool {
    let stride = cs[0].table.stride();
    let acc = &mut and[depth * stride..(depth + 1) * stride];
    cs.iter_mut().enumerate().all(|(i, c)| {
        let row = c.load_sid(sid, depth);
        and_row(acc, c.table.row(row as usize), i == 0)
    })
}

/// The recursive fix-up of Fig 3.c, evaluated lazily from the node `sid` at
/// `depth`: does some tuple under it belong to every cursor's cell? The
/// first cursor's row of the node is found first, and a verdict memoised
/// on that row answers. Otherwise each conjunct's row is found once and
/// ANDed into `and`'s words of this level, stopping at the first conjunct
/// that empties the AND; at the leaf level a shared bit is a qualifying
/// tuple, above it each shared bit's child is checked in turn, stopping at
/// the first proven non-empty. Exact verdicts are memoised by row in
/// `verdicts`. `None` — a cursor degraded, so emptiness cannot be proven —
/// is not. With `fetched`, each row found becomes its cursor's child mask
/// and `fetched` counts them. Allocates nothing but the memo's and, as it
/// loads partials, the cursors' growth steps.
fn fix_up(
    cs: &mut [SignatureCursor<'_>],
    verdicts: &mut Vec<Option<bool>>,
    and: &mut [u64],
    sid: Sid,
    depth: usize,
    mut fetched: Option<&mut usize>,
) -> Option<bool> {
    let first = cs[0].load_sid(sid, depth);
    if let Some(&Some(known)) = verdicts.get(first as usize) {
        if let Some(f) = fetched {
            cs[0].mask = first;
            *f = 1;
        }
        return Some(known);
    }
    let (m_max, height, stride) = (cs[0].store.m_max, cs[0].store.height, cs[0].table.stride());
    let at = depth * stride;
    for i in 0..cs.len() {
        let row = if i == 0 { first } else { cs[i].load_sid(sid, depth) };
        if let Some(f) = fetched.as_deref_mut() {
            cs[i].mask = row;
            *f = i + 1;
        }
        if cs[i].degraded {
            return None;
        }
        if !and_row(&mut and[at..at + stride], cs[i].table.row(row as usize), i == 0) {
            remember(verdicts, &cs[0], first, false);
            return Some(false);
        }
    }
    let nonempty = depth + 1 >= height || 'shared: {
        for w in 0..stride {
            let mut word = and[at + w];
            while word != 0 {
                let position = (w * 64) as u16 + word.trailing_zeros() as u16 + 1;
                word &= word - 1;
                if fix_up(cs, verdicts, and, sid.child(position, m_max), depth + 1, None)? {
                    break 'shared true;
                }
            }
        }
        false
    };
    remember(verdicts, &cs[0], first, nonempty);
    Some(nonempty)
}

/// ANDs `row` into `acc` — copies it, for the first conjunct — and tells
/// whether a bit is left.
#[inline]
fn and_row(acc: &mut [u64], row: &[u64], first: bool) -> bool {
    let mut any = 0;
    for (a, &r) in acc.iter_mut().zip(row) {
        *a = if first { r } else { *a & r };
        any |= *a;
    }
    any != 0
}

/// Memoises the subtree check's verdict on the node whose row in the first
/// cursor's table is `row`, growing the memo with that table (rows are
/// never reassigned). A node with no bits — a constant row — gets no entry.
fn remember(verdicts: &mut Vec<Option<bool>>, first: &SignatureCursor<'_>, row: u32, nonempty: bool) {
    if row > ONES {
        let row = row as usize;
        if row >= verdicts.len() {
            verdicts.resize(first.table.len(), None);
        }
        verdicts[row] = Some(nonempty);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use crate::store::tests::{corrupt_pages, node_paths, node_paths_over, paths_at, store_for, store_with};
    use crate::store::SignatureStore;
    use pcube_storage::{IoCategory, SharedStats, PAGE_SIZE};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn cursor_matches_full_signature_on_every_path() {
        let (mut store, _) = store_with(48);
        let sig = Signature::from_paths(2, [Path(vec![1, 1, 1]), Path(vec![2, 2, 1])].iter());
        store.write_signature(5, &sig);
        let mut cursor = store.cursor(5);
        for p in paths_at(3) {
            assert_eq!(cursor.contains(&p), sig.contains(&p), "path {p}");
        }

        // Probe equivalence: at every node the probe keeps, the child
        // question answers what the full walk answers for the child's path
        // — exactly for a tuple child, which the masks alone decide; never
        // keeping more for a child node, which is also looked ahead at, and
        // never dropping one that holds a qualifying tuple. For no cursor,
        // one, two, and two loaded first (an eager probe).
        let other = Signature::from_paths(
            2,
            [Path(vec![1, 1, 1]), Path(vec![1, 2, 2]), Path(vec![2, 1, 1])].iter(),
        );
        store.write_signature(6, &other);
        let both = sig.intersect(&other, 3);
        // One probe answers tuple children by masks, its twin by walks.
        // Both are asked the same pop-time and child-node questions, so the
        // twins must load the same partial signatures at the same child.
        let cursors =
            |cells: &[u32]| BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
        let loaded = |cells: &[u32]| loaded_probe(&store, cells);
        let variants: Vec<(&str, BooleanProbe<'_>, BooleanProbe<'_>, Option<&Signature>)> = vec![
            ("no cursor", cursors(&[]), cursors(&[]), None),
            ("one cursor", cursors(&[5]), cursors(&[5]), Some(&sig)),
            ("two cursors", cursors(&[5, 6]), cursors(&[5, 6]), Some(&both)),
            ("two loaded first", loaded(&[5, 6]), loaded(&[5, 6]), Some(&both)),
        ];
        for (name, mut by_mask, mut by_walk, exact) in variants {
            for node in node_paths(2, 3) {
                let kept = by_mask.keep_node(&node);
                assert_eq!(kept, by_walk.keep_node(&node), "{name} at {node}");
                if !kept {
                    continue;
                }
                let is_node = node.depth() + 1 < 3;
                for slot in 0..2 {
                    let child = node.child(slot as u16 + 1);
                    let asked = by_mask.keep_child(slot, is_node);
                    let walked = by_walk.contains(&child);
                    if is_node {
                        assert_eq!(asked, by_walk.keep_child(slot, true), "{name} at {child}");
                        assert!(walked || !asked, "{name} kept {child}, which the walk drops");
                        let holds = exact.is_none_or(|e| e.contains(&child));
                        assert!(asked || !holds, "{name} dropped {child}, which holds a match");
                    } else {
                        assert_eq!(asked, walked, "{name} at {child}");
                    }
                    assert_eq!(
                        by_mask.partials_loaded(),
                        by_walk.partials_loaded(),
                        "{name} at {child}"
                    );
                }
            }
            assert_eq!(by_mask.is_lossy(), by_walk.is_lossy(), "{name}");
        }
    }

    #[test]
    fn probe_variants_agree_on_tuples() {
        let (mut store, _) = store_with(PAGE_SIZE);
        // a2 = {t2 <1,1,2>, t6 <2,1,2>}, b2 = {t2 <1,1,2>, t7 <2,2,1>}.
        let a2 = Signature::from_paths(2, [Path(vec![1, 1, 2]), Path(vec![2, 1, 2])].iter());
        let b2 = Signature::from_paths(2, [Path(vec![1, 1, 2]), Path(vec![2, 2, 1])].iter());
        store.write_signature(0, &a2);
        store.write_signature(1, &b2);

        let mut lazy = BooleanProbe::cursors(vec![store.cursor(0), store.cursor(1)]);
        let exact = a2.intersect(&b2, 3);
        for p in paths_at(3) {
            assert_eq!(lazy.contains(&p), exact.contains(&p), "tuple path {p}");
        }
        // Internal nodes: the lazy walk may be looser, never tighter.
        for p in paths_at(2) {
            assert!(lazy.contains(&p) || !exact.contains(&p), "lazy must not over-prune {p}");
        }
        // The N2 subtree is the paper's example of the walk being looser:
        // both cells have data under <2>, but no shared tuple (a2 has t6
        // under N5, b2 has t7 under N6). The root's masks keep <2> — asked
        // as if its children were tuples, the probe keeps both — but the
        // child question of a node also ANDs the two cells' arrays *of N2*
        // (10 & 01) and prunes it at the root's expansion, as the eager
        // intersection does.
        let n2 = Path(vec![2]);
        assert!(lazy.contains(&n2));
        assert!(!exact.contains(&n2));
        let root = Path::root();
        assert!(lazy.keep_node(&root));
        assert_eq!([lazy.keep_child(0, false), lazy.keep_child(1, false)], [true, true]);
        assert!(lazy.keep_child(0, true), "<1> holds t2");
        assert!(!lazy.keep_child(1, true), "<2> is pruned at the root's expansion");
        assert!(!lazy.keep_node(&n2), "and, restored from a list, before it is read");
        // An eager probe is the same probe with its partials loaded first:
        // the same answers, and no load once it is built.
        let mut eager = loaded_probe(&store, &[0, 1]);
        let up_front = eager.partials_loaded();
        assert_eq!(up_front, 2, "one partial per cell");
        assert!(eager.keep_node(&root));
        assert_eq!([eager.keep_child(0, true), eager.keep_child(1, true)], [true, false]);
        assert!(!eager.keep_node(&n2));
        assert_eq!(eager.partials_loaded(), up_front);
    }

    /// An eager probe over `cells`: their cursors with every partial loaded.
    fn loaded_probe<'a>(store: &'a SignatureStore, cells: &[u32]) -> BooleanProbe<'a> {
        let mut cursors: Vec<_> = cells.iter().map(|&c| store.cursor(c)).collect();
        cursors.iter_mut().for_each(SignatureCursor::load_all);
        BooleanProbe::cursors(cursors)
    }

    /// Walks a complete height-3 tree of fanout `m_max` the way the kernel
    /// does — a node is expanded if the child question kept it and the
    /// pop-time question keeps it — and returns the child question's
    /// verdict on every child node of every expanded node.
    fn child_node_verdicts(probe: &mut BooleanProbe<'_>, m_max: usize) -> Vec<(Path, bool)> {
        let mut verdicts = Vec::new();
        let mut frontier = vec![Path::root()];
        while let Some(node) = frontier.pop() {
            if !probe.keep_node(&node) {
                continue;
            }
            let children: Vec<(Path, bool)> = (0..m_max)
                .map(|slot| (node.child(slot as u16 + 1), probe.keep_child(slot, true)))
                .collect();
            for (child, kept) in children {
                if kept && child.depth() < 2 {
                    frontier.push(child.clone());
                }
                verdicts.push((child, kept));
            }
        }
        verdicts
    }

    /// The slots positions `1..=4` map to under fanout `m_max`: folded into
    /// `1..=m_max`, or — for a row of two words — two slots in each word.
    fn slots(m_max: usize) -> Vec<u16> {
        if m_max > 64 {
            vec![1, 2, 65, m_max as u16]
        } else {
            (1..=m_max.min(4) as u16).collect()
        }
    }

    /// 3, 4, or a fanout above 64, whose rows take two words.
    fn fanout() -> impl Strategy<Value = usize> {
        (0usize..3).prop_map(|i| [3, 4, 70][i])
    }

    /// Random cells over a tree of fanout `m_max` whose height is the length
    /// of the tuple paths (positions `1..=4` map to [`slots`]), written to
    /// a store of `page_size`-byte pages — every `corrupt_every`-th page
    /// then corrupted under checksums, none at 0 — plus their assembled
    /// intersection with the fix-up (Fig 3.c), the exact answer.
    fn random_cells(
        m_max: usize,
        cells: &[HashSet<Vec<u16>>],
        page_size: usize,
        corrupt_every: usize,
    ) -> (SignatureStore, Signature) {
        let height = cells[0].iter().next().map_or(0, Vec::len);
        let slots = slots(m_max);
        let fold = |p: &u16| slots[(usize::from(*p) - 1) % slots.len()];
        let sigs: Vec<Signature> = cells
            .iter()
            .map(|cell| {
                let paths: Vec<Path> =
                    cell.iter().map(|p| Path(p.iter().map(fold).collect())).collect();
                Signature::from_paths(m_max, paths.iter())
            })
            .collect();
        let exact = sigs[1..].iter().fold(sigs[0].clone(), |acc, s| acc.intersect(s, height));
        let (mut store, _) = store_for(m_max, height, page_size);
        for (cell, sig) in sigs.iter().enumerate() {
            store.write_signature(cell as u32, sig);
        }
        corrupt_pages(&mut store, corrupt_every);
        (store, exact)
    }

    /// A lazy probe over the first `n` cells of `store`.
    fn lazy_probe(store: &SignatureStore, n: usize) -> BooleanProbe<'_> {
        BooleanProbe::cursors((0..n as u32).map(|c| store.cursor(c)).collect())
    }

    /// 2–3 random cells of 1–`max` tuple paths of length `height`.
    fn cell_sets(height: usize, max: usize) -> impl Strategy<Value = Vec<HashSet<Vec<u16>>>> {
        prop::collection::vec(
            prop::collection::hash_set(prop::collection::vec(1u16..=4, height), 1..max),
            2..=3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 2- and 3-cell signatures on a height-3 tree of fanout 3, 4
        /// or 70 (two words a row, tuples in both), over pages small enough
        /// to split every cell into several partials. For a leaf-level child node the child question — masks
        /// and look-ahead — equals the assembled intersection (Fig 3.c); at
        /// any level it never drops a child the intersection keeps. With the
        /// signature pages corrupted (every `corrupt_every`-th under
        /// checksums; all of them at 1) the cursors degrade: the child
        /// question may keep more, never less.
        #[test]
        fn look_ahead_is_one_level_of_the_fixup(
            m_max in fanout(),
            cells in cell_sets(3, 40),
            page_size in 24usize..160,
            corrupt_every in 0usize..=3,
        ) {
            let (store, exact) = random_cells(m_max, &cells, page_size, corrupt_every);
            let mut lazy = lazy_probe(&store, cells.len());
            for (child, ahead) in child_node_verdicts(&mut lazy, m_max) {
                let holds = exact.contains(&child);
                prop_assert!(ahead || !holds, "dropped {} holding a qualifying tuple", child);
                if child.depth() == 2 && corrupt_every == 0 {
                    prop_assert_eq!(ahead, holds, "leaf-level child {}", child);
                }
            }
            if corrupt_every == 0 {
                prop_assert!(!lazy.is_lossy());
            }
        }

        /// The same on a height-4 tree, where one level of the fix-up and
        /// all of it differ: on a clean store the pop-time question of a
        /// node — the walk and the subtree check — equals the assembled
        /// intersection at every node below the root (which is always
        /// read); on a corrupted one it never drops a node the intersection
        /// keeps. Asked top-down, and again from a fresh probe bottom-up, so
        /// that verdicts memoised by a parent's check and by a child's both
        /// answer later questions. Under fanout 70 the nodes asked are those
        /// over the slots the tuples use.
        #[test]
        fn subtree_check_is_the_whole_fixup(
            m_max in fanout(),
            cells in cell_sets(4, 60),
            page_size in 24usize..160,
            corrupt_every in 0usize..=3,
        ) {
            let (store, exact) = random_cells(m_max, &cells, page_size, corrupt_every);
            let mut nodes = node_paths_over(&slots(m_max), 4);
            for _ in 0..2 {
                let mut lazy = lazy_probe(&store, cells.len());
                for node in &nodes[1..] {
                    let kept = lazy.keep_node(node);
                    let holds = exact.contains(node);
                    prop_assert!(kept || !holds, "dropped {} holding a qualifying tuple", node);
                    if corrupt_every == 0 {
                        prop_assert_eq!(kept, holds, "node {}", node);
                    }
                }
                if corrupt_every == 0 {
                    prop_assert!(!lazy.is_lossy());
                }
                nodes[1..].reverse();
            }
        }
    }

    /// Two cells on a height-3 tree of fanout 32 and 512 B signature pages,
    /// each spanning several partials: every leaf-level node of cell 0
    /// holds one tuple (slot `a·b mod 32`) and of cell 1 another (slot
    /// `a + b mod 32`), each leaving some subtrees empty; then every
    /// `corrupt_every`-th signature page corrupted under checksums, none at
    /// 0. Returns the store, its statistics, and the exact answers for cell
    /// 0 alone and for both: its assembled signature and the intersection
    /// (Fig 3.c).
    fn masked_cells(corrupt_every: usize) -> (SignatureStore, SharedStats, [Signature; 2]) {
        let (m_max, height) = (32, 3);
        let (mut store, stats) = store_for(m_max, height, 512);
        let cell = |slot: fn(u16, u16) -> u16, keep: fn(u16, u16) -> bool| {
            let paths: Vec<Path> = (1..=32u16)
                .flat_map(|a| (1..=32u16).map(move |b| (a, b)))
                .filter(|&(a, b)| keep(a, b))
                .map(|(a, b)| Path(vec![a, b, slot(a, b) % 32 + 1]))
                .collect();
            Signature::from_paths(m_max, paths.iter())
        };
        let a = cell(|a, b| a * b, |a, b| (a * b) % 5 != 0);
        let b = cell(|a, b| a + b, |a, b| (a + b) % 3 != 0 && a % 7 != 0);
        store.write_signature(0, &a);
        store.write_signature(1, &b);
        assert!(store.partial_refs(0).len() >= 4 && store.partial_refs(1).len() >= 4);
        corrupt_pages(&mut store, corrupt_every);
        let both = a.intersect(&b, height);
        (store, stats, [a, both])
    }

    /// Asks the probe about every node of the tree the way the kernel would
    /// (the pop-time question of a node, then each child in slot order: the
    /// question that loads nothing first, `keep_child` unless it answered),
    /// and checks the first against the second at every child: it reads no
    /// page and loads no partial; it answers `true` only where `keep_child`
    /// answers `false` with no load; and once `keep_child` has fetched the
    /// masks, it answers `true` exactly where `keep_child` dropped a tuple
    /// child. `check` sees each child's path and the first answer. Returns
    /// how many children it ruled out, and how many kept nodes had a mask
    /// left unfetched by the pop-time question.
    fn sweep_ruled_out(
        probe: &mut BooleanProbe<'_>,
        stats: &SharedStats,
        mut check: impl FnMut(&Path, bool),
    ) -> (usize, usize) {
        let (mut ruled_out, mut unfetched) = (0, 0);
        for node in node_paths(32, 3) {
            if !probe.keep_node(&node) {
                continue;
            }
            unfetched += usize::from(probe.expanding.fetched < probe.cursors.len());
            let is_node = node.depth() + 1 < 3;
            let mut kept = Vec::new();
            for slot in 0..32 {
                let before = (stats.snapshot(), probe.partials_loaded());
                let first = probe.rules_out(slot);
                assert_eq!((stats.snapshot(), probe.partials_loaded()), before, "at {node} slot {slot}");
                check(&node.child(slot as u16 + 1), first);
                let keep = probe.keep_child(slot, is_node);
                if first {
                    ruled_out += 1;
                    assert!(!keep, "ruled out a child of {node} that keep_child keeps");
                    assert_eq!(probe.partials_loaded(), before.1, "keep_child loaded at {node}");
                }
                kept.push(keep);
            }
            for (slot, keep) in kept.into_iter().enumerate() {
                let before = (stats.snapshot(), probe.partials_loaded());
                let after_fetch = probe.rules_out(slot);
                assert_eq!((stats.snapshot(), probe.partials_loaded()), before);
                if is_node {
                    assert!(!(after_fetch && keep), "ruled out a kept child node of {node}");
                } else {
                    assert_eq!(after_fetch, !keep, "tuple child {slot} of {node}");
                }
            }
        }
        (ruled_out, unfetched)
    }

    #[test]
    fn the_question_that_loads_nothing_is_keep_child_without_a_load() {
        let (store, stats, [a, both]) = masked_cells(0);
        for (cells, exact) in [(&[0][..], &a), (&[0, 1][..], &both)] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            let (ruled_out, unfetched) = sweep_ruled_out(&mut probe, &stats, |child, first| {
                assert!(!(first && exact.contains(child)), "{cells:?} ruled out {child}");
            });
            assert!(ruled_out > 0, "{cells:?}: nothing ruled out");
            assert!(unfetched > 0, "{cells:?}: every mask was resident");
            assert!(!probe.is_lossy());
        }
        // No conjunct, nothing to rule out by.
        let mut none = BooleanProbe::cursors(Vec::new());
        assert_eq!(sweep_ruled_out(&mut none, &stats, |_, first| assert!(!first)), (0, 0));
    }

    #[test]
    fn the_pop_time_fetch_of_resident_masks_loads_nothing() {
        // The pop-time question of every node, never a child question: no
        // walk reads a leaf-level node's own bits, so a fetch that loaded
        // them would show. Pinned on the commit before the fetch: nodes
        // kept, signature-page reads and partials loaded, for one cursor
        // and for two.
        let (store, stats, _) = masked_cells(0);
        let mut loads = Vec::new();
        for cells in [&[0][..], &[0, 1][..]] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            stats.reset();
            let kept = node_paths(32, 3).iter().filter(|node| probe.keep_node(node)).count();
            loads.push([kept as u64, stats.reads(IoCategory::SignaturePage), probe.partials_loaded()]);
        }
        assert_eq!(loads, [[703, 1, 1], [17, 44, 44]]);
    }

    #[test]
    fn verdicts_memoised_before_a_cursor_degrades_still_answer_exactly() {
        // The page of cell 1's last partial, corrupt under checksums: only
        // nodes under the root's last slots reach it.
        let (mut store, _, [_, both]) = masked_cells(0);
        let (_, loc) = store.refs(1).unwrap().last().unwrap();
        let pager = store.sig_pager_mut();
        pager.set_checksums(true);
        pager.corrupt_page(SignatureStore::unpack_locator(loc).0, 2, 0x40).unwrap();
        let nodes = node_paths(32, 3);
        let (early, late): (Vec<&Path>, Vec<&Path>) = nodes[1..].iter().partition(|n| n.0[0] <= 16);
        let mut probe = lazy_probe(&store, 2);
        let first: Vec<bool> = early.iter().map(|n| probe.keep_node(n)).collect();
        assert!(!probe.is_lossy(), "the first half reads no corrupt page");
        assert_eq!(first, early.iter().map(|n| both.contains(n)).collect::<Vec<_>>());
        let pruned_by_check = early.iter().filter(|n| probe.contains(n) && !both.contains(n)).count();
        assert!(pruned_by_check > 0, "no node the walk keeps is pruned by the subtree check");
        for node in &late {
            assert!(probe.keep_node(node) || !both.contains(node), "dropped {node}");
        }
        assert!(probe.cursors[1].is_degraded() && !probe.cursors[0].is_degraded());
        // Memoised verdicts answer before the degraded cursor is consulted;
        // a node never checked is kept unless the walk or an exact step
        // drops it.
        let again: Vec<bool> = early.iter().map(|n| probe.keep_node(n)).collect();
        assert_eq!(again, first, "a memoised verdict changed once a cursor degraded");
        let mut fresh = lazy_probe(&store, 2);
        for node in late.iter().chain(&early) {
            assert!(fresh.keep_node(node) || !both.contains(node), "dropped {node}");
        }
        assert!(fresh.is_lossy());
    }

    #[test]
    fn a_degraded_probe_rules_out_no_qualifying_child() {
        // Every second signature page corrupt, as the fault-injection suite
        // damages a built store: cursors degrade part-way through.
        let (store, stats, [a, both]) = masked_cells(2);
        for (cells, exact) in [(&[0][..], &a), (&[0, 1][..], &both)] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            sweep_ruled_out(&mut probe, &stats, |child, first| {
                assert!(!(first && exact.contains(child)), "{cells:?} ruled out {child}");
            });
            assert!(probe.is_lossy(), "{cells:?}: no cursor degraded");
        }
    }
}
