//! The skyline family (§V-A, §VII): the static, dynamic, prioritized and
//! subspace skylines are one BBS search in four dominance spaces.
//!
//! A `DominanceSpace` holds what tells them apart: which dimensions are
//! compared, the `x ↦ |x − q|` transform of a dynamic skyline, whether
//! dominance is Pareto or a p-skyline's `≻_Γ` ([`PriorityGraph`]), and a
//! subspace skyline's distinct-value dedup. Every point the family scores,
//! tests or keeps is first mapped into its space — projected onto the
//! compared dimensions and, for a dynamic skyline, transformed; a node by
//! the attainable lower corner of its box. One [`SkylineLogic`] prunes
//! against the [`Window`] of accepted points there, and one class body,
//! [`Skyline`], merges and answers the oracle. [`SkylineClass`],
//! [`DynamicSkylineClass`], [`PSkylineClass`] and [`SubspaceSkylineClass`]
//! name its four constructors.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::marker::PhantomData;

use pcube_rtree::{Mbr, Path};

use crate::plan::Planner;
use crate::query::class::QueryClass;
use crate::query::kernel::{PopVerdict, PreferenceLogic, Region, SharedWindow};
use crate::query::{HeapEntry, ResultEntry};

// ---------------------------------------------------------------------------
// The dominance window
// ---------------------------------------------------------------------------

/// The points accepted so far by one skyline search, in domination space,
/// asked one question — *does a member dominate this candidate?* — for every
/// child of every expanded node.
///
/// Members are stored flat and member-major. A small window answers by
/// scanning them and keeps nothing else. From [`Window::INDEX_MIN`] members
/// on it also keeps, per dimension, the members in ascending order of that
/// coordinate, and a test reads only the *stop-point prefix* of one
/// dimension — the members with `r[d] ≤ p[d]`, among which every dominator
/// of `p` lies whatever `d` is — on the dimension where that prefix is
/// shortest (Liu's SDI framework, arXiv 1908.04083).
#[derive(Debug, Clone)]
pub struct Window {
    stride: usize,
    /// Coordinates, `stride` per member, in push order.
    flat: Vec<f64>,
    /// Per dimension, the first `indexed` members sorted by that coordinate;
    /// the next test files the rest (a window that is only ever iterated
    /// keeps no order at all).
    sorted: Vec<SortedDim>,
    indexed: usize,
    /// The member that dominated the last candidate found dominated: the
    /// children of one node tend to share their dominator, so it is tried
    /// first.
    last: u32,
}

/// One dimension's sorted order: the coordinates ascending, and beside each
/// the member it belongs to.
#[derive(Debug, Clone, Default)]
struct SortedDim {
    keys: Vec<f64>,
    ids: Vec<u32>,
}

/// Pareto dominance of two points in one space: `r ≤ p` everywhere and
/// `r < p` somewhere.
#[inline]
fn dominates(r: &[f64], p: &[f64]) -> bool {
    let mut strict = false;
    for (x, y) in r.iter().zip(p) {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

impl Window {
    /// Members below which the window is a plain scan with no index to keep.
    pub const INDEX_MIN: usize = 32;

    /// An empty window over points of `stride` coordinates.
    ///
    /// # Panics
    /// Panics if `stride` is 0.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "a window needs at least one dimension");
        let sorted = vec![SortedDim::default(); stride];
        Window { stride, flat: Vec::new(), sorted, indexed: 0, last: 0 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.flat.len() / self.stride
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// The members in push order.
    pub fn members(&self) -> impl Iterator<Item = &[f64]> {
        self.flat.chunks_exact(self.stride)
    }

    /// Appends a member.
    pub fn push(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.stride);
        self.flat.extend_from_slice(p);
    }

    /// `true` if some member Pareto-dominates `p` — the verdict of
    /// `members().any(|r| r dominates p)`, reading fewer members.
    pub fn dominated(&mut self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.stride);
        if self.len() < Self::INDEX_MIN {
            return self.members().any(|r| dominates(r, p));
        }
        while self.indexed < self.len() {
            self.index_next();
        }
        let (stride, flat) = (self.stride, &self.flat);
        let member = |id: u32| &flat[id as usize * stride..][..stride];
        if dominates(member(self.last), p) {
            return true;
        }
        // The stop point of each dimension; the shortest prefix wins. It is
        // read from the stop point downwards: a member just below `p` on
        // this dimension is free on the others, one at the far end is
        // extreme here and so, on a front, large elsewhere.
        let prefix = self
            .sorted
            .iter()
            .zip(p)
            .map(|(dim, &x)| &dim.ids[..dim.keys.partition_point(|&key| key <= x)])
            .min_by_key(|prefix| prefix.len())
            .unwrap_or_default();
        match prefix.iter().rev().find(|&&id| dominates(member(id), p)) {
            Some(&id) => {
                self.last = id;
                true
            }
            None => false,
        }
    }

    /// Files the oldest member not yet in the sorted orders into each.
    fn index_next(&mut self) {
        let member = &self.flat[self.indexed * self.stride..][..self.stride];
        for (dim, &x) in self.sorted.iter_mut().zip(member) {
            let at = dim.keys.partition_point(|&key| key <= x);
            dim.keys.insert(at, x);
            dim.ids.insert(at, self.indexed as u32);
        }
        self.indexed += 1;
    }
}

// ---------------------------------------------------------------------------
// The priority relation of a p-skyline
// ---------------------------------------------------------------------------

/// A strict partial order of dimension priorities for p-skyline queries
/// (Mindolin & Chomicki): edges `a OVER b` mean an advantage on `a` excuses
/// any disadvantage on `b`. Stored as the transitive closure over bitmasks;
/// construction rejects cycles, so the relation is a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityGraph {
    dims: Vec<usize>,
    /// `over[i]` bit `j` set ⇔ `dims[i]` has priority over `dims[j]`
    /// (transitively closed).
    over: Vec<u64>,
    /// `covered_by[i]` bit `j` set ⇔ `dims[j]` has priority over `dims[i]`.
    covered_by: Vec<u64>,
}

/// Why a [`PriorityGraph`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriorityGraphError {
    /// The dimension list was empty.
    Empty,
    /// More than 64 preference dimensions (the bitmask width).
    TooManyDims(usize),
    /// A dimension appeared twice in the dimension list.
    DuplicateDim(usize),
    /// A priority edge referenced a dimension outside the list.
    UnknownDim(usize),
    /// The priority edges form a cycle, so they are not a strict partial
    /// order.
    Cycle,
}

impl fmt::Display for PriorityGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityGraphError::Empty => write!(f, "priority graph needs at least one dimension"),
            PriorityGraphError::TooManyDims(n) => {
                write!(f, "priority graph supports at most 64 dimensions, got {n}")
            }
            PriorityGraphError::DuplicateDim(d) => {
                write!(f, "dimension {d} listed more than once")
            }
            PriorityGraphError::UnknownDim(d) => {
                write!(f, "priority edge references dimension {d}, which is not in the dimension list")
            }
            PriorityGraphError::Cycle => write!(f, "priority edges form a cycle"),
        }
    }
}

impl std::error::Error for PriorityGraphError {}

impl PriorityGraph {
    /// Builds the priority relation over `dims` from `edges` of the form
    /// `(dominant dim, dominated dim)`, taking the transitive closure and
    /// rejecting cycles. An empty edge list yields plain Pareto dominance.
    pub fn new(dims: Vec<usize>, edges: &[(usize, usize)]) -> Result<Self, PriorityGraphError> {
        if dims.is_empty() {
            return Err(PriorityGraphError::Empty);
        }
        if dims.len() > 64 {
            return Err(PriorityGraphError::TooManyDims(dims.len()));
        }
        let mut seen = HashSet::new();
        for &d in &dims {
            if !seen.insert(d) {
                return Err(PriorityGraphError::DuplicateDim(d));
            }
        }
        let pos = |d: usize| dims.iter().position(|&x| x == d);
        let n = dims.len();
        let mut over = vec![0u64; n];
        for &(a, b) in edges {
            let ia = pos(a).ok_or(PriorityGraphError::UnknownDim(a))?;
            let ib = pos(b).ok_or(PriorityGraphError::UnknownDim(b))?;
            over[ia] |= 1 << ib;
        }
        // Bitset Floyd–Warshall: after considering intermediate `k`,
        // `over[i]` holds every position reachable through nodes ≤ k.
        for k in 0..n {
            for i in 0..n {
                if over[i] & (1 << k) != 0 {
                    over[i] |= over[k];
                }
            }
        }
        if (0..n).any(|i| over[i] & (1 << i) != 0) {
            return Err(PriorityGraphError::Cycle);
        }
        let covered_by = (0..n)
            .map(|i| {
                (0..n).fold(0u64, |m, j| if over[j] & (1 << i) != 0 { m | (1 << j) } else { m })
            })
            .collect();
        Ok(PriorityGraph { dims, over, covered_by })
    }

    /// The preference dimensions, in declaration order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// `true` if the relation has no priority edges (plain Pareto).
    pub fn is_pareto(&self) -> bool {
        self.over.iter().all(|&m| m == 0)
    }

    /// Number of *source* dimensions (not dominated by any other) — the
    /// relation's effective width, used for answer-size estimation.
    pub fn source_dims(&self) -> usize {
        self.covered_by.iter().filter(|&&m| m == 0).count()
    }

    /// The p-skyline dominance `a ≻_Γ b`: `a` is strictly better somewhere,
    /// and every dimension where `a` is worse is excused by some dimension
    /// where `a` is better that has priority over it. With no edges this
    /// is exactly Pareto dominance.
    pub fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        self.relates(self.dims.iter().map(|&d| (a[d], b[d])))
    }

    /// [`Self::dominates`] for two points already projected onto
    /// [`Self::dims`], in that order.
    #[inline]
    fn dominates_projected(&self, a: &[f64], b: &[f64]) -> bool {
        self.relates(a.iter().copied().zip(b.iter().copied()))
    }

    /// `≻_Γ` over the `(a, b)` coordinate pairs of [`Self::dims`], in order.
    #[inline]
    fn relates(&self, pairs: impl Iterator<Item = (f64, f64)>) -> bool {
        let mut better = 0u64;
        let mut worse = 0u64;
        for (i, (a, b)) in pairs.enumerate() {
            if a < b {
                better |= 1 << i;
            } else if a > b {
                worse |= 1 << i;
            }
        }
        if better == 0 {
            return false;
        }
        let mut w = worse;
        while w != 0 {
            let i = w.trailing_zeros() as usize;
            if better & self.covered_by[i] == 0 {
                return false;
            }
            w &= w - 1;
        }
        true
    }
}

// ---------------------------------------------------------------------------
// The dominance space
// ---------------------------------------------------------------------------

/// Where one skyline of the family compares points.
struct DominanceSpace {
    /// The compared dimensions, in order: every point in the space is
    /// projected onto them.
    dims: Vec<usize>,
    /// A dynamic skyline's query point, projected onto `dims`: the space is
    /// then `x ↦ |x − q|`.
    query_point: Option<Vec<f64>>,
    /// A p-skyline's `≻_Γ`; `None` is Pareto dominance.
    graph: Option<PriorityGraph>,
    /// A subspace skyline's distinct-value semantics: the rows are the
    /// projections, and tuples that collide on one collapse to the smallest
    /// tid, being indistinguishable in the subspace.
    distinct: bool,
}

/// A tentatively accepted point in the skyline family's merge
/// representation: `(heap score, tid, domination-space point, original
/// coordinates)`.
pub type SkyPoint = (f64, u64, Vec<f64>, Vec<f64>);

impl DominanceSpace {
    /// The static skyline's space: the data space on `dims`, under Pareto
    /// dominance.
    fn pareto(dims: Vec<usize>) -> Self {
        DominanceSpace { dims, query_point: None, graph: None, distinct: false }
    }

    /// Writes the domination-space point of `region` into `out`: a tuple's
    /// point, or the attainable lower corner of a node's box — per
    /// dimension the least any point inside can reach, so whatever
    /// dominates the corner dominates the box (the BBS rule; under `≻_Γ` by
    /// monotonicity: moving `t` up coordinate-wise only grows `W(p, t)` and
    /// shrinks `W(t, p)`). The seeded root's `−∞` corner is dominated by no
    /// point, and its dynamic corner is 0, `q` lying inside. Inlined into
    /// every per-child method, where the region's kind is known.
    #[inline(always)]
    fn map(&self, region: Region<'_>, out: &mut Vec<f64>) {
        out.clear();
        let dims = self.dims.iter();
        match (region, &self.query_point) {
            (Region::Point(x), None) => out.extend(dims.map(|&d| x[d])),
            (Region::Box(mbr), None) => out.extend(dims.map(|&d| mbr.min[d])),
            (Region::Point(x), Some(q)) => out.extend(dims.zip(q).map(|(&d, &q)| (x[d] - q).abs())),
            // The distance from `q` to the nearest face, 0 where `q` lies
            // inside.
            (Region::Box(mbr), Some(q)) => out.extend(dims.zip(q).map(|(&d, &q)| {
                if q < mbr.min[d] {
                    mbr.min[d] - q
                } else if q > mbr.max[d] {
                    q - mbr.max[d]
                } else {
                    0.0
                }
            })),
        }
    }

    /// `a` dominates `b`, two points of the space.
    fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        match &self.graph {
            None => dominates(a, b),
            Some(g) => g.dominates_projected(a, b),
        }
    }

    /// `true` if a member of `window` dominates `p`: through the window's
    /// index under Pareto dominance; by a scan of every member under
    /// `≻_Γ`, which is not coordinate-wise, so no coordinate bounds its
    /// dominators.
    #[inline]
    fn dominated(&self, window: &mut Window, p: &[f64]) -> bool {
        match &self.graph {
            None => window.dominated(p),
            Some(g) => window.members().any(|r| g.dominates_projected(r, p)),
        }
    }

    /// A tuple as a [`SkyPoint`]. Its score is summed as
    /// [`SkylineLogic::score_tuple`] sums it, so it is the tuple's heap
    /// score to the bit.
    fn sky_point(&self, tid: u64, coords: Vec<f64>) -> SkyPoint {
        let mut point = Vec::with_capacity(self.dims.len());
        self.map(Region::Point(&coords), &mut point);
        (point.iter().sum(), tid, point, coords)
    }

    /// The maximal points of `points` as rows, in canonical `(score, tid)`
    /// order. The heap score is order-compatible with Pareto dominance, so
    /// a Pareto space winnows sort-first; under `≻_Γ` it says nothing, and
    /// every pair is compared.
    fn winnow(&self, points: Vec<SkyPoint>) -> Vec<(u64, Vec<f64>)> {
        let kept = match &self.graph {
            None => winnow_sorted(points, self.dims.len()),
            Some(_) => winnow_points(&points, |a, b| self.dominates(a, b)),
        };
        self.rows(kept)
    }

    /// The answer's rows from the kept `(tid, coordinates)` in canonical
    /// order: as they are, or — distinct-value semantics — projected, the
    /// first of each projection (the smallest tid among equal projections)
    /// kept. Equal projections never strictly dominate each other, so every
    /// duplicate survives the winnow and is collapsed here.
    fn rows(&self, kept: Vec<(u64, Vec<f64>)>) -> Vec<(u64, Vec<f64>)> {
        if !self.distinct {
            return kept;
        }
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        kept.into_iter()
            .filter_map(|(tid, coords)| {
                let proj: Vec<f64> = self.dims.iter().map(|&d| coords[d]).collect();
                let key: Vec<u64> = proj.iter().map(|v| v.to_bits()).collect();
                seen.insert(key).then_some((tid, proj))
            })
            .collect()
    }
}

/// Cross-filters accepted points down to the maximal set under `dom`
/// (`dom(a, b)` = "a dominates b" in the space), then canonicalizes to
/// ascending `(score, tid)` order and keeps `(tid, original coordinates)`.
/// Traversal-order independent, which is the whole serial == parallel
/// argument for the skyline family. All pairs, on purpose: it is the
/// reference the family's `oracle` answers with, and the merge under `≻_Γ`,
/// about which the score says nothing.
fn winnow_points(
    points: &[SkyPoint],
    dom: impl Fn(&[f64], &[f64]) -> bool,
) -> Vec<(u64, Vec<f64>)> {
    let mut kept: Vec<&SkyPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|o| o.1 != p.1 && dom(&o.2, &p.2)))
        .collect();
    kept.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    kept.into_iter().map(|p| (p.1, p.3.clone())).collect()
}

/// [`winnow_points`] under Pareto dominance for points of `stride`
/// coordinates scored by their sum, sort-first: floating-point addition is
/// monotone, so a dominator never scores higher than what it dominates, and
/// in ascending `(score, tid)` order a point only has to be tested against
/// the [`Window`] of those kept before it. A dominator's sum can *round to
/// the same* score, though, so a run of equal scores is also cross-checked
/// against itself, both ways.
fn winnow_sorted(mut points: Vec<SkyPoint>, stride: usize) -> Vec<(u64, Vec<f64>)> {
    points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut window = Window::new(stride);
    let mut kept = Vec::new();
    let mut run = 0..0;
    for at in 0..points.len() {
        if at == run.end {
            let tied = points[at..].iter().take_while(|p| p.0 == points[at].0).count();
            run = at..at + tied;
        }
        let point = &points[at].2;
        if window.dominated(point) || points[run.clone()].iter().any(|o| dominates(&o.2, point)) {
            continue;
        }
        window.push(point);
        kept.push((points[at].1, std::mem::take(&mut points[at].3)));
    }
    kept
}

// ---------------------------------------------------------------------------
// The logic: BBS dominance pruning
// ---------------------------------------------------------------------------

/// Heap pops between shared-window refreshes. Purely a performance knob:
/// staleness only costs extra traversal, never correctness (the merge
/// cross-filters every local result against every other).
const WINDOW_REFRESH_INTERVAL: u64 = 32;

/// One search's view of the accepted points: its own, pushed as they are
/// accepted, and — in a parallel worker — every other worker's, read from
/// the [`SharedWindow`] every [`WINDOW_REFRESH_INTERVAL`] pops. All in one
/// [`Window`], each point once.
struct Accepted<'a> {
    points: Window,
    shared: Option<&'a SharedWindow>,
    /// Shared slots this worker published into and has not read past yet:
    /// its own points come back through the refresh and are skipped.
    mine: VecDeque<usize>,
    mark: usize,
    pops: u64,
}

impl<'a> Accepted<'a> {
    fn new(stride: usize, shared: Option<&'a SharedWindow>) -> Self {
        Accepted { points: Window::new(stride), shared, mine: VecDeque::new(), mark: 0, pops: 0 }
    }

    /// Counts a pop; on every [`WINDOW_REFRESH_INTERVAL`]-th, reads what the
    /// other workers have published since the last one.
    fn on_pop(&mut self) {
        self.pops += 1;
        let Some(shared) = self.shared else { return };
        if self.pops.is_multiple_of(WINDOW_REFRESH_INTERVAL) {
            let (points, mine) = (&mut self.points, &mut self.mine);
            self.mark = shared.refresh(self.mark, |slot, point| {
                if mine.front() == Some(&slot) {
                    mine.pop_front();
                } else {
                    points.push(point);
                }
            });
        }
    }

    /// An accepted point (in domination space) joins the window and is
    /// published.
    fn push(&mut self, point: &[f64]) {
        self.points.push(point);
        if let Some(shared) = self.shared {
            self.mine.push_back(shared.push(point.to_vec()));
        }
    }
}

/// Skyline accumulation in one `DominanceSpace`: BBS dominance pruning
/// against the window of accepted points — in a parallel worker, every
/// worker's. The heap score is the sum of a candidate's domination-space
/// coordinates. Under Pareto dominance a dominator never scores higher, so
/// an accepted point is final; under `≻_Γ` the score says nothing, so
/// accepts are tentative — a member of the true p-skyline is never pruned
/// (pruning only ever removes dominated candidates, and `≻_Γ` is
/// transitive), and the merge winnows the accepted superset exact.
pub struct SkylineLogic<'a> {
    space: &'a DominanceSpace,
    result: Vec<ResultEntry>,
    window: Accepted<'a>,
    /// Reused buffer for the domination-space point under test.
    point: Vec<f64>,
}

impl<'a> SkylineLogic<'a> {
    fn new(space: &'a DominanceSpace, shared: Option<&'a SharedWindow>) -> Self {
        SkylineLogic {
            space,
            result: Vec::new(),
            window: Accepted::new(space.dims.len(), shared),
            point: Vec::with_capacity(space.dims.len()),
        }
    }

    /// Domination pruning: `region` is pruned if an accepted point
    /// dominates its domination-space point.
    #[inline]
    fn dominated(&mut self, region: Region<'_>) -> bool {
        // Until the first accept there is nothing to map for.
        if self.window.points.is_empty() {
            return false;
        }
        self.space.map(region, &mut self.point);
        self.space.dominated(&mut self.window.points, &self.point)
    }

    /// The sum of the domination-space point of `region`, in dimension
    /// order.
    #[inline]
    fn score(&mut self, region: Region<'_>) -> f64 {
        self.space.map(region, &mut self.point);
        self.point.iter().sum()
    }
}

impl PreferenceLogic for SkylineLogic<'_> {
    fn on_pop(&mut self, entry: &HeapEntry) -> PopVerdict {
        self.window.on_pop();
        if self.dominated(entry.cand.region()) {
            return PopVerdict::Prune;
        }
        PopVerdict::Continue
    }

    fn score_tuple(&mut self, coords: &[f64]) -> f64 {
        self.score(Region::Point(coords))
    }

    fn score_node(&mut self, mbr: &Mbr, _depth: usize) -> f64 {
        self.score(Region::Box(mbr))
    }

    fn prune_child(&mut self, _score: f64, child: Region<'_>) -> bool {
        self.dominated(child)
    }

    fn accept(&mut self, score: f64, tid: u64, path: Path, coords: Vec<f64>) {
        self.space.map(Region::Point(&coords), &mut self.point);
        self.window.push(&self.point);
        self.result.push(ResultEntry { tid, coords, path, score });
    }
}

// ---------------------------------------------------------------------------
// The class
// ---------------------------------------------------------------------------

/// One member of the skyline family, as the type parameter of [`Skyline`]:
/// its class name, and whether its runs can resume (§V-C).
pub trait Member {
    /// The class name `EXPLAIN`, the planner and benchmarks report.
    const NAME: &'static str;
    /// Whether a run keeps the state a drill-down or roll-up restarts from.
    const RESUMABLE: bool;
}

/// The static skyline ([`SkylineClass`]).
pub struct Static;
/// The dynamic skyline ([`DynamicSkylineClass`]).
pub struct Dynamic;
/// The prioritized skyline ([`PSkylineClass`]).
pub struct Prioritized;
/// The subspace skyline ([`SubspaceSkylineClass`]).
pub struct Subspace;

impl Member for Static {
    const NAME: &'static str = "skyline";
    const RESUMABLE: bool = true;
}
impl Member for Dynamic {
    const NAME: &'static str = "dynamic-skyline";
    const RESUMABLE: bool = false;
}
impl Member for Prioritized {
    const NAME: &'static str = "p-skyline";
    const RESUMABLE: bool = false;
}
impl Member for Subspace {
    const NAME: &'static str = "subspace-skyline";
    const RESUMABLE: bool = false;
}

/// The skyline family's query class: BBS over one `DominanceSpace`. `K`
/// picks the member — its constructor, its name and whether it resumes;
/// everything else is the space's.
pub struct Skyline<K> {
    space: DominanceSpace,
    member: PhantomData<K>,
}

impl<K> Skyline<K> {
    fn of(space: DominanceSpace) -> Self {
        Skyline { space, member: PhantomData }
    }
}

/// The static skyline class: Pareto-maximal tuples over a set of
/// preference dimensions (§V-A), BBS-style.
///
/// Partial answers: BBS accepts only never-dominated points, so a serial
/// partial is a sound subset of the full skyline. A parallel partial is
/// mutually undominated among the *visited* points only — an unvisited
/// subtree may hold a dominator. The same holds for the dynamic and
/// subspace variants.
pub type SkylineClass = Skyline<Static>;

/// The dynamic skyline class (§VII): skyline in the transformed space
/// `x ↦ |x − q|` around a query point `q` — tuple `p` dynamically dominates
/// `p'` iff `|p_d − q_d| ≤ |p'_d − q_d|` on every chosen dimension and
/// strictly on one. Computed without materializing the transform: the
/// transform of a box has an attainable per-dimension lower corner (the
/// distance from `q_d` to the nearest face, reached independently per
/// dimension), so both the BBS ordering key and the dominance prune carry
/// over. `q` is indexed by the full coordinate space, like the tuples, and
/// only its chosen dimensions are read.
///
/// Partial answers: as [`SkylineClass`]'s.
pub type DynamicSkylineClass = Skyline<Dynamic>;

/// The prioritized skyline class: winnow under the p-skyline relation of a
/// [`PriorityGraph`]. The kernel's heap score is not order-compatible with
/// `≻_Γ`, so workers accept a superset and the merge winnows it exact —
/// sound because `≻_Γ` is transitive and pruning only ever removes
/// dominated candidates.
///
/// Partial answers: qualifying and mutually `≻_Γ`-incomparable, but — the
/// accepts being tentative — not necessarily members of the full answer.
pub type PSkylineClass = Skyline<Prioritized>;

/// The subspace skyline class: the skyline of the data projected onto a
/// dimension subset `U`, with *distinct-value* semantics — tuples that
/// collide on the projection collapse to one representative row (the
/// smallest tid), since they are indistinguishable in the subspace.
///
/// Partial answers: as [`SkylineClass`]'s.
pub type SubspaceSkylineClass = Skyline<Subspace>;

impl Skyline<Static> {
    /// Skyline over `pref_dims` (smaller is better on every dimension).
    ///
    /// # Panics
    /// Panics if `pref_dims` is empty.
    pub fn new(pref_dims: Vec<usize>) -> Self {
        assert!(!pref_dims.is_empty(), "skyline needs at least one preference dimension");
        Skyline::of(DominanceSpace::pareto(pref_dims))
    }
}

impl Skyline<Dynamic> {
    /// Dynamic skyline around `query_point` over `pref_dims`.
    ///
    /// # Panics
    /// Panics if `pref_dims` is empty or indexes past `query_point`.
    pub fn new(query_point: &[f64], pref_dims: Vec<usize>) -> Self {
        assert!(
            !pref_dims.is_empty(),
            "dynamic skyline needs at least one preference dimension"
        );
        assert!(
            pref_dims.iter().all(|&d| d < query_point.len()),
            "preference dimension out of range of the query point"
        );
        let q = pref_dims.iter().map(|&d| query_point[d]).collect();
        Skyline::of(DominanceSpace { query_point: Some(q), ..DominanceSpace::pareto(pref_dims) })
    }
}

impl Skyline<Prioritized> {
    /// Prioritized skyline under `graph`.
    pub fn new(graph: PriorityGraph) -> Self {
        let space = DominanceSpace::pareto(graph.dims().to_vec());
        Skyline::of(DominanceSpace { graph: Some(graph), ..space })
    }

    /// The priority relation this class winnows under.
    pub fn graph(&self) -> &PriorityGraph {
        self.space.graph.as_ref().expect("a p-skyline's space has its graph")
    }
}

impl Skyline<Subspace> {
    /// Skyline in the subspace spanned by `dims`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains duplicates.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "subspace skyline needs at least one dimension");
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), dims.len(), "subspace dimensions must be distinct");
        Skyline::of(DominanceSpace { distinct: true, ..DominanceSpace::pareto(dims) })
    }
}

impl<K: Member> QueryClass for Skyline<K> {
    type Row = (u64, Vec<f64>);
    type Local = Vec<SkyPoint>;
    type Shared = SharedWindow;
    type Logic<'a>
        = SkylineLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        K::NAME
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.space.dims.iter().copied().max()
    }

    fn new_shared(&self) -> SharedWindow {
        SharedWindow::new()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedWindow>) -> SkylineLogic<'a> {
        SkylineLogic::new(&self.space, shared)
    }

    fn finish(&self, logic: SkylineLogic<'_>) -> Self::Local {
        logic.result.into_iter().map(|r| self.space.sky_point(r.tid, r.coords)).collect()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        self.space.winnow(locals.into_iter().flatten().collect())
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        // `≻_Γ` is as wide as the graph's source dimensions.
        let width = self.space.graph.as_ref().map_or(self.space.dims.len(), |g| g.source_dims());
        Planner::skyline_size(qualifying, width)
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> =
            rows.iter().map(|(tid, c)| self.space.sky_point(*tid, c.clone())).collect();
        self.space.rows(winnow_points(&points, |a, b| self.space.dominates(a, b)))
    }

    fn restart_entries(&self, logic: &SkylineLogic<'_>) -> Option<Vec<HeapEntry>> {
        K::RESUMABLE.then(|| logic.result.iter().map(ResultEntry::requeue).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;

    #[test]
    fn equal_points_and_signed_zeros_do_not_dominate() {
        let mut w = Window::new(2);
        w.push(&[0.0, 1.0]);
        assert!(!w.dominated(&[0.0, 1.0]));
        assert!(!w.dominated(&[-0.0, 1.0]), "-0.0 == 0.0");
        assert!(w.dominated(&[0.0, 1.5]));
        assert!(!w.dominated(&[-1.0, 9.0]));
    }

    #[test]
    fn the_indexed_window_answers_like_the_scan() {
        // A front of mutually incomparable points plus duplicates, pushed in
        // an order unrelated to any coordinate, probed across rebuilds.
        let mut w = Window::new(3);
        let mut x = 9u32;
        let mut next = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            f64::from((x >> 8) % 32) / 32.0
        };
        for i in 0..20 * Window::INDEX_MIN {
            let (a, b) = (next(), next());
            w.push(&[a, b, 2.0 - a - b]);
            let p = [next(), next(), 2.0 - next() - next()];
            let scan = w.members().any(|r| dominates(r, &p));
            assert_eq!(w.dominated(&p), scan, "{p:?} against {} members", i + 1);
        }
        assert_eq!(w.indexed, w.len());
    }

    #[test]
    fn priority_graph_rejects_bad_inputs() {
        assert_eq!(PriorityGraph::new(vec![], &[]), Err(PriorityGraphError::Empty));
        assert_eq!(
            PriorityGraph::new(vec![0, 0], &[]),
            Err(PriorityGraphError::DuplicateDim(0))
        );
        assert_eq!(
            PriorityGraph::new(vec![0, 1], &[(0, 2)]),
            Err(PriorityGraphError::UnknownDim(2))
        );
        assert_eq!(
            PriorityGraph::new(vec![0, 1], &[(0, 1), (1, 0)]),
            Err(PriorityGraphError::Cycle)
        );
        assert_eq!(PriorityGraph::new(vec![0], &[(0, 0)]), Err(PriorityGraphError::Cycle));
    }

    #[test]
    fn priority_graph_holds_64_dimensions_and_refuses_65_typed() {
        // The relation lives in one `u64` mask per dimension.
        let chain: Vec<(usize, usize)> = (1..64).map(|d| (d - 1, d)).collect();
        let graph = PriorityGraph::new((0..64).collect(), &chain).expect("64 dimensions fit");
        assert_eq!(graph.source_dims(), 1, "a chain has one source");
        let (mut a, b) = (vec![1.0; 64], vec![1.0; 64]);
        a[0] = 0.0;
        a[63] = 9.0;
        assert!(graph.dominates(&a, &b), "dimension 0 excuses dimension 63 through the closure");
        assert_eq!(
            PriorityGraph::new((0..65).collect(), &[]),
            Err(PriorityGraphError::TooManyDims(65))
        );
    }

    #[test]
    fn empty_graph_is_pareto() {
        let g = PriorityGraph::new(vec![0, 1, 2], &[]).expect("valid");
        assert!(g.is_pareto());
        assert_eq!(g.source_dims(), 3);
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 5.0, 3.0];
        assert_eq!(g.dominates(&a, &b), query::dominates(&a, &b, &[0, 1, 2]));
        assert_eq!(g.dominates(&b, &a), query::dominates(&b, &a, &[0, 1, 2]));
        assert!(!g.dominates(&a, &a), "equal points never dominate");
    }

    #[test]
    fn priority_excuses_dominated_dimensions() {
        // 0 OVER 1: an advantage on 0 excuses any disadvantage on 1.
        let g = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("valid");
        assert!(g.dominates(&[1.0, 9.0], &[2.0, 1.0]));
        assert!(!g.dominates(&[2.0, 1.0], &[1.0, 9.0]), "worse on the prioritized dim");
        // Equal on 0, better on 1: still dominates (Pareto case).
        assert!(g.dominates(&[1.0, 0.5], &[1.0, 9.0]));
        assert_eq!(g.source_dims(), 1);
    }

    #[test]
    fn priority_closure_is_transitive() {
        // 0 OVER 1, 1 OVER 2 ⇒ 0 OVER 2.
        let g = PriorityGraph::new(vec![0, 1, 2], &[(0, 1), (1, 2)]).expect("valid");
        assert!(g.dominates(&[1.0, 5.0, 9.0], &[2.0, 5.0, 1.0]), "advantage on 0 excuses 2");
        // Cycle through the closure is rejected.
        assert_eq!(
            PriorityGraph::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            Err(PriorityGraphError::Cycle)
        );
    }

    #[test]
    fn winnow_is_partition_independent() {
        let pts = [
            (3.0, 1, vec![1.0, 2.0], vec![1.0, 2.0]),
            (3.0, 2, vec![2.0, 1.0], vec![2.0, 1.0]),
            (6.0, 3, vec![2.0, 4.0], vec![2.0, 4.0]),
        ];
        let rows = winnow_points(&pts, dominates);
        assert_eq!(rows, vec![(1, vec![1.0, 2.0]), (2, vec![2.0, 1.0])]);
    }

    #[test]
    fn sorted_winnow_agrees_with_all_pairs_when_a_dominator_rounds_to_the_same_score() {
        // 1e16 + 1.0 rounds to 1e16: the dominator [1e16, 0] and the point
        // [1e16, 1] it dominates sort by tid alone, so the dominator can come
        // second. A second such pair shares the run, and a bystander follows.
        let point =
            |tid: u64, c: [f64; 2]| -> SkyPoint { (c[0] + c[1], tid, c.to_vec(), c.to_vec()) };
        for (strong, weak) in [(2, 9), (9, 2)] {
            let points = vec![
                point(weak, [1e16, 1.0]),
                point(strong, [1e16, 0.0]),
                point(4, [1e16, 1.0]),
                point(5, [0.5, 3e16]),
                point(7, [1e16 + 2.0, -2.0]),
                point(6, [1e16 + 2.0, -3.0]),
            ];
            assert!(points[..2].iter().chain(&points[4..]).all(|p| p.0 == 1e16), "the premise");
            let all_pairs = winnow_points(&points, dominates);
            let kept: Vec<u64> = all_pairs.iter().map(|r| r.0).collect();
            assert_eq!(kept, vec![strong.min(6), strong.max(6), 5]);
            assert_eq!(winnow_sorted(points, 2), all_pairs);
        }
    }

    #[test]
    fn subspace_dedup_keeps_smallest_tid() {
        let class = SubspaceSkylineClass::new(vec![0]);
        let local: Vec<SkyPoint> = vec![
            (1.0, 7, vec![1.0], vec![1.0, 9.0]),
            (1.0, 3, vec![1.0], vec![1.0, 4.0]),
            (2.0, 1, vec![2.0], vec![2.0, 0.0]),
        ];
        let rows = class.merge(vec![local]);
        // tid 3 and 7 collide on the projection; 3 wins. tid 1 is dominated
        // in the subspace.
        assert_eq!(rows, vec![(3, vec![1.0])]);
    }

    #[test]
    fn the_dynamic_space_reads_only_the_compared_dimensions_of_q() {
        // `q` covers dimensions 0 and 1 of a three-dimension tree.
        let class = DynamicSkylineClass::new(&[0.5, 0.5], vec![0, 1]);
        let (mut point, space) = (Vec::new(), &class.space);
        space.map(Region::Point(&[0.25, 1.0, 9.0]), &mut point);
        assert_eq!(point, [0.25, 0.5]);
        let mbr = Mbr { min: vec![0.75, 0.0, 0.0], max: vec![1.0, 0.25, 1.0] };
        space.map(Region::Box(&mbr), &mut point);
        assert_eq!(point, [0.25, 0.25]);
        let root = Mbr { min: vec![f64::NEG_INFINITY; 3], max: vec![f64::INFINITY; 3] };
        space.map(Region::Box(&root), &mut point);
        assert_eq!(point, [0.0, 0.0]);
    }
}
