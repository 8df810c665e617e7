//! Cuboids, cells and the materialization plan.

use std::collections::HashMap;

use crate::predicate::{Predicate, Selection};
use crate::relation::Relation;

/// A cuboid — a subset of the boolean dimensions — as a bitmask.
///
/// Supports up to 32 boolean dimensions, far beyond the paper's experiments
/// (3–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuboidMask(pub u32);

impl CuboidMask {
    /// The apex cuboid (no dimensions; its single cell is the whole table).
    pub const APEX: CuboidMask = CuboidMask(0);

    /// Builds a mask from dimension indexes.
    ///
    /// # Panics
    /// Panics if a dimension index is ≥ 32.
    pub fn from_dims(dims: &[usize]) -> Self {
        let mut m = 0u32;
        for &d in dims {
            assert!(d < 32, "at most 32 boolean dimensions supported");
            m |= 1 << d;
        }
        CuboidMask(m)
    }

    /// The single-dimension (atomic) cuboid of `dim`.
    pub fn atomic(dim: usize) -> Self {
        Self::from_dims(&[dim])
    }

    /// Dimension indexes in ascending order.
    pub fn dims(self) -> Vec<usize> {
        (0..32).filter(|d| self.0 >> d & 1 == 1).collect()
    }

    /// Number of dimensions in the cuboid (its level in the lattice).
    pub fn level(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` for one-dimensional cuboids.
    pub fn is_atomic(self) -> bool {
        self.level() == 1
    }

    /// `true` if the cuboid includes `dim`.
    pub fn contains_dim(self, dim: usize) -> bool {
        dim < 32 && self.0 >> dim & 1 == 1
    }
}

/// Identifies one cell: a cuboid and the value code for each of its
/// dimensions, aligned with [`CuboidMask::dims`] order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// The cuboid the cell belongs to.
    pub mask: CuboidMask,
    /// Value codes, one per dimension of the mask, in ascending-dim order.
    pub values: Vec<u32>,
}

impl CellKey {
    /// The atomic cell `A_dim = value`.
    pub fn atomic(dim: usize, value: u32) -> Self {
        CellKey { mask: CuboidMask::atomic(dim), values: vec![value] }
    }

    /// The cell a conjunctive selection addresses (dimensions sorted,
    /// duplicates assumed already normalized).
    pub fn from_selection(selection: &Selection) -> Self {
        let mut preds: Vec<Predicate> = selection.clone();
        preds.sort_by_key(|p| p.dim);
        CellKey {
            mask: CuboidMask::from_dims(&preds.iter().map(|p| p.dim).collect::<Vec<_>>()),
            values: preds.iter().map(|p| p.value).collect(),
        }
    }

    /// The selection equivalent to this cell.
    pub fn to_selection(&self) -> Selection {
        self.mask
            .dims()
            .into_iter()
            .zip(&self.values)
            .map(|(dim, &value)| Predicate { dim, value })
            .collect()
    }
}

/// Assigns dense `u32` codes to cells so they can key B+-tree composites.
#[derive(Debug, Default, Clone)]
pub struct CellRegistry {
    codes: HashMap<CellKey, u32>,
    keys: Vec<CellKey>,
}

impl CellRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CellRegistry::default()
    }

    /// The code for `key`, allocating the next one on first use.
    pub fn intern(&mut self, key: CellKey) -> u32 {
        if let Some(&c) = self.codes.get(&key) {
            return c;
        }
        let code = u32::try_from(self.keys.len()).expect("cell registry full");
        self.codes.insert(key.clone(), code);
        self.keys.push(key);
        code
    }

    /// The code for `key`, if registered.
    pub fn code(&self, key: &CellKey) -> Option<u32> {
        self.codes.get(key).copied()
    }

    /// The key registered under `code`.
    pub fn key(&self, code: u32) -> Option<&CellKey> {
        self.keys.get(code as usize)
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no cell is registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Which cuboids a P-Cube materializes signatures for.
///
/// "Due to the curse of dimensionality, we may only compute a subset of low
/// dimensional cuboids … we assume that the P-Cube always contains a set of
/// atomic cuboids" (§IV-B.2). [`MaterializationPlan::Atomic`] is the paper's
/// default; a higher-order cell is answered at query time by ANDing its
/// atomic cells' signatures, with the recursive fix-up of the intersection.
#[derive(Debug, Clone)]
pub enum MaterializationPlan {
    /// All one-dimensional cuboids (the paper's experimental setting).
    Atomic,
    /// Every cuboid with at most this many dimensions.
    UpToLevel(usize),
    /// An explicit cuboid list (atomic cuboids are implicitly added, as the
    /// paper requires them for online assembly).
    Explicit(Vec<CuboidMask>),
}

impl MaterializationPlan {
    /// The concrete cuboids to materialize for `n_bool` boolean dimensions,
    /// always including all atomic cuboids, sorted by level then mask.
    pub fn cuboids(&self, n_bool: usize) -> Vec<CuboidMask> {
        assert!(n_bool <= 32, "at most 32 boolean dimensions supported");
        let mut out: Vec<CuboidMask> = match self {
            MaterializationPlan::Atomic => {
                (0..n_bool).map(CuboidMask::atomic).collect()
            }
            MaterializationPlan::UpToLevel(k) => {
                let all = 1u64 << n_bool;
                (1..all)
                    .map(|m| CuboidMask(m as u32))
                    .filter(|m| m.level() <= *k && m.level() >= 1)
                    .collect()
            }
            MaterializationPlan::Explicit(masks) => {
                let mut v: Vec<CuboidMask> = (0..n_bool).map(CuboidMask::atomic).collect();
                v.extend(masks.iter().copied());
                v
            }
        };
        out.sort_by_key(|m| (m.level(), m.0));
        out.dedup();
        assert!(
            (0..n_bool).all(|d| out.contains(&CuboidMask::atomic(d))),
            "plan must include every atomic cuboid"
        );
        out
    }
}

/// Groups the relation's live rows by their values on the cuboid's
/// dimensions. Returns `(cell, tids)` pairs in ascending order of the cells'
/// values; tids are ascending within each cell. A value only deleted rows
/// carry has no cell.
pub fn group_by(relation: &Relation, mask: CuboidMask) -> Vec<(CellKey, Vec<u64>)> {
    let live: Vec<u64> = (0..relation.len() as u64).filter(|&tid| relation.is_live(tid)).collect();
    group_rows(relation, mask, &live)
}

/// [`group_by`] over the given rows only: `(cell, tids)` pairs in ascending
/// order of the cells' values, the tids of each cell in the order `rows` had
/// them (cube generation passes the R-tree's depth-first order, so that every
/// cell's paths arrive sorted).
///
/// The rows are bucketed by dictionary code, one stable pass per dimension
/// from the last to the first: no key is allocated per row and nothing is
/// hashed. Each pass reads its dimension's column once and ranks the rows
/// on the dimensions sorted so far, so the last pass's ranks are the cells:
/// a cell's values are read once, from its first row.
///
/// # Panics
/// Panics if there are more than `u32::MAX` rows.
pub fn group_rows(relation: &Relation, mask: CuboidMask, rows: &[u64]) -> Vec<(CellKey, Vec<u64>)> {
    let dims = mask.dims();
    let n_rows = u32::try_from(rows.len()).expect("more rows than a u32 counts");
    // `(code, (position in rows, rank))`: a position is half the bytes of a
    // tid to move through each pass.
    let mut keyed: Vec<(u32, (u32, u32))> = (0..n_rows).map(|at| (0, (at, 0))).collect();
    let mut scratch = Vec::new();
    for &dim in dims.iter().rev() {
        for (code, (at, _)) in keyed.iter_mut() {
            *code = relation.bool_code(rows[*at as usize], dim);
        }
        sort_by_code(&mut keyed, &mut scratch);
        // Equal `(code, rank on the later dims)` pairs now sit together, in
        // ascending order: number them.
        let mut prev = keyed.first().map(|&(code, (_, rank))| (code, rank));
        let mut cell = 0u32;
        for (code, (_, rank)) in keyed.iter_mut() {
            if prev != Some((*code, *rank)) {
                prev = Some((*code, *rank));
                cell += 1;
            }
            *rank = cell;
        }
    }
    keyed
        .chunk_by(|(_, (_, a)), (_, (_, b))| a == b)
        .map(|cell| {
            let first = rows[cell[0].1 .0 as usize];
            let values = dims.iter().map(|&dim| relation.bool_code(first, dim)).collect();
            (CellKey { mask, values }, cell.iter().map(|&(_, (at, _))| rows[at as usize]).collect())
        })
        .collect()
}

/// Stable sort of `keyed` by its `u32` codes: a byte-wise radix sort,
/// least significant byte first, through `scratch`. A byte all codes agree
/// on (the three upper ones of any dictionary below 256 values) costs no
/// pass.
fn sort_by_code<T: Copy>(keyed: &mut Vec<(u32, T)>, scratch: &mut Vec<(u32, T)>) {
    let byte = |key: u32, b: usize| (key >> (8 * b)) as usize & 0xFF;
    // A byte's histogram does not depend on the order the earlier passes
    // leave, so all four are counted in one read.
    let mut counts = [[0usize; 256]; 4];
    for &(key, _) in keyed.iter() {
        for (b, counts) in counts.iter_mut().enumerate() {
            counts[byte(key, b)] += 1;
        }
    }
    for (b, counts) in counts.iter_mut().enumerate() {
        if counts.contains(&keyed.len()) {
            continue;
        }
        // Counts become each bucket's first position.
        let mut start = 0usize;
        for count in counts.iter_mut() {
            start += std::mem::replace(count, start);
        }
        if scratch.len() != keyed.len() {
            scratch.clone_from(keyed);
        }
        for &(key, item) in keyed.iter() {
            let to = &mut counts[byte(key, b)];
            scratch[*to] = (key, item);
            *to += 1;
        }
        std::mem::swap(keyed, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> Relation {
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X"]));
        for (a, b) in [
            ("a1", "b1"),
            ("a2", "b2"),
            ("a1", "b1"),
            ("a3", "b3"),
            ("a4", "b1"),
            ("a2", "b3"),
            ("a4", "b2"),
            ("a3", "b3"),
        ] {
            r.push(&[a, b], &[0.0]);
        }
        r
    }

    #[test]
    fn mask_basics() {
        let m = CuboidMask::from_dims(&[0, 2]);
        assert_eq!(m.dims(), vec![0, 2]);
        assert_eq!(m.level(), 2);
        assert!(!m.is_atomic());
        assert!(m.contains_dim(2) && !m.contains_dim(1));
        assert!(CuboidMask::atomic(1).is_atomic());
        assert_eq!(CuboidMask::APEX.level(), 0);
    }

    #[test]
    fn cell_key_from_selection_sorts_dims() {
        let sel = vec![Predicate { dim: 2, value: 9 }, Predicate { dim: 0, value: 4 }];
        let key = CellKey::from_selection(&sel);
        assert_eq!(key.mask, CuboidMask::from_dims(&[0, 2]));
        assert_eq!(key.values, vec![4, 9]);
        let back = key.to_selection();
        assert_eq!(back, vec![Predicate { dim: 0, value: 4 }, Predicate { dim: 2, value: 9 }]);
    }

    #[test]
    fn registry_assigns_dense_codes() {
        let mut reg = CellRegistry::new();
        let k1 = CellKey::atomic(0, 0);
        let k2 = CellKey::atomic(0, 1);
        assert_eq!(reg.intern(k1.clone()), 0);
        assert_eq!(reg.intern(k2.clone()), 1);
        assert_eq!(reg.intern(k1.clone()), 0);
        assert_eq!(reg.code(&k2), Some(1));
        assert_eq!(reg.key(0), Some(&k1));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn atomic_plan_lists_single_dims() {
        let cuboids = MaterializationPlan::Atomic.cuboids(3);
        assert_eq!(
            cuboids,
            vec![CuboidMask(0b001), CuboidMask(0b010), CuboidMask(0b100)]
        );
    }

    #[test]
    fn up_to_level_plan_counts() {
        let cuboids = MaterializationPlan::UpToLevel(2).cuboids(4);
        // C(4,1) + C(4,2) = 4 + 6
        assert_eq!(cuboids.len(), 10);
        assert!(cuboids.iter().all(|m| m.level() <= 2));
        // Sorted by level.
        assert!(cuboids[..4].iter().all(|m| m.is_atomic()));
    }

    #[test]
    fn explicit_plan_always_includes_atomics() {
        let plan = MaterializationPlan::Explicit(vec![CuboidMask::from_dims(&[0, 1])]);
        let cuboids = plan.cuboids(2);
        assert_eq!(
            cuboids,
            vec![CuboidMask(0b01), CuboidMask(0b10), CuboidMask(0b11)]
        );
    }

    #[test]
    fn group_by_atomic_matches_paper_cells() {
        let r = sample();
        let groups = group_by(&r, CuboidMask::atomic(0));
        // a1..a4 have codes 0..3 in intern order; each appears twice.
        assert_eq!(groups.len(), 4);
        for (key, tids) in &groups {
            assert_eq!(tids.len(), 2, "cell {key:?}");
        }
        // Cell a1 = code 0 holds t1, t3 = tids 0 and 2.
        assert_eq!(groups[0].1, vec![0, 2]);
    }

    #[test]
    fn group_by_composite() {
        let r = sample();
        let groups = group_by(&r, CuboidMask::from_dims(&[0, 1]));
        // Pairs: (a1,b1)x2, (a2,b2), (a3,b3)x2, (a4,b1), (a2,b3), (a4,b2)
        assert_eq!(groups.len(), 6);
        let total: usize = groups.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn group_by_sees_live_rows_only() {
        let mut r = sample();
        // t4 and t8 are the a3 rows: the value loses its cell with them.
        assert!(r.mark_deleted(3) && r.mark_deleted(7) && r.mark_deleted(0));
        let groups = group_by(&r, CuboidMask::atomic(0));
        let cells: Vec<(u32, &[u64])> =
            groups.iter().map(|(key, tids)| (key.values[0], tids.as_slice())).collect();
        assert_eq!(cells, vec![(0, &[2u64][..]), (1, &[1, 5]), (3, &[4, 6])]);
    }

    #[test]
    fn group_rows_keeps_the_given_order_within_a_cell() {
        let r = sample();
        let groups = group_rows(&r, CuboidMask::from_dims(&[0, 1]), &[7, 6, 5, 3, 2, 0]);
        let cells: Vec<(&[u32], &[u64])> =
            groups.iter().map(|(key, tids)| (key.values.as_slice(), tids.as_slice())).collect();
        // (a1,b1) t3 t1 · (a2,b3) t6 · (a3,b3) t8 t4 · (a4,b2) t7, by value.
        assert_eq!(
            cells,
            vec![
                (&[0u32, 0][..], &[2u64, 0][..]),
                (&[1, 2], &[5]),
                (&[2, 2], &[7, 3]),
                (&[3, 1], &[6]),
            ]
        );
    }

    #[test]
    fn sort_by_code_is_stable_across_every_byte() {
        let codes = [70_000u32, 3, 256, 3, u32::MAX, 0, 256, 70_000, 1 << 24];
        let mut keyed: Vec<(u32, usize)> = codes.iter().copied().zip(0..).collect();
        sort_by_code(&mut keyed, &mut Vec::new());
        let mut expect: Vec<(u32, usize)> = codes.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(code, _)| code);
        assert_eq!(keyed, expect);
    }

    #[test]
    fn group_by_apex_is_whole_table() {
        let r = sample();
        let groups = group_by(&r, CuboidMask::APEX);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 8);
    }
}
