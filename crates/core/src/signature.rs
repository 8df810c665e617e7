//! The in-memory signature: one table of node rows beside its SIDs.
//!
//! There is one in-memory form of a signature's bits, [`NodeTable`]: one
//! row of ⌈M/64⌉ `u64` words per node. A [`Signature`] is a sorted SID list
//! beside a table (row `i` holds the node `sids[i]`), a query's lazily
//! loading cursor ([`crate::store::SignatureCursor`]) is a table filled as
//! partials load, and every stored record is decoded into a table
//! ([`crate::encode::decode_record`]) and encoded from its rows.

use std::cmp::Ordering;

use pcube_rtree::{Path, Sid};

/// Node rows of ⌈M/64⌉ words each, in one vector: bit `slot` (0-based) of
/// row `i` is bit `slot % 64` of word `i · stride + slot / 64`. A
/// signature's rows and a decoded record's have no bit set at or past M
/// (a cursor's constant row of ones does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTable {
    stride: usize,
    words: Vec<u64>,
}

impl NodeTable {
    /// An empty table of rows for fanout `m_max`.
    pub fn new(m_max: usize) -> Self {
        NodeTable { stride: m_max.div_ceil(64), words: Vec::new() }
    }

    /// Words per row: ⌈M/64⌉.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// `true` if the table holds no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The words of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// The words of row `i`, to write.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Bit `slot` of row `i`.
    #[inline]
    pub fn bit(&self, i: usize, slot: usize) -> bool {
        self.words[i * self.stride + slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Sets bit `slot` of row `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, slot: usize, value: bool) {
        let (word, mask) = (&mut self.words[i * self.stride + slot / 64], 1u64 << (slot % 64));
        *word = if value { *word | mask } else { *word & !mask };
    }

    /// Appends `n` rows of zeros; returns the index of the first.
    #[inline]
    pub fn push_zeroed(&mut self, n: usize) -> usize {
        let first = self.len();
        self.words.resize(self.words.len() + n * self.stride, 0);
        first
    }

    /// Keeps the first `rows` rows.
    #[inline]
    pub fn truncate(&mut self, rows: usize) {
        self.words.truncate(rows * self.stride);
    }
}

/// A signature for one cube cell over a shared R-tree partition (§IV-B.1).
///
/// For every R-tree node that contains at least one tuple of the cell, the
/// signature stores a bit array of length `M` (the tree fanout): bit `i` is 1
/// iff slot `i+1` of that node leads to a tuple of the cell. Nodes with no
/// such tuple are simply absent — their bit in the parent is 0.
///
/// Invariants (checked by [`Signature::validate`]):
/// * every stored row has at least one set bit, and none at or past `M`;
/// * for every set bit at a non-leaf node, the child node's row is present;
/// * every stored non-root node is reachable via a set bit in its parent.
///
/// # Storage order
///
/// The nodes are one [`NodeTable`] beside a SID vector in ascending [`Sid`]
/// order (row `i` holds `sids[i]`), and that is the breadth-first order of
/// the tree: a SID is its path read as a number in base `M + 1` with digits
/// `1..=M`, so a deeper path (one more digit) is always the larger number,
/// and two paths of one depth compare as their slot sequences do. Under any
/// node, too, breadth-first order is ascending SID order, and the
/// descendants `k` levels below the node with SID `s` are exactly the
/// stored SIDs from `s` followed by `k` digits 1 up to, and excluding,
/// `s + 1` followed by `k` digits 0. The page decomposition
/// ([`crate::encode`]) walks that order with no queue and no visited set,
/// and generation ([`Signature::from_paths`]) fills it level by level with
/// no lookup at all.
///
/// # Example — the paper's (A = a1) cell (Fig 2.a)
///
/// ```
/// use pcube_core::Signature;
/// use pcube_rtree::Path;
///
/// // t1 has path <1,1,1>, t3 has <1,2,1> in the Fig 1 R-tree (M = 2).
/// let sig = Signature::from_paths(2, [Path(vec![1, 1, 1]), Path(vec![1, 2, 1])].iter());
/// assert!(sig.contains(&Path(vec![1, 2])));      // node N4 holds a1-data
/// assert!(!sig.contains(&Path(vec![2])));        // nothing under N2
/// assert_eq!(sig.node_count(), 4);               // root, N1, N3, N4
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    m_max: usize,
    /// The stored nodes' SIDs, ascending, one per row of `table`.
    sids: Vec<Sid>,
    table: NodeTable,
}

impl Signature {
    /// An empty signature (no tuple of the cell anywhere) for fanout `m_max`.
    pub fn empty(m_max: usize) -> Self {
        Signature { m_max, sids: Vec::new(), table: NodeTable::new(m_max) }
    }

    /// Builds the signature from the cell's tuple paths, in any order.
    ///
    /// This is the tuple-oriented generation of §IV-B.1: group the relation
    /// by the cuboid, and for each cell turn its tuples' `path` column into
    /// the bit tree. The paper describes it as a recursive sort, and so it
    /// is here: the paths are sorted (one linear pass for the depth-first
    /// order an R-tree walk yields) and each level's nodes are then appended
    /// in SID order.
    ///
    /// # Panics
    /// Panics if a path position is outside `1..=m_max`.
    pub fn from_paths<'a>(m_max: usize, paths: impl IntoIterator<Item = &'a Path>) -> Self {
        let mut paths: Vec<&[u16]> = paths.into_iter().map(|p| p.0.as_slice()).collect();
        paths.sort_unstable();
        Signature::from_sorted_paths(m_max, paths)
    }

    /// [`Signature::from_paths`] over slot sequences already in
    /// lexicographic order — the order of a depth-first R-tree walk. The
    /// length-`l` prefixes of such a sequence are themselves non-decreasing,
    /// so every level's nodes arrive in SID order: a path either sets a bit
    /// in the level's last row or appends a new one. No lookup, no sort; the
    /// levels' rows are then appended one level after another.
    ///
    /// # Panics
    /// Panics if the paths are out of order or a position is outside
    /// `1..=m_max`.
    pub(crate) fn from_sorted_paths<'a>(
        m_max: usize,
        paths: impl IntoIterator<Item = &'a [u16]>,
    ) -> Self {
        let mut levels: Vec<Signature> = Vec::new();
        for path in paths {
            if levels.len() < path.len() {
                levels.resize_with(path.len(), || Signature::empty(m_max));
            }
            let mut sid = Sid::ROOT;
            for (level, &position) in path.iter().enumerate() {
                if level > 0 {
                    sid = sid.child(path[level - 1], m_max);
                }
                assert!(
                    position >= 1 && position as usize <= m_max,
                    "path position {position} out of 1..={m_max}"
                );
                let nodes = &mut levels[level];
                if nodes.sids.last() != Some(&sid) {
                    assert!(nodes.sids.last().is_none_or(|s| *s < sid), "paths out of order");
                    nodes.push(sid);
                }
                nodes.table.set(nodes.sids.len() - 1, position as usize - 1, true);
            }
        }
        let mut sig = Signature::empty(m_max);
        for level in &levels {
            sig.sids.extend_from_slice(&level.sids);
            sig.table.words.extend_from_slice(&level.table.words);
        }
        sig
    }

    /// The signature of the nodes `sids` whose bits are the rows of `table`
    /// (row `i` holds `sids[i]`), in any order: the rows are put in SID
    /// order, and of two rows under one SID the first is kept.
    pub(crate) fn from_rows(m_max: usize, sids: &[Sid], table: &NodeTable) -> Self {
        let mut order: Vec<usize> = (0..sids.len()).collect();
        order.sort_by_key(|&i| sids[i]);
        order.dedup_by_key(|i| sids[*i]);
        let mut sig = Signature::empty(m_max);
        for i in order {
            let row = sig.push(sids[i]);
            sig.table.row_mut(row).copy_from_slice(table.row(i));
        }
        sig
    }

    /// Appends a zeroed row for `sid`; returns its index.
    fn push(&mut self, sid: Sid) -> usize {
        self.sids.push(sid);
        self.table.push_zeroed(1)
    }

    /// The fanout this signature was built for (bit-array length).
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// Number of stored node arrays.
    pub fn node_count(&self) -> usize {
        self.sids.len()
    }

    /// Total number of set bits across all nodes.
    pub fn bit_count(&self) -> usize {
        self.table.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the signature covers no tuple.
    pub fn is_empty(&self) -> bool {
        self.sids.is_empty()
    }

    /// The stored nodes' SIDs in ascending — breadth-first — order; row `i`
    /// of [`Signature::table`] holds the bits of `sids()[i]`.
    pub(crate) fn sids(&self) -> &[Sid] {
        &self.sids
    }

    /// The stored nodes' rows, in the order of [`Signature::sids`].
    pub(crate) fn table(&self) -> &NodeTable {
        &self.table
    }

    /// Where `sid` is stored, or where it would be inserted.
    fn position(&self, sid: Sid) -> Result<usize, usize> {
        self.sids.binary_search(&sid)
    }

    /// The row of the node at `sid`, if present.
    pub fn node(&self, sid: Sid) -> Option<&[u64]> {
        self.position(sid).ok().map(|i| self.table.row(i))
    }

    /// Iterates over the nodes in ascending SID order, each with its bits
    /// as an owned `M`-bit array.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (Sid, pcube_bitmap::BitArray)> + '_ {
        let array = |i| pcube_bitmap::BitArray::from_words(self.m_max, self.table.row(i).to_vec());
        self.sids.iter().enumerate().map(move |(i, &sid)| (sid, array(i)))
    }

    /// Sets the bits for every prefix of `path` (marks the tuple present).
    pub fn set_path(&mut self, path: &Path) {
        let m_max = self.m_max;
        walk_path(path, m_max, |_, sid, pos| {
            assert!(pos < m_max, "path position exceeds fanout");
            let at = self.position(sid).unwrap_or_else(|at| {
                self.sids.insert(at, sid);
                let stride = self.table.stride;
                self.table.words.splice(at * stride..at * stride, std::iter::repeat_n(0, stride));
                at
            });
            self.table.set(at, pos, true);
            true
        });
    }

    /// Clears the leaf-most bit of `path` and prunes emptied ancestors.
    ///
    /// Correct only when no *other* tuple of the cell shares the full path
    /// (paths are unique per tuple, so this holds by construction).
    pub fn clear_path(&mut self, path: &Path) {
        for level in (0..path.depth()).rev() {
            // Only clear the parent bit if the child subtree became empty.
            if level + 1 < path.depth()
                && self.position(path.prefix_sid(level + 1, self.m_max)).is_ok()
            {
                break;
            }
            let Ok(at) = self.position(path.prefix_sid(level, self.m_max)) else { break };
            self.table.set(at, path.0[level] as usize - 1, false);
            if self.table.row(at).iter().any(|&w| w != 0) {
                break;
            }
            self.sids.remove(at);
            let stride = self.table.stride;
            self.table.words.drain(at * stride..(at + 1) * stride);
        }
    }

    /// `true` if every prefix bit along `path` is set — i.e. the subtree or
    /// tuple at `path` contains data of this cell.
    ///
    /// The full root-to-`path` walk (`walk_path`): one node lookup per
    /// level, no allocation. Stored nodes are exactly the contained ones,
    /// so bit `i` of the row of a contained `path` answers
    /// `contains(path.child(i + 1))`.
    pub fn contains(&self, path: &Path) -> bool {
        walk_path(path, self.m_max, |_, sid, pos| {
            self.position(sid).is_ok_and(|i| self.table.bit(i, pos))
        })
    }

    /// The union operator: bit-or of both signatures (§IV-B.2, Fig 3.b), one
    /// merge of the two SID lists, a row ORed from both inputs on a shared
    /// SID.
    ///
    /// # Panics
    /// Panics on fanout mismatch.
    pub fn union(&self, other: &Signature) -> Signature {
        assert_eq!(self.m_max, other.m_max, "union of signatures over different partitions");
        let mut out = Signature::empty(self.m_max);
        let (mut i, mut j) = (0, 0);
        loop {
            let order = match (self.sids.get(i), other.sids.get(j)) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let row = out.push(if order.is_le() { self.sids[i] } else { other.sids[j] });
            let dst = out.table.row_mut(row);
            if order.is_le() {
                or_into(dst, self.table.row(i));
                i += 1;
            }
            if order.is_ge() {
                or_into(dst, other.table.row(j));
                j += 1;
            }
        }
        out
    }

    /// The intersection operator with the recursive fix-up (§IV-B.2,
    /// Fig 3.c): a bit stays 1 only if it is 1 in both inputs *and* (for
    /// non-leaf levels) the intersected child subtree is non-empty.
    ///
    /// `height` is the R-tree height (1 = root is a leaf); bits at depth
    /// `height - 1` refer to tuples and need no child check.
    ///
    /// # Panics
    /// Panics on fanout mismatch.
    pub fn intersect(&self, other: &Signature, height: usize) -> Signature {
        assert_eq!(self.m_max, other.m_max, "intersection over different partitions");
        let mut found = Signature::empty(self.m_max);
        self.intersect_rec(other, Sid::ROOT, 0, height, &mut found);
        // The recursion emits a node before its children: depth first.
        Signature::from_rows(self.m_max, &found.sids, &found.table)
    }

    /// Recursively intersects the subtree at the node `sid` of depth
    /// `depth`, appending its surviving nodes to `out` depth first; returns
    /// `true` if any bit survives (so the parent keeps its bit). The node's
    /// row is the AND of both inputs' rows, then loses each bit whose child
    /// subtree came back empty.
    fn intersect_rec(
        &self,
        other: &Signature,
        sid: Sid,
        depth: usize,
        height: usize,
        out: &mut Signature,
    ) -> bool {
        let (Ok(a), Ok(b)) = (self.position(sid), other.position(sid)) else {
            return false;
        };
        let and = || self.table.row(a).iter().zip(other.table.row(b)).map(|(x, y)| x & y);
        let row = out.push(sid);
        out.table.row_mut(row).iter_mut().zip(and()).for_each(|(o, w)| *o = w);
        if depth + 1 < height {
            // Internal node: verify each surviving bit's child recursively.
            for pos in ones(and()) {
                let child = sid.child(pos as u16 + 1, self.m_max);
                if !self.intersect_rec(other, child, depth + 1, height, out) {
                    out.table.set(row, pos, false);
                }
            }
        }
        if out.table.row(row).iter().all(|&w| w == 0) {
            // No child survived, so none was appended behind this row.
            out.sids.pop();
            out.table.truncate(row);
            return false;
        }
        true
    }

    /// Checks the structural invariants given the R-tree `height`.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self, height: usize) {
        assert!(self.sids.windows(2).all(|w| w[0] < w[1]), "nodes out of SID order");
        assert_eq!(self.table.len(), self.sids.len(), "one row per node");
        if self.sids.is_empty() {
            return;
        }
        assert!(self.node(Sid::ROOT).is_some(), "non-empty signature must have a root");
        let mut reachable = 0usize;
        let mut stack = vec![(Sid::ROOT, 0usize)];
        while let Some((sid, depth)) = stack.pop() {
            let row = self.node(sid).expect("set bit points at a missing child node");
            assert!(row.iter().any(|&w| w != 0), "stored node {sid} is all-zero");
            reachable += 1;
            for pos in ones(row.iter().copied()) {
                assert!(pos < self.m_max, "stored node {sid} has a bit past the fanout");
                if depth + 1 < height {
                    stack.push((sid.child(pos as u16 + 1, self.m_max), depth + 1));
                }
            }
        }
        assert_eq!(reachable, self.sids.len(), "unreachable node arrays present");
    }
}

/// ORs `row` into `acc`.
#[inline]
fn or_into(acc: &mut [u64], row: &[u64]) {
    acc.iter_mut().zip(row).for_each(|(a, &r)| *a |= r);
}

/// The positions of the set bits of a row given word by word, ascending.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            let pos = (word != 0).then(|| w * 64 + word.trailing_zeros() as usize);
            word &= word.wrapping_sub(1);
            pos
        })
    })
}

/// The one root-to-`path` walk shared by every exact signature probe
/// ([`Signature::contains`], [`crate::store::SignatureCursor::contains`]):
/// visits the levels top-down, asking `bit(level, sid, pos)` whether slot
/// `pos` (0-based) is set in the node `sid` at depth `level`, and stops at
/// the first `false`. Node SIDs accumulate incrementally
/// ([`Sid::child`]), so no prefix [`Path`] is ever materialized.
pub(crate) fn walk_path(
    path: &Path,
    m_max: usize,
    mut bit: impl FnMut(usize, Sid, usize) -> bool,
) -> bool {
    let mut sid = Sid::ROOT;
    for (level, &position) in path.0.iter().enumerate() {
        if !bit(level, sid, position as usize - 1) {
            return false;
        }
        sid = sid.child(position, m_max);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tuple paths of Table I in the paper (M = 2).
    fn table1_paths() -> Vec<(u64, Path)> {
        vec![
            (1, Path(vec![1, 1, 1])),
            (2, Path(vec![1, 1, 2])),
            (3, Path(vec![1, 2, 1])),
            (4, Path(vec![1, 2, 2])),
            (5, Path(vec![2, 1, 1])),
            (6, Path(vec![2, 1, 2])),
            (7, Path(vec![2, 2, 1])),
            (8, Path(vec![2, 2, 2])),
        ]
    }

    fn cell_signature(tids: &[u64]) -> Signature {
        let all = table1_paths();
        let paths: Vec<Path> =
            all.iter().filter(|(t, _)| tids.contains(t)).map(|(_, p)| p.clone()).collect();
        Signature::from_paths(2, paths.iter())
    }

    fn bits(sig: &Signature, path: &[u16]) -> String {
        let sid = Path(path.to_vec()).sid(2);
        match sig.node(sid) {
            None => "--".into(),
            Some(row) => (0..2).map(|i| if row[0] >> i & 1 == 1 { '1' } else { '0' }).collect(),
        }
    }

    #[test]
    fn paper_figure2a_a1_signature() {
        // Cell (A = a1) holds t1 <1,1,1> and t3 <1,2,1>. Fig 2.a: root 10,
        // N1 11, N3 10, N4 10.
        let sig = cell_signature(&[1, 3]);
        assert_eq!(bits(&sig, &[]), "10");
        assert_eq!(bits(&sig, &[1]), "11");
        assert_eq!(bits(&sig, &[1, 1]), "10");
        assert_eq!(bits(&sig, &[1, 2]), "10");
        assert_eq!(bits(&sig, &[2]), "--");
        assert_eq!(sig.node_count(), 4);
        // Fig 1's tree has three node levels (root, N1/N2, N3..N6), so
        // height = 3; bits at depth-2 nodes refer to tuples.
        sig.validate(3);
    }

    #[test]
    fn contains_follows_bits() {
        let sig = cell_signature(&[1, 3]);
        assert!(sig.contains(&Path(vec![1])));
        assert!(sig.contains(&Path(vec![1, 2])));
        assert!(sig.contains(&Path(vec![1, 2, 1]))); // t3 itself
        assert!(!sig.contains(&Path(vec![1, 2, 2]))); // t4 is a3
        assert!(!sig.contains(&Path(vec![2])));
        assert!(!sig.contains(&Path(vec![2, 1, 1])));
        assert!(sig.contains(&Path::root()), "root is vacuously contained");
    }

    #[test]
    fn paper_figure3_union_and_intersection() {
        // Fig 3: (A=a2) covers t2 <1,1,2>, t6 <2,1,2>;
        //        (B=b2) covers t2 <1,1,2>, t7 <2,2,1>.
        let a2 = cell_signature(&[2, 6]);
        let b2 = cell_signature(&[2, 7]);

        // Union (Fig 3.b): root 11, N1 10, N2 11, N3 01, N5 01, N6 10.
        let u = a2.union(&b2);
        assert_eq!(bits(&u, &[]), "11");
        assert_eq!(bits(&u, &[1]), "10");
        assert_eq!(bits(&u, &[2]), "11");
        assert_eq!(bits(&u, &[1, 1]), "01");
        assert_eq!(bits(&u, &[2, 1]), "01");
        assert_eq!(bits(&u, &[2, 2]), "10");

        // Intersection (Fig 3.c): only t2 survives; the N2 subtree dies via
        // the recursive fix-up (a2 has t6 under N5, b2 has t7 under N6 —
        // their bit-and at N2 level is 10&01 = 00).
        let i = a2.intersect(&b2, 3);
        assert_eq!(bits(&i, &[]), "10");
        assert_eq!(bits(&i, &[1]), "10");
        assert_eq!(bits(&i, &[1, 1]), "01");
        assert_eq!(bits(&i, &[2]), "--");
        i.validate(3);
        assert!(i.contains(&Path(vec![1, 1, 2])));
        assert!(!i.contains(&Path(vec![2, 1, 2])));
    }

    #[test]
    fn intersection_fixup_clears_parent_bits() {
        // a3 = {t4 <1,2,2>, t8 <2,2,2>}, b1 = {t1 <1,1,1>, t3... wait b1 = t1,t3? No:
        // From Table I: B=b1 rows are t1, t3, t5 — paths <1,1,1>, <1,2,1>, <2,1,1>.
        let a3 = cell_signature(&[4, 8]);
        let b1 = cell_signature(&[1, 3, 5]);
        // a3 ∧ b1: no tuple has both A=a3 and B=b1 → empty after fix-up,
        // even though node-level bit-ands are non-zero (both have bits under
        // N1 and the root).
        let i = a3.intersect(&b1, 3);
        assert!(i.is_empty(), "got {i:?}");
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = cell_signature(&[1, 3]);
        let e = Signature::empty(2);
        assert_eq!(a.union(&e), a);
        assert_eq!(e.union(&a), a);
        assert!(e.intersect(&a, 3).is_empty());
    }

    #[test]
    fn set_then_clear_roundtrips_to_empty() {
        let mut sig = Signature::empty(3);
        let p1 = Path(vec![1, 2]);
        let p2 = Path(vec![1, 3]);
        sig.set_path(&p1);
        sig.set_path(&p2);
        // Depth-2 tuple paths mean two node levels: height = 2.
        sig.validate(2);
        assert!(sig.contains(&p1) && sig.contains(&p2));
        sig.clear_path(&p1);
        sig.validate(2);
        assert!(!sig.contains(&p1));
        assert!(sig.contains(&p2), "sibling must survive");
        sig.clear_path(&p2);
        assert!(sig.is_empty());
    }

    #[test]
    fn clear_path_keeps_shared_prefixes() {
        let mut sig = Signature::empty(2);
        sig.set_path(&Path(vec![1, 1, 1]));
        sig.set_path(&Path(vec![1, 1, 2]));
        sig.clear_path(&Path(vec![1, 1, 1]));
        assert!(sig.contains(&Path(vec![1, 1, 2])));
        assert!(!sig.contains(&Path(vec![1, 1, 1])));
        assert!(sig.contains(&Path(vec![1, 1])), "shared internal node stays");
        sig.validate(3);
    }

    #[test]
    fn from_paths_equals_incremental_sets() {
        let paths: Vec<Path> = table1_paths().into_iter().map(|(_, p)| p).collect();
        let bulk = Signature::from_paths(2, paths.iter());
        let mut inc = Signature::empty(2);
        for p in &paths {
            inc.set_path(p);
        }
        assert_eq!(bulk, inc);
        // Full table: every node fully set.
        assert_eq!(bulk.node_count(), 7);
        assert_eq!(bulk.bit_count(), 14);
    }

    #[test]
    #[should_panic]
    fn mismatched_fanout_union_panics() {
        let a = Signature::empty(2);
        let b = Signature::empty(3);
        let _ = a.union(&b);
    }
}
