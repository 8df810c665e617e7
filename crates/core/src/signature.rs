//! The in-memory signature: a tree of bit arrays mirroring the R-tree.

use std::cmp::Ordering;

use pcube_bitmap::BitArray;
use pcube_rtree::{Path, Sid};

/// A signature for one cube cell over a shared R-tree partition (§IV-B.1).
///
/// For every R-tree node that contains at least one tuple of the cell, the
/// signature stores a bit array of length `M` (the tree fanout): bit `i` is 1
/// iff slot `i+1` of that node leads to a tuple of the cell. Nodes with no
/// such tuple are simply absent — their bit in the parent is 0.
///
/// Invariants (checked by [`Signature::validate`]):
/// * every stored array has at least one set bit;
/// * for every set bit at a non-leaf node, the child node's array is present;
/// * every stored non-root node is reachable via a set bit in its parent.
///
/// # Storage order
///
/// The nodes are kept in one vector in ascending [`Sid`] order, and that is
/// the breadth-first order of the tree: a SID is its path read as a number
/// in base `M + 1` with digits `1..=M`, so a deeper path (one more digit) is
/// always the larger number, and two paths of one depth compare as their
/// slot sequences do. Under any node, too, breadth-first order is ascending
/// SID order, and the descendants `k` levels below the node with SID `s` are
/// exactly the stored SIDs from `s` followed by `k` digits 1 up to, and
/// excluding, `s + 1` followed by `k` digits 0. The page
/// decomposition ([`crate::encode`]) walks that order with no queue and no
/// visited set, and generation ([`Signature::from_paths`]) fills it level by
/// level with no lookup at all.
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
    /// `(sid, bits)`, ascending by SID, one entry per SID.
    nodes: Vec<(Sid, BitArray)>,
}

impl Signature {
    /// An empty signature (no tuple of the cell anywhere) for fanout `m_max`.
    pub fn empty(m_max: usize) -> Self {
        Signature { m_max, nodes: Vec::new() }
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
    /// in the level's last node or appends a new one. No lookup, no sort.
    ///
    /// # Panics
    /// Panics if the paths are out of order or a position is outside
    /// `1..=m_max`.
    pub(crate) fn from_sorted_paths<'a>(
        m_max: usize,
        paths: impl IntoIterator<Item = &'a [u16]>,
    ) -> Self {
        let mut levels: Vec<Vec<(Sid, BitArray)>> = Vec::new();
        for path in paths {
            if levels.len() < path.len() {
                levels.resize_with(path.len(), Vec::new);
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
                match nodes.last_mut() {
                    Some((last, bits)) if *last == sid => bits.set(position as usize - 1, true),
                    last => {
                        assert!(last.is_none_or(|(s, _)| *s < sid), "paths out of order");
                        let mut bits = BitArray::zeros(m_max);
                        bits.set(position as usize - 1, true);
                        nodes.push((sid, bits));
                    }
                }
            }
        }
        Signature { m_max, nodes: levels.into_iter().flatten().collect() }
    }

    /// Builds the signature from decoded node arrays in any order (the
    /// reassembly of stored partials). Arrays shorter than `m_max` are padded
    /// with zeros; of two arrays under one SID the later wins.
    ///
    /// # Panics
    /// Panics if an array is longer than `m_max`.
    pub fn from_nodes(m_max: usize, mut nodes: Vec<(Sid, BitArray)>) -> Self {
        for (_, bits) in &mut nodes {
            bits.grow(m_max);
            assert_eq!(bits.len(), m_max, "node array length must equal M");
        }
        nodes.sort_by_key(|(sid, _)| *sid);
        nodes.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        Signature { m_max, nodes }
    }

    /// The fanout this signature was built for (bit-array length).
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// Number of stored node arrays.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of set bits across all nodes.
    pub fn bit_count(&self) -> usize {
        self.nodes.iter().map(|(_, bits)| bits.count_ones()).sum()
    }

    /// `true` if the signature covers no tuple.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The stored `(sid, bits)` pairs in ascending SID — breadth-first —
    /// order.
    pub fn nodes(&self) -> &[(Sid, BitArray)] {
        &self.nodes
    }

    /// Where `sid` is stored, or where it would be inserted.
    fn position(&self, sid: Sid) -> Result<usize, usize> {
        self.nodes.binary_search_by_key(&sid, |(s, _)| *s)
    }

    /// The bit array of the node at `sid`, if present.
    pub fn node(&self, sid: Sid) -> Option<&BitArray> {
        self.position(sid).ok().map(|i| &self.nodes[i].1)
    }

    /// Iterates over `(sid, bits)` pairs in ascending SID order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (Sid, &BitArray)> {
        self.nodes.iter().map(|(s, b)| (*s, b))
    }

    /// Sets the bits for every prefix of `path` (marks the tuple present).
    pub fn set_path(&mut self, path: &Path) {
        let m_max = self.m_max;
        walk_path(path, m_max, |_, sid, pos| {
            assert!(pos < m_max, "path position exceeds fanout");
            let at = self.position(sid).unwrap_or_else(|at| {
                self.nodes.insert(at, (sid, BitArray::zeros(m_max)));
                at
            });
            self.nodes[at].1.set(pos, true);
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
            let bits = &mut self.nodes[at].1;
            bits.set(path.0[level] as usize - 1, false);
            if !bits.all_zero() {
                break;
            }
            self.nodes.remove(at);
        }
    }

    /// `true` if every prefix bit along `path` is set — i.e. the subtree or
    /// tuple at `path` contains data of this cell.
    ///
    /// The full root-to-`path` walk (`walk_path`): one node lookup per
    /// level, no allocation. The query kernel pays it once per *popped*
    /// entry; the children of an expanded node are tested against that
    /// node's array alone ([`Signature::node`] — stored nodes are exactly
    /// the contained ones, so bit `i` of the node at a contained `path`
    /// answers `contains(path.child(i + 1))`).
    pub fn contains(&self, path: &Path) -> bool {
        walk_path(path, self.m_max, |_, sid, pos| self.node(sid).is_some_and(|bits| bits.get(pos)))
    }

    /// The union operator: bit-or of both signatures (§IV-B.2, Fig 3.b), one
    /// merge of the two SID-ordered node lists.
    ///
    /// # Panics
    /// Panics on fanout mismatch.
    pub fn union(&self, other: &Signature) -> Signature {
        assert_eq!(self.m_max, other.m_max, "union of signatures over different partitions");
        let mut nodes = Vec::with_capacity(self.nodes.len().max(other.nodes.len()));
        let (mut mine, mut theirs) = (self.nodes.iter().peekable(), other.nodes.iter().peekable());
        loop {
            let order = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => a.0.cmp(&b.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let mut node = if order.is_le() { mine.next() } else { theirs.next() }
                .expect("peeked above")
                .clone();
            if order.is_eq() {
                node.1.or_assign(&theirs.next().expect("peeked above").1);
            }
            nodes.push(node);
        }
        Signature { m_max: self.m_max, nodes }
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
        let mut nodes = Vec::new();
        self.intersect_rec(other, Sid::ROOT, 0, height, &mut nodes);
        // The recursion emits children before their parent.
        nodes.sort_unstable_by_key(|(sid, _)| *sid);
        Signature { m_max: self.m_max, nodes }
    }

    /// Recursively intersects the subtree at the node `sid` of depth
    /// `depth`; returns `true` if any bit survives (so the parent keeps its
    /// bit).
    fn intersect_rec(
        &self,
        other: &Signature,
        sid: Sid,
        depth: usize,
        height: usize,
        out: &mut Vec<(Sid, BitArray)>,
    ) -> bool {
        let (Some(a), Some(b)) = (self.node(sid), other.node(sid)) else {
            return false;
        };
        let mut bits = a.clone();
        bits.and_assign(b);
        if depth + 1 < height {
            // Internal node: verify each surviving bit's child recursively.
            let set: Vec<usize> = bits.iter_ones().collect();
            for pos in set {
                let child = sid.child(pos as u16 + 1, self.m_max);
                if !self.intersect_rec(other, child, depth + 1, height, out) {
                    bits.set(pos, false);
                }
            }
        }
        if bits.all_zero() {
            return false;
        }
        out.push((sid, bits));
        true
    }

    /// Checks the structural invariants given the R-tree `height`.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self, height: usize) {
        assert!(self.nodes.windows(2).all(|w| w[0].0 < w[1].0), "nodes out of SID order");
        if self.nodes.is_empty() {
            return;
        }
        assert!(self.node(Sid::ROOT).is_some(), "non-empty signature must have a root");
        let mut reachable = 0usize;
        let mut stack = vec![(Sid::ROOT, 0usize)];
        while let Some((sid, depth)) = stack.pop() {
            let bits = self.node(sid).expect("set bit points at a missing child node");
            assert_eq!(bits.len(), self.m_max, "stored node {sid} has the wrong length");
            assert!(!bits.all_zero(), "stored node {sid} is all-zero");
            reachable += 1;
            if depth + 1 < height {
                for pos in bits.iter_ones() {
                    stack.push((sid.child(pos as u16 + 1, self.m_max), depth + 1));
                }
            }
        }
        assert_eq!(reachable, self.nodes.len(), "unreachable node arrays present");
    }
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
            Some(b) => (0..2).map(|i| if b.get(i) { '1' } else { '0' }).collect(),
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
