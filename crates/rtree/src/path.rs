//! Node and tuple paths, and their mapping to signature IDs.

/// A signature ID: the integer encoding of a node path (§IV-B.1).
///
/// `SID = p0·(M+1)^l + p1·(M+1)^(l-1) + … + p(l-1)` for an `l`-level path
/// with 1-based positions `pᵢ ∈ [1, M]`. The root (empty path) has SID 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sid(pub u64);

impl Sid {
    /// The root's SID (the empty path).
    pub const ROOT: Sid = Sid(0);

    /// SID of the child at 1-based `position` of the node with this SID:
    /// `sid·(M+1) + position`. Every root-to-node walk accumulates SIDs with
    /// this step instead of re-encoding (and allocating) each prefix.
    ///
    /// # Panics
    /// Panics if `position` is outside `1..=m_max` or the SID overflows
    /// `u64` (which would need a tree deeper than any this workspace
    /// builds).
    #[inline]
    pub fn child(self, position: u16, m_max: usize) -> Sid {
        assert!(
            position >= 1 && (position as usize) <= m_max,
            "position {position} out of 1..={m_max}"
        );
        Sid(self
            .0
            .checked_mul(m_max as u64 + 1)
            .and_then(|s| s.checked_add(u64::from(position)))
            .expect("SID overflow: tree too deep for u64 signature IDs"))
    }
}

impl std::fmt::Display for Sid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sid{}", self.0)
    }
}

/// The [`std::hash::BuildHasher`] of every map keyed by [`Sid`] on the query
/// path: one multiply per key instead of SipHash. SIDs are integers the tree
/// derives, never user input, so hash flooding does not apply.
pub type SidBuildHasher = std::hash::BuildHasherDefault<SidHasher>;

/// Multiplicative hasher behind [`SidBuildHasher`]: each word is xored into
/// the state, which is then multiplied by an odd constant, and `finish`
/// rotates the well-mixed high bits of the product down to where hash
/// tables take their bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct SidHasher(u64);

impl SidHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K);
    }
}

impl std::hash::Hasher for SidHasher {
    /// Byte by byte; a [`Sid`] hashes through `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A path from the R-tree root: the sequence of 1-based slot positions taken
/// at each level. The empty path denotes the root itself. A *tuple path*
/// ends with the tuple's slot inside its leaf; a *node path* stops at the
/// node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path(pub Vec<u16>);

impl Path {
    /// The empty path (the root node).
    pub fn root() -> Self {
        Path(Vec::new())
    }

    /// Number of positions (the root has depth 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// `true` for the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Extends the path by one 1-based position.
    ///
    /// # Panics
    /// Panics if `position` is zero (positions are 1-based).
    pub fn child(&self, position: u16) -> Path {
        assert!(position >= 1, "path positions are 1-based");
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(position);
        Path(v)
    }

    /// The path without its last position, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        if self.0.is_empty() {
            return None;
        }
        Some(Path(self.0[..self.0.len() - 1].to_vec()))
    }

    /// The final position, or `None` for the root.
    pub fn last(&self) -> Option<u16> {
        self.0.last().copied()
    }

    /// `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// The prefix of length `len`.
    ///
    /// # Panics
    /// Panics if `len > depth()`.
    pub fn prefix(&self, len: usize) -> Path {
        Path(self.0[..len].to_vec())
    }

    /// Maps the path to its SID for a tree with fanout `m_max`.
    ///
    /// # Panics
    /// Panics if a position exceeds `m_max` or the SID overflows `u64`
    /// (which would need a tree deeper than any this workspace builds).
    pub fn sid(&self, m_max: usize) -> Sid {
        self.prefix_sid(self.0.len(), m_max)
    }

    /// SID of the prefix of length `len`, computed without allocating the
    /// intermediate [`Path`]. Equivalent to `self.prefix(len).sid(m_max)`.
    /// Signature maintenance calls this per touched level; the query-side
    /// probes do not — they accumulate [`Sid::child`] along one walk.
    ///
    /// # Panics
    /// Panics if `len > depth()`, a position exceeds `m_max`, or the SID
    /// overflows `u64`.
    pub fn prefix_sid(&self, len: usize, m_max: usize) -> Sid {
        self.0[..len].iter().fold(Sid::ROOT, |sid, &p| sid.child(p, m_max))
    }

    /// Inverse of [`Path::sid`]: reconstructs the path with fanout `m_max`.
    pub fn from_sid(sid: Sid, m_max: usize) -> Path {
        let base = m_max as u64 + 1;
        let mut rest = sid.0;
        let mut rev = Vec::new();
        while rest != 0 {
            let pos = rest % base;
            // Positions are 1-based, so a zero digit cannot appear in a valid SID.
            assert!(pos != 0, "invalid SID {sid}: zero digit");
            rev.push(pos as u16);
            rest /= base;
        }
        rev.reverse();
        Path(rev)
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sid() {
        // §IV-B.1: "M = 2 and the path of the node N3 is <1,1>. Its SID is 4."
        let p = Path(vec![1, 1]);
        assert_eq!(p.sid(2), Sid(4));
    }

    #[test]
    fn sid_roundtrip_various_fanouts() {
        for m in [2usize, 3, 10, 204] {
            for path in [
                Path::root(),
                Path(vec![1]),
                Path(vec![m as u16]),
                Path(vec![1, 2]),
                Path(vec![m as u16, 1, m as u16]),
            ] {
                let sid = path.sid(m);
                assert_eq!(Path::from_sid(sid, m), path, "m={m} path={path}");
            }
        }
    }

    #[test]
    fn sids_are_unique_per_fanout() {
        let m = 3usize;
        let mut seen = std::collections::HashSet::new();
        // All paths of depth <= 3.
        let mut all = vec![Path::root()];
        let mut frontier = vec![Path::root()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for p in &frontier {
                for pos in 1..=m as u16 {
                    next.push(p.child(pos));
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        for p in &all {
            assert!(seen.insert(p.sid(m)), "duplicate SID for {p}");
        }
    }

    #[test]
    fn child_parent_prefix() {
        let root = Path::root();
        assert!(root.is_root());
        assert_eq!(root.parent(), None);
        let p = root.child(1).child(2).child(1);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.last(), Some(1));
        assert_eq!(p.parent(), Some(Path(vec![1, 2])));
        assert!(root.is_prefix_of(&p));
        assert!(Path(vec![1, 2]).is_prefix_of(&p));
        assert!(!Path(vec![2]).is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
        assert_eq!(p.prefix(2), Path(vec![1, 2]));
    }

    #[test]
    fn prefix_sid_matches_allocating_form() {
        for m in [2usize, 3, 10, 204] {
            let p = Path(vec![1, 2, 1, (m as u16).min(2)]);
            for len in 0..=p.depth() {
                assert_eq!(p.prefix_sid(len, m), p.prefix(len).sid(m), "m={m} len={len}");
            }
        }
    }

    #[test]
    fn sid_hash_is_injective() {
        use std::hash::BuildHasher;
        // One multiply by an odd constant and a rotate: a bijection on u64,
        // so two SIDs never share a hash, consecutive ones included.
        let hashes: std::collections::HashSet<u64> =
            (0..10_000u64).map(|s| SidBuildHasher::default().hash_one(Sid(s))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Path(vec![1, 1, 2]).to_string(), "<1,1,2>");
        assert_eq!(Path::root().to_string(), "<>");
    }

    #[test]
    #[should_panic]
    fn zero_position_rejected() {
        Path::root().child(0);
    }

    #[test]
    #[should_panic]
    fn oversized_position_rejected_in_sid() {
        Path(vec![3]).sid(2);
    }
}
