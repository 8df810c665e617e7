//! Lossy signature compression with Bloom filters (§VII).
//!
//! "We can build a bloom filter on all SID's whose corresponding entries are
//! 1 in the signature. During query execution, we can load the compressed
//! signature (i.e., a bloom filter), and test a SID upon that."
//!
//! A Bloom filter has no false negatives, so pruning stays *sound*: every
//! qualifying tuple is still found. False positives make the search visit
//! extra R-tree nodes *and* admit non-qualifying tuples as candidate
//! results, so the query processor verifies each candidate tuple against
//! the base table (a counted random access, exactly like minimal probing)
//! whenever the probe [`is lossy`](crate::store::BooleanProbe::is_lossy).
//! The `ablation bloom` runner in the bench crate measures the space-vs-I/O
//! trade.

use pcube_bitmap::BloomFilter;
use pcube_rtree::{Path, Sid};

use crate::signature::Signature;

/// A lossy, fixed-size summary of one cell's signature.
#[derive(Debug, Clone)]
pub struct BloomSignature {
    filter: BloomFilter,
    m_max: usize,
    /// SID of the node last passed to [`BloomSignature::fetch_child_mask`].
    expanding: Sid,
}

impl BloomSignature {
    /// Builds the filter from an exact signature: every set bit contributes
    /// the SID of the child (node or tuple slot) it points at.
    ///
    /// # Panics
    /// Panics if `fp_rate` is outside `(0, 1)`.
    pub fn from_signature(sig: &Signature, fp_rate: f64) -> Self {
        let m = sig.m_max();
        let mut sids: Vec<Sid> = Vec::with_capacity(sig.bit_count());
        for (node_sid, bits) in sig.iter_nodes() {
            let node_path = Path::from_sid(node_sid, m);
            for pos in bits.iter_ones() {
                sids.push(node_path.child(pos as u16 + 1).sid(m));
            }
        }
        let mut filter = BloomFilter::with_rate(sids.len().max(1), fp_rate);
        for sid in sids {
            filter.insert(sid.0);
        }
        BloomSignature { filter, m_max: m, expanding: Sid::ROOT }
    }

    /// Tests whether the subtree/tuple at `path` *may* contain data of the
    /// cell. `false` is definitive (sound pruning); `true` may be a false
    /// positive.
    ///
    /// Unlike the exact signature, only the deepest SID is tested — one
    /// filter probe instead of walking every prefix bit (the paper's
    /// intended cheap check). An ancestor miss would have pruned the search
    /// before this path was ever generated.
    pub fn contains(&self, path: &Path) -> bool {
        if path.is_root() {
            return true;
        }
        self.filter.contains(path.sid(self.m_max).0)
    }

    /// Points the filter at the node at `path` for the per-child tests of
    /// one expansion. A filter stores no per-node array, so its "child
    /// mask" is the node's SID: [`BloomSignature::child_bit`] derives each
    /// child's SID from it with one multiply-add instead of re-encoding the
    /// whole child path.
    pub fn fetch_child_mask(&mut self, path: &Path) {
        self.expanding = path.sid(self.m_max);
    }

    /// `contains(path.child(slot + 1))` for the `path` fetched last: one
    /// filter probe.
    pub fn child_bit(&self, slot: usize) -> bool {
        self.filter.contains(self.expanding.child(slot as u16 + 1, self.m_max).0)
    }

    /// Serialized size of the filter in bytes (vs the exact signature's
    /// compressed pages).
    pub fn size_bytes(&self) -> usize {
        self.filter.size_bytes()
    }

    /// Fraction of filter bits set.
    pub fn fill_ratio(&self) -> f64 {
        self.filter.fill_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_signature() -> (Signature, Vec<Path>, Vec<Path>) {
        let present = vec![
            Path(vec![1, 1, 1]),
            Path(vec![1, 2, 1]),
            Path(vec![2, 1, 2]),
            Path(vec![2, 2, 2]),
        ];
        let absent = vec![
            Path(vec![1, 1, 2]),
            Path(vec![1, 2, 2]),
            Path(vec![2, 1, 1]),
            Path(vec![2, 2, 1]),
        ];
        (Signature::from_paths(2, present.iter()), present, absent)
    }

    #[test]
    fn no_false_negatives_on_any_prefix() {
        let (sig, present, _) = sample_signature();
        let bloom = BloomSignature::from_signature(&sig, 0.01);
        for p in &present {
            for depth in 0..=p.depth() {
                let prefix = p.prefix(depth);
                assert!(bloom.contains(&prefix), "prefix {prefix} of {p} must test positive");
            }
        }
    }

    #[test]
    fn bloom_probe_is_sound_superset_of_exact() {
        let (sig, _, absent) = sample_signature();
        let bloom = BloomSignature::from_signature(&sig, 0.01);
        for p in &absent {
            if bloom.contains(p) {
                // Allowed (false positive) — but the exact signature must
                // never be positive where bloom is negative.
                continue;
            }
            assert!(!sig.contains(p), "bloom negative must imply exact negative for {p}");
        }
    }

    #[test]
    fn empty_signature_yields_all_negative_filter() {
        let bloom = BloomSignature::from_signature(&Signature::empty(4), 0.01);
        assert!(bloom.contains(&Path::root()));
        assert!(!bloom.contains(&Path(vec![1])));
        assert_eq!(bloom.fill_ratio(), 0.0);
    }

    #[test]
    fn filter_undercuts_sparse_node_arrays() {
        // The Bloom summary pays ~10 bits per set bit regardless of fanout,
        // while node arrays pay M bits per touched node. With the paper's
        // realistic M (~204) and sparsely populated nodes, the filter wins
        // by a wide margin.
        let m = 204usize;
        let paths: Vec<Path> =
            (1..=m as u16).map(|a| Path(vec![a, 1])).collect();
        let sig = Signature::from_paths(m, paths.iter());
        assert_eq!(sig.node_count(), 1 + m, "root + one sparse node per child");
        let bloom = BloomSignature::from_signature(&sig, 0.01);
        let dense_bytes = sig.node_count() * m.div_ceil(8);
        assert!(
            bloom.size_bytes() * 5 < dense_bytes,
            "bloom {} vs dense {}",
            bloom.size_bytes(),
            dense_bytes
        );
    }
}
