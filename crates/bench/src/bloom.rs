//! Lossy signature compression with Bloom filters (§VII), as the `report
//! ablation` runner measures it.
//!
//! "We can build a bloom filter on all SID's whose corresponding entries are
//! 1 in the signature. During query processing, we can load the compressed
//! signature (i.e., a bloom filter), and test a SID upon that."
//!
//! A Bloom filter has no false negatives, so pruning stays *sound*: every
//! qualifying tuple is still found. False positives make the search visit
//! extra R-tree nodes *and* admit non-qualifying tuples as candidate
//! results, so [`BloomProbe`] verifies each candidate tuple against the base
//! table (a counted random access, exactly like minimal probing). The
//! filters are built from the exact signatures, one full load per predicate
//! cell per query; a deployment would persist them. Nothing serves them:
//! this measures the space-vs-I/O trade, through [`PCubeDb::run_with_probe`].

use pcube_bitmap::BloomFilter;
use pcube_core::query::{BooleanPruner, Candidate, VerifyAllPruner};
use pcube_core::{ClassOutcome, PCubeDb, QueryClass, Signature};
use pcube_cube::{normalize, CellKey, Selection};
use pcube_rtree::{Path, Sid};
use pcube_storage::Counter;

/// A lossy, fixed-size summary of one cell's signature.
#[derive(Debug, Clone)]
pub struct BloomSignature {
    filter: BloomFilter,
    m_max: usize,
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
        BloomSignature { filter, m_max: m }
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
        path.is_root() || self.filter.contains(path.sid(self.m_max).0)
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

/// The §VII probe of one selection: the Bloom summaries of its atomic
/// cells, ANDed.
pub struct BloomProbe {
    filters: Vec<BloomSignature>,
    /// SID of the node kept last. A filter stores no per-node array, so
    /// each child's SID is one multiply-add from it, and one probe per
    /// filter answers the child.
    expanding: Sid,
}

impl BloomProbe {
    /// The probe of `selection` at false-positive target `fp_rate`; `None`
    /// where no summary can serve: no predicate, a value never seen in the
    /// data, or a cell whose signature could not be fully loaded to build
    /// its filter (a degraded read — never a partial filter set).
    ///
    /// # Panics
    /// Panics if `fp_rate` is outside `(0, 1)`.
    pub fn new(db: &PCubeDb, selection: &Selection, fp_rate: f64) -> Option<Self> {
        let pcube = db.pcube();
        let codes: Option<Vec<u32>> = normalize(selection)
            .iter()
            .map(|p| pcube.registry().code(&CellKey::atomic(p.dim, p.value)))
            .collect();
        let mut filters = Vec::with_capacity(selection.len());
        for code in codes? {
            let Ok(sig) = pcube.store().try_load_full(code) else {
                pcube.store().stats().add(Counter::DegradedReads, 1);
                return None;
            };
            filters.push(BloomSignature::from_signature(&sig, fp_rate));
        }
        (!filters.is_empty()).then_some(BloomProbe { filters, expanding: Sid::ROOT })
    }

    /// `true` if every filter may hold the subtree/tuple at `path`.
    fn contains(&self, path: &Path) -> bool {
        self.filters.iter().all(|f| f.contains(path))
    }

    /// [`BooleanPruner::keep`] of the node at `path`.
    fn keep_node(&mut self, path: &Path) -> bool {
        self.expanding = path.sid(self.filters[0].m_max);
        self.contains(path)
    }
}

impl BooleanPruner for BloomProbe {
    /// A filter's positive may be false: a tuple is then fetched, as
    /// domination-first fetches it.
    fn keep(&mut self, db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        match cand {
            Candidate::Tuple { path, .. } => {
                self.contains(path) && VerifyAllPruner.keep(db, selection, cand)
            }
            Candidate::Node { path, .. } => self.keep_node(path),
        }
    }

    /// `contains(path.child(slot + 1))` for the node kept last: one probe
    /// per filter.
    fn keep_child(&mut self, slot: usize, _is_node: bool) -> bool {
        let child = self.expanding.child(slot as u16 + 1, self.filters[0].m_max);
        self.filters.iter().all(|f| f.filter.contains(child.0))
    }
}

/// `class` over `selection` under the Bloom probe at `fp_rate`, or — where
/// no summary can serve ([`BloomProbe::new`]) — under the lazy signature
/// probe.
pub fn run<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    fp_rate: f64,
) -> ClassOutcome<C::Row> {
    match BloomProbe::new(db, selection, fp_rate) {
        Some(probe) => db.run_with_probe(selection, class, probe),
        None => db.run(selection, class),
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
    fn child_bits_answer_what_the_path_test_answers() {
        let (sig, present, absent) = sample_signature();
        let other = Signature::from_paths(2, present[1..].iter());
        let filters = [&sig, &other].map(|s| BloomSignature::from_signature(s, 0.01));
        let mut probe = BloomProbe { filters: filters.to_vec(), expanding: Sid::ROOT };
        let mut asked = 0;
        for p in present.iter().chain(&absent) {
            for depth in 1..=p.depth() {
                let child = p.prefix(depth);
                let slot = usize::from(child.0[depth - 1]) - 1;
                if probe.keep_node(&p.prefix(depth - 1)) {
                    let is_node = depth < p.depth();
                    assert_eq!(probe.keep_child(slot, is_node), probe.contains(&child), "{child}");
                    asked += 1;
                }
            }
        }
        assert!(asked >= present.len(), "every present path's parent is kept");
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
