//! Compressing signatures and decomposing them into page-sized partials.
//!
//! The paper compresses each node's bit array individually (adaptive,
//! node-level — §IV-B.1 gives three reasons) and then decomposes a signature
//! tree into *partial signatures*, each fitting a disk page: a breadth-first
//! traversal from the root is cut when the page fills; the process restarts
//! from the root's first child, then its following children, then the next
//! level, skipping nodes already coded. Each partial is a subtree fragment
//! referenced by the SID of its root.
//!
//! [`for_each_partial`] is that process as one pass over the signature's
//! SID-ordered node table (see [`Signature`], "Storage order"): the restart
//! points are the nodes in table order, the traversal under a restart point
//! is one contiguous table range per level, and "already coded" is a flag
//! per table index — no queue, no path, no hash lookup. Each node is encoded
//! once, straight into the record being filled, and the page is cut by the
//! length just written; the traversal stops when every node is coded.

use pcube_bitmap::{decode_words, read_varint, varint_len, write_varint, AdaptiveCodec, BitArray, Codec};
use pcube_rtree::Sid;

use crate::signature::Signature;

/// One page-sized fragment of a signature: the nodes (in BFS order) of a
/// subtree rooted at `root_sid`, minus any nodes coded by earlier partials.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSignature {
    /// SID of the subtree root this partial is referenced by.
    pub root_sid: Sid,
    /// `(sid, bits)` pairs in BFS order.
    pub nodes: Vec<(Sid, BitArray)>,
}

/// Bytes budgeted for a record's header when a page is cut: the root SID
/// plus three bytes for the node count (its varint is usually shorter; the
/// slack is part of the stored layout).
fn header_budget(root_sid: Sid) -> usize {
    varint_len(root_sid.0) + 3
}

/// Appends one node of a record: `[sid][adaptively encoded bits]`.
fn push_node(out: &mut Vec<u8>, sid: Sid, bits: &BitArray) {
    write_varint(out, sid.0);
    AdaptiveCodec.encode_into(bits, out);
}

/// Serializes a partial: `[root_sid][n_nodes]` then `[sid][encoded bits]`
/// per node, all varint/self-describing.
pub fn encode_partial(partial: &PartialSignature) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, partial.root_sid.0);
    write_varint(&mut out, partial.nodes.len() as u64);
    for (sid, bits) in &partial.nodes {
        push_node(&mut out, *sid, bits);
    }
    out
}

/// Inverse of [`encode_partial`] for bytes read back from a page: the
/// record parsed by [`decode_record`], each node's row turned into an owned
/// array of its encoded length. Returns `None` on malformed input.
pub fn decode_partial(buf: &[u8], m_max: usize) -> Option<PartialSignature> {
    let (mut words, mut shape) = (Vec::new(), Vec::new());
    let root_sid = decode_record(buf, m_max, &mut words, &mut shape)?;
    let stride = m_max.div_ceil(64);
    let nodes = shape
        .into_iter()
        .enumerate()
        .map(|(row, (sid, len))| {
            let start = row * stride;
            (sid, BitArray::from_words(len, words[start..start + len.div_ceil(64)].to_vec()))
        })
        .collect();
    Some(PartialSignature { root_sid, nodes })
}

/// The one parser of a partial-signature record read back from a page:
/// `[root_sid][n_nodes]`, then `[sid][encoded bits]` per node. The record's
/// rows of `m_max.div_ceil(64)` words each are appended to `words` zeroed,
/// all at once, and each node is decoded word-level into its row by the
/// one bit decoder ([`decode_words`], inlined here); its SID and encoded
/// bit length are appended to `nodes`, in record order. Nothing else is
/// allocated. Returns the root SID.
///
/// `None` on malformed input, which includes — checked before anything is
/// sized from them — a node count the record is too short to hold and a
/// node longer than the fanout `m_max`. What was appended is then still
/// there, the rows of the nodes decoded before the failure among it: the
/// caller cuts it off.
pub fn decode_record(
    buf: &[u8],
    m_max: usize,
    words: &mut Vec<u64>,
    nodes: &mut Vec<(Sid, usize)>,
) -> Option<Sid> {
    /// The shortest encoded node: a one-byte SID, a tag, a one-byte length.
    const MIN_NODE_BYTES: usize = 3;
    let mut pos = 0usize;
    let root_sid = Sid(read_varint(buf, &mut pos)?);
    let n = usize::try_from(read_varint(buf, &mut pos)?).ok()?;
    if n > (buf.len() - pos) / MIN_NODE_BYTES {
        return None;
    }
    let stride = m_max.div_ceil(64);
    let first = words.len();
    words.resize(first + n * stride, 0);
    nodes.reserve(n);
    for k in 0..n {
        let sid = Sid(read_varint(buf, &mut pos)?);
        let row = first + k * stride;
        let (len, used) = decode_words(&buf[pos..], m_max, &mut words[row..row + stride])?;
        pos += used;
        nodes.push((sid, len));
    }
    Some(root_sid)
}

/// Decomposes a signature into records of at most `payload_limit` bytes
/// each (§IV-B.1), calling `emit(root_sid, record)` for every partial in
/// storage order; `record` is the partial exactly as [`encode_partial`]
/// would serialize it.
///
/// `height` is the R-tree height (node levels): no node lies deeper than
/// `height - 1`.
///
/// # Panics
/// Panics if a single node's encoding exceeds `payload_limit` (cannot
/// happen for sane page sizes: an M=204 literal array is ~30 bytes), or if
/// the signature holds a node no stored ancestor chain leads to
/// ([`Signature::validate`]).
pub fn for_each_partial(
    sig: &Signature,
    height: usize,
    payload_limit: usize,
    mut emit: impl FnMut(Sid, &[u8]),
) {
    let nodes = sig.nodes();
    let base = sig.m_max() as u64 + 1;
    let mut coded = vec![false; nodes.len()];
    let mut uncoded = nodes.len();
    let (mut encoded, mut record) = (Vec::new(), Vec::new());
    // Depth of the restart point: SIDs below `base^depth` are no deeper.
    let (mut depth, mut depth_end) = (0usize, 1u64);
    for &(root_sid, _) in nodes {
        if uncoded == 0 {
            break;
        }
        while root_sid.0 >= depth_end {
            depth += 1;
            depth_end = depth_end.saturating_mul(base);
        }
        // Breadth-first under `root_sid`, skipping coded nodes and cutting
        // when the page payload would overflow.
        let header = header_budget(root_sid);
        let mut size = header;
        let mut count = 0usize;
        encoded.clear();
        // The subtree's nodes `k` levels down are the table's SIDs from
        // `root` followed by `k` digits 1 up to, excluding, `(root + 1)`
        // followed by `k` digits 0; none means none deeper either.
        let (mut lo, mut hi) = (root_sid.0, root_sid.0.saturating_add(1));
        'bfs: for _ in depth..height {
            let start = nodes.partition_point(|(sid, _)| sid.0 < lo);
            let end = start + nodes[start..].partition_point(|(sid, _)| sid.0 < hi);
            if start == end {
                break;
            }
            for i in start..end {
                if coded[i] {
                    continue;
                }
                let before = encoded.len();
                push_node(&mut encoded, nodes[i].0, &nodes[i].1);
                let len = encoded.len() - before;
                assert!(
                    header + len <= payload_limit,
                    "single node encoding ({len} B) exceeds page payload {payload_limit}"
                );
                if size + len > payload_limit {
                    encoded.truncate(before);
                    break 'bfs;
                }
                size += len;
                coded[i] = true;
                count += 1;
            }
            let Some(next_lo) = lo.checked_mul(base).and_then(|lo| lo.checked_add(1)) else {
                break;
            };
            (lo, hi) = (next_lo, hi.saturating_mul(base));
        }
        if count > 0 {
            uncoded -= count;
            // The count is known only now: header, then the encoded nodes.
            record.clear();
            write_varint(&mut record, root_sid.0);
            write_varint(&mut record, count as u64);
            record.extend_from_slice(&encoded);
            emit(root_sid, &record);
        }
    }
    assert_eq!(uncoded, 0, "decomposition must cover every node");
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pcube_rtree::Path;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The decomposition of [`for_each_partial`] as decoded partials (the
    /// store writes the records as they come).
    fn decompose(sig: &Signature, height: usize, payload_limit: usize) -> Vec<PartialSignature> {
        let mut partials = Vec::new();
        for_each_partial(sig, height, payload_limit, |_, record| {
            partials
                .push(decode_partial(record, sig.m_max()).expect("a record just encoded decodes"));
        });
        partials
    }

    /// Reassembles a signature from all of its partials.
    fn reassemble(m_max: usize, partials: &[PartialSignature]) -> Signature {
        Signature::from_nodes(
            m_max,
            partials.iter().flat_map(|p| p.nodes.iter().cloned()).collect(),
        )
    }

    fn encoded_node_len(sid: Sid, bits: &BitArray) -> usize {
        varint_len(sid.0) + pcube_bitmap::adaptive_len(bits)
    }

    fn table1_a1() -> Signature {
        // (A = a1): t1 <1,1,1>, t3 <1,2,1>.
        Signature::from_paths(2, [Path(vec![1, 1, 1]), Path(vec![1, 2, 1])].iter())
    }

    #[test]
    fn paper_decomposition_example() {
        // §IV-B.1 walks Fig 2.a with a page that fits two nodes: the first
        // partial holds the root (10) and N1 (11), referenced by SID 0; the
        // second holds leaves N3, N4, referenced by N1 whose SID = 1.
        let sig = table1_a1();
        // Two nodes of M=2 cost ~5 bytes each encoded; pick a limit that
        // fits exactly two.
        let one = encoded_node_len(Sid(0), sig.node(Sid(0)).unwrap());
        let limit = 4 + 2 * one; // header estimate (4) + exactly two nodes
        let partials = decompose(&sig, 3, limit);
        assert_eq!(partials.len(), 2, "{partials:?}");
        assert_eq!(partials[0].root_sid, Sid(0));
        assert_eq!(partials[0].nodes.len(), 2);
        assert_eq!(partials[0].nodes[0].0, Sid(0));
        assert_eq!(partials[0].nodes[1].0, Path(vec![1]).sid(2));
        assert_eq!(partials[1].root_sid, Path(vec![1]).sid(2), "referenced by N1, SID 1");
        let sids: Vec<Sid> = partials[1].nodes.iter().map(|(s, _)| *s).collect();
        assert_eq!(sids, vec![Path(vec![1, 1]).sid(2), Path(vec![1, 2]).sid(2)]);
    }

    #[test]
    fn single_page_when_it_fits() {
        let sig = table1_a1();
        let partials = decompose(&sig, 3, 4096);
        assert_eq!(partials.len(), 1);
        assert_eq!(partials[0].nodes.len(), sig.node_count());
    }

    #[test]
    fn decompose_reassemble_roundtrip_various_limits() {
        let mut sig = Signature::empty(4);
        // A bushy 3-level signature.
        for a in 1..=4u16 {
            for b in 1..=4u16 {
                for c in [1u16, 3] {
                    sig.set_path(&Path(vec![a, b, c]));
                }
            }
        }
        sig.validate(3);
        for limit in [24usize, 40, 64, 128, 4096] {
            let partials = decompose(&sig, 3, limit);
            let back = reassemble(4, &partials);
            assert_eq!(back, sig, "limit {limit}");
            // Each node coded exactly once.
            let coded: usize = partials.iter().map(|p| p.nodes.len()).sum();
            assert_eq!(coded, sig.node_count(), "limit {limit}");
            // Every partial's nodes are under its root.
            for p in &partials {
                let root = Path::from_sid(p.root_sid, 4);
                for (sid, _) in &p.nodes {
                    let path = Path::from_sid(*sid, 4);
                    assert!(root.is_prefix_of(&path), "{root} not prefix of {path}");
                }
            }
        }
    }

    #[test]
    fn partials_respect_size_limit() {
        let mut sig = Signature::empty(8);
        for a in 1..=8u16 {
            for b in 1..=8u16 {
                sig.set_path(&Path(vec![a, b]));
            }
        }
        let limit = 48;
        for p in decompose(&sig, 2, limit) {
            let enc = encode_partial(&p);
            assert!(enc.len() <= limit, "partial of {} bytes exceeds {limit}", enc.len());
        }
    }

    #[test]
    fn encode_decode_partial_roundtrip() {
        let sig = table1_a1();
        for p in decompose(&sig, 3, 4096) {
            let enc = encode_partial(&p);
            let dec = decode_partial(&enc, 2).expect("decodes");
            assert_eq!(dec.root_sid, p.root_sid);
            assert_eq!(dec.nodes.len(), p.nodes.len());
            for ((s1, b1), (s2, b2)) in dec.nodes.iter().zip(&p.nodes) {
                assert_eq!(s1, s2);
                assert_eq!(b1, b2);
            }
        }
    }

    #[test]
    fn decode_partial_rejects_garbage() {
        assert!(decode_partial(&[], 2).is_none());
        let sig = table1_a1();
        let mut enc = encode_partial(&decompose(&sig, 3, 4096).remove(0));
        assert!(decode_partial(&enc, 1).is_none(), "a node longer than the fanout");
        enc.truncate(enc.len() - 2);
        assert!(decode_partial(&enc, 2).is_none());
    }

    #[test]
    fn decode_partial_sizes_nothing_from_an_unchecked_length() {
        // Root 0, one node, SID 5, RLE tag, bit length 2^45: the array would
        // be 4 TiB. Refused by the fanout bound before anything is sized.
        let mut node_of_2_45_bits = vec![0, 1, 5, 1];
        write_varint(&mut node_of_2_45_bits, 1 << 45);
        assert!(decode_partial(&node_of_2_45_bits, 204).is_none());
        // Root 0, 2^45 nodes in a record of a few bytes.
        let mut record_of_2_45_nodes = vec![0];
        write_varint(&mut record_of_2_45_nodes, 1 << 45);
        record_of_2_45_nodes.extend_from_slice(&[5, 1, 2, 2]);
        assert!(decode_partial(&record_of_2_45_nodes, 204).is_none());
    }

    #[test]
    fn records_are_the_serialized_partials() {
        let mut sig = Signature::empty(4);
        for a in 1..=4u16 {
            for b in 1..=4u16 {
                sig.set_path(&Path(vec![a, b, 1 + (a + b) % 4]));
            }
        }
        for limit in [24usize, 40, 64, 4096] {
            let mut records: Vec<(Sid, Vec<u8>)> = Vec::new();
            for_each_partial(&sig, 3, limit, |root, record| records.push((root, record.to_vec())));
            let partials = decompose(&sig, 3, limit);
            assert_eq!(records.len(), partials.len());
            for ((root, record), partial) in records.iter().zip(&partials) {
                assert_eq!(*root, partial.root_sid);
                assert_eq!(record, &encode_partial(partial), "limit {limit}");
            }
        }
    }

    #[test]
    fn empty_signature_has_no_partials() {
        let sig = Signature::empty(4);
        assert!(decompose(&sig, 3, 100).is_empty());
        assert!(reassemble(4, &[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A random set of distinct depth-3 tuple paths over fanout 4: every
        /// node is coded once, every partial fits the limit and round-trips,
        /// and the partials reassemble to the signature.
        #[test]
        fn decompose_covers_each_node_once(
            paths in prop::collection::hash_set((1u16..=4, 1u16..=4, 1u16..=4), 0..40),
            limit in 16usize..300,
        ) {
            let paths: Vec<Path> = paths.into_iter().map(|(a, b, c)| Path(vec![a, b, c])).collect();
            let sig = Signature::from_paths(4, paths.iter());
            let partials = decompose(&sig, 3, limit);
            let coded: usize = partials.iter().map(|p| p.nodes.len()).sum();
            prop_assert_eq!(coded, sig.node_count());
            let mut seen = HashSet::new();
            for p in &partials {
                let enc = encode_partial(p);
                prop_assert!(enc.len() <= limit, "partial {} bytes > {limit}", enc.len());
                let dec = decode_partial(&enc, 4).expect("roundtrip");
                prop_assert_eq!(dec.root_sid, p.root_sid);
                for (sid, _) in &p.nodes {
                    prop_assert!(seen.insert(*sid), "node {sid} coded twice");
                }
            }
            prop_assert_eq!(reassemble(4, &partials), sig);
        }
    }
}
