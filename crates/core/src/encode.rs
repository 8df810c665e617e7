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
//! once, from its row straight into the record being filled, and the page
//! is cut by the length just written; the traversal stops when every node
//! is coded.
//!
//! Bits live in one form on both sides of a page: a record is encoded from
//! the rows of a [`NodeTable`] — by the decomposition, or again by in-place
//! maintenance (`encode_record`), through one node and one record writer —
//! and decoded into the rows of one ([`decode_record`]). There is no
//! per-node array.

use pcube_bitmap::{decode_words, encode_words_into, read_varint, varint_len, write_varint};
use pcube_rtree::Sid;

use crate::signature::{NodeTable, Signature};

/// Bytes budgeted for a record's header when a page is cut: the root SID
/// plus three bytes for the node count (its varint is usually shorter; the
/// slack is part of the stored layout).
fn header_budget(root_sid: Sid) -> usize {
    varint_len(root_sid.0) + 3
}

/// Appends one node of a record: `[sid][adaptively encoded bits]`, the bits
/// the first `m_max` of `row`.
fn push_node(out: &mut Vec<u8>, sid: Sid, row: &[u64], m_max: usize) {
    write_varint(out, sid.0);
    encode_words_into(row, m_max, out);
}

/// Writes the record of the partial referenced by `root_sid` into `record`,
/// cleared first: `[root_sid][count]`, then `nodes`, the `count` nodes
/// `push_node` appended.
fn write_record(record: &mut Vec<u8>, root_sid: Sid, count: usize, nodes: &[u8]) {
    record.clear();
    write_varint(record, root_sid.0);
    write_varint(record, count as u64);
    record.extend_from_slice(nodes);
}

/// The record of the partial referenced by `root_sid` whose nodes are
/// `nodes`, `(SID, row)` in record order, each row's first `m_max` bits
/// encoded: how in-place maintenance writes a partial again, through the
/// node and record writers of [`for_each_partial`].
pub(crate) fn encode_record<'r>(
    root_sid: Sid,
    nodes: impl ExactSizeIterator<Item = (Sid, &'r [u64])>,
    m_max: usize,
) -> Vec<u8> {
    let (count, mut encoded, mut record) = (nodes.len(), Vec::new(), Vec::new());
    for (sid, row) in nodes {
        push_node(&mut encoded, sid, row, m_max);
    }
    write_record(&mut record, root_sid, count, &encoded);
    record
}

/// The one parser of a partial-signature record read back from a page:
/// `[root_sid][n_nodes]`, then `[sid][encoded bits]` per node. The record's
/// rows are appended to `table` zeroed, all at once, and each node is
/// decoded word-level into its row by the one bit decoder ([`decode_words`],
/// inlined here); its SID and encoded bit length are appended to `nodes`,
/// in record order. Nothing else is allocated. Returns the root SID.
///
/// `None` on malformed input, which includes — checked before anything is
/// sized from them — a node count the record is too short to hold and a
/// node longer than the fanout `m_max`. What was appended is then still
/// there, the rows of the nodes decoded before the failure among it: the
/// caller cuts it off.
pub fn decode_record(
    buf: &[u8],
    m_max: usize,
    table: &mut NodeTable,
    nodes: &mut Vec<(Sid, usize)>,
) -> Option<Sid> {
    /// The shortest encoded node: a one-byte SID, a tag, a one-byte length.
    const MIN_NODE_BYTES: usize = 3;
    debug_assert_eq!(table.stride(), m_max.div_ceil(64), "rows sized for another fanout");
    let mut pos = 0usize;
    let root_sid = Sid(read_varint(buf, &mut pos)?);
    let n = usize::try_from(read_varint(buf, &mut pos)?).ok()?;
    if n > (buf.len() - pos) / MIN_NODE_BYTES {
        return None;
    }
    let first = table.push_zeroed(n);
    nodes.reserve(n);
    for k in 0..n {
        let sid = Sid(read_varint(buf, &mut pos)?);
        let (len, used) = decode_words(&buf[pos..], m_max, table.row_mut(first + k))?;
        pos += used;
        nodes.push((sid, len));
    }
    Some(root_sid)
}

/// Decomposes a signature into records of at most `payload_limit` bytes
/// each (§IV-B.1), calling `emit(root_sid, record)` for every partial in
/// storage order; `record` is `[root_sid][n_nodes]`, then `[sid][encoded
/// bits]` per node in breadth-first order (`write_record`).
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
    let (sids, table, m_max) = (sig.sids(), sig.table(), sig.m_max());
    let base = m_max as u64 + 1;
    let mut coded = vec![false; sids.len()];
    let mut uncoded = sids.len();
    let (mut encoded, mut record) = (Vec::new(), Vec::new());
    // Depth of the restart point: SIDs below `base^depth` are no deeper.
    let (mut depth, mut depth_end) = (0usize, 1u64);
    for &root_sid in sids {
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
            let start = sids.partition_point(|sid| sid.0 < lo);
            let end = start + sids[start..].partition_point(|sid| sid.0 < hi);
            if start == end {
                break;
            }
            for i in start..end {
                if coded[i] {
                    continue;
                }
                let before = encoded.len();
                push_node(&mut encoded, sids[i], table.row(i), m_max);
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
            write_record(&mut record, root_sid, count, &encoded);
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

    /// The records of [`for_each_partial`] read back: each record's root
    /// and node SIDs, and all their nodes' rows in one table, in record
    /// order. Each record fits the limit and is its rows, encoded again.
    fn decompose(sig: &Signature, height: usize, limit: usize) -> (Vec<(Sid, Vec<Sid>)>, NodeTable) {
        let m = sig.m_max();
        let (mut partials, mut table) = (Vec::new(), NodeTable::new(m));
        for_each_partial(sig, height, limit, |root_sid, record| {
            assert!(record.len() <= limit, "a record of {} B > {limit}", record.len());
            let (first, mut nodes) = (table.len(), Vec::new());
            assert_eq!(decode_record(record, m, &mut table, &mut nodes), Some(root_sid));
            assert!(nodes.iter().all(|&(_, len)| len == m), "every node is written M bits long");
            let sids: Vec<Sid> = nodes.iter().map(|&(sid, _)| sid).collect();
            let rows = sids.iter().enumerate().map(|(k, &sid)| (sid, table.row(first + k)));
            assert_eq!(encode_record(root_sid, rows, m), record, "the record is its rows, encoded");
            partials.push((root_sid, sids));
        });
        (partials, table)
    }

    /// Reassembles a signature from all of its partials.
    fn reassemble(m_max: usize, (partials, table): &(Vec<(Sid, Vec<Sid>)>, NodeTable)) -> Signature {
        let sids: Vec<Sid> = partials.iter().flat_map(|(_, sids)| sids.iter().copied()).collect();
        Signature::from_rows(m_max, &sids, table)
    }

    /// `true` if `record` decodes under fanout `m_max`.
    fn decodes(record: &[u8], m_max: usize) -> bool {
        decode_record(record, m_max, &mut NodeTable::new(m_max), &mut Vec::new()).is_some()
    }

    fn encoded_node_len(sid: Sid, row: &[u64], m_max: usize) -> usize {
        let mut out = Vec::new();
        push_node(&mut out, sid, row, m_max);
        out.len()
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
        let one = encoded_node_len(Sid(0), sig.node(Sid(0)).unwrap(), 2);
        let limit = 4 + 2 * one; // header estimate (4) + exactly two nodes
        let (partials, _) = decompose(&sig, 3, limit);
        assert_eq!(partials.len(), 2);
        assert_eq!(partials[0], (Sid(0), vec![Sid(0), Path(vec![1]).sid(2)]));
        // Referenced by N1, SID 1.
        let (n1, n3, n4) = (Path(vec![1]).sid(2), Path(vec![1, 1]).sid(2), Path(vec![1, 2]).sid(2));
        assert_eq!(partials[1], (n1, vec![n3, n4]));
    }

    #[test]
    fn single_page_when_it_fits() {
        let sig = table1_a1();
        let (partials, _) = decompose(&sig, 3, 4096);
        assert_eq!(partials.len(), 1);
        assert_eq!(partials[0].1.len(), sig.node_count());
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
            let decomposed = decompose(&sig, 3, limit);
            assert_eq!(reassemble(4, &decomposed), sig, "limit {limit}");
            // Each node coded exactly once.
            assert_eq!(decomposed.1.len(), sig.node_count(), "limit {limit}");
            // Every partial's nodes are under its root.
            for (root_sid, sids) in &decomposed.0 {
                let root = Path::from_sid(*root_sid, 4);
                for sid in sids {
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
        // `decompose` checks every record against the limit.
        assert!(decompose(&sig, 2, 48).0.len() > 1, "the limit splits the signature");
    }

    #[test]
    fn decode_record_rejects_garbage() {
        assert!(!decodes(&[], 2));
        let mut enc = Vec::new();
        for_each_partial(&table1_a1(), 3, 4096, |_, record| enc = record.to_vec());
        assert!(decodes(&enc, 2));
        assert!(!decodes(&enc, 1), "a node longer than the fanout");
        enc.truncate(enc.len() - 2);
        assert!(!decodes(&enc, 2));
    }

    #[test]
    fn decode_record_sizes_nothing_from_an_unchecked_length() {
        // Root 0, one node, SID 5, RLE tag, bit length 2^45: the array would
        // be 4 TiB. Refused by the fanout bound before anything is sized.
        let mut node_of_2_45_bits = vec![0, 1, 5, 1];
        write_varint(&mut node_of_2_45_bits, 1 << 45);
        assert!(!decodes(&node_of_2_45_bits, 204));
        // Root 0, 2^45 nodes in a record of a few bytes.
        let mut record_of_2_45_nodes = vec![0];
        write_varint(&mut record_of_2_45_nodes, 1 << 45);
        record_of_2_45_nodes.extend_from_slice(&[5, 1, 2, 2]);
        assert!(!decodes(&record_of_2_45_nodes, 204));
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
            // `decompose` encodes every record again from its decoded rows.
            assert_eq!(reassemble(4, &decompose(&sig, 3, limit)), sig, "limit {limit}");
        }
    }

    #[test]
    fn empty_signature_has_no_partials() {
        let sig = Signature::empty(4);
        let decomposed = decompose(&sig, 3, 100);
        assert!(decomposed.0.is_empty());
        assert!(reassemble(4, &decomposed).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A random set of distinct depth-3 tuple paths over fanout 4, and
        /// over fanout 70 (two-word rows, tuples in both words): every node
        /// is coded once, every partial fits the limit and round-trips, and
        /// the partials reassemble to the signature.
        #[test]
        fn decompose_covers_each_node_once(
            paths in prop::collection::hash_set((1u16..=4, 1u16..=4, 1u16..=4), 0..40),
            limit in 16usize..300,
        ) {
            for m in [4usize, 70] {
                // At fanout 70 the last slot moves to the second word.
                let slot = |p: u16| if m == 4 || p < 4 { p } else { 66 + p };
                let paths: Vec<Path> =
                    paths.iter().map(|&(a, b, c)| Path(vec![slot(a), slot(b), slot(c)])).collect();
                let sig = Signature::from_paths(m, paths.iter());
                // A two-word row's node may need more than 16 bytes.
                let limit = if m == 4 { limit } else { limit.max(32) };
                let decomposed = decompose(&sig, 3, limit);
                prop_assert_eq!(decomposed.1.len(), sig.node_count());
                let mut seen = HashSet::new();
                for sid in decomposed.0.iter().flat_map(|(_, sids)| sids) {
                    prop_assert!(seen.insert(*sid), "node {sid} coded twice");
                }
                prop_assert_eq!(reassemble(m, &decomposed), sig);
            }
        }
    }
}
