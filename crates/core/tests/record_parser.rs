//! The record parser against a reference that shares no code with it:
//! `encode::decode_record` must read a partial-signature record exactly as
//! a node-by-node parse through the bit-by-bit reference decoder and the
//! byte-at-a-time reference varint reader of `pcube-bitmap`'s tests does —
//! the same root, the same nodes, the same rows, and the same refusals —
//! at the fanouts 18, 72 and 145 (rows of one, two and three words).
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name.

#[allow(dead_code)] // the encoders are the bitmap tests' concern
#[path = "../../bitmap/tests/reference/mod.rs"]
mod reference;

use pcube_bitmap::{write_varint, BitArray, Codec, LiteralCodec, RleCodec, WahCodec};
use pcube_core::encode::decode_record;
use pcube_core::NodeTable;
use pcube_rtree::Sid;
use proptest::prelude::*;

/// A record the way the reference reads it: the root SID and every node's
/// SID and bits, parsed one node after another.
fn reference_record(buf: &[u8], m_max: usize) -> Option<(Sid, Vec<(Sid, BitArray)>)> {
    let mut pos = 0;
    let root = Sid(reference::varint(buf, &mut pos)?);
    let n = reference::varint(buf, &mut pos)?;
    let mut nodes = Vec::new();
    for _ in 0..n {
        let sid = Sid(reference::varint(buf, &mut pos)?);
        let (bits, used) = reference::decode(&buf[pos..], m_max)?;
        pos += used;
        nodes.push((sid, bits));
    }
    Some((root, nodes))
}

/// `decode_record` into a table that already holds two rows, against the
/// reference: the same verdict, and on success the same root, the nodes'
/// SIDs and lengths in order, one zero-padded row per node behind the two
/// rows, which are left alone.
fn assert_parses_as_reference(buf: &[u8], m_max: usize) {
    let stride = m_max.div_ceil(64);
    let held: Vec<u64> = (0..2 * stride as u64).map(|k| 0x0F0F_0F0F_0F0F_0F0F ^ k).collect();
    let (mut table, mut nodes) = (NodeTable::new(m_max), Vec::new());
    table.push_zeroed(2);
    for k in 0..2 {
        table.row_mut(k).copy_from_slice(&held[k * stride..][..stride]);
    }
    let got = decode_record(buf, m_max, &mut table, &mut nodes);
    let expected = reference_record(buf, m_max);
    assert_eq!(got, expected.as_ref().map(|(root, _)| *root), "verdict, M = {m_max}, {buf:02x?}");
    let Some((_, expected)) = expected else { return };
    assert_eq!([table.row(0), table.row(1)].concat(), held, "rows held before, M = {m_max}");
    let shape: Vec<(Sid, usize)> = expected.iter().map(|(sid, bits)| (*sid, bits.len())).collect();
    assert_eq!(nodes, shape, "nodes, M = {m_max}");
    assert_eq!(table.len(), 2 + expected.len(), "rows, M = {m_max}");
    for (k, (_, bits)) in expected.iter().enumerate() {
        let mut want = bits.words().to_vec();
        want.resize(stride, 0);
        assert_eq!(table.row(2 + k), &want[..], "row {k}, M = {m_max}");
    }
}

/// A record of `nodes` at fanout `m_max`: each node's bits of a length up
/// to `m_max`, clustered or random by its density, written by the codec its
/// `scheme` picks (0 literal, 1 RLE, 2 WAH), under a SID of one to six
/// varint bytes.
fn record(root: u64, nodes: &[(u64, u8, u16, u8, u64)], m_max: usize) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, root);
    write_varint(&mut out, nodes.len() as u64);
    for &(sid, scheme, len, density, seed) in nodes {
        let len = usize::from(len) % (m_max + 1);
        let mut state = seed | 1;
        let mut value = false;
        let bits = BitArray::from_bits((0..len).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if density < 8 {
                // Clustered: flip about every 2^density bits.
                if state % (1 << density) == 0 {
                    value = !value;
                }
                value
            } else {
                state % 256 < u64::from(density)
            }
        }));
        write_varint(&mut out, sid >> (sid % 43));
        let codec: &dyn Codec = match scheme % 3 {
            0 => &LiteralCodec,
            1 => &RleCodec,
            _ => &WahCodec,
        };
        codec.encode_into(&bits, &mut out);
    }
    out
}

fn arb_nodes() -> impl Strategy<Value = Vec<(u64, u8, u16, u8, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u8>(), any::<u16>(), any::<u8>(), any::<u64>()), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Well-formed records, each also cut short, with one byte flipped, and
    /// read under a fanout one below its own.
    #[test]
    fn record_parser_equals_the_node_by_node_reference(
        root in any::<u64>(),
        nodes in arb_nodes(),
        cut in any::<usize>(),
        flip in (any::<usize>(), 1u8..=255),
    ) {
        for m_max in [18usize, 72, 145] {
            let buf = record(root >> (root % 64), &nodes, m_max);
            assert_parses_as_reference(&buf, m_max);
            assert_parses_as_reference(&buf, m_max - 1);
            assert_parses_as_reference(&buf[..cut % (buf.len() + 1)], m_max);
            let mut flipped = buf.clone();
            if let Some(byte) = flipped.get_mut(flip.0 % buf.len().max(1)) {
                *byte ^= flip.1;
            }
            assert_parses_as_reference(&flipped, m_max);
        }
    }

    /// Garbage: arbitrary bytes, and arbitrary bytes behind a small root
    /// and node count so that the parse reaches the nodes.
    #[test]
    fn record_parser_equals_the_reference_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        n in 0u8..8,
    ) {
        for m_max in [18usize, 72, 145] {
            assert_parses_as_reference(&bytes, m_max);
            assert_parses_as_reference(&[&[0, n][..], &bytes].concat(), m_max);
        }
    }
}
