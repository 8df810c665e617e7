//! Property tests for bit arrays, codecs and the Bloom filter.
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use pcube_bitmap::{
    adaptive_len, decode, decode_bounded, decode_words, read_varint, varint_len, write_varint,
    AdaptiveCodec, BitArray, BloomFilter, Codec, LiteralCodec, RleCodec, WahCodec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference;

/// Every codec against its reference on one array, plus both decoders.
fn assert_matches_reference(arr: &BitArray, what: &str) {
    assert_eq!(LiteralCodec.encode(arr), reference::literal(arr), "literal, {what}");
    assert_eq!(RleCodec.encode(arr), reference::rle(arr), "rle, {what}");
    assert_eq!(WahCodec.encode(arr), reference::wah(arr), "wah, {what}");
    let adaptive = AdaptiveCodec.encode(arr);
    assert_eq!(adaptive, reference::adaptive(arr), "adaptive, {what}");
    assert_eq!(adaptive_len(arr), adaptive.len(), "adaptive_len, {what}");
    // Appending leaves what is already in the buffer alone.
    let mut appended = vec![0xEE];
    AdaptiveCodec.encode_into(arr, &mut appended);
    assert_eq!(appended[0], 0xEE);
    assert_eq!(&appended[1..], adaptive.as_slice(), "encode_into, {what}");
    for enc in [LiteralCodec.encode(arr), RleCodec.encode(arr), WahCodec.encode(arr), adaptive] {
        assert_eq!(decode(&enc), Some((arr.clone(), enc.len())), "decode, {what}");
        assert_eq!(decode_bounded(&enc, arr.len()), Some((arr.clone(), enc.len())), "{what}");
        if !arr.is_empty() {
            assert_eq!(decode_bounded(&enc, arr.len() - 1), None, "bound, {what}");
        }
    }
}

/// The word-level encoders are the bit-level definition: every length
/// 0..=300 (the word, group and double-group boundaries 31, 32, 62, 63, 64,
/// 65, 93, 124, 128 among them) under all-zero, all-one, both alternations,
/// every two-bit-apart single bit, clustered runs and five random densities.
#[test]
fn word_level_encoders_equal_the_bitwise_reference() {
    let mut rng = StdRng::seed_from_u64(0x18c0dec);
    for len in 0..=300usize {
        let mut cases: Vec<(String, BitArray)> = vec![
            ("zeros".into(), BitArray::zeros(len)),
            ("ones".into(), BitArray::from_bits(std::iter::repeat_n(true, len))),
            ("alternating 01".into(), BitArray::from_bits((0..len).map(|i| i % 2 == 1))),
            ("alternating 10".into(), BitArray::from_bits((0..len).map(|i| i % 2 == 0))),
        ];
        for at in (0..len).step_by(2).chain(len.checked_sub(1)) {
            let mut one = BitArray::zeros(len);
            one.set(at, true);
            cases.push((format!("single bit {at}"), one));
            let mut hole = BitArray::from_bits(std::iter::repeat_n(true, len));
            hole.set(at, false);
            cases.push((format!("single hole {at}"), hole));
        }
        for density in [0.02, 0.1, 0.5, 0.9, 0.98] {
            let random = BitArray::from_bits((0..len).map(|_| rng.gen_bool(density)));
            cases.push((format!("density {density}"), random));
        }
        let mut runs = BitArray::zeros(len);
        let (mut i, mut value) = (0usize, rng.gen_bool(0.5));
        while i < len {
            let run = rng.gen_range(1..=70usize).min(len - i);
            for j in i..i + run {
                runs.set(j, value);
            }
            i += run;
            value = !value;
        }
        cases.push(("runs".into(), runs));
        for (what, arr) in cases {
            assert_matches_reference(&arr, &format!("{what}, length {len}"));
        }
    }
}

/// The word-level decoder is the bit-level one: `decode_bounded` and
/// `decode_words` (into zeroed words and into words that hold bits already,
/// which it ORs into) against the reference decoder on one buffer.
fn assert_decodes_as_reference(buf: &[u8], max_bits: usize, what: &str) {
    let expected = reference::decode(buf, max_bits);
    assert_eq!(decode_bounded(buf, max_bits), expected, "decode_bounded, {what}");
    let n = max_bits.min(1024).div_ceil(64);
    let mut zeroed = vec![0u64; n];
    let got = decode_words(buf, max_bits, &mut zeroed);
    match &expected {
        Some((bits, used)) if bits.len() <= 64 * n => {
            assert_eq!(got, Some((bits.len(), *used)), "decode_words, {what}");
            assert_eq!(&zeroed[..bits.words().len()], bits.words(), "decode_words, {what}");
            assert!(zeroed[bits.words().len()..].iter().all(|&w| w == 0), "past the length, {what}");
            let mut ored: Vec<u64> = (0..n as u64).map(|k| 0x8421_8421_8421_8421u64.rotate_left(k as u32)).collect();
            let before = ored.clone();
            decode_words(buf, max_bits, &mut ored);
            for (k, w) in ored.iter().enumerate() {
                let decoded = bits.words().get(k).copied().unwrap_or(0);
                assert_eq!(*w, before[k] | decoded, "decode_words ORs, word {k}, {what}");
            }
        }
        _ => assert_eq!(got, None, "decode_words, {what}"),
    }
}

/// Every encoding of `arr` decodes as the reference decodes it, under the
/// exact bound, one bit under it, and with a few bytes of the payload cut.
fn assert_encodings_decode_as_reference(arr: &BitArray, what: &str) {
    for enc in [LiteralCodec.encode(arr), RleCodec.encode(arr), WahCodec.encode(arr)] {
        assert_decodes_as_reference(&enc, arr.len(), what);
        assert_decodes_as_reference(&enc, arr.len().saturating_sub(1), &format!("bound, {what}"));
        for cut in 1..=enc.len().min(5) {
            assert_decodes_as_reference(&enc[..enc.len() - cut], arr.len(), &format!("cut {cut}, {what}"));
        }
    }
}

/// A run of ones or zeros that starts or ends on each 64-bit word boundary
/// (and one bit either side of it), and whole-group WAH fills over the
/// same: arrays of 65–256 bits whose fills and runs the word-level decoder
/// writes as whole masked words.
#[test]
fn word_level_decoder_equals_the_bitwise_reference_at_word_boundaries() {
    for len in [65usize, 93, 124, 127, 128, 129, 155, 186, 191, 192, 193, 217, 248, 255, 256] {
        let edges: Vec<usize> =
            [64usize, 128, 192].iter().flat_map(|&b| [b - 1, b, b + 1]).filter(|&e| e <= len).collect();
        for &lo in [0usize].iter().chain(&edges) {
            for &hi in edges.iter().chain([len].iter()) {
                if lo >= hi {
                    continue;
                }
                let ones = BitArray::from_bits((0..len).map(|i| (lo..hi).contains(&i)));
                assert_encodings_decode_as_reference(&ones, &format!("ones {lo}..{hi} of {len}"));
                let zeros = BitArray::from_bits((0..len).map(|i| !(lo..hi).contains(&i)));
                assert_encodings_decode_as_reference(&zeros, &format!("zeros {lo}..{hi} of {len}"));
            }
        }
        // Whole 31-bit groups of ones: WAH fills ending at 62, 124, 186, 248.
        for groups in 1..=len / 31 {
            let fill = BitArray::from_bits((0..len).map(|i| i < 31 * groups));
            assert_encodings_decode_as_reference(&fill, &format!("{groups} one-groups of {len}"));
        }
    }
}

/// Fill runs longer than one word of groups, and a length whose varint has
/// two bytes.
#[test]
fn long_fills_equal_the_bitwise_reference() {
    for len in [31 * 40, 31 * 40 + 5, 2048, 4096] {
        let mut arr = BitArray::zeros(len);
        assert_matches_reference(&arr, &format!("zeros {len}"));
        arr.set(len / 2, true);
        assert_matches_reference(&arr, &format!("one bit in {len}"));
        let ones = BitArray::from_bits(std::iter::repeat_n(true, len));
        assert_matches_reference(&ones, &format!("ones {len}"));
    }
}

/// Byte strings a varint reader meets: arbitrary bytes, a written value
/// cut short, a value padded with zero groups, and runs of nine
/// continuation bytes ended by any tenth byte (an eleventh behind it when
/// the tenth continues), each read from a position near the start.
fn arb_varint_input() -> impl Strategy<Value = (Vec<u8>, usize)> {
    (0u8..4, prop::collection::vec(any::<u8>(), 0..14), any::<u64>(), 0u32..64, 0usize..4).prop_map(
        |(kind, bytes, v, shift, k)| {
            let mut buf = bytes[..k.min(bytes.len())].to_vec();
            let lead = buf.len();
            match kind {
                0 => buf = bytes,
                1 => {
                    write_varint(&mut buf, v >> shift);
                    buf.truncate(buf.len() - k.min(buf.len() - lead));
                }
                2 => {
                    write_varint(&mut buf, v >> shift);
                    for _ in 0..k {
                        *buf.last_mut().expect("a varint was written") |= 0x80;
                        buf.push(0);
                    }
                }
                _ => {
                    buf.extend(bytes.iter().chain(&[0; 10]).take(9).map(|b| b | 0x80));
                    buf.push((v >> 56) as u8 & [0x01, 0x03, 0x7F, 0xFF][k]);
                    buf.push(v as u8);
                }
            }
            let pos = if kind == 0 { k } else { lead };
            (buf, pos)
        },
    )
}

fn arb_bits() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..600)
}

/// Clustered bit patterns (runs), the shape real signatures have.
fn arb_runs() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((any::<bool>(), 1usize..60), 0..20).prop_map(|runs| {
        runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect()
    })
}

/// Clustered arrays of 65–256 bits: runs of 1–70 bits, repeated out to the
/// length.
fn arb_clustered_65_to_256() -> impl Strategy<Value = Vec<bool>> {
    (prop::collection::vec((any::<bool>(), 1usize..=70), 1..12), 65usize..=256).prop_map(|(runs, len)| {
        let bits: Vec<bool> = runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect();
        bits.iter().copied().cycle().take(len).collect()
    })
}

proptest! {
    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_reader_equals_the_bytewise_reference((buf, start) in arb_varint_input()) {
        let (mut pos, mut expected_pos) = (start, start);
        let expected = reference::varint(&buf, &mut expected_pos);
        prop_assert_eq!(read_varint(&buf, &mut pos), expected, "{:02x?} from {}", buf, start);
        prop_assert_eq!(pos, expected_pos, "{:02x?} from {}", buf, start);
    }

    #[test]
    fn all_codecs_roundtrip_random(bits in arb_bits()) {
        let arr = BitArray::from_bits(bits.iter().copied());
        for codec in [&LiteralCodec as &dyn Codec, &RleCodec, &WahCodec, &AdaptiveCodec] {
            let enc = codec.encode(&arr);
            let (dec, used) = decode(&enc).expect("decodes");
            prop_assert_eq!(used, enc.len());
            prop_assert_eq!(&dec, &arr);
        }
    }

    #[test]
    fn all_codecs_roundtrip_runs(bits in arb_runs()) {
        let arr = BitArray::from_bits(bits.iter().copied());
        for codec in [&LiteralCodec as &dyn Codec, &RleCodec, &WahCodec, &AdaptiveCodec] {
            let enc = codec.encode(&arr);
            let (dec, _) = decode(&enc).expect("decodes");
            prop_assert_eq!(&dec, &arr);
        }
    }

    #[test]
    fn adaptive_is_minimal(bits in arb_bits()) {
        let arr = BitArray::from_bits(bits.iter().copied());
        let adaptive = AdaptiveCodec.encode(&arr).len();
        let best = [LiteralCodec.encode(&arr).len(), RleCodec.encode(&arr).len(), WahCodec.encode(&arr).len()]
            .into_iter().min().unwrap();
        prop_assert_eq!(adaptive, best);
    }

    #[test]
    fn encoders_equal_the_reference_on_random_and_clustered_arrays(
        bits in arb_bits(),
        runs in arb_runs(),
    ) {
        assert_matches_reference(&BitArray::from_bits(bits.iter().copied()), "random");
        assert_matches_reference(&BitArray::from_bits(runs.iter().copied()), "clustered");
    }

    #[test]
    fn decoder_equals_the_reference_on_random_and_clustered_arrays(
        bits in prop::collection::vec(any::<bool>(), 65..=256),
        runs in arb_clustered_65_to_256(),
    ) {
        assert_encodings_decode_as_reference(&BitArray::from_bits(bits.iter().copied()), "random");
        assert_encodings_decode_as_reference(&BitArray::from_bits(runs.iter().copied()), "clustered");
    }

    #[test]
    fn varint_len_is_the_written_length(v in any::<u64>(), shift in 0u32..64) {
        let v = v >> shift;
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        prop_assert_eq!(varint_len(v), buf.len());
    }

    #[test]
    fn iter_ones_matches_gets(bits in arb_bits()) {
        let arr = BitArray::from_bits(bits.iter().copied());
        let from_iter: Vec<usize> = arr.iter_ones().collect();
        let from_get: Vec<usize> = (0..bits.len()).filter(|&i| arr.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
        prop_assert_eq!(arr.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn bloom_has_no_false_negatives(keys in prop::collection::hash_set(any::<u64>(), 0..300)) {
        let mut bf = BloomFilter::with_rate(keys.len().max(1), 0.05);
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.contains(k));
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(
        tag in 0u8..4,
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // Must return None or an array within the bound, never panic and
        // never size anything from a length field it has not checked. Half
        // the cases are given a valid tag so that they reach the length.
        for buf in [bytes.clone(), [vec![tag], bytes].concat()] {
            if let Some((arr, used)) = decode_bounded(&buf, 4096) {
                prop_assert!(arr.len() <= 4096 && used <= buf.len());
            }
            assert_decodes_as_reference(&buf, 4096, "garbage");
            assert_decodes_as_reference(&buf, 204, "garbage under a fanout bound");
        }
    }
}
