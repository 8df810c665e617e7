//! Per-node bitmap compression codecs.
//!
//! Every encoding is self-describing: one tag byte ([`CodecKind`]), a varint
//! bit length, then the scheme-specific payload. [`AdaptiveCodec`] keeps the
//! smallest of the three — the paper's point that "bit arrays in different
//! nodes may have significantly different characteristics, and one may achieve
//! better compression ratio by adaptively choosing different compression
//! scheme[s]".
//!
//! Encoding is word-level too, and there is one encoder:
//! [`encode_words_into`] takes `u64` words and a bit length — a
//! [`BitArray`]'s words or a row of a signature's node table — and every
//! [`Codec`] runs it on [`BitArray::words`]. The run-length scheme walks run
//! boundaries (`trailing_zeros` of a word xored with the current run's
//! value), the word-aligned scheme takes each 31-bit group with a shift, and
//! both are iterators, so the length of an encoding is known without
//! producing it. The adaptive choice therefore *sizes* the three candidates
//! from the words (the literal length in closed form) and writes only the
//! winner, straight into the caller's buffer. On a tie the first minimum in
//! the order literal, RLE, WAH wins; stored pages depend on that rule.
//!
//! Decoding is word-level too, and there is one decoder: [`decode_words`]
//! ORs an encoding into a caller's words — a run of ones or a fill sets
//! whole masked words, a WAH literal group is shifted in, literal words are
//! copied — and [`decode_bounded`] is that decoder run into a freshly sized
//! [`BitArray`]. Both parse the payload with one routine, which builds each
//! output word of a run-length or WAH payload in a register and ORs it into
//! the caller's words once, when the decode moves past it. The decoder is
//! `#[inline]`, so a caller that decodes many arrays (a partial signature's
//! record parser) gets it in its own loop.

use crate::array::BitArray;
use crate::varint::{read_varint, varint_len, write_varint};

/// Identifies which scheme produced an encoded bit array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Raw words, no compression.
    Literal,
    /// Alternating run lengths, varint coded (good for clustered bits).
    Rle,
    /// 32-bit word-aligned hybrid (WAH), good for sparse/dense mixtures.
    Wah,
}

impl CodecKind {
    fn tag(self) -> u8 {
        match self {
            CodecKind::Literal => 0,
            CodecKind::Rle => 1,
            CodecKind::Wah => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CodecKind::Literal),
            1 => Some(CodecKind::Rle),
            2 => Some(CodecKind::Wah),
            _ => None,
        }
    }
}

/// A bitmap compression scheme.
pub trait Codec {
    /// Appends the encoding of `bits` to `out`.
    fn encode_into(&self, bits: &BitArray, out: &mut Vec<u8>);

    /// Encodes into a fresh buffer.
    fn encode(&self, bits: &BitArray) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(bits, &mut out);
        out
    }
}

/// Decodes any encoding produced by the codecs in this module.
///
/// Returns the decoded array and the number of bytes consumed, or `None` on
/// malformed input. The bit length is taken from the encoding on trust and
/// the array is sized from it: for bytes that did not come straight from an
/// encoder (a stored page, a network buffer) use [`decode_bounded`].
pub fn decode(buf: &[u8]) -> Option<(BitArray, usize)> {
    decode_bounded(buf, usize::MAX)
}

/// [`decode`] that refuses — before sizing anything — an encoding claiming
/// more than `max_bits` bits. A run-length or fill encoding of a few bytes
/// can claim any length, so this bound is the only thing between a corrupt
/// length field and an allocation of that size.
///
/// The array is sized from the checked length and filled by
/// [`decode_words`]' word-level decoder.
pub fn decode_bounded(buf: &[u8], max_bits: usize) -> Option<(BitArray, usize)> {
    let header = Header::read(buf, max_bits)?;
    let mut words = vec![0; header.len.div_ceil(64)];
    let used = header.or_payload(buf, &mut words)?;
    Some((BitArray::from_words(header.len, words), used))
}

/// ORs the bits of one encoding into `words` (bit `i` into word `i / 64`),
/// building each output word in a register and ORing it in once: a run of
/// ones or a fill of one-groups adds a mask to the word in hand and sets the
/// whole words it covers, a WAH literal group is shifted in (across at most
/// two words) and literal words are copied. Nothing is allocated.
///
/// Returns the encoding's bit length and the number of bytes consumed, or
/// `None` on malformed input — an unknown tag, a bit length over `max_bits`
/// or over what `words` holds, a missing payload, a run past the length.
/// On `None` the words may hold some of the bits already; the caller
/// discards them.
#[inline]
pub fn decode_words(buf: &[u8], max_bits: usize, words: &mut [u64]) -> Option<(usize, usize)> {
    let header = Header::read(buf, max_bits.min(words.len().saturating_mul(64)))?;
    Some((header.len, header.or_payload(buf, words)?))
}

/// The self-describing head of an encoding: its scheme, its bit length
/// (checked against a bound before anything is sized from it) and where its
/// payload starts.
struct Header {
    kind: CodecKind,
    len: usize,
    pos: usize,
}

impl Header {
    #[inline]
    fn read(buf: &[u8], max_bits: usize) -> Option<Header> {
        let mut pos = 0usize;
        let kind = CodecKind::from_tag(*buf.get(pos)?)?;
        pos += 1;
        let len = usize::try_from(read_varint(buf, &mut pos)?).ok()?;
        (len <= max_bits).then_some(Header { kind, len, pos })
    }

    /// ORs the payload's bits into `words`, which hold at least `len` bits;
    /// returns the offset behind the payload. The one parser of a bit
    /// payload.
    #[inline]
    fn or_payload(&self, buf: &[u8], words: &mut [u64]) -> Option<usize> {
        let (len, mut pos) = (self.len, self.pos);
        match self.kind {
            CodecKind::Literal => {
                // The payload must be present before the words are read.
                let n = len.div_ceil(64);
                let end = pos.checked_add(n.checked_mul(8)?)?;
                let raw = buf.get(pos..end)?;
                for (k, (word, raw)) in words[..n].iter_mut().zip(raw.chunks_exact(8)).enumerate() {
                    let bits = u64::from_le_bytes(raw.try_into().expect("chunks of eight bytes"));
                    // Bits past the length are not the array's.
                    let past = if k + 1 == n { (64 - len % 64) % 64 } else { 0 };
                    *word |= bits << past >> past;
                }
                pos = end;
            }
            CodecKind::Rle => {
                let mut out = WordBuilder::new(words);
                let (mut i, mut ones) = (0usize, false);
                while i < len {
                    let run = usize::try_from(read_varint(buf, &mut pos)?).ok()?;
                    let end = i.checked_add(run).filter(|&end| end <= len)?;
                    if ones {
                        out.ones(i, end);
                    } else {
                        out.skip(end);
                    }
                    (i, ones) = (end, !ones);
                }
                out.finish();
            }
            CodecKind::Wah => {
                let mut out = WordBuilder::new(words);
                let mut i = 0usize; // next bit position to fill
                while i < len {
                    let end = pos.checked_add(4)?;
                    let word = u32::from_le_bytes(buf.get(pos..end)?.try_into().expect("four bytes"));
                    pos = end;
                    if word & FILL_FLAG != 0 {
                        let n_bits = ((word & FILL_COUNT) as usize).checked_mul(GROUP_BITS)?;
                        // A fill may run past the length; its bits there are
                        // not the array's.
                        let stop = i.checked_add(n_bits)?.min(len);
                        if word & FILL_VALUE != 0 {
                            out.ones(i, stop);
                        } else {
                            out.skip(stop);
                        }
                        i = stop;
                    } else {
                        // Only the group's bits below the length count.
                        let keep = (len - i).min(GROUP_BITS);
                        out.group(i, u64::from(word) & ((1u64 << keep) - 1));
                        i += GROUP_BITS;
                    }
                }
                out.finish();
            }
        }
        Some(pos)
    }
}

/// The words of one array being decoded, built a word at a time in a
/// register: `acc` holds the bits decoded so far of word `wi`, the word
/// the decode position is in, and is ORed into `words` once, when the
/// position leaves that word (or the decode ends). Every method takes the
/// decode position `lo`, which lies in word `wi`.
struct WordBuilder<'w> {
    words: &'w mut [u64],
    wi: usize,
    acc: u64,
}

impl<'w> WordBuilder<'w> {
    #[inline(always)]
    fn new(words: &'w mut [u64]) -> Self {
        WordBuilder { words, wi: 0, acc: 0 }
    }

    /// Sets bits `lo..hi` and moves the position to `hi`: a mask on the
    /// word in hand, whole words between, and the start of `hi`'s word.
    #[inline(always)]
    fn ones(&mut self, lo: usize, hi: usize) {
        let head = u64::MAX << (lo % 64);
        if hi / 64 == self.wi {
            self.acc |= head & !(u64::MAX << (hi % 64));
            return;
        }
        self.words[self.wi] |= self.acc | head;
        self.words[self.wi + 1..hi / 64].fill(u64::MAX);
        (self.wi, self.acc) = (hi / 64, !(u64::MAX << (hi % 64)));
    }

    /// Moves the position to `hi`, leaving the bits passed clear.
    #[inline(always)]
    fn skip(&mut self, hi: usize) {
        if hi / 64 != self.wi {
            self.words[self.wi] |= self.acc;
            (self.wi, self.acc) = (hi / 64, 0);
        }
    }

    /// ORs in the bits of one WAH literal group at `lo` and moves the
    /// position a group on: into the next word, with the group's high bits,
    /// if the group straddles a word boundary.
    #[inline(always)]
    fn group(&mut self, lo: usize, bits: u64) {
        let wide = u128::from(bits) << (lo % 64);
        self.acc |= wide as u64;
        if (lo + GROUP_BITS) / 64 != self.wi {
            self.words[self.wi] |= self.acc;
            (self.wi, self.acc) = (self.wi + 1, (wide >> 64) as u64);
        }
    }

    /// ORs in the word in hand.
    #[inline(always)]
    fn finish(self) {
        if self.acc != 0 {
            self.words[self.wi] |= self.acc;
        }
    }
}

/// Raw encoding: tag, bit length, little-endian words.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiteralCodec;

impl Codec for LiteralCodec {
    fn encode_into(&self, bits: &BitArray, out: &mut Vec<u8>) {
        encode_as(CodecKind::Literal, bits.words(), bits.len(), out);
    }
}

/// Run-length encoding: varint run lengths of alternating values, starting
/// with a (possibly zero-length) run of zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleCodec;

impl Codec for RleCodec {
    fn encode_into(&self, bits: &BitArray, out: &mut Vec<u8>) {
        encode_as(CodecKind::Rle, bits.words(), bits.len(), out);
    }
}

/// The lengths of the alternating runs of the first `len` bits of `words`,
/// starting with the run of zeros (empty when bit 0 is set; no other run
/// is).
///
/// Word-level: the end of a run is the first set bit of `word ^ value` at or
/// after the run's start, and no run ends past the length.
fn runs(words: &[u64], len: usize) -> impl Iterator<Item = u64> + '_ {
    let mut pos = 0usize;
    let mut flip = 0u64; // all ones while the current run is of ones
    std::iter::from_fn(move || {
        if pos >= len {
            return None;
        }
        let mut wi = pos / 64;
        let mut differs = (words[wi] ^ flip) >> (pos % 64) << (pos % 64);
        while differs == 0 && wi + 1 < words.len() {
            wi += 1;
            differs = words[wi] ^ flip;
        }
        let end = match differs {
            0 => len,
            _ => (wi * 64 + differs.trailing_zeros() as usize).min(len),
        };
        let run = end - pos;
        pos = end;
        flip = !flip;
        Some(run as u64)
    })
}

const GROUP_BITS: usize = 31;
const FILL_FLAG: u32 = 1 << 31;
const FILL_VALUE: u32 = 1 << 30;
const FILL_COUNT: u32 = (1 << 30) - 1;
const LITERAL_MASK: u32 = (1 << GROUP_BITS) - 1;

/// 32-bit word-aligned hybrid. Bits are grouped into 31-bit groups; a group
/// that is all zeros or all ones is folded into a *fill word* (flag bit,
/// value bit, 30-bit group count), anything else is stored as a *literal
/// word* (top bit clear, 31 payload bits). The final partial group is stored
/// as a literal.
#[derive(Debug, Clone, Copy, Default)]
pub struct WahCodec;

impl Codec for WahCodec {
    fn encode_into(&self, bits: &BitArray, out: &mut Vec<u8>) {
        encode_as(CodecKind::Wah, bits.words(), bits.len(), out);
    }
}

/// The 31 bits of group `g` (bits `31g .. 31g + 31`), taken from the words
/// with one shift, two when the group straddles a word boundary. Positions
/// past the array's length read as zero.
#[inline]
fn group(words: &[u64], g: usize) -> u32 {
    let (wi, shift) = (g * GROUP_BITS / 64, g * GROUP_BITS % 64);
    let mut v = words[wi] >> shift;
    if shift > 64 - GROUP_BITS {
        if let Some(next) = words.get(wi + 1) {
            v |= next << (64 - shift);
        }
    }
    v as u32 & LITERAL_MASK
}

/// The fill and literal words of the WAH encoding of the first `len` bits
/// of `words`, in order. Consecutive full groups of one value share a fill
/// word (up to [`FILL_COUNT`] groups); the final partial group is always a
/// literal.
fn wah_words(words: &[u64], len: usize) -> impl Iterator<Item = u32> + '_ {
    let n_groups = len.div_ceil(GROUP_BITS);
    let full_groups = len / GROUP_BITS;
    let mut g = 0usize;
    std::iter::from_fn(move || {
        if g >= n_groups {
            return None;
        }
        let word = group(words, g);
        let is_fill = g < full_groups && (word == 0 || word == LITERAL_MASK);
        g += 1;
        if !is_fill {
            return Some(word);
        }
        let mut count = 1u32;
        while g < full_groups && count < FILL_COUNT && group(words, g) == word {
            g += 1;
            count += 1;
        }
        Some(FILL_FLAG | if word == 0 { 0 } else { FILL_VALUE } | count)
    })
}

/// Keeps the smallest of the literal, RLE and WAH encodings; on a tie the
/// first of them in that order.
///
/// The three lengths are computed from the words ([`adaptive_len`]) and only
/// the winner is written — no candidate buffer is ever allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveCodec;

impl Codec for AdaptiveCodec {
    fn encode_into(&self, bits: &BitArray, out: &mut Vec<u8>) {
        encode_words_into(bits.words(), bits.len(), out);
    }
}

/// Appends the [`AdaptiveCodec`] encoding of the first `len` bits of
/// `words` (bit `i` in word `i / 64`) to `out` — the one encoder, which
/// every [`Codec`] runs on [`BitArray::words`] and a signature runs on its
/// node rows. `words` holds at least ⌈`len`/64⌉ words, and the bits of the
/// last of them past `len` are clear.
pub fn encode_words_into(words: &[u64], len: usize, out: &mut Vec<u8>) {
    let words = &words[..len.div_ceil(64)];
    encode_as(cheapest(words, len).0, words, len, out);
}

/// Appends the encoding of the first `len` bits of `words` under `kind`:
/// the tag, the bit length, then the scheme's payload.
fn encode_as(kind: CodecKind, words: &[u64], len: usize, out: &mut Vec<u8>) {
    out.push(kind.tag());
    write_varint(out, len as u64);
    match kind {
        CodecKind::Literal => words.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
        CodecKind::Rle => runs(words, len).for_each(|run| write_varint(out, run)),
        CodecKind::Wah => wah_words(words, len).for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
    }
}

/// The scheme [`AdaptiveCodec`] picks for the first `len` bits of `words`
/// (⌈`len`/64⌉ of them) and the length of its encoding.
fn cheapest(words: &[u64], len: usize) -> (CodecKind, usize) {
    let header = 1 + varint_len(len as u64);
    let literal = header + 8 * words.len();
    let rle = header + runs(words, len).map(varint_len).sum::<usize>();
    let wah = header + 4 * wah_words(words, len).count();
    // Strict comparisons: an earlier scheme keeps a tie.
    let mut best = (CodecKind::Literal, literal);
    if rle < best.1 {
        best = (CodecKind::Rle, rle);
    }
    if wah < best.1 {
        best = (CodecKind::Wah, wah);
    }
    best
}

/// `AdaptiveCodec.encode(bits).len()`, without encoding.
pub fn adaptive_len(bits: &BitArray) -> usize {
    cheapest(bits.words(), bits.len()).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &dyn Codec, bits: &BitArray) {
        let enc = codec.encode(bits);
        let (dec, used) = decode(&enc).expect("decodes");
        assert_eq!(used, enc.len(), "whole buffer consumed");
        assert_eq!(&dec, bits);
    }

    fn cases() -> Vec<BitArray> {
        let mut v = vec![
            BitArray::zeros(0),
            BitArray::zeros(1),
            BitArray::from_bits([true]),
            BitArray::from_bits([true, false]),
            BitArray::zeros(31),
            BitArray::zeros(32),
            BitArray::zeros(1000),
        ];
        let mut dense = BitArray::zeros(500);
        for i in 0..500 {
            dense.set(i, true);
        }
        v.push(dense);
        let mut sparse = BitArray::zeros(2048);
        for i in [0usize, 100, 1023, 2047] {
            sparse.set(i, true);
        }
        v.push(sparse);
        let mut alt = BitArray::zeros(97);
        for i in (0..97).step_by(2) {
            alt.set(i, true);
        }
        v.push(alt);
        let mut runs = BitArray::zeros(300);
        for i in 50..200 {
            runs.set(i, true);
        }
        v.push(runs);
        v
    }

    #[test]
    fn literal_roundtrips() {
        for b in cases() {
            roundtrip(&LiteralCodec, &b);
        }
    }

    #[test]
    fn rle_roundtrips() {
        for b in cases() {
            roundtrip(&RleCodec, &b);
        }
    }

    #[test]
    fn wah_roundtrips() {
        for b in cases() {
            roundtrip(&WahCodec, &b);
        }
    }

    #[test]
    fn adaptive_roundtrips_and_never_beats_best() {
        for b in cases() {
            roundtrip(&AdaptiveCodec, &b);
            let a = AdaptiveCodec.encode(&b).len();
            let best = [
                LiteralCodec.encode(&b).len(),
                RleCodec.encode(&b).len(),
                WahCodec.encode(&b).len(),
            ]
            .into_iter()
            .min()
            .unwrap();
            assert_eq!(a, best);
        }
    }

    #[test]
    fn sparse_arrays_compress_well() {
        let mut sparse = BitArray::zeros(4096);
        sparse.set(17, true);
        let lit = LiteralCodec.encode(&sparse).len();
        let ad = AdaptiveCodec.encode(&sparse).len();
        assert!(ad * 10 < lit, "adaptive {ad} should be far smaller than literal {lit}");
    }

    #[test]
    fn wah_long_fill_runs_use_one_word() {
        let zeros = BitArray::zeros(31 * 1000);
        // tag + varint(len) + 1 fill word
        let enc = WahCodec.encode(&zeros);
        assert!(enc.len() <= 1 + 3 + 4, "got {}", enc.len());
    }

    #[test]
    fn a_run_past_the_length_is_refused() {
        // RLE, 10 bits: 4 zeros, then 7 ones (ending at bit 11).
        let mut words = [0u64; 1];
        assert_eq!(decode_words(&[1, 10, 4, 7], 64, &mut words), None);
        assert!(decode(&[1, 10, 4, 7]).is_none());
        // The same runs ending at the length decode.
        assert_eq!(decode_words(&[1, 10, 4, 6], 64, &mut words), Some((10, 4)));
        assert_eq!(words, [0b11_1111_0000]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_none());
        assert!(decode(&[9, 1]).is_none()); // unknown tag
        let mut enc = LiteralCodec.encode(&BitArray::from_bits([true; 64]));
        enc.truncate(enc.len() - 1);
        assert!(decode(&enc).is_none());
    }

    #[test]
    fn decode_reports_bytes_consumed_with_trailing_data() {
        let b = BitArray::from_bits([true, false, true]);
        let mut enc = RleCodec.encode(&b);
        let used_expected = enc.len();
        enc.extend_from_slice(&[0xAA, 0xBB]);
        let (dec, used) = decode(&enc).unwrap();
        assert_eq!(dec, b);
        assert_eq!(used, used_expected);
    }
}
