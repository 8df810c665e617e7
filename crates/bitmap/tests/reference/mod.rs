//! The definition of the three encodings: the bit-by-bit encoders the
//! word-level ones in `codec.rs` replaced, kept as the reference they are
//! tested against. `adaptive` is what "encode with every scheme and keep the
//! smallest" meant: `min_by_key` returns the first minimum. `decode` is the
//! bit-by-bit decoder the word-level one replaced, refusals included, and
//! `varint` a byte-at-a-time varint reader: neither shares code with the
//! crate's decoding paths, so a bug there is not also in the reference.
//!
//! Shared by `pcube-bitmap`'s property tests and by `pcube-core`'s record
//! parser test (included there by path).

use pcube_bitmap::{write_varint, BitArray};

const GROUP_BITS: usize = 31;
const FILL_FLAG: u32 = 1 << 31;
const FILL_VALUE: u32 = 1 << 30;
const FILL_COUNT: u32 = (1 << 30) - 1;

pub fn literal(bits: &BitArray) -> Vec<u8> {
    let mut out = vec![0u8];
    write_varint(&mut out, bits.len() as u64);
    for w in bits.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

pub fn rle(bits: &BitArray) -> Vec<u8> {
    let mut out = vec![1u8];
    write_varint(&mut out, bits.len() as u64);
    let mut value = false;
    let mut run = 0u64;
    for i in 0..bits.len() {
        if bits.get(i) == value {
            run += 1;
        } else {
            write_varint(&mut out, run);
            value = !value;
            run = 1;
        }
    }
    if run > 0 {
        write_varint(&mut out, run);
    }
    out
}

fn emit_fill(out: &mut Vec<u8>, value: bool, count: u32) {
    let word = FILL_FLAG | if value { FILL_VALUE } else { 0 } | (count & FILL_COUNT);
    out.extend_from_slice(&word.to_le_bytes());
}

pub fn wah(bits: &BitArray) -> Vec<u8> {
    let mut out = vec![2u8];
    write_varint(&mut out, bits.len() as u64);
    let mut pending_fill: Option<(bool, u32)> = None;
    let mut i = 0usize;
    while i < bits.len() {
        let group_len = GROUP_BITS.min(bits.len() - i);
        let mut word = 0u32;
        for k in 0..group_len {
            if bits.get(i + k) {
                word |= 1 << k;
            }
        }
        let full = group_len == GROUP_BITS;
        let fill_of = if !full {
            None
        } else if word == 0 {
            Some(false)
        } else if word == (1u32 << GROUP_BITS) - 1 {
            Some(true)
        } else {
            None
        };
        match (fill_of, &mut pending_fill) {
            (Some(v), Some((pv, count))) if *pv == v && *count < FILL_COUNT => {
                *count += 1;
            }
            (Some(v), pending) => {
                if let Some((pv, count)) = pending.take() {
                    emit_fill(&mut out, pv, count);
                }
                *pending = Some((v, 1));
            }
            (None, pending) => {
                if let Some((pv, count)) = pending.take() {
                    emit_fill(&mut out, pv, count);
                }
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        i += group_len;
    }
    if let Some((pv, count)) = pending_fill {
        emit_fill(&mut out, pv, count);
    }
    out
}

/// Decodes one encoding a bit at a time: `None` on an unknown tag, a
/// length over `max_bits`, a missing payload or a run or fill past the
/// length; otherwise the array and the bytes consumed.
pub fn decode(buf: &[u8], max_bits: usize) -> Option<(BitArray, usize)> {
    let mut pos = 1usize;
    let tag = *buf.first()?;
    let len = usize::try_from(varint(buf, &mut pos)?).ok()?;
    if tag > 2 || len > max_bits {
        return None;
    }
    let mut bits = BitArray::zeros(len);
    match tag {
        0 => {
            for i in 0..len {
                let byte = *buf.get(pos + i / 8)?;
                bits.set(i, byte >> (i % 8) & 1 == 1);
            }
            pos = buf.get(pos..pos + len.div_ceil(64) * 8)?.len() + pos;
        }
        1 => {
            let (mut i, mut value) = (0usize, false);
            while i < len {
                let run = usize::try_from(varint(buf, &mut pos)?).ok()?;
                let end = i.checked_add(run).filter(|&end| end <= len)?;
                for j in i..end {
                    bits.set(j, value);
                }
                (i, value) = (end, !value);
            }
        }
        _ => {
            let mut i = 0usize;
            while i < len {
                let word = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().expect("four bytes"));
                pos += 4;
                if word & FILL_FLAG != 0 {
                    let n_bits = ((word & FILL_COUNT) as usize).checked_mul(GROUP_BITS)?;
                    let end = i.checked_add(n_bits)?;
                    for j in i..end.min(len) {
                        bits.set(j, word & FILL_VALUE != 0);
                    }
                    i = end;
                } else {
                    for j in i..(i + GROUP_BITS).min(len) {
                        bits.set(j, word >> (j - i) & 1 == 1);
                    }
                    i += GROUP_BITS;
                }
            }
        }
    }
    Some((bits, pos))
}

/// Reads one LEB128 varint a byte at a time, accumulating in 128 bits:
/// `None`, leaving `*pos` where it was, on input that ends inside the
/// value, on more than ten bytes, and on a value that does not fit 64 bits.
pub fn varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u128;
    for k in 0..10 {
        let byte = *buf.get(*pos + k)?;
        value |= u128::from(byte & 0x7F) << (7 * k);
        if byte & 0x80 == 0 {
            let value = u64::try_from(value).ok()?;
            *pos += k + 1;
            return Some(value);
        }
    }
    None
}

pub fn adaptive(bits: &BitArray) -> Vec<u8> {
    [literal(bits), rle(bits), wah(bits)]
        .into_iter()
        .min_by_key(|b| b.len())
        .expect("three candidates")
}
