//! LEB128 variable-length integers used by the compressed encodings.
//!
//! There is one reader, [`read_varint`]. Values of one, two and three bytes
//! — every run length and bit length of a node array, and every SID below
//! 2^21 (a four-level tree at M = 72) — are decoded inline from the bytes
//! in hand; a longer value takes a loop over at most ten bytes. Both refuse
//! the same input: a truncated value, and a value that does not fit 64 bits
//! (an eleventh byte, or a tenth byte above 1).

/// Appends `value` to `out` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_varint`] appends for `value`.
pub fn varint_len(value: u64) -> usize {
    // One byte per started group of seven significant bits.
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Reads a varint from `buf` starting at `*pos`, advancing `*pos` past it.
///
/// Returns `None`, leaving `*pos` where it was, on truncated input and on a
/// value that overflows 64 bits: more than 10 bytes, or a tenth byte that
/// holds more than bit 63. A padded value (a zero group behind a
/// continuation bit) is read as its number.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let at = *pos;
    let (value, used) = match *buf.get(at..)? {
        [b0, ..] if b0 < 0x80 => (u64::from(b0), 1),
        [b0, b1, ..] if b1 < 0x80 => (u64::from(b0 & 0x7F) | u64::from(b1) << 7, 2),
        [b0, b1, b2, ..] if b2 < 0x80 => {
            (u64::from(b0 & 0x7F) | u64::from(b1 & 0x7F) << 7 | u64::from(b2) << 14, 3)
        }
        _ => read_long(&buf[at..])?,
    };
    *pos = at + used;
    Some(value)
}

/// A varint of any length up to ten bytes at the start of `buf`: the value
/// and the bytes it takes.
#[cold]
#[inline(never)]
fn read_long(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (k, &byte) in buf.iter().take(10).enumerate() {
        // The tenth byte holds bit 63 alone.
        if k == 9 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << (7 * k);
        if byte & 0x80 == 0 {
            return Some((value, k + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 300, 16383, 16384, (1 << 21) - 1, 1 << 21, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "varint_len({v})");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn sequential_values_share_a_buffer() {
        let mut buf = Vec::new();
        for v in 0..300u64 {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for v in 0..300u64 {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_input_is_detected() {
        for v in [128u64, 1 << 14, 1 << 21, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            buf.pop();
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), None, "{v} cut by a byte");
            assert_eq!(pos, 0, "a refused read leaves the position");
        }
        let mut pos = 3;
        assert_eq!(read_varint(&[1, 2], &mut pos), None, "a position past the end");
    }

    #[test]
    fn oversized_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn a_tenth_byte_over_one_overflows_and_is_refused() {
        let mut buf = [0xFFu8; 10];
        buf[9] = 0x02;
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None, "2^63 - 1 plus a bit 64");
        assert_eq!(pos, 0);
        buf[9] = 0x01;
        assert_eq!(read_varint(&buf, &mut pos), Some(u64::MAX));
        assert_eq!(pos, 10);
    }
}
