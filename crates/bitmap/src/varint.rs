//! LEB128 variable-length integers used by the compressed encodings.

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

/// Reads a varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncated or oversized (> 10 byte) input.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 16383, 16384, u32::MAX as u64, u64::MAX] {
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
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn oversized_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }
}
