//! Fixed-length bit arrays.

/// A fixed-length array of bits backed by `u64` words.
///
/// This is the per-node building block of a signature: bit `i` of a node's
/// array says whether child `i` of the corresponding R-tree node contains any
/// tuple of the cell the signature summarizes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitArray {
    len: usize,
    words: Vec<u64>,
}

impl BitArray {
    /// Creates an all-zero array of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitArray { len, words: vec![0; len.div_ceil(64)] }
    }

    /// Creates an array from an iterator of bit values; the length is the
    /// number of items yielded.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let mut out = BitArray::zeros(0);
        for (i, b) in bits.into_iter().enumerate() {
            out.len = i + 1;
            if out.words.len() * 64 < out.len {
                out.words.push(0);
            }
            if b {
                out.words[i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the array has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of one-bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the positions of the one-bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Raw little-endian words backing the array (trailing bits beyond `len`
    /// are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds an array from raw words; bits past `len` in the final word
    /// are cleared.
    ///
    /// # Panics
    /// Panics if `words` is shorter than `len` requires.
    pub fn from_words(len: usize, mut words: Vec<u64>) -> Self {
        assert!(words.len() >= len.div_ceil(64), "not enough words for {len} bits");
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitArray { len, words }
    }
}

impl std::fmt::Debug for BitArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitArray[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut b = BitArray::zeros(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn iter_ones_matches_paper_example() {
        // The (A=a1) root array in Fig 2.a is "10": child 1 occupied, child 2 not.
        let b = BitArray::from_bits([true, false]);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0]);
        let c = BitArray::from_bits([false, true, true, false, true]);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn from_words_masks_trailing_bits() {
        let b = BitArray::from_words(3, vec![0xFF]);
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.words(), &[0b111]);
    }

    #[test]
    fn debug_formatting_shows_bits() {
        let b = BitArray::from_bits([true, false, true]);
        assert_eq!(format!("{b:?}"), "BitArray[101]");
    }
}
