//! Bit arrays and bitmap compression for P-Cube signatures.
//!
//! A P-Cube signature is a tree of *bit arrays*, one per R-tree node, where
//! each bit says whether the corresponding child subtree contains any tuple of
//! a given cube cell (§IV-B of the paper). The paper compresses each node's
//! bit array individually ("node-level compression") with "typical bitmap
//! compression methods" and argues this is better than whole-signature
//! compression because (1) node arrays are large (M up to ~204), (2) arrays in
//! different nodes have different densities so an *adaptive* scheme wins, and
//! (3) only requested nodes need decompression at query time.
//!
//! This crate provides:
//!
//! * [`BitArray`] — a fixed-length bit vector: an owned node array for the
//!   Bloom tier, the codec comparisons and the tests (a signature keeps its
//!   nodes as rows of words and encodes them with [`encode_words_into`]).
//! * [`Codec`] and its implementations [`LiteralCodec`], [`RleCodec`],
//!   [`WahCodec`] and [`AdaptiveCodec`] — the per-node compression schemes.
//!   `AdaptiveCodec` picks the smallest encoding per array, which is exactly
//!   the paper's argument (2); [`adaptive_len`] is that encoding's length
//!   without producing it. [`encode_words_into`] is the one encoder, from
//!   `u64` words and a bit length. [`decode_words`] is the one decoder, word-level:
//!   it ORs an encoding into a caller's words; [`decode_bounded`] runs it
//!   into a fresh array, for bytes read back from storage.
//! * [`BloomFilter`] — the lossy alternative sketched in §VII: a Bloom filter
//!   over the SIDs whose signature bits are 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod bloom;
mod codec;
mod varint;

pub use array::BitArray;
pub use bloom::BloomFilter;
pub use codec::{
    adaptive_len, decode, decode_bounded, decode_words, encode_words_into, AdaptiveCodec, Codec,
    CodecKind, LiteralCodec, RleCodec, WahCodec,
};
pub use varint::{read_varint, varint_len, write_varint};
