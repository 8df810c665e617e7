//! A disk-based B+-tree over the simulated pager.
//!
//! Two roles in the P-Cube system (§IV-B.2, §VI-A):
//!
//! 1. **Boolean-dimension indexes** for the Boolean-first baseline and the
//!    index-merge baseline: one tree per boolean dimension mapping
//!    `(value, tid)` composite keys to unit values, scanned by range to
//!    enumerate the tids matching a predicate.
//! 2. **The signature directory**: "All signatures are stored on disk and
//!    indexed by the cell ID and the root (of the sub-tree) SID" — a tree
//!    mapping `(cell id, SID)` to the page holding the partial signature.
//!
//! Keys and values are `u64`; composite keys are packed with
//! [`composite_key`]. Every node access goes through a counted
//! [`pcube_storage::Pager`], so baseline and signature I/O is measured on the
//! same ledger the paper uses. Internal pages are pinned in memory after
//! their first read, so a warm lookup or range scan pays for leaves only.
//!
//! # Example
//!
//! ```
//! use pcube_bptree::BPlusTree;
//! use pcube_storage::{IoCategory, IoStats, Pager, PAGE_SIZE};
//!
//! let stats = IoStats::new_shared();
//! let pager = Pager::new(PAGE_SIZE, IoCategory::BptreePage, stats);
//! let mut tree = BPlusTree::new(pager);
//! for k in 0..100u64 {
//!     tree.insert(k, k * 10);
//! }
//! assert_eq!(tree.get(42), Some(420));
//! let sum: u64 = tree.range(10..=19).map(|(_, v)| v).sum();
//! assert_eq!(sum, (100..=190).step_by(10).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod tree;

pub use node::leaf_capacity;
pub use tree::BPlusTree;

// The signature directory is probed concurrently by query threads; the tree
// (including its pinned-page cache) must stay `Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BPlusTree>();
};

/// Packs two 32-bit components into one ordered 64-bit composite key.
///
/// Ordering of the packed keys is lexicographic in `(hi, lo)`, so a range
/// scan over `composite_key(v, 0)..=composite_key(v, u32::MAX)` enumerates
/// every entry with first component `v` in `lo` order.
#[inline]
pub fn composite_key(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Splits a composite key back into its `(hi, lo)` components.
#[inline]
pub fn split_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod key_tests {
    use super::*;

    #[test]
    fn composite_roundtrip() {
        for (hi, lo) in [(0, 0), (1, 2), (u32::MAX, u32::MAX), (7, u32::MAX)] {
            assert_eq!(split_key(composite_key(hi, lo)), (hi, lo));
        }
    }

    #[test]
    fn composite_order_is_lexicographic() {
        assert!(composite_key(1, u32::MAX) < composite_key(2, 0));
        assert!(composite_key(5, 1) < composite_key(5, 2));
    }
}
