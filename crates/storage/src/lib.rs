//! Simulated paged storage for the P-Cube reproduction.
//!
//! The P-Cube paper (ICDE 2008) evaluates its methods by wall-clock time *and*
//! by the number of disk accesses of each kind: R-tree block retrievals,
//! signature page loads, B+-tree page reads and random tuple accesses used for
//! boolean verification. This crate provides the substrate those numbers come
//! from:
//!
//! * [`Pager`] — an in-memory "disk" of fixed-size pages. Every read and write
//!   is charged to an [`IoCategory`] on a shared [`IoStats`] ledger.
//! * [`ShardedBufferPool`] — an optional thread-safe LRU read cache layered
//!   over a pager (N independent shards, each behind its own lock), used to
//!   study buffering effects.
//! * [`CostModel`] — converts an I/O ledger into modeled seconds so the
//!   time-based figures of the paper can be reproduced independently of the
//!   host machine's RAM speed.
//! * [`FaultPlan`] + [`StorageError`] — deterministic fault injection and the
//!   typed errors of the fallible (`try_*`) APIs, plus optional per-page
//!   CRC32 verification ([`Pager::set_checksums`]). See `DESIGN.md` §6.
//!
//! All indexes in the workspace (`pcube-rtree`, `pcube-bptree`, the signature
//! store in `pcube-core`) persist their nodes through a [`Pager`], so the
//! experiment harness can compare methods on exactly the metric the paper
//! reports.
//!
//! # Example
//!
//! ```
//! use pcube_storage::{IoCategory, IoStats, Pager, PAGE_SIZE};
//!
//! let stats = IoStats::new_shared();
//! let mut pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats.clone());
//! let pid = pager.allocate();
//! let mut buf = vec![0u8; PAGE_SIZE];
//! buf[0] = 42;
//! pager.write(pid, &buf);
//! assert_eq!(pager.read(pid)[0], 42);
//! assert_eq!(stats.reads(IoCategory::RtreeBlock), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod bytes;
mod crc;
mod error;
mod fault;
mod page;
mod pager;
mod stats;
mod wal;

pub use buffer::ShardedBufferPool;
pub use bytes::{read_f64, read_u16, read_u32, read_u64, write_f64, write_u16, write_u32, write_u64};
pub use crc::crc32;
pub use error::{ImageError, PageOp, StorageError};
pub use fault::{CrashPlan, CrashPoint, FaultCounts, FaultPlan, WalDamage};
pub use page::{PageId, PAGE_SIZE};
pub use pager::{Pager, QuarantineEntry};
pub use stats::{CostModel, Counter, IoCategory, IoSnapshot, IoStats, SharedStats};
pub use wal::{Lsn, StoreKind, TreeOp, Wal, WalRecord, WalReplay, WalStats, WalSyncError};

// The concurrent query engine shares pagers, the ledger and the sharded
// buffer pool across scoped threads; regressing any of them to `!Sync`
// (e.g. reintroducing `Cell`/`RefCell`/`Rc`) must fail to compile here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pager>();
    assert_send_sync::<IoStats>();
    assert_send_sync::<ShardedBufferPool>();
};
