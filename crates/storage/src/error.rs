//! Typed errors for the storage substrate, shared by every index crate.

use crate::page::PageId;
use std::fmt;

/// The page operation that was in flight when an error occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOp {
    /// A counted page read.
    Read,
    /// A full-page write.
    Write,
    /// Releasing a page back to the allocator.
    Free,
}

impl fmt::Display for PageOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageOp::Read => "read",
            PageOp::Write => "write",
            PageOp::Free => "free",
        })
    }
}

/// Errors surfaced by the fallible (`try_*`) storage APIs.
///
/// The infallible wrappers (`Pager::read`, `Pager::write`, ...) panic with
/// this error's `Display` text, so both paths report identical diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The pager cannot allocate another page: either the 32-bit page-id
    /// space is exhausted or an injected allocation budget ran out.
    OutOfPages,
    /// The operation targeted a page that is not live (never allocated, or
    /// already freed).
    DeadPage {
        /// The page the operation targeted.
        pid: PageId,
        /// The operation that failed.
        op: PageOp,
    },
    /// A page was freed twice.
    DoubleFree {
        /// The doubly-freed page.
        pid: PageId,
    },
    /// A write did not cover exactly one page.
    ShortWrite {
        /// The page the write targeted.
        pid: PageId,
        /// Length of the data supplied.
        len: usize,
        /// The pager's fixed page size.
        page_size: usize,
    },
    /// A page's stored checksum did not match its contents.
    Corrupt {
        /// The corrupt page.
        pid: PageId,
        /// The checksum recorded when the page was last written.
        expected: u32,
        /// The checksum computed from the bytes read.
        actual: u32,
    },
    /// An injected (or, in a real backend, actual) I/O failure.
    Io {
        /// The page the operation targeted.
        pid: PageId,
        /// The operation that failed.
        op: PageOp,
    },
    /// Page bytes decoded to a structurally impossible value (bad node
    /// count, out-of-range record offset, undecodable payload, ...).
    Malformed {
        /// The page holding the malformed bytes.
        pid: PageId,
        /// What was wrong, as a static description.
        what: &'static str,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfPages => f.write_str("pager full: no page can be allocated"),
            StorageError::DeadPage { pid, op } => write!(f, "{op} of dead page {pid}"),
            StorageError::DoubleFree { pid } => write!(f, "double free of {pid}"),
            StorageError::ShortWrite { pid, len, page_size } => write!(
                f,
                "write of {len} bytes to {pid} must cover the whole {page_size}-byte page"
            ),
            StorageError::Corrupt { pid, expected, actual } => write!(
                f,
                "checksum mismatch on {pid}: stored {expected:#010x}, computed {actual:#010x}"
            ),
            StorageError::Io { pid, op } => write!(f, "i/o error during {op} of {pid}"),
            StorageError::Malformed { pid, what } => write!(f, "malformed page {pid}: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Error describing why a serialized pager image could not be rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageError {
    /// Byte offset into the image where the problem was detected.
    pub offset: usize,
    /// Human-readable cause.
    pub cause: String,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pager image invalid at byte {}: {}", self.offset, self.cause)
    }
}

impl std::error::Error for ImageError {}
