//! Write-ahead log: typed, CRC32-framed records with fsync batching.
//!
//! Durability in this workspace follows the classic WAL discipline: every
//! maintenance mutation appends a typed redo record *before* the in-memory
//! pages change, and a transaction is acknowledged as durable only once its
//! [`WalRecord::Commit`] frame has been fsynced. The log is the sole
//! authority on what survived a crash — recovery replays committed
//! transactions on top of the last checkpoint image and drops everything
//! else (see `pcube-core`'s `durable` module and `DESIGN.md` §10).
//!
//! The [`Wal`] models a real log file faithfully enough for crash testing:
//!
//! * appends land in an **unsynced tail** that a crash wipes out entirely;
//! * [`Wal::sync`] moves the tail to the durable prefix (one "fsync");
//!   [`Wal::sync_torn`] models a crash *mid-fsync*, persisting only a byte
//!   prefix of the tail — the torn frame is detected and dropped on replay;
//! * [`Wal::replay`] scans durable bytes frame by frame, verifying each
//!   frame's CRC32, and stops at the first torn or corrupt frame, reporting
//!   how many trailing bytes it discarded.
//!
//! Frame layout (little-endian): `[len u32][crc32 u32][payload]` where the
//! payload is `[lsn u64][kind u8][body]` and the CRC covers the payload.

use crate::crc::crc32;
use crate::bytes::{read_u32, read_u64, write_u32, write_u64};
use crate::fault::FaultPlan;
use crate::stats::{Counter, SharedStats};
use std::fmt;
use std::time::Duration;

/// Maximum fsync attempts before [`Wal::sync`] gives up with a typed error.
const MAX_SYNC_ATTEMPTS: u32 = 6;

/// Backoff before the first fsync retry, in microseconds; doubles per retry
/// (20, 40, 80, 160, 320 µs — bounded at well under a millisecond total).
const SYNC_BACKOFF_BASE_US: u64 = 20;

/// The WAL could not be made durable: every fsync attempt failed, retries
/// and backoff exhausted. The unsynced tail is still pending — nothing was
/// lost, nothing was acknowledged — so the caller can surface a typed error
/// to its clients and try again later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSyncError {
    /// Fsync attempts made (initial try + retries).
    pub attempts: u32,
    /// Total microseconds spent in exponential backoff between attempts.
    pub backoff_us: u64,
}

impl fmt::Display for WalSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wal fsync failed after {} attempts ({} us of backoff)",
            self.attempts, self.backoff_us
        )
    }
}

impl std::error::Error for WalSyncError {}

/// Log sequence number: the position of a record in the WAL, monotonically
/// increasing from 1 and never reused (truncation keeps the counter).
pub type Lsn = u64;

/// Which paged store a [`WalRecord::PageWrite`] witness refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The shared R-tree partition's node pages.
    Rtree,
    /// Partial-signature pages.
    Signature,
    /// The signature directory B+-tree's pages.
    Directory,
}

impl StoreKind {
    /// Wire tag.
    fn code(self) -> u8 {
        match self {
            StoreKind::Rtree => 0,
            StoreKind::Signature => 1,
            StoreKind::Directory => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(StoreKind::Rtree),
            1 => Some(StoreKind::Signature),
            2 => Some(StoreKind::Directory),
            _ => None,
        }
    }

    /// Human-readable store name (for reports and errors).
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Rtree => "rtree",
            StoreKind::Signature => "signature",
            StoreKind::Directory => "directory",
        }
    }
}

/// The direction of a logged R-tree structural mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOp {
    /// A tuple insertion (splits re-derived deterministically on replay).
    Insert,
    /// A tuple deletion.
    Delete,
}

/// One typed WAL record.
///
/// Redo is *logical*: a committed transaction's [`WalRecord::TreeSplit`]
/// records are re-executed against the recovered checkpoint state, which
/// deterministically reproduces every page. The remaining record kinds are
/// witnesses and markers that recovery verifies or uses as cut points.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The logical redo record of one R-tree structural mutation: transaction
    /// `txn` inserted (or deleted) tuple `tid`. Appended **before** any page
    /// of the mutation is touched. Replay re-executes the operation; node
    /// splits and signature maintenance are re-derived deterministically.
    TreeSplit {
        /// Owning transaction.
        txn: u64,
        /// Insert or delete.
        op: TreeOp,
        /// The tuple id (for inserts: the id the replay must reproduce).
        tid: u64,
        /// Dictionary-coded boolean values (empty for deletes).
        codes: Vec<u32>,
        /// Preference coordinates of the tuple.
        coords: Vec<f64>,
    },
    /// Per-cell signature maintenance summary: transaction `txn` set
    /// `sets` bits and cleared `clears` bits of cell `cell`'s signature.
    /// Recovery uses these to cross-check replay coverage.
    SigUpdate {
        /// Owning transaction.
        txn: u64,
        /// The affected cell code.
        cell: u32,
        /// Signature bits set (paths added).
        sets: u32,
        /// Signature bits cleared (paths removed).
        clears: u32,
    },
    /// Physical witness of one page the transaction dirtied: after replaying
    /// `txn`, the page `pid` of `store` must hash to exactly `crc`. Divergence
    /// means replay did not reproduce the pre-crash state bit-for-bit and
    /// recovery fails loudly instead of serving approximately-right answers.
    PageWrite {
        /// Owning transaction.
        txn: u64,
        /// Which paged store the page belongs to.
        store: StoreKind,
        /// The page id within that store.
        pid: u32,
        /// CRC32 of the full page contents after the transaction.
        crc: u32,
    },
    /// Seals transaction `txn`. Recovery replays only sealed transactions;
    /// records of an unsealed transaction at the log tail are dropped.
    Commit {
        /// The sealed transaction.
        txn: u64,
    },
    /// Checkpoint marker: the checkpoint image now covers the first `txns`
    /// transactions, published as catalog epoch `epoch`. Replay starts after
    /// the image's transaction watermark, so this record is informational
    /// (and survives a crash between image install and log truncation).
    Checkpoint {
        /// The catalog epoch the checkpoint captured.
        epoch: u64,
        /// Committed transactions contained in the image.
        txns: u64,
    },
    /// The logical redo record of online repair: transaction `txn` rebuilt
    /// cell `cell`'s signature from the base table (quarantined pages were
    /// freed, fresh ones written). Replay re-derives the identical rebuild
    /// deterministically — the base table at that point in the log is
    /// exactly what the original rebuild read.
    SigRebuild {
        /// Owning transaction.
        txn: u64,
        /// The rebuilt cell's registry code.
        cell: u32,
    },
}

const KIND_TREE_SPLIT: u8 = 1;
const KIND_SIG_UPDATE: u8 = 2;
const KIND_PAGE_WRITE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;
const KIND_SIG_REBUILD: u8 = 6;

/// Upper bound on one frame's payload; a length field beyond this is treated
/// as corruption rather than an allocation request.
const MAX_PAYLOAD: usize = 1 << 24;

impl WalRecord {
    /// The transaction this record belongs to (`None` for checkpoints).
    pub fn txn(&self) -> Option<u64> {
        match self {
            WalRecord::TreeSplit { txn, .. }
            | WalRecord::SigUpdate { txn, .. }
            | WalRecord::PageWrite { txn, .. }
            | WalRecord::Commit { txn }
            | WalRecord::SigRebuild { txn, .. } => Some(*txn),
            WalRecord::Checkpoint { .. } => None,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        let mut put_u32 = |out: &mut Vec<u8>, v: u32| {
            write_u32(&mut b4, 0, v);
            out.extend_from_slice(&b4);
        };
        let mut put_u64 = |out: &mut Vec<u8>, v: u64| {
            write_u64(&mut b8, 0, v);
            out.extend_from_slice(&b8);
        };
        match self {
            WalRecord::TreeSplit { txn, op, tid, codes, coords } => {
                put_u64(out, *txn);
                out.push(match op {
                    TreeOp::Insert => 0,
                    TreeOp::Delete => 1,
                });
                put_u64(out, *tid);
                put_u32(out, codes.len() as u32);
                for &c in codes {
                    put_u32(out, c);
                }
                put_u32(out, coords.len() as u32);
                for &x in coords {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            WalRecord::SigUpdate { txn, cell, sets, clears } => {
                put_u64(out, *txn);
                put_u32(out, *cell);
                put_u32(out, *sets);
                put_u32(out, *clears);
            }
            WalRecord::PageWrite { txn, store, pid, crc } => {
                put_u64(out, *txn);
                out.push(store.code());
                put_u32(out, *pid);
                put_u32(out, *crc);
            }
            WalRecord::Commit { txn } => put_u64(out, *txn),
            WalRecord::Checkpoint { epoch, txns } => {
                put_u64(out, *epoch);
                put_u64(out, *txns);
            }
            WalRecord::SigRebuild { txn, cell } => {
                put_u64(out, *txn);
                put_u32(out, *cell);
            }
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::TreeSplit { .. } => KIND_TREE_SPLIT,
            WalRecord::SigUpdate { .. } => KIND_SIG_UPDATE,
            WalRecord::PageWrite { .. } => KIND_PAGE_WRITE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Checkpoint { .. } => KIND_CHECKPOINT,
            WalRecord::SigRebuild { .. } => KIND_SIG_REBUILD,
        }
    }

    fn decode(kind: u8, body: &[u8]) -> Option<WalRecord> {
        let mut pos = 0usize;
        let u32_at = |pos: &mut usize| -> Option<u32> {
            let end = pos.checked_add(4)?;
            if end > body.len() {
                return None;
            }
            let v = read_u32(body, *pos);
            *pos = end;
            Some(v)
        };
        let u64_at = |pos: &mut usize| -> Option<u64> {
            let end = pos.checked_add(8)?;
            if end > body.len() {
                return None;
            }
            let v = read_u64(body, *pos);
            *pos = end;
            Some(v)
        };
        let u8_at = |pos: &mut usize| -> Option<u8> {
            let v = *body.get(*pos)?;
            *pos += 1;
            Some(v)
        };
        let rec = match kind {
            KIND_TREE_SPLIT => {
                let txn = u64_at(&mut pos)?;
                let op = match u8_at(&mut pos)? {
                    0 => TreeOp::Insert,
                    1 => TreeOp::Delete,
                    _ => return None,
                };
                let tid = u64_at(&mut pos)?;
                let n_codes = u32_at(&mut pos)? as usize;
                if n_codes.checked_mul(4)? > body.len() - pos {
                    return None;
                }
                let mut codes = Vec::with_capacity(n_codes);
                for _ in 0..n_codes {
                    codes.push(u32_at(&mut pos)?);
                }
                let n_coords = u32_at(&mut pos)? as usize;
                if n_coords.checked_mul(8)? > body.len() - pos {
                    return None;
                }
                let mut coords = Vec::with_capacity(n_coords);
                for _ in 0..n_coords {
                    let end = pos + 8;
                    let raw: [u8; 8] = body.get(pos..end)?.try_into().ok()?;
                    coords.push(f64::from_le_bytes(raw));
                    pos = end;
                }
                WalRecord::TreeSplit { txn, op, tid, codes, coords }
            }
            KIND_SIG_UPDATE => WalRecord::SigUpdate {
                txn: u64_at(&mut pos)?,
                cell: u32_at(&mut pos)?,
                sets: u32_at(&mut pos)?,
                clears: u32_at(&mut pos)?,
            },
            KIND_PAGE_WRITE => WalRecord::PageWrite {
                txn: u64_at(&mut pos)?,
                store: StoreKind::from_code(u8_at(&mut pos)?)?,
                pid: u32_at(&mut pos)?,
                crc: u32_at(&mut pos)?,
            },
            KIND_COMMIT => WalRecord::Commit { txn: u64_at(&mut pos)? },
            KIND_CHECKPOINT => WalRecord::Checkpoint {
                epoch: u64_at(&mut pos)?,
                txns: u64_at(&mut pos)?,
            },
            KIND_SIG_REBUILD => WalRecord::SigRebuild {
                txn: u64_at(&mut pos)?,
                cell: u32_at(&mut pos)?,
            },
            _ => return None,
        };
        if pos != body.len() {
            return None; // trailing garbage inside the frame
        }
        Some(rec)
    }
}

/// Running counters of WAL activity (group-commit effectiveness metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (durable or not).
    pub appends: u64,
    /// Completed syncs ("fsyncs").
    pub syncs: u64,
    /// Records made durable by completed syncs.
    pub records_synced: u64,
    /// Bytes made durable by completed syncs.
    pub bytes_synced: u64,
}

/// What a replay scan of durable WAL bytes produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every intact record, in log order, with its LSN.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Bytes discarded at the tail: a frame cut short by a torn fsync or a
    /// frame whose CRC32 no longer matches. Everything after the first bad
    /// frame is untrusted and dropped.
    pub torn_tail_bytes: u64,
    /// Total bytes scanned (intact prefix + dropped tail).
    pub scanned_bytes: u64,
}

/// An append-only write-ahead log with an explicit durability boundary.
///
/// See the module docs for the crash model. The in-memory representation is
/// two buffers: `durable` (what a crash preserves) and `tail` (appended but
/// not yet synced — a crash loses it).
#[derive(Debug, Clone, Default)]
pub struct Wal {
    durable: Vec<u8>,
    tail: Vec<u8>,
    tail_records: u64,
    next_lsn: Lsn,
    stats: WalStats,
    /// Injected-fault schedule for the durability path (transient fsync
    /// failures). `None` = healthy disk.
    fault: Option<FaultPlan>,
    /// Ledger that absorbed retries are reported to (`wal_retries`,
    /// `wal_backoff_us`), so harnesses can assert they are bounded.
    io_stats: Option<SharedStats>,
}

impl Wal {
    /// An empty log; the first record gets LSN 1.
    pub fn new() -> Self {
        Wal::from_durable(Vec::new(), 1)
    }

    /// Re-opens a log over bytes recovered from durable storage. `next_lsn`
    /// must exceed every LSN in `durable` (recovery computes it from the
    /// replay scan).
    pub fn from_durable(durable: Vec<u8>, next_lsn: Lsn) -> Self {
        Wal {
            durable,
            tail: Vec::new(),
            tail_records: 0,
            next_lsn,
            stats: WalStats::default(),
            fault: None,
            io_stats: None,
        }
    }

    /// Installs a deterministic fault schedule on the durability path:
    /// [`Wal::sync`] consults it per fsync attempt and retries transient
    /// failures with exponential backoff before surfacing [`WalSyncError`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Removes the fault plan, returning it (with its injection counts).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Attaches the shared I/O ledger that absorbed fsync retries and their
    /// backoff are reported to.
    pub fn attach_stats(&mut self, stats: SharedStats) {
        self.io_stats = Some(stats);
    }

    /// Appends one framed record to the unsynced tail, returning its LSN.
    /// The record is **not durable** until the next [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut payload = Vec::with_capacity(32);
        let mut b8 = [0u8; 8];
        write_u64(&mut b8, 0, lsn);
        payload.extend_from_slice(&b8);
        payload.push(rec.kind());
        rec.encode_body(&mut payload);
        let mut b4 = [0u8; 4];
        write_u32(&mut b4, 0, payload.len() as u32);
        self.tail.extend_from_slice(&b4);
        write_u32(&mut b4, 0, crc32(&payload));
        self.tail.extend_from_slice(&b4);
        self.tail.extend_from_slice(&payload);
        self.tail_records += 1;
        self.stats.appends += 1;
        lsn
    }

    /// Records appended since the last sync.
    pub fn pending_records(&self) -> u64 {
        self.tail_records
    }

    /// Bytes appended since the last sync.
    pub fn pending_bytes(&self) -> usize {
        self.tail.len()
    }

    /// Makes the tail durable (models one fsync). Returns the bytes synced.
    ///
    /// With a fault plan armed ([`Wal::set_fault_plan`]), each fsync attempt
    /// may fail transiently; failures are retried up to `MAX_SYNC_ATTEMPTS`
    /// times with exponential backoff (each retry recorded on the attached
    /// [`SharedStats`] ledger). When the budget is exhausted the tail stays
    /// **pending** — not durable, but not lost either — and the caller gets a
    /// typed [`WalSyncError`] instead of a panic or a silent half-sync.
    pub fn sync(&mut self) -> Result<usize, WalSyncError> {
        let mut attempts = 1u32;
        let mut backoff_total = 0u64;
        while self.fault.as_mut().is_some_and(FaultPlan::fsync_attempt_fails) {
            if attempts >= MAX_SYNC_ATTEMPTS {
                return Err(WalSyncError { attempts, backoff_us: backoff_total });
            }
            let backoff = SYNC_BACKOFF_BASE_US << (attempts - 1);
            if let Some(stats) = &self.io_stats {
                stats.add(Counter::WalRetries, 1);
                stats.add(Counter::WalBackoffUs, backoff);
            }
            backoff_total += backoff;
            std::thread::sleep(Duration::from_micros(backoff));
            attempts += 1;
        }
        let n = self.tail.len();
        self.durable.append(&mut self.tail);
        self.stats.syncs += 1;
        self.stats.records_synced += self.tail_records;
        self.stats.bytes_synced += n as u64;
        self.tail_records = 0;
        Ok(n)
    }

    /// Models a crash **mid-fsync**: only the first `keep` bytes of the tail
    /// reach durable storage; the rest of the tail is lost. The durable log
    /// now likely ends in a torn frame, which [`Wal::replay`] detects and
    /// drops. The instance should be considered dead after this call.
    pub fn sync_torn(&mut self, keep: usize) {
        let keep = keep.min(self.tail.len());
        self.durable.extend_from_slice(&self.tail[..keep]);
        self.tail.clear();
        self.tail_records = 0;
    }

    /// The durable prefix — exactly what survives a crash right now.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Length of the durable prefix in bytes.
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Drops every durable frame with `lsn < cutoff` (checkpoint
    /// truncation). The tail is untouched. Returns the bytes reclaimed.
    ///
    /// Truncation is modeled as atomic, the way a rename-over swap of a
    /// segment file is: a crash during checkpointing either sees the whole
    /// old log or the truncated one, never a half-truncated hybrid.
    pub fn truncate_durable_before(&mut self, cutoff: Lsn) -> usize {
        let mut pos = 0usize;
        while pos < self.durable.len() {
            let Some((lsn, _, frame_len)) = peek_frame(&self.durable, pos) else {
                break; // torn tail: keep it for replay to report
            };
            if lsn >= cutoff {
                break;
            }
            pos += frame_len;
        }
        self.durable.drain(..pos);
        pos
    }

    /// Drops every durable frame with `lsn >= cutoff` and everything after
    /// it (recovery discarding an uncommitted suffix: appends are serial, so
    /// the records of unsealed transactions always trail the log). The tail
    /// is untouched. Returns the bytes dropped.
    pub fn truncate_durable_from(&mut self, cutoff: Lsn) -> usize {
        let mut pos = 0usize;
        while pos < self.durable.len() {
            let Some((lsn, _, frame_len)) = peek_frame(&self.durable, pos) else {
                break; // undecodable from here on: untrusted, drop it too
            };
            if lsn >= cutoff {
                break;
            }
            pos += frame_len;
        }
        let dropped = self.durable.len() - pos;
        self.durable.truncate(pos);
        dropped
    }

    /// Scans durable WAL bytes, yielding every intact record in order and
    /// reporting the torn/corrupt tail it dropped. Never panics on hostile
    /// input.
    pub fn replay(bytes: &[u8]) -> WalReplay {
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            match peek_frame(bytes, pos) {
                Some((lsn, rec, frame_len)) => {
                    records.push((lsn, rec));
                    pos += frame_len;
                }
                None => break,
            }
        }
        WalReplay {
            records,
            torn_tail_bytes: (bytes.len() - pos) as u64,
            scanned_bytes: bytes.len() as u64,
        }
    }
}

/// Decodes the frame at `pos`: `(lsn, record, total frame length)`. `None`
/// for a truncated, corrupt, or undecodable frame.
fn peek_frame(bytes: &[u8], pos: usize) -> Option<(Lsn, WalRecord, usize)> {
    let header_end = pos.checked_add(8)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = read_u32(bytes, pos) as usize;
    if !(9..=MAX_PAYLOAD).contains(&len) {
        return None;
    }
    let stored_crc = read_u32(bytes, pos + 4);
    let payload_end = header_end.checked_add(len)?;
    if payload_end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..payload_end];
    if crc32(payload) != stored_crc {
        return None;
    }
    let lsn = read_u64(payload, 0);
    let rec = WalRecord::decode(payload[8], &payload[9..])?;
    Some((lsn, rec, 8 + len))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fault::WalDamage;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TreeSplit {
                txn: 1,
                op: TreeOp::Insert,
                tid: 42,
                codes: vec![3, 0, 7],
                coords: vec![0.25, 0.5],
            },
            WalRecord::SigUpdate { txn: 1, cell: 9, sets: 4, clears: 0 },
            WalRecord::PageWrite { txn: 1, store: StoreKind::Signature, pid: 5, crc: 0xDEAD_BEEF },
            WalRecord::Commit { txn: 1 },
            WalRecord::TreeSplit {
                txn: 2,
                op: TreeOp::Delete,
                tid: 17,
                codes: vec![],
                coords: vec![0.1, 0.9],
            },
            WalRecord::Commit { txn: 2 },
            WalRecord::Checkpoint { epoch: 3, txns: 2 },
        ]
    }

    #[test]
    fn append_sync_replay_roundtrips_every_kind() {
        let mut wal = Wal::new();
        let recs = sample_records();
        for r in &recs {
            wal.append(r);
        }
        assert_eq!(wal.durable_len(), 0, "nothing durable before sync");
        assert_eq!(wal.pending_records(), recs.len() as u64);
        wal.sync().unwrap();
        assert_eq!(wal.pending_records(), 0);
        let replay = Wal::replay(wal.durable_bytes());
        assert_eq!(replay.torn_tail_bytes, 0);
        let got: Vec<WalRecord> = replay.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(got, recs);
        let lsns: Vec<Lsn> = replay.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (1..=recs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn unsynced_tail_is_lost() {
        let mut wal = Wal::new();
        wal.append(&WalRecord::Commit { txn: 1 });
        wal.sync().unwrap();
        wal.append(&WalRecord::Commit { txn: 2 });
        // No sync: a crash preserves only txn 1.
        let replay = Wal::replay(wal.durable_bytes());
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].1, WalRecord::Commit { txn: 1 });
    }

    #[test]
    fn torn_sync_drops_the_partial_frame() {
        let mut wal = Wal::new();
        wal.append(&WalRecord::Commit { txn: 1 });
        wal.sync().unwrap();
        let durable_before = wal.durable_len();
        wal.append(&WalRecord::SigUpdate { txn: 2, cell: 1, sets: 1, clears: 0 });
        let torn_at = wal.pending_bytes() / 2;
        wal.sync_torn(torn_at);
        let replay = Wal::replay(wal.durable_bytes());
        assert_eq!(replay.records.len(), 1, "the torn frame must not replay");
        assert_eq!(replay.torn_tail_bytes as usize, wal.durable_len() - durable_before);
    }

    #[test]
    fn a_flipped_bit_stops_replay_at_that_frame() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.sync().unwrap();
        let mut bytes = wal.durable_bytes().to_vec();
        // Flip a bit somewhere in the middle of the log.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        let replay = Wal::replay(&bytes);
        assert!(replay.records.len() < sample_records().len());
        assert!(replay.torn_tail_bytes > 0);
        // The intact prefix still decodes to a prefix of the originals.
        for ((_, got), want) in replay.records.iter().zip(sample_records()) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn truncate_drops_only_frames_before_the_cutoff() {
        let mut wal = Wal::new();
        for txn in 1..=5u64 {
            wal.append(&WalRecord::Commit { txn });
        }
        wal.sync().unwrap();
        let reclaimed = wal.truncate_durable_before(4);
        assert!(reclaimed > 0);
        let replay = Wal::replay(wal.durable_bytes());
        let txns: Vec<u64> = replay.records.iter().filter_map(|(_, r)| r.txn()).collect();
        assert_eq!(txns, vec![4, 5]);
        // LSNs keep counting across truncation.
        assert_eq!(wal.next_lsn(), 6);
    }

    #[test]
    fn truncate_from_drops_the_suffix_at_the_cutoff() {
        let mut wal = Wal::new();
        for txn in 1..=5u64 {
            wal.append(&WalRecord::Commit { txn });
        }
        wal.sync().unwrap();
        let dropped = wal.truncate_durable_from(4);
        assert!(dropped > 0);
        let replay = Wal::replay(wal.durable_bytes());
        let txns: Vec<u64> = replay.records.iter().filter_map(|(_, r)| r.txn()).collect();
        assert_eq!(txns, vec![1, 2, 3]);
        assert_eq!(replay.torn_tail_bytes, 0);
        // A cutoff beyond the log is a no-op.
        assert_eq!(wal.truncate_durable_from(100), 0);
        assert_eq!(wal.next_lsn(), 6, "LSNs keep counting across truncation");
    }

    #[test]
    fn replay_survives_garbage() {
        for bytes in [&[][..], &[0xFF; 7][..], &[0u8; 64][..], &[0xAB; 129][..]] {
            let replay = Wal::replay(bytes);
            assert!(replay.records.is_empty());
            assert_eq!(replay.torn_tail_bytes as usize, bytes.len());
        }
    }

    #[test]
    fn transient_fsync_failures_are_retried_with_bounded_backoff() {
        let stats = crate::stats::IoStats::new_shared();
        let mut wal = Wal::new();
        wal.attach_stats(stats.clone());
        // ~40% per-attempt failure rate: statistically certain to hit some
        // retries over 50 syncs, statistically certain to never exhaust the
        // 6-attempt budget on every single one.
        wal.set_fault_plan(FaultPlan::seeded(77).with_fsync_failures(0.4));
        let mut ok = 0u32;
        for txn in 1..=50u64 {
            wal.append(&WalRecord::Commit { txn });
            if wal.sync().is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0, "some syncs must eventually succeed");
        assert!(stats.get(Counter::WalRetries) > 0, "retries must be reported, not silent");
        assert!(stats.get(Counter::WalBackoffUs) > 0);
        // Backoff is exponential from the base and capped by the attempt
        // budget per sync.
        let max_per_sync: u64 = (0..MAX_SYNC_ATTEMPTS - 1).map(|i| SYNC_BACKOFF_BASE_US << i).sum();
        assert!(stats.get(Counter::WalBackoffUs) <= max_per_sync * 50);
        let counts = wal.take_fault_plan().unwrap().counts();
        assert_eq!(counts.fsync_failures, stats.get(Counter::WalRetries) + (50 - ok as u64), "every failed attempt is either retried or ends a failed sync");
    }

    #[test]
    fn exhausted_fsync_retries_keep_the_tail_pending() {
        let mut wal = Wal::new();
        wal.set_fault_plan(FaultPlan::seeded(5).with_fsync_failures(1.0));
        wal.append(&WalRecord::Commit { txn: 1 });
        let err = wal.sync().unwrap_err();
        assert_eq!(err.attempts, 6);
        assert!(err.backoff_us > 0);
        assert_eq!(wal.durable_len(), 0, "nothing became durable");
        assert_eq!(wal.pending_records(), 1, "the tail is still pending, not lost");
        // Healing the disk lets the same tail sync.
        wal.take_fault_plan();
        assert!(wal.sync().is_ok());
        assert_eq!(Wal::replay(wal.durable_bytes()).records.len(), 1);
    }

    #[test]
    fn wal_damage_tears_or_rots_deterministically_and_replay_survives() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.sync().unwrap();
        let image = wal.durable_bytes().to_vec();
        let n = sample_records().len();
        for seed in 0..50u64 {
            let mut torn_plan = FaultPlan::seeded(seed).with_wal_torn(1.0);
            let mut rot_plan = FaultPlan::seeded(seed).with_wal_bit_rot(1.0);
            let mut a = image.clone();
            let mut b = image.clone();
            let da = torn_plan.damage_wal_image(&mut a).unwrap();
            let db = rot_plan.damage_wal_image(&mut b).unwrap();
            assert!(matches!(da, WalDamage::Torn { .. }));
            assert!(matches!(db, WalDamage::BitRot { .. }));
            // Determinism: the same seed reproduces the same damage.
            let mut again = FaultPlan::seeded(seed).with_wal_torn(1.0);
            assert_eq!(again.next_wal_damage(image.len()), Some(da));
            for damaged in [a, b] {
                let replay = Wal::replay(&damaged);
                assert!(replay.records.len() <= n);
                // The surviving prefix decodes to a prefix of the originals.
                for ((_, got), want) in replay.records.iter().zip(sample_records()) {
                    assert_eq!(*got, want);
                }
            }
        }
        let counts = {
            let mut p = FaultPlan::seeded(9).with_wal_torn(1.0);
            let mut img = image.clone();
            p.damage_wal_image(&mut img);
            p.counts()
        };
        assert_eq!(counts.wal_torn, 1);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn group_commit_batches_syncs() {
        let mut wal = Wal::new();
        for txn in 1..=8u64 {
            wal.append(&WalRecord::Commit { txn });
            if txn % 4 == 0 {
                wal.sync().unwrap();
            }
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 8);
        assert_eq!(stats.syncs, 2);
        assert_eq!(stats.records_synced, 8);
        assert_eq!(Wal::replay(wal.durable_bytes()).records.len(), 8);
    }
}
