//! Durable concurrent maintenance: WAL, incremental checkpoints, crash
//! recovery, and epoch-based snapshot isolation.
//!
//! [`DurableDb`] wraps a mutable *master* [`PCubeDb`] with the classic
//! ARIES-shaped discipline, scaled to this workspace's simulated storage
//! (see `DESIGN.md` §10):
//!
//! 1. **Log first.** Every maintenance transaction appends typed,
//!    CRC32-framed [`WalRecord`]s *before* mutating any page: a logical redo
//!    record per operation (`TreeSplit`), a per-cell signature summary
//!    (`SigUpdate`), a physical CRC witness per dirtied page (`PageWrite`),
//!    and finally `Commit`. Fsyncs batch across commits
//!    ([`DurabilityOptions::fsync_every`]).
//! 2. **Checkpoint incrementally.** The pagers track dirty pages; the
//!    [`CheckpointImage`] is three frozen copy-on-write pagers, and a
//!    checkpoint re-points only the dirty slots at the master's current page
//!    versions (staged, then installed atomically — no page byte is copied),
//!    logs a `Checkpoint` record, and truncates the WAL prefix it covers
//!    once the image file has landed.
//! 3. **Recover by replay.** [`DurableDb::open_or_recover`] restores the
//!    last checkpoint image (verifying every page CRC), re-executes the
//!    committed WAL suffix, verifies each transaction's page witnesses and
//!    signature summaries against the replay, drops the torn tail and any
//!    uncommitted transaction, and reports it all in a typed
//!    [`RecoveryReport`] — never a panic, never an approximately-right
//!    database.
//! 4. **Publish epochs.** Every commit publishes a new immutable
//!    [`EpochSnapshot`] (the master's own `Arc`: pages, column chunks and
//!    metadata stay shared copy-on-write until the writer dirties them)
//!    through an atomic pointer swap. Readers obtained via
//!    [`DurableDb::reader`] pin whatever epoch they started with: the writer
//!    never blocks them, and a query never observes a half-applied
//!    transaction.
//!
//! Crash testing: install a [`CrashPlan`] with [`DurableDb::set_crash_plan`]
//! and the engine deterministically "dies" (poisons itself) at any chosen
//! WAL-append / fsync / page-flush / checkpoint boundary; the harness then
//! recovers from [`DurableDb::durable_state`] and differential-tests the
//! result (`tests/crash_recovery.rs`).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use pcube_cube::{CellKey, Relation};
use pcube_rtree::Path as TreePath;
use pcube_storage::{
    crc32, CrashPlan, CrashPoint, IoCategory, IoStats, Lsn, PageId, Pager, StoreKind, TreeOp, Wal,
    WalRecord, WalStats,
};

use crate::pcube::{PCubeConfig, PCubeDb};
use crate::persist::{
    self, open_section, put_section, put_u32, put_u64, PersistError, Reader,
};
use crate::signature::Signature;
use crate::store::SignatureStore;

/// 8-byte magic of a serialized checkpoint image; the version is the last
/// byte.
const CKPT_MAGIC: &[u8; 8] = b"PCUBECK2";
/// Byte length of the watermark header after the magic: four u64 watermarks
/// (epoch, txns, next_txn, next_lsn) followed by their CRC32.
const CKPT_HEAD_LEN: usize = 36;
/// Section tags inside a checkpoint image, in order: the metadata, then one
/// page table per store in [`STORE_KINDS`] order.
const TAG_META: u8 = 1;
const PAGE_SECTIONS: [(u8, &str, IoCategory); 3] = [
    (2, "checkpoint-rtree", IoCategory::RtreeBlock),
    (3, "checkpoint-signatures", IoCategory::SignaturePage),
    (4, "checkpoint-directory", IoCategory::BptreePage),
];

/// Tuning knobs of the durability pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Fsync the WAL after every `n`-th commit (group commit). `1` syncs
    /// each commit before acknowledging it as durable; larger values trade
    /// a bounded window of acknowledged-but-volatile transactions for fewer
    /// syncs. Commits inside the window report `durable: false` on their
    /// [`CommitReceipt`].
    pub fsync_every: u64,
    /// Automatically checkpoint after this many commits (`0` = manual
    /// checkpoints only, via [`DurableDb::checkpoint`] or the SQL
    /// `CHECKPOINT` directive).
    pub checkpoint_every: u64,
    /// Simulated wall-clock cost of one WAL fsync, in microseconds (`0` =
    /// free). The in-memory "disk" syncs in nanoseconds, which would make
    /// every batching policy look equally good; benchmarks set this to a
    /// realistic device latency so group commit's fsync amortization shows
    /// up in wall time, the same way `--wall-io-us` scales page reads.
    pub fsync_delay_us: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions { fsync_every: 1, checkpoint_every: 0, fsync_delay_us: 0 }
    }
}

/// One logical maintenance operation inside a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceOp {
    /// Insert a row with pre-encoded boolean codes and preference coords.
    Insert {
        /// Dictionary codes, one per boolean dimension.
        codes: Vec<u32>,
        /// Preference coordinates, one per preference dimension.
        coords: Vec<f64>,
    },
    /// Delete the tuple with this id (tombstone: the relation row remains,
    /// the tuple vanishes from every index and query result).
    Delete {
        /// The tuple to delete.
        tid: u64,
    },
}

/// What [`DurableDb::apply`] hands back for a committed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The transaction id (dense, starting at 1).
    pub txn: u64,
    /// The catalog epoch this commit published.
    pub epoch: u64,
    /// Whether the commit record was fsynced before returning. `false`
    /// under group commit until the batch syncs — a crash may drop it.
    pub durable: bool,
    /// LSN of the transaction's `Commit` record.
    pub lsn: Lsn,
}

/// What a checkpoint did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The epoch the image now covers.
    pub epoch: u64,
    /// Committed transactions contained in the image.
    pub txns: u64,
    /// Pages dirtied since the last checkpoint that the image took over
    /// (across all three stores; a freed page counts).
    pub pages_flushed: u64,
    /// WAL bytes reclaimed by truncation.
    pub wal_bytes_reclaimed: u64,
}

/// What an online repair pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Cells whose signatures were rebuilt from the base table.
    pub cells_rebuilt: u64,
    /// Quarantined pages healed (freed unread and re-allocated clean).
    pub pages_healed: u64,
    /// The WAL transaction that made the rebuild durable, or `None` when
    /// nothing was quarantined and repair was a no-op.
    pub txn: Option<u64>,
    /// The catalog epoch after repair published (unchanged on a no-op).
    pub epoch: u64,
}

impl std::fmt::Display for RepairOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.txn {
            Some(txn) => write!(
                f,
                "repair: {} cells rebuilt, {} pages healed (txn {}, epoch {})",
                self.cells_rebuilt, self.pages_healed, txn, self.epoch
            ),
            None => write!(f, "repair: nothing quarantined, no-op"),
        }
    }
}

/// A typed account of what recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the WAL held nothing beyond the checkpoint: no replay,
    /// no torn tail, no dropped transactions.
    pub clean: bool,
    /// Epoch of the checkpoint image recovery started from.
    pub checkpoint_epoch: u64,
    /// Committed transactions already contained in that image.
    pub checkpoint_txns: u64,
    /// Total durable WAL bytes scanned.
    pub wal_bytes: u64,
    /// Intact records decoded from the WAL.
    pub records_scanned: u64,
    /// Records belonging to transactions that were replayed.
    pub records_replayed: u64,
    /// Committed transactions re-executed on top of the image.
    pub txns_replayed: u64,
    /// Transactions with records but no `Commit` — dropped.
    pub txns_dropped: u64,
    /// Bytes discarded at the log tail (torn fsync or corruption).
    pub torn_tail_bytes: u64,
    /// Distinct pages whose `PageWrite` CRC witnesses were re-verified
    /// against the replayed state ("repaired" by redo).
    pub pages_repaired: u64,
    /// Live checkpoint pages whose stored CRC32 was verified on restore.
    pub pages_verified: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.clean {
            write!(
                f,
                "clean open: checkpoint epoch {} ({} txns), {} pages verified",
                self.checkpoint_epoch, self.checkpoint_txns, self.pages_verified
            )
        } else {
            write!(
                f,
                "recovered: checkpoint epoch {} ({} txns) + {} txns replayed \
                 ({} of {} records, {} pages repaired, {} pages verified), \
                 {} uncommitted txns dropped, {} torn tail bytes dropped",
                self.checkpoint_epoch,
                self.checkpoint_txns,
                self.txns_replayed,
                self.records_replayed,
                self.records_scanned,
                self.pages_repaired,
                self.pages_verified,
                self.txns_dropped,
                self.torn_tail_bytes
            )
        }
    }
}

/// Everything a crash preserves: the last installed checkpoint image and
/// the durable WAL prefix. The in-memory crash harness shuttles this between
/// a "killed" instance and [`DurableDb::open_or_recover_from_state`]; the
/// file mode persists the same two byte strings as two files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableState {
    /// Serialized [`CheckpointImage`].
    pub checkpoint: Vec<u8>,
    /// Durable WAL bytes (framed records; may end in a torn frame).
    pub wal: Vec<u8>,
}

/// A durability failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// An injected crash fired at this boundary; the instance is poisoned.
    Crashed {
        /// Where the simulated kill struck.
        point: CrashPoint,
    },
    /// The instance crashed earlier and refuses further work.
    Poisoned {
        /// The boundary the earlier crash struck at.
        point: CrashPoint,
    },
    /// A submitted operation is malformed (wrong arity, dead tuple, …). The
    /// transaction was rejected before any log or page mutation.
    InvalidOp {
        /// What was wrong with it.
        cause: String,
    },
    /// A checkpoint image failed validation (bad magic, page CRC, framing).
    Corrupt {
        /// Which store or image part failed.
        store: String,
        /// What failed.
        cause: String,
    },
    /// WAL replay diverged from the logged evidence — the recovered state
    /// would not be bit-identical to the pre-crash state, so recovery fails
    /// loudly instead of serving wrong answers.
    Replay {
        /// The transaction whose replay diverged.
        txn: u64,
        /// How it diverged.
        cause: String,
    },
    /// The WAL fsync kept failing after bounded retries with exponential
    /// backoff (see `pcube_storage::WalSyncError`). The unsynced tail is
    /// still pending — not lost, not durable — and a later
    /// [`DurableDb::sync`] may yet land it; affected commits stay
    /// acknowledged-but-volatile exactly like the group-commit window.
    WalSync {
        /// Fsync attempts made before giving up.
        attempts: u32,
        /// Total microseconds of backoff spent across the retries.
        backoff_us: u64,
    },
    /// Online repair could not rebuild the quarantined signatures — e.g.
    /// the damage blast radius could not be established because the
    /// signature *directory* is unreadable too. Repair heals derived data
    /// only; it never guesses. Nothing was logged or mutated.
    Repair {
        /// What stopped the rebuild.
        cause: String,
    },
    /// A persist-format error inside the checkpoint metadata.
    Persist(PersistError),
    /// A filesystem error (file mode only).
    Io {
        /// The path involved.
        path: String,
        /// The OS error.
        cause: String,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Crashed { point } => {
                write!(f, "simulated crash at {}", point.name())
            }
            DurabilityError::Poisoned { point } => {
                write!(f, "instance poisoned by an earlier crash at {}", point.name())
            }
            DurabilityError::InvalidOp { cause } => write!(f, "invalid operation: {cause}"),
            DurabilityError::Corrupt { store, cause } => {
                write!(f, "corrupt checkpoint ({store}): {cause}")
            }
            DurabilityError::Replay { txn, cause } => {
                write!(f, "replay diverged at txn {txn}: {cause}")
            }
            DurabilityError::WalSync { attempts, backoff_us } => write!(
                f,
                "wal fsync failed after {attempts} attempts ({backoff_us} us of backoff); tail still pending"
            ),
            DurabilityError::Repair { cause } => write!(f, "repair failed: {cause}"),
            DurabilityError::Persist(e) => write!(f, "{e}"),
            DurabilityError::Io { path, cause } => write!(f, "io error on {path}: {cause}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<PersistError> for DurabilityError {
    fn from(e: PersistError) -> Self {
        DurabilityError::Persist(e)
    }
}

// ---------------------------------------------------------------- epochs --

/// An immutable database snapshot published at one catalog epoch. Derefs to
/// [`PCubeDb`], so every query entry point (including the `par_*` engines)
/// works on it directly.
pub struct EpochSnapshot {
    epoch: u64,
    /// Shared with the writer's master until the writer's next mutation
    /// re-owns it — publishing costs one refcount bump, not a struct walk.
    db: Arc<PCubeDb>,
}

impl EpochSnapshot {
    /// The catalog epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen database.
    pub fn db(&self) -> &PCubeDb {
        &self.db
    }
}

impl Deref for EpochSnapshot {
    type Target = PCubeDb;

    fn deref(&self) -> &PCubeDb {
        &self.db
    }
}

/// A cloneable, `Send + Sync` handle reader threads use to pin epochs
/// without borrowing the [`DurableDb`] (so a writer holding `&mut` never
/// blocks them). [`EpochReader::snapshot`] is one `Arc` clone under a
/// momentary read lock; the returned snapshot stays valid — and bit-stable —
/// for as long as the caller holds it, across any number of concurrent
/// commits and checkpoints.
///
/// Durability of what a snapshot shows: with the default
/// [`DurabilityOptions::fsync_every`] of 1, a transaction is published only
/// *after* its commit record is fsynced, so snapshots never contain state a
/// crash could roll back. Under group commit (`fsync_every > 1`), commits
/// inside the unsynced window are published immediately — the same
/// acknowledged-but-volatile window their [`CommitReceipt::durable`] flag
/// reports — so a snapshot may briefly show transactions a crash would drop.
#[derive(Clone)]
pub struct EpochReader {
    current: Arc<RwLock<Arc<EpochSnapshot>>>,
}

impl EpochReader {
    /// Pins and returns the latest published snapshot.
    ///
    /// Poison-proof: the published pointer is only ever *replaced* (an `Arc`
    /// store that cannot unwind mid-swap), so a writer thread that panicked
    /// while holding the lock left a fully consistent snapshot behind.
    /// Readers take the inner value rather than wedging every future query
    /// on a crashed writer's poison flag.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.current.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }
}

// ------------------------------------------------------- checkpoint image --

/// The durable checkpoint: metadata (relation, registry, cuboids, tree
/// scalars — reusing the persist-v2 payload formats) plus one *frozen*
/// [`Pager`] per paged store (R-tree, signatures, directory). A frozen pager
/// is a copy-on-write clone of the master's: it shares every page the master
/// has not rewritten since the last checkpoint, keeps the CRC32 each page
/// had when it entered, carries no fault plan and no dirty set, and is never
/// read through a counted path. Installed atomically; serializable for the
/// file mode and the crash harness.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    pub(super) epoch: u64,
    /// Committed transactions whose effects the image contains — the replay
    /// cutoff: recovery re-executes only transactions beyond this.
    pub(super) txns: u64,
    pub(super) next_txn: u64,
    pub(super) next_lsn: Lsn,
    meta: Vec<u8>,
    pagers: [Pager; 3],
}

impl CheckpointImage {
    /// Full capture of a freshly built master (no fault plan, no read delay,
    /// dirty marks already cleared): three pager clones, checksummed once.
    pub(super) fn capture(master: &PCubeDb) -> Self {
        let pagers = STORE_KINDS.map(|kind| {
            let mut frozen = pager_of(master, kind).clone();
            debug_assert_eq!(frozen.dirty_len(), 0, "the capture covers every page");
            frozen.set_checksums(true);
            frozen
        });
        CheckpointImage {
            epoch: 1,
            txns: 0,
            next_txn: 1,
            next_lsn: 1,
            meta: meta_payload(master),
            pagers,
        }
    }

    /// The committed-transaction watermark (the replay cutoff).
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// The epoch the image was installed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Serializes the image (magic, watermarks, framed sections). Page
    /// checksums are the ones the frozen pagers hold.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CKPT_MAGIC);
        let mut head = Vec::new();
        put_u64(&mut head, self.epoch);
        put_u64(&mut head, self.txns);
        put_u64(&mut head, self.next_txn);
        put_u64(&mut head, self.next_lsn);
        // The sections below are CRC-framed; the watermarks need their own
        // checksum or a flipped bit silently skews the replay cutoff.
        let head_crc = crc32(&head);
        put_u32(&mut head, head_crc);
        out.extend_from_slice(&head);
        put_section(&mut out, TAG_META, &self.meta);
        let mut payload = Vec::new();
        for ((tag, _, _), pager) in PAGE_SECTIONS.iter().zip(&self.pagers) {
            payload.clear();
            pager.write_table(&mut payload);
            put_section(&mut out, *tag, &payload);
        }
        out
    }

    /// Parses an image serialized by [`CheckpointImage::to_bytes`],
    /// verifying the watermark checksum, every section's framing and
    /// checksum, and every live page against its stored CRC32.
    pub fn from_bytes(image: &[u8]) -> Result<CheckpointImage, DurabilityError> {
        if image.len() < CKPT_MAGIC.len() + CKPT_HEAD_LEN {
            return persist::fail("checkpoint-header", 0, "image shorter than the header").map_err(Into::into);
        }
        if &image[..8] != CKPT_MAGIC {
            return persist::fail("checkpoint-header", 0, "not a checkpoint image").map_err(Into::into);
        }
        let stored = {
            let mut raw = [0u8; 4];
            raw.copy_from_slice(&image[40..44]);
            u32::from_le_bytes(raw)
        };
        let actual = crc32(&image[8..40]);
        if actual != stored {
            return Err(DurabilityError::Corrupt {
                store: "checkpoint-header".to_string(),
                cause: format!(
                    "watermark checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            });
        }
        let word = |i: usize| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&image[8 + i * 8..16 + i * 8]);
            u64::from_le_bytes(raw)
        };
        let (epoch, txns, next_txn, next_lsn) = (word(0), word(1), word(2), word(3));
        if next_lsn == 0 || next_txn == 0 || txns >= next_txn {
            return Err(DurabilityError::Corrupt {
                store: "checkpoint-header".to_string(),
                cause: format!(
                    "implausible watermarks (txns {txns}, next_txn {next_txn}, next_lsn {next_lsn})"
                ),
            });
        }
        let mut pos = 8 + CKPT_HEAD_LEN;
        let mut r = open_section(image, &mut pos, TAG_META, "checkpoint-meta")?;
        let meta = r.remaining_bytes().to_vec();
        // The ledger of the database this image will be restored into: the
        // frozen pagers hold it but never charge it.
        let stats = IoStats::new_shared();
        let mut page_table = |(tag, name, category): (u8, &'static str, IoCategory)| {
            let mut r = open_section(image, &mut pos, tag, name)?;
            let pager = r.pager(Pager::read_table, category, stats.clone())?;
            r.finish()?;
            Ok::<Pager, PersistError>(pager)
        };
        let pagers = [
            page_table(PAGE_SECTIONS[0])?,
            page_table(PAGE_SECTIONS[1])?,
            page_table(PAGE_SECTIONS[2])?,
        ];
        if pos != image.len() {
            return persist::fail("checkpoint-image", pos, "trailing bytes after the image").map_err(Into::into);
        }
        Ok(CheckpointImage { epoch, txns, next_txn, next_lsn, meta, pagers })
    }

    /// Restores the image into a fresh, queryable master database whose
    /// pagers share every page with the image (checksums off, as a built
    /// database has them). Returns the database and the number of live pages
    /// — each verified against its CRC32 when the image was parsed.
    pub(super) fn restore(&self) -> Result<(PCubeDb, u64), DurabilityError> {
        let mut r = Reader::over(&self.meta, "checkpoint-meta");
        let relation = persist::read_relation_payload(&mut r)?;
        let cube = persist::read_cube_payload(&mut r)?;
        let rtree = persist::read_rtree_scalars(&mut r, relation.schema().n_pref())?;
        let store = persist::read_store_scalars(&mut r)?;
        let directory = persist::read_directory_scalars(&mut r)?;
        r.finish()?;
        let thaw = |frozen: &Pager| {
            let mut pager = frozen.clone();
            pager.set_checksums(false);
            pager
        };
        let [rtree_pages, sig_pages, dir_pages] = &self.pagers;
        let master = persist::assemble(
            relation,
            cube,
            (rtree, thaw(rtree_pages)),
            (store, thaw(sig_pages)),
            (directory, thaw(dir_pages)),
            rtree_pages.stats().clone(),
        )?;
        let pages_verified = self.pagers.iter().map(|p| p.live_pages() as u64).sum();
        Ok((master, pages_verified))
    }
}

/// Serializes the non-paged state of a master database: relation + cube
/// payloads (persist-v2 formats) followed by the tree scalars.
fn meta_payload(master: &PCubeDb) -> Vec<u8> {
    let mut meta = Vec::new();
    persist::write_relation_payload(&master.relation, &mut meta);
    persist::write_cube_payload(&master.pcube, &mut meta);
    persist::write_rtree_scalars(&master.rtree, &mut meta);
    let (_, directory, s_m_max, s_height) = master.pcube.store.parts_ref();
    put_u64(&mut meta, s_m_max as u64);
    put_u64(&mut meta, s_height as u64);
    persist::write_directory_scalars(directory, &mut meta);
    meta
}

// -------------------------------------------------------------- DurableDb --

const STORE_KINDS: [StoreKind; 3] = [StoreKind::Rtree, StoreKind::Signature, StoreKind::Directory];

fn kind_idx(kind: StoreKind) -> usize {
    match kind {
        StoreKind::Rtree => 0,
        StoreKind::Signature => 1,
        StoreKind::Directory => 2,
    }
}

fn pager_of(db: &PCubeDb, kind: StoreKind) -> &Pager {
    match kind {
        StoreKind::Rtree => db.rtree.pager(),
        StoreKind::Signature => db.pcube.store.parts_ref().0,
        StoreKind::Directory => db.pcube.store.parts_ref().1.pager(),
    }
}

/// Drains the three pagers' dirty sets, in [`STORE_KINDS`] order.
fn take_dirty(db: &mut PCubeDb) -> [Vec<PageId>; 3] {
    [
        db.rtree.pager_mut().take_dirty(),
        db.pcube.store.sig_pager_mut().take_dirty(),
        db.pcube.store.dir_pager_mut().take_dirty(),
    ]
}

/// A [`PCubeDb`] under durable, snapshot-isolated maintenance. See the
/// module docs for the protocol.
pub struct DurableDb {
    /// The live database, shared with the current [`EpochSnapshot`]:
    /// publishing an epoch is one `Arc` clone and a pointer swap, and the
    /// write path re-owns the top-level structs (pages stay copy-on-write
    /// below them) via `Arc::make_mut` on its first mutation afterwards.
    master: Arc<PCubeDb>,
    published: Arc<RwLock<Arc<EpochSnapshot>>>,
    wal: Wal,
    image: CheckpointImage,
    opts: DurabilityOptions,
    crash: Option<CrashPlan>,
    poisoned: Option<CrashPoint>,
    epoch: u64,
    next_txn: u64,
    /// Highest transaction applied to the master (all of them, since apply
    /// mutates in-memory state immediately).
    applied_txns: u64,
    /// Highest transaction whose `Commit` record has been fsynced.
    synced_txns: u64,
    commits_since_sync: u64,
    commits_since_checkpoint: u64,
    /// Pages dirtied since the last checkpoint, per store.
    ckpt_dirty: [BTreeSet<u32>; 3],
    /// File mode: the directory holding `checkpoint.pcube` + `wal.pcube`.
    dir: Option<PathBuf>,
    /// File mode: durable WAL bytes already appended to the log file.
    file_synced: usize,
    /// Epochs published so far (one per commit/batch).
    publishes: u64,
    /// Total wall time spent inside [`DurableDb::publish`], in nanoseconds.
    /// With copy-on-write snapshots this must stay flat as the database
    /// grows; `recovery_bench` gates on it.
    publish_ns: u64,
}

impl DurableDb {
    /// Builds a database over `relation` and captures its initial (full)
    /// checkpoint. The WAL starts empty; epoch 1 is published.
    pub fn create(relation: Relation, config: &PCubeConfig, opts: DurabilityOptions) -> Self {
        let mut master = PCubeDb::build(relation, config);
        // The build dirtied every page; the full capture below covers them.
        take_dirty(&mut master);
        let image = CheckpointImage::capture(&master);
        Self::open(master, image, Wal::new(), opts, 1, 1, 0, Default::default())
    }

    /// A live instance over `master` as of `applied_txns` (all of them
    /// durable), publishing `epoch`.
    #[allow(clippy::too_many_arguments)]
    fn open(
        master: PCubeDb,
        image: CheckpointImage,
        mut wal: Wal,
        opts: DurabilityOptions,
        epoch: u64,
        next_txn: u64,
        applied_txns: u64,
        ckpt_dirty: [BTreeSet<u32>; 3],
    ) -> Self {
        wal.attach_stats(master.stats.clone());
        let master = Arc::new(master);
        let snapshot = Arc::new(EpochSnapshot { epoch, db: Arc::clone(&master) });
        DurableDb {
            master,
            published: Arc::new(RwLock::new(snapshot)),
            wal,
            image,
            opts,
            crash: None,
            poisoned: None,
            epoch,
            next_txn,
            applied_txns,
            synced_txns: applied_txns,
            commits_since_sync: 0,
            commits_since_checkpoint: 0,
            ckpt_dirty,
            dir: None,
            file_synced: 0,
            publishes: 0,
            publish_ns: 0,
        }
    }

    /// [`DurableDb::create`] persisted at `dir` (two files:
    /// `checkpoint.pcube` and `wal.pcube`).
    pub fn create_at(
        dir: impl AsRef<Path>,
        relation: Relation,
        config: &PCubeConfig,
        opts: DurabilityOptions,
    ) -> Result<Self, DurabilityError> {
        let mut db = Self::create(relation, config, opts);
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        db.dir = Some(dir);
        db.persist_checkpoint_file()?;
        db.persist_wal_file_full()?;
        Ok(db)
    }

    /// Re-opens a durable database from its two files, replaying the WAL
    /// past the last checkpoint. A missing WAL file is treated as empty
    /// (clean shutdown right after a checkpoint).
    pub fn open_or_recover(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let dir = dir.as_ref().to_path_buf();
        let ckpt_path = dir.join("checkpoint.pcube");
        let checkpoint = std::fs::read(&ckpt_path).map_err(|e| io_err(&ckpt_path, e))?;
        let wal_path = dir.join("wal.pcube");
        let wal = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&wal_path, e)),
        };
        let state = DurableState { checkpoint, wal };
        let (mut db, report) = Self::open_or_recover_from_state(&state, opts)?;
        db.dir = Some(dir);
        if report.torn_tail_bytes > 0 || report.txns_dropped > 0 {
            // The on-disk log still ends in the debris recovery discarded
            // (a torn frame and/or an uncommitted suffix); rewrite it to the
            // surviving prefix so post-recovery appends don't land after
            // bytes the next replay would reject or mis-group.
            db.persist_wal_file_full()?;
        } else {
            db.file_synced = db.wal.durable_len();
        }
        Ok((db, report))
    }

    /// The in-memory recovery path: restore the checkpoint image (verifying
    /// every page CRC), replay the committed WAL suffix (verifying page
    /// witnesses and signature summaries against the re-execution), drop
    /// the torn tail and uncommitted transactions.
    pub fn open_or_recover_from_state(
        state: &DurableState,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let image = CheckpointImage::from_bytes(&state.checkpoint)?;
        let (mut master, pages_verified) = image.restore()?;

        let replay = Wal::replay(&state.wal);
        let records_scanned = replay.records.len() as u64;
        let max_lsn = replay.records.last().map_or(0, |(lsn, _)| *lsn);
        // The log the recovered instance writes to must end at the intact
        // prefix: re-appending after the torn/corrupt tail bytes that replay
        // just rejected would leave every later commit behind a bad frame,
        // and the *next* recovery (which stops at the first bad frame) would
        // silently drop all of them.
        let intact = (replay.scanned_bytes - replay.torn_tail_bytes) as usize;

        // Group records per transaction, preserving log order within each.
        let mut groups: BTreeMap<u64, Vec<&WalRecord>> = BTreeMap::new();
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        for (_, rec) in &replay.records {
            if let Some(txn) = rec.txn() {
                groups.entry(txn).or_default().push(rec);
                if matches!(rec, WalRecord::Commit { .. }) {
                    committed.insert(txn);
                }
            }
        }

        let mut records_replayed = 0u64;
        let mut txns_replayed = 0u64;
        let mut repaired: HashSet<(StoreKind, u32)> = HashSet::new();
        let mut expect_txn = image.txns;
        for (&txn, recs) in &groups {
            if txn <= image.txns || !committed.contains(&txn) {
                continue;
            }
            // Commits are WAL-ordered, so committed transactions beyond the
            // image watermark must form a gapless run.
            if txn != expect_txn + 1 {
                return Err(DurabilityError::Replay {
                    txn,
                    cause: format!("commit gap: expected txn {}", expect_txn + 1),
                });
            }
            expect_txn = txn;
            txns_replayed += 1;
            records_replayed += recs.len() as u64;
            replay_txn(&mut master, txn, recs, &mut repaired)?;
        }
        let txns_dropped = groups
            .keys()
            .filter(|&&t| t > image.txns && !committed.contains(&t))
            .count() as u64;
        // Records of dropped (uncommitted) transactions trail the log —
        // appends are serial — and must not survive into the re-opened WAL:
        // recovery reuses the dropped transaction id, so a later commit's
        // records would merge with the stale ones and the next replay would
        // diverge on the combined group.
        let drop_from: Option<Lsn> = replay
            .records
            .iter()
            .find(|(_, rec)| {
                rec.txn().is_some_and(|t| t > image.txns && !committed.contains(&t))
            })
            .map(|(lsn, _)| *lsn);

        // Everything the replay dirtied belongs to the next checkpoint.
        let ckpt_dirty =
            take_dirty(&mut master).map(|pids| pids.into_iter().map(|p| p.0).collect());

        let report = RecoveryReport {
            clean: txns_replayed == 0 && txns_dropped == 0 && replay.torn_tail_bytes == 0,
            checkpoint_epoch: image.epoch,
            checkpoint_txns: image.txns,
            wal_bytes: state.wal.len() as u64,
            records_scanned,
            records_replayed,
            txns_replayed,
            txns_dropped,
            torn_tail_bytes: replay.torn_tail_bytes,
            pages_repaired: repaired.len() as u64,
            pages_verified,
        };

        let mut wal = Wal::from_durable(
            state.wal[..intact].to_vec(),
            max_lsn.max(image.next_lsn.saturating_sub(1)) + 1,
        );
        if let Some(lsn) = drop_from {
            wal.truncate_durable_from(lsn);
        }
        let epoch = image.epoch + txns_replayed;
        let next_txn = image.next_txn.max(expect_txn + 1);
        let applied = image.txns + txns_replayed;
        Ok((Self::open(master, image, wal, opts, epoch, next_txn, applied, ckpt_dirty), report))
    }

    // ------------------------------------------------------------ reading --

    /// The live master (reflects every applied transaction immediately).
    pub fn db(&self) -> &PCubeDb {
        &self.master
    }

    /// A handle for reader threads: cloneable, `Send + Sync`, never blocked
    /// by the writer.
    pub fn reader(&self) -> EpochReader {
        EpochReader { current: self.published.clone() }
    }

    /// Pins the latest published snapshot. Poison-proof for the same reason
    /// as [`EpochReader::snapshot`]: the lock only ever guards a pointer
    /// swap, so the pointee is consistent even after a writer panic.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.published.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Transactions applied to the master so far.
    pub fn applied_txns(&self) -> u64 {
        self.applied_txns
    }

    /// Highest transaction whose commit record is fsynced.
    pub fn durable_txns(&self) -> u64 {
        self.synced_txns
    }

    /// Live (not deleted) tuple count.
    pub fn live_tuples(&self) -> usize {
        self.master.relation.live_len()
    }

    /// WAL activity counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Durable WAL bytes right now.
    pub fn wal_len(&self) -> usize {
        self.wal.durable_len()
    }

    /// The boundary a simulated crash struck, if the instance is dead.
    pub fn poisoned(&self) -> Option<CrashPoint> {
        self.poisoned
    }

    /// Everything a crash would preserve at this instant. Callable on a
    /// poisoned instance — this is exactly what the crash harness recovers
    /// from.
    pub fn durable_state(&self) -> DurableState {
        DurableState {
            checkpoint: self.image.to_bytes(),
            wal: self.wal.durable_bytes().to_vec(),
        }
    }

    // ---------------------------------------------------- crash injection --

    /// Installs a deterministic crash schedule (see [`CrashPlan`]).
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// Removes the crash plan, returning it with its event counter.
    pub fn take_crash_plan(&mut self) -> Option<CrashPlan> {
        self.crash.take()
    }

    /// Durability events observed by the installed plan so far.
    pub fn crash_events_seen(&self) -> u64 {
        self.crash.as_ref().map_or(0, |p| p.events_seen())
    }

    /// Installs a runtime fault plan on the WAL (transient fsync failures;
    /// see `FaultPlan::with_fsync_failures`). Retries and their backoff are
    /// recorded on the shared I/O ledger as `wal_retries`/`wal_backoff_us`.
    pub fn set_wal_fault_plan(&mut self, plan: pcube_storage::FaultPlan) {
        self.wal.set_fault_plan(plan);
    }

    /// Removes the WAL fault plan, returning it with its counters.
    pub fn take_wal_fault_plan(&mut self) -> Option<pcube_storage::FaultPlan> {
        self.wal.take_fault_plan()
    }

    /// Mutable access to the master's signature store — the chaos hook the
    /// scrub suite uses to seed bit rot (`corrupt_page`) against the live
    /// store. Damage injected here deliberately bypasses the WAL, exactly
    /// like real media decay: no redo record describes it, no dirty bit is
    /// set, and only scrub + repair can find and heal it.
    pub fn signature_store_mut(&mut self) -> &mut SignatureStore {
        self.master_mut().pcube.store_mut()
    }

    /// Runs an online scrub pass over the master's signature store (see
    /// [`crate::scrub::scrub`]). Takes `&self`: scrubbing is a read-side
    /// walk and coexists with pinned epoch readers.
    pub fn scrub(&self, budget: &crate::query::QueryBudget) -> crate::scrub::ScrubReport {
        self.master.scrub(budget)
    }

    /// `(epochs published, total nanoseconds spent publishing)`. With
    /// copy-on-write snapshots the per-publish cost is size-independent;
    /// `recovery_bench` divides these to gate on exactly that.
    pub fn publish_stats(&self) -> (u64, u64) {
        (self.publishes, self.publish_ns)
    }

    // ------------------------------------------------------------ writing --

    /// Applies one transaction of maintenance operations: validate, log
    /// (redo records + witnesses + commit), mutate the master, publish a
    /// new epoch, sync per policy, auto-checkpoint per policy.
    pub fn apply(&mut self, ops: &[MaintenanceOp]) -> Result<CommitReceipt, DurabilityError> {
        self.ensure_alive()?;
        let (txn, lsn) = self.apply_unsynced(ops)?;

        // 5. Group commit — *before* publish, so when this commit syncs
        //    (always, under the default `fsync_every: 1`) readers can never
        //    observe a transaction whose commit record is still volatile: a
        //    crash mid-fsync poisons the instance here, the epoch is never
        //    published, and recovery dropping the torn commit agrees with
        //    everything any reader ever saw.
        let mut durable = false;
        if self.opts.fsync_every <= 1 || self.commits_since_sync >= self.opts.fsync_every {
            self.sync_internal()?;
            durable = true;
        }

        // 6. Publish the new epoch (readers switch; pinned snapshots live on).
        self.publish();

        // 7. Auto checkpoint.
        if self.should_auto_checkpoint() {
            self.checkpoint()?;
        }

        Ok(CommitReceipt { txn, epoch: self.epoch, durable, lsn })
    }

    /// Applies a whole batch of transactions with **one** fsync and **one**
    /// epoch publish for all of them — the group-commit core. Each
    /// transaction is validated, logged and applied independently (a
    /// malformed one is rejected with [`DurabilityError::InvalidOp`] without
    /// disturbing its neighbours); then the batch syncs and publishes once.
    ///
    /// Durability is prefix-closed by construction: WAL appends are serial
    /// and the batch shares a single fsync, so whatever prefix of commit
    /// records a crash preserves is exactly the set recovery replays.
    ///
    /// Failure semantics per slot: a terminal [`DurabilityError::WalSync`]
    /// leaves every applied transaction acknowledged-but-volatile
    /// ([`CommitReceipt::durable`] is `false`; the tail stays pending); an
    /// injected crash poisons the instance and every applied-but-unsynced
    /// slot reports the crash instead of a receipt. Auto-checkpointing is
    /// the caller's job (see [`DurableDb::should_auto_checkpoint`]).
    pub fn apply_batch(
        &mut self,
        batch: &[Vec<MaintenanceOp>],
    ) -> Vec<Result<CommitReceipt, DurabilityError>> {
        let mut applied: Vec<Result<(u64, Lsn), DurabilityError>> = Vec::with_capacity(batch.len());
        for ops in batch {
            let slot = self.ensure_alive().and_then(|()| self.apply_unsynced(ops));
            applied.push(slot);
        }

        let mut durable = false;
        let mut batch_err: Option<DurabilityError> = None;
        if self.poisoned.is_none() {
            match self.sync_internal() {
                Ok(()) => durable = true,
                // Terminal fsync failure: the tail (and every commit record
                // in it) is pending, not lost — receipts stay volatile.
                Err(DurabilityError::WalSync { .. }) => {}
                Err(e) => batch_err = Some(e),
            }
            if self.poisoned.is_none() && applied.iter().any(Result::is_ok) {
                self.publish();
            }
        }

        applied
            .into_iter()
            .map(|slot| match slot {
                Ok((txn, lsn)) => match &batch_err {
                    // The batch's sync crashed: whether this commit record
                    // survived is for recovery to decide; report the crash.
                    Some(e) => Err(e.clone()),
                    None => Ok(CommitReceipt { txn, epoch: self.epoch, durable, lsn }),
                },
                Err(e) => Err(e),
            })
            .collect()
    }

    /// `true` when the auto-checkpoint policy is due (callers of
    /// [`DurableDb::apply_batch`] checkpoint between batches, never inside
    /// one).
    pub fn should_auto_checkpoint(&self) -> bool {
        self.opts.checkpoint_every > 0
            && self.commits_since_checkpoint >= self.opts.checkpoint_every
    }

    /// Steps 1–4 of the commit protocol: validate, append redo records,
    /// mutate the master (logging signature summaries), witness dirtied
    /// pages, seal with `Commit`. No fsync, no publish — the caller decides
    /// how many transactions share those.
    fn apply_unsynced(&mut self, ops: &[MaintenanceOp]) -> Result<(u64, Lsn), DurabilityError> {
        if ops.is_empty() {
            return Err(DurabilityError::InvalidOp { cause: "empty transaction".to_string() });
        }
        self.validate(ops)?;
        let txn = self.next_txn;

        // 1. Redo records — appended before any page mutation.
        let base = self.master.relation.len() as u64;
        let mut inserts = 0u64;
        for op in ops {
            let rec = match op {
                MaintenanceOp::Insert { codes, coords } => {
                    let tid = base + inserts;
                    inserts += 1;
                    WalRecord::TreeSplit {
                        txn,
                        op: TreeOp::Insert,
                        tid,
                        codes: codes.clone(),
                        coords: coords.clone(),
                    }
                }
                MaintenanceOp::Delete { tid } => WalRecord::TreeSplit {
                    txn,
                    op: TreeOp::Delete,
                    tid: *tid,
                    codes: Vec::new(),
                    coords: self.master.relation.pref_coords(*tid),
                },
            };
            self.wal_append(rec)?;
        }

        // 2. Mutate the master; log the per-cell signature summaries.
        for op in ops {
            let touches = match op {
                MaintenanceOp::Insert { codes, coords } => {
                    self.master_mut().insert_coded_tracked(codes, coords).1
                }
                MaintenanceOp::Delete { tid } => {
                    // `validate` checked liveness upfront and the master is
                    // single-writer, so a miss here means the master already
                    // diverged from the redo records in the WAL tail — state
                    // no recoverable error can repair. Returning would keep
                    // accepting transactions on a master the log no longer
                    // describes; dying loudly is the only honest option.
                    self.master_mut().delete_tracked(*tid).unwrap_or_else(|| {
                        panic!(
                            "invariant violated: tuple {tid} vanished mid-transaction \
                             with its redo record already logged"
                        )
                    })
                }
            };
            for t in touches {
                self.wal_append(WalRecord::SigUpdate {
                    txn,
                    cell: t.cell,
                    sets: t.sets,
                    clears: t.clears,
                })?;
            }
        }

        // 3–4. Witness the dirtied pages, seal and account.
        Ok((txn, self.seal(txn)?))
    }

    /// Ends transaction `txn`: one physical `PageWrite` witness per page it
    /// dirtied, the `Commit` record (whose LSN is returned), and the
    /// counters.
    pub(super) fn seal(&mut self, txn: u64) -> Result<Lsn, DurabilityError> {
        self.append_witnesses(txn)?;
        let lsn = self.wal_append(WalRecord::Commit { txn })?;
        self.next_txn += 1;
        self.applied_txns = txn;
        self.commits_since_sync += 1;
        self.commits_since_checkpoint += 1;
        Ok(lsn)
    }

    /// Single-insert convenience: one transaction, one row.
    pub fn insert(
        &mut self,
        codes: &[u32],
        coords: &[f64],
    ) -> Result<(u64, CommitReceipt), DurabilityError> {
        let tid = self.master.relation.len() as u64;
        let receipt = self.apply(&[MaintenanceOp::Insert {
            codes: codes.to_vec(),
            coords: coords.to_vec(),
        }])?;
        Ok((tid, receipt))
    }

    /// Single-delete convenience: one transaction, one tombstone.
    pub fn delete(&mut self, tid: u64) -> Result<CommitReceipt, DurabilityError> {
        self.apply(&[MaintenanceOp::Delete { tid }])
    }

    /// Fsyncs any pending WAL tail (flushes the group-commit window).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.ensure_alive()?;
        self.sync_internal()
    }

    /// Incremental checkpoint: re-point the image's slots for the pages
    /// dirtied since the last checkpoint at the master's current versions
    /// (staged, then installed atomically), log + fsync a `Checkpoint`
    /// record, and — once the image file has landed, in file mode — truncate
    /// the WAL prefix the image now covers.
    pub fn checkpoint(&mut self) -> Result<CheckpointOutcome, DurabilityError> {
        self.ensure_alive()?;
        self.drain_dirty();

        // Stage: every page dirtied since the last checkpoint is one
        // PageFlush crash point. A crash here leaves the image untouched.
        let pages_flushed: u64 = self.ckpt_dirty.iter().map(|set| set.len() as u64).sum();
        for _ in 0..pages_flushed {
            self.observe(CrashPoint::PageFlush)?;
        }

        // Install atomically (modeled as a rename-over swap): the image
        // shares the master's current version of each dirty page, or drops a
        // freed one. Only dirty slots move — a page that rotted in memory
        // without being written keeps the clean version the image holds.
        self.observe(CrashPoint::CheckpointInstall)?;
        let txns = self.applied_txns;
        let epoch = self.epoch;
        let stores = STORE_KINDS.into_iter().zip(&mut self.image.pagers).zip(&mut self.ckpt_dirty);
        for ((kind, frozen), dirty) in stores {
            let pids = std::mem::take(dirty).into_iter().map(PageId);
            frozen.share_slots(pager_of(&self.master, kind), pids);
        }
        self.image.meta = meta_payload(&self.master);
        self.image.epoch = epoch;
        self.image.txns = txns;
        self.image.next_txn = self.next_txn;

        // Log the checkpoint and make it durable.
        let lsn = self.wal_append(WalRecord::Checkpoint { epoch, txns })?;
        self.image.next_lsn = lsn + 1;
        self.sync_internal()?;

        // Truncate the covered prefix (the Checkpoint record itself stays
        // as a harmless marker) — in memory and then on disk, and only after
        // the image file landed: when that write fails the previous image
        // still has its whole log beside it, and later commits append to it.
        self.observe(CrashPoint::CheckpointTruncate)?;
        self.persist_checkpoint_file()?;
        let reclaimed = self.wal.truncate_durable_before(lsn) as u64;
        self.commits_since_checkpoint = 0;
        self.persist_wal_file_full()?;
        Ok(CheckpointOutcome { epoch, txns, pages_flushed, wal_bytes_reclaimed: reclaimed })
    }

    /// Online repair: rebuilds every quarantined signature page from the
    /// base table, routed through the WAL so the heal is crash-safe at
    /// every boundary.
    ///
    /// Signatures are *derived* data — §VII keeps answers exact without
    /// them — so a quarantined page never holds the only copy of anything.
    /// Repair exploits that: it maps the quarantined pages back to the
    /// cells whose partials live there (a directory range scan that never
    /// reads the damaged bytes), then per cell logs a logical
    /// [`WalRecord::SigRebuild`] redo record and re-derives the signature
    /// from the live R-tree paths. `write_signature` frees the old pages
    /// *unread* (auto-clearing their quarantine entries) and allocates
    /// fresh ones, the rebuilt pages get the usual `PageWrite` CRC
    /// witnesses, and the whole batch seals with one `Commit`, one fsync,
    /// and one epoch publish.
    ///
    /// Crash safety: a crash before the commit record is durable leaves
    /// recovery replaying from the last checkpoint — whose pages are the
    /// clean pre-corruption copies, since in-memory corruption never marks
    /// a page dirty — so the store comes back in its pre-repair (or
    /// equivalently, never-corrupted) state. A crash after the commit
    /// record replays the `SigRebuild` records, re-deriving the identical
    /// rebuild deterministically. Either way no reader ever observes a
    /// torn heal: the epoch publish is the single visibility point.
    pub fn repair(&mut self) -> Result<RepairOutcome, DurabilityError> {
        self.ensure_alive()?;
        let store = &self.master.pcube.store;
        let (sig_pager, ..) = store.parts_ref();
        let quarantined: HashSet<u32> =
            sig_pager.quarantine_entries().iter().map(|(pid, _)| pid.0).collect();
        if quarantined.is_empty() {
            return Ok(RepairOutcome {
                cells_rebuilt: 0,
                pages_healed: 0,
                txn: None,
                epoch: self.epoch,
            });
        }
        // Establish the blast radius without touching the damaged bytes:
        // the directory records which cells keep partials on each page. If
        // the *directory itself* is unreadable, repair refuses — it heals
        // derived data, it never guesses. Nothing has been logged yet.
        let cells = store
            .cells_on_pages(&quarantined)
            .map_err(|e| DurabilityError::Repair { cause: e.to_string() })?;
        let healed_base = self.master.stats().snapshot().pages_repaired();

        // Tuple paths come from the R-tree (live rows only), one walk
        // shared by every rebuilt cell.
        let paths = collect_paths(&self.master);
        let m_max = self.master.rtree.m_max();
        let txn = self.next_txn;
        let mut cells_rebuilt = 0u64;
        for &cell in &cells {
            self.observe(CrashPoint::RepairCell)?;
            self.wal_append(WalRecord::SigRebuild { txn, cell })?;
            let sig = rebuild_cell_signature(&self.master, &paths, cell)
                .unwrap_or_else(|| Signature::empty(m_max));
            self.master_mut().pcube.store_mut().write_signature(cell, &sig);
            cells_rebuilt += 1;
        }
        self.seal(txn)?;

        // Repair is always synced before it becomes visible: a volatile
        // heal that a crash could un-heal would defeat the point.
        self.sync_internal()?;
        self.observe(CrashPoint::RepairInstall)?;
        self.publish();

        // Entries for pages no cell referenced (orphans — e.g. a freed
        // page corrupted before reuse) can only be cleared, not freed:
        // freeing outside a logged transaction would shift the free list
        // under future PageWrite witnesses. Clearing the registry entry is
        // safe — it is not durable state.
        let sig_pager = self.master.pcube.store.parts_ref().0;
        for pid in &quarantined {
            sig_pager.clear_quarantine(PageId(*pid));
        }
        let pages_healed = self.master.stats().snapshot().pages_repaired() - healed_base;
        Ok(RepairOutcome { cells_rebuilt, pages_healed, txn: Some(txn), epoch: self.epoch })
    }

    // ----------------------------------------------------------- internals --

    fn ensure_alive(&self) -> Result<(), DurabilityError> {
        match self.poisoned {
            Some(point) => Err(DurabilityError::Poisoned { point }),
            None => Ok(()),
        }
    }

    /// Crash check at a durability boundary; poisons the instance when the
    /// plan fires.
    fn observe(&mut self, point: CrashPoint) -> Result<(), DurabilityError> {
        if let Some(plan) = &mut self.crash {
            if plan.observe(point) {
                self.poisoned = Some(point);
                return Err(DurabilityError::Crashed { point });
            }
        }
        Ok(())
    }

    pub(super) fn wal_append(&mut self, rec: WalRecord) -> Result<Lsn, DurabilityError> {
        self.observe(CrashPoint::WalAppend)?;
        Ok(self.wal.append(&rec))
    }

    pub(super) fn sync_internal(&mut self) -> Result<(), DurabilityError> {
        if let Some(plan) = &mut self.crash {
            if plan.observe(CrashPoint::WalSync) {
                // A crash mid-fsync: a prefix of the tail lands, the rest is
                // lost, and the durable log likely ends in a torn frame.
                let keep = plan.torn_len(self.wal.pending_bytes());
                self.wal.sync_torn(keep);
                self.poisoned = Some(CrashPoint::WalSync);
                return Err(DurabilityError::Crashed { point: CrashPoint::WalSync });
            }
        }
        self.wal.sync().map_err(|e| DurabilityError::WalSync {
            attempts: e.attempts,
            backoff_us: e.backoff_us,
        })?;
        if self.opts.fsync_delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.opts.fsync_delay_us));
        }
        self.commits_since_sync = 0;
        self.synced_txns = self.applied_txns;
        self.persist_wal_file_append()
    }

    /// Re-owns the master for mutation. The first call after a publish
    /// clones the top-level structs (the epoch snapshot holds the old ones);
    /// pages, column chunks, and metadata below them stay shared until
    /// individually dirtied.
    fn master_mut(&mut self) -> &mut PCubeDb {
        Arc::make_mut(&mut self.master)
    }

    fn publish(&mut self) {
        let start = std::time::Instant::now();
        self.epoch += 1;
        // Stamp the epoch onto the quarantine registries so entries created
        // from here on record which epoch first observed the failure.
        for kind in STORE_KINDS {
            pager_of(&self.master, kind).set_quarantine_epoch(self.epoch);
        }
        let snapshot = Arc::new(EpochSnapshot { epoch: self.epoch, db: Arc::clone(&self.master) });
        let previous = {
            let mut slot = self.published.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *slot, snapshot)
        };
        self.publishes += 1;
        self.publish_ns += start.elapsed().as_nanos() as u64;
        // Reclaiming the previous epoch walks the page-table refcounts it no
        // longer shares with the master — O(pages/GROUP_PAGES), not O(1) —
        // and lands on whichever thread drops the last pin (a lagging reader,
        // not us, if one still holds it). Keep it off the visibility metric
        // and, more importantly, outside the epoch lock.
        drop(previous);
    }

    /// Drains the pagers' dirty sets into the per-checkpoint accumulator.
    fn drain_dirty(&mut self) {
        let drained = take_dirty(self.master_mut());
        for (set, pids) in self.ckpt_dirty.iter_mut().zip(drained) {
            set.extend(pids.into_iter().map(|p| p.0));
        }
    }

    /// Logs one `PageWrite` CRC witness per page the transaction dirtied
    /// (live pages only; freed pages have no contents to witness), and
    /// feeds the same pages to the checkpoint accumulator.
    fn append_witnesses(&mut self, txn: u64) -> Result<(), DurabilityError> {
        let dirty = take_dirty(self.master_mut());
        for (kind, pids) in STORE_KINDS.into_iter().zip(dirty) {
            for pid in pids {
                self.ckpt_dirty[kind_idx(kind)].insert(pid.0);
                if let Some(crc) = pager_of(&self.master, kind).page_bytes(pid).map(crc32) {
                    self.wal_append(WalRecord::PageWrite { txn, store: kind, pid: pid.0, crc })?;
                }
            }
        }
        Ok(())
    }

    /// Rejects a malformed batch before anything is logged or mutated.
    fn validate(&self, ops: &[MaintenanceOp]) -> Result<(), DurabilityError> {
        let n_bool = self.master.relation.schema().n_bool();
        let n_pref = self.master.relation.schema().n_pref();
        let base = self.master.relation.len() as u64;
        let mut inserts = 0u64;
        let mut deleted: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                MaintenanceOp::Insert { codes, coords } => {
                    if codes.len() != n_bool {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("insert has {} codes, schema has {n_bool}", codes.len()),
                        });
                    }
                    if coords.len() != n_pref {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!(
                                "insert has {} coords, schema has {n_pref}",
                                coords.len()
                            ),
                        });
                    }
                    if coords.iter().any(|x| !x.is_finite()) {
                        return Err(DurabilityError::InvalidOp {
                            cause: "non-finite preference coordinate".to_string(),
                        });
                    }
                    inserts += 1;
                }
                MaintenanceOp::Delete { tid } => {
                    if *tid >= base + inserts {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("delete of unknown tuple {tid}"),
                        });
                    }
                    if *tid >= base {
                        // Same-batch insert+delete would make the redo
                        // record's coordinates unresolvable; split the batch.
                        return Err(DurabilityError::InvalidOp {
                            cause: format!(
                                "tuple {tid} is inserted in this same transaction; delete it in a later one"
                            ),
                        });
                    }
                    if !self.master.relation.is_live(*tid) || !deleted.insert(*tid) {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("delete of dead tuple {tid}"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- file mode --

    pub(super) fn persist_checkpoint_file(&self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let tmp = dir.join("checkpoint.pcube.tmp");
        let dst = dir.join("checkpoint.pcube");
        std::fs::write(&tmp, self.image.to_bytes()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        Ok(())
    }

    pub(super) fn persist_wal_file_full(&mut self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let path = dir.join("wal.pcube");
        std::fs::write(&path, self.wal.durable_bytes()).map_err(|e| io_err(&path, e))?;
        self.file_synced = self.wal.durable_len();
        Ok(())
    }

    fn persist_wal_file_append(&mut self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let durable = self.wal.durable_bytes();
        if self.file_synced > durable.len() {
            // Truncation shrank the log; rewrite.
            return self.persist_wal_file_full();
        }
        let path = dir.join("wal.pcube");
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.write_all(&durable[self.file_synced..]).map_err(|e| io_err(&path, e))?;
        f.sync_all().map_err(|e| io_err(&path, e))?;
        self.file_synced = durable.len();
        Ok(())
    }
}

// ------------------------------------------------------------ commit queue --

/// Batching and backpressure policy of a [`CommitQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitQueuePolicy {
    /// Most transactions one fsync batch may carry (≥ 1).
    pub max_batch: usize,
    /// Bounded queue depth (≥ 1): submissions beyond this many waiting
    /// transactions block ([`CommitQueue::submit`]) or fail typed
    /// ([`CommitQueue::try_submit`]) — never grow the queue unboundedly.
    pub max_queue: usize,
    /// After the first transaction of a batch arrives, how long the log
    /// writer lingers for the batch to fill before syncing what it has.
    /// Zero drains greedily (batching still emerges under load).
    pub max_wait: Duration,
}

impl Default for CommitQueuePolicy {
    fn default() -> Self {
        CommitQueuePolicy { max_batch: 32, max_queue: 128, max_wait: Duration::ZERO }
    }
}

/// Aggregate group-commit counters, kept on the queue's ledger and snapshot
/// via [`CommitQueue::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches the log writer drained.
    pub batches: u64,
    /// Transactions committed (receipt delivered).
    pub commits: u64,
    /// Batches whose single fsync landed.
    pub syncs: u64,
    /// Batches whose fsync kept failing after bounded retries — their
    /// commits were acknowledged volatile and the tail retried later.
    pub sync_failures: u64,
    /// Largest batch a single fsync covered.
    pub max_batch: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u64,
    /// Submitters that had to block on a full queue.
    pub backpressure_waits: u64,
    /// Transactions rejected with a typed error (validation, crash, …).
    pub rejected: u64,
}

impl GroupCommitStats {
    /// Committed transactions per successful fsync — the amortization group
    /// commit exists for (1.0 means no batching happened).
    pub fn fsync_amortization(&self) -> f64 {
        if self.syncs == 0 {
            0.0
        } else {
            self.commits as f64 / self.syncs as f64
        }
    }
}

/// Why a submission did not come back with a [`CommitReceipt`].
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// The queue is at [`CommitQueuePolicy::max_queue`] and the caller asked
    /// not to wait ([`CommitQueue::try_submit`]).
    Backpressure {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The caller's deadline expired. If it expired *after* the transaction
    /// was enqueued, the transaction may still commit — the receipt is lost,
    /// not the write (ordinary lost-ack semantics).
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The queue has shut down (or its writer died); nothing was enqueued.
    Closed,
    /// The log writer rejected or failed the transaction itself.
    Rejected(DurabilityError),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Backpressure { depth } => {
                write!(f, "commit queue full ({depth} transactions waiting)")
            }
            CommitError::Timeout { waited } => {
                write!(f, "commit timed out after {waited:?}")
            }
            CommitError::Closed => write!(f, "commit queue is closed"),
            CommitError::Rejected(e) => write!(f, "transaction rejected: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

enum SlotState {
    Waiting,
    Done(Result<CommitReceipt, CommitError>),
}

/// One submission's receipt slot: the submitter parks on `cv` until the log
/// writer fills `state`.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot { state: Mutex::new(SlotState::Waiting), cv: Condvar::new() }
    }

    fn fill(&self, result: Result<CommitReceipt, CommitError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = SlotState::Done(result);
        self.cv.notify_all();
    }
}

struct QueueInner {
    queue: VecDeque<(Vec<MaintenanceOp>, Arc<Slot>)>,
    closed: bool,
    stats: GroupCommitStats,
}

struct QueueShared {
    inner: Mutex<QueueInner>,
    /// Signaled when the queue gains work or closes (log writer waits here).
    work: Condvar,
    /// Signaled when the queue drains below capacity (submitters wait here).
    space: Condvar,
}

impl QueueShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        // Poison-proof: queue state is only mutated under short, non-panicking
        // critical sections; taking the inner value keeps submitters alive if
        // the writer thread dies mid-batch elsewhere.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Multi-producer group commit over a [`DurableDb`]: any number of client
/// threads [`CommitQueue::submit`] transactions, one dedicated log writer
/// drains them in bounded batches, appends and applies each, then spends
/// **one** fsync and **one** epoch publish on the whole batch
/// ([`DurableDb::apply_batch`]). The queue is bounded: beyond
/// [`CommitQueuePolicy::max_queue`] waiting transactions, submitters block
/// (with optional deadline) or get [`CommitError::Backpressure`] — typed
/// errors, never a panic, never an unbounded queue.
///
/// Durability remains prefix-closed across crashes: appends are serial in
/// submission order and each batch shares a single fsync, so the set of
/// transactions recovery replays is always a prefix of the acknowledged
/// order (`tests/group_commit.rs` drives this property through every batch
/// boundary and torn-fsync cut).
pub struct CommitQueue {
    shared: Arc<QueueShared>,
    policy: CommitQueuePolicy,
    reader: EpochReader,
    writer: Option<std::thread::JoinHandle<DurableDb>>,
}

impl CommitQueue {
    /// Takes ownership of `db` and starts the dedicated log-writer thread.
    ///
    /// # Panics
    /// Panics if `policy.max_batch` or `policy.max_queue` is zero.
    pub fn start(db: DurableDb, policy: CommitQueuePolicy) -> CommitQueue {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.max_queue >= 1, "max_queue must be at least 1");
        let reader = db.reader();
        let shared = Arc::new(QueueShared {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                closed: false,
                stats: GroupCommitStats::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let writer_shared = shared.clone();
        let writer = std::thread::Builder::new()
            .name("pcube-group-commit".to_string())
            .spawn(move || writer_loop(db, writer_shared, policy))
            .expect("spawning the group-commit writer thread failed");
        CommitQueue { shared, policy, reader, writer: Some(writer) }
    }

    /// A snapshot-isolation handle: readers pin epochs published by the log
    /// writer without ever blocking on the queue.
    pub fn reader(&self) -> EpochReader {
        self.reader.clone()
    }

    /// Submits one transaction and blocks — through backpressure if the
    /// queue is full — until the log writer delivers its receipt.
    pub fn submit(&self, ops: Vec<MaintenanceOp>) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, None, true)
    }

    /// [`CommitQueue::submit`] with a deadline covering both the
    /// backpressure wait and the receipt wait.
    pub fn submit_timeout(
        &self,
        ops: Vec<MaintenanceOp>,
        timeout: Duration,
    ) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, Some(Instant::now() + timeout), true)
    }

    /// Non-blocking admission: fails fast with [`CommitError::Backpressure`]
    /// when the queue is full (the receipt wait, after admission, still
    /// blocks — the writer always delivers).
    pub fn try_submit(&self, ops: Vec<MaintenanceOp>) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, None, false)
    }

    /// Current group-commit counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.shared.lock().stats
    }

    /// Closes the queue, drains what was already admitted, joins the log
    /// writer and hands the database back.
    ///
    /// # Panics
    /// Panics if the log-writer thread itself panicked (a bug, not an
    /// injected fault — every injected fault surfaces as a typed error).
    pub fn shutdown(mut self) -> DurableDb {
        self.close();
        let writer = self.writer.take().expect("shutdown on a queue already shut down");
        writer.join().expect("group-commit writer panicked")
    }

    fn close(&self) {
        let mut inner = self.shared.lock();
        inner.closed = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    fn enqueue(
        &self,
        ops: Vec<MaintenanceOp>,
        deadline: Option<Instant>,
        block: bool,
    ) -> Result<CommitReceipt, CommitError> {
        let slot = Arc::new(Slot::new());
        let start = Instant::now();
        {
            let mut inner = self.shared.lock();
            if inner.closed {
                return Err(CommitError::Closed);
            }
            let max_queue = self.policy.max_queue;
            if inner.queue.len() >= max_queue {
                if !block {
                    return Err(CommitError::Backpressure { depth: inner.queue.len() });
                }
                inner.stats.backpressure_waits += 1;
                while inner.queue.len() >= max_queue && !inner.closed {
                    match deadline {
                        None => {
                            inner = self
                                .shared
                                .space
                                .wait(inner)
                                .unwrap_or_else(|e| e.into_inner());
                        }
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                return Err(CommitError::Timeout { waited: start.elapsed() });
                            }
                            inner = self
                                .shared
                                .space
                                .wait_timeout(inner, d - now)
                                .unwrap_or_else(|e| e.into_inner())
                                .0;
                        }
                    }
                }
                if inner.closed {
                    return Err(CommitError::Closed);
                }
            }
            inner.queue.push_back((ops, slot.clone()));
            let depth = inner.queue.len() as u64;
            inner.stats.max_queue_depth = inner.stats.max_queue_depth.max(depth);
            self.shared.work.notify_one();
        }

        // Park until the log writer fills the receipt slot.
        let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let SlotState::Done(result) = &*state {
                return result.clone();
            }
            match deadline {
                None => {
                    state = slot.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Enqueued but unacked: the writer may still commit
                        // it — a lost ack, not a lost write.
                        return Err(CommitError::Timeout { waited: start.elapsed() });
                    }
                    state = slot
                        .cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

}

impl Drop for CommitQueue {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.close();
            let _ = writer.join();
        }
    }
}

/// The dedicated log-writer loop: wait for work, linger up to
/// `policy.max_wait` for the batch to fill, drain at most
/// `policy.max_batch`, apply the batch with one fsync + one publish, fill
/// the receipt slots, then handle between-batch policy work (checkpoints,
/// poison shutdown).
fn writer_loop(
    mut db: DurableDb,
    shared: Arc<QueueShared>,
    policy: CommitQueuePolicy,
) -> DurableDb {
    loop {
        let batch: Vec<(Vec<MaintenanceOp>, Arc<Slot>)> = {
            let mut inner = shared.lock();
            loop {
                if !inner.queue.is_empty() {
                    break;
                }
                if inner.closed {
                    return db;
                }
                inner = shared.work.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
            if policy.max_wait > Duration::ZERO {
                let fill_deadline = Instant::now() + policy.max_wait;
                while inner.queue.len() < policy.max_batch && !inner.closed {
                    let now = Instant::now();
                    if now >= fill_deadline {
                        break;
                    }
                    let (guard, timed_out) = shared
                        .work
                        .wait_timeout(inner, fill_deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                    if timed_out.timed_out() {
                        break;
                    }
                }
            }
            let n = inner.queue.len().min(policy.max_batch);
            let batch: Vec<_> = inner.queue.drain(..n).collect();
            inner.stats.batches += 1;
            inner.stats.max_batch = inner.stats.max_batch.max(n as u64);
            batch
        };
        shared.space.notify_all();

        let txns: Vec<Vec<MaintenanceOp>> = batch.iter().map(|(ops, _)| ops.clone()).collect();
        let results = db.apply_batch(&txns);

        {
            let mut inner = shared.lock();
            let committed = results.iter().filter(|r| r.is_ok()).count() as u64;
            let durable = results
                .iter()
                .any(|r| matches!(r, Ok(receipt) if receipt.durable));
            inner.stats.commits += committed;
            inner.stats.rejected += results.len() as u64 - committed;
            if durable {
                inner.stats.syncs += 1;
            } else if committed > 0 {
                inner.stats.sync_failures += 1;
            }
        }

        for ((_, slot), result) in batch.into_iter().zip(results) {
            slot.fill(result.map_err(CommitError::Rejected));
        }

        if db.poisoned().is_some() {
            // The simulated crash killed the instance: fail everything still
            // queued, close, and let shutdown() hand the corpse back for the
            // harness to recover from.
            let mut inner = shared.lock();
            inner.closed = true;
            for (_, slot) in inner.queue.drain(..) {
                slot.fill(Err(CommitError::Closed));
            }
            shared.space.notify_all();
        } else if db.should_auto_checkpoint() {
            if let Err(e) = db.checkpoint() {
                // A WalSync failure leaves the tail pending for the next
                // batch's fsync; a crash is caught by the poison check above
                // on the next iteration. Either way: typed, never a panic.
                debug_assert!(
                    matches!(
                        e,
                        DurabilityError::WalSync { .. } | DurabilityError::Crashed { .. }
                    ),
                    "unexpected checkpoint failure: {e}"
                );
            }
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io { path: path.display().to_string(), cause: e.to_string() }
}

/// One R-tree walk collecting every live tuple's path — the shared input
/// to per-cell signature rebuilds. Tombstoned rows are absent from the
/// tree, so they are naturally excluded.
pub(super) fn collect_paths(master: &PCubeDb) -> HashMap<u64, TreePath> {
    let mut paths = HashMap::new();
    master.rtree.for_each_tuple(|tid, path, _| {
        paths.insert(tid, path.clone());
    });
    paths
}

/// Re-derives one cell's signature from the base table: scan the relation
/// for rows matching the cell's boolean selection, keep the live ones (the
/// R-tree walk skipped tombstones), and regenerate the signature from
/// their tree paths — exactly the §IV-B generation procedure, so a rebuild
/// is bit-identical to a never-corrupted original. `None` when the cell is
/// not registered or no live row matches (the caller writes an empty
/// signature, which deletes the cell's partials).
pub(super) fn rebuild_cell_signature(
    master: &PCubeDb,
    paths: &HashMap<u64, TreePath>,
    cell: u32,
) -> Option<Signature> {
    let key: &CellKey = master.pcube.registry().key(cell)?;
    let dims = key.mask.dims();
    let mut matched: Vec<&TreePath> = Vec::new();
    for tid in 0..master.relation.len() as u64 {
        let Some(path) = paths.get(&tid) else { continue };
        if dims
            .iter()
            .zip(&key.values)
            .all(|(&d, &v)| master.relation.bool_code(tid, d) == v)
        {
            matched.push(path);
        }
    }
    if matched.is_empty() {
        return None;
    }
    Some(Signature::from_paths(master.rtree.m_max(), matched))
}

/// Re-executes one committed transaction and verifies it against the logged
/// evidence: re-derived tuple ids must match the redo records, re-derived
/// signature summaries must match the `SigUpdate` records, and every
/// `PageWrite` witness CRC must match the replayed page bytes.
fn replay_txn(
    master: &mut PCubeDb,
    txn: u64,
    recs: &[&WalRecord],
    repaired: &mut HashSet<(StoreKind, u32)>,
) -> Result<(), DurabilityError> {
    let diverged = |cause: String| DurabilityError::Replay { txn, cause };
    let mut logged_sigs: Vec<(u32, u32, u32)> = Vec::new();
    let mut replayed_sigs: Vec<(u32, u32, u32)> = Vec::new();
    // Lazily built on the first `SigRebuild` record: one R-tree walk shared
    // by every rebuilt cell in the transaction, same as live repair.
    let mut rebuild_paths: Option<HashMap<u64, TreePath>> = None;
    for rec in recs {
        match rec {
            WalRecord::TreeSplit { op, tid, codes, coords, .. } => match op {
                TreeOp::Insert => {
                    let (got, touches) = master.insert_coded_tracked(codes, coords);
                    if got != *tid {
                        return Err(diverged(format!(
                            "re-executed insert produced tid {got}, log says {tid}"
                        )));
                    }
                    replayed_sigs
                        .extend(touches.iter().map(|t| (t.cell, t.sets, t.clears)));
                }
                TreeOp::Delete => {
                    let touches = master
                        .delete_tracked(*tid)
                        .ok_or_else(|| diverged(format!("re-executed delete of {tid} found no tuple")))?;
                    replayed_sigs
                        .extend(touches.iter().map(|t| (t.cell, t.sets, t.clears)));
                }
            },
            WalRecord::SigUpdate { cell, sets, clears, .. } => {
                logged_sigs.push((*cell, *sets, *clears));
            }
            WalRecord::PageWrite { store, pid, crc, .. } => {
                let actual = pager_of(master, *store).page_bytes(PageId(*pid)).map(crc32);
                if actual != Some(*crc) {
                    return Err(diverged(format!(
                        "page witness mismatch on {} page {pid}: log says {crc:#010x}, replay has {}",
                        store.name(),
                        actual.map_or("a dead page".to_string(), |a| format!("{a:#010x}")),
                    )));
                }
                repaired.insert((*store, *pid));
            }
            WalRecord::SigRebuild { cell, .. } => {
                // A logical redo record of online repair: re-derive the
                // cell's signature from the replayed base table. The
                // rebuild is deterministic, so the `PageWrite` witnesses
                // that follow in the same transaction verify it
                // byte-for-byte.
                if rebuild_paths.is_none() {
                    rebuild_paths = Some(collect_paths(master));
                }
                let paths = rebuild_paths.as_ref().expect("just populated");
                let m_max = master.rtree.m_max();
                let sig = rebuild_cell_signature(master, paths, *cell)
                    .unwrap_or_else(|| Signature::empty(m_max));
                master.pcube.store_mut().write_signature(*cell, &sig);
            }
            WalRecord::Commit { .. } | WalRecord::Checkpoint { .. } => {}
        }
    }
    if logged_sigs != replayed_sigs {
        return Err(diverged(format!(
            "signature summary mismatch: log has {} cell updates, replay produced {}",
            logged_sigs.len(),
            replayed_sigs.len()
        )));
    }
    Ok(())
}

// The maintenance writer publishes epochs while reader threads hold
// EpochReader handles; both sides cross thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EpochReader>();
    assert_send_sync::<EpochSnapshot>();
    assert_send_sync::<DurableDb>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SkylineClass;
    use pcube_cube::Schema;

    pub(super) fn seed_relation(n: usize) -> Relation {
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X", "Y"]));
        let vals_a = ["a1", "a2", "a3"];
        let vals_b = ["b1", "b2"];
        for i in 0..n {
            let x = (i as f64 * 0.377).fract();
            let y = (i as f64 * 0.611 + 0.13).fract();
            r.push(&[vals_a[i % 3], vals_b[i % 2]], &[x, y]);
        }
        r
    }

    pub(super) fn skyline_tids(db: &PCubeDb) -> Vec<u64> {
        let out = db.run(&Vec::new(), &SkylineClass::new(vec![0, 1]));
        let mut tids: Vec<u64> = out.rows.iter().map(|(t, _)| *t).collect();
        tids.sort_unstable();
        tids
    }

    pub(super) fn some_ops(db: &DurableDb, round: u64) -> Vec<MaintenanceOp> {
        let mut ops = Vec::new();
        for j in 0..3u64 {
            let i = round * 3 + j;
            ops.push(MaintenanceOp::Insert {
                codes: vec![(i % 3) as u32, (i % 2) as u32],
                coords: vec![(i as f64 * 0.271).fract(), (i as f64 * 0.413).fract()],
            });
        }
        // Delete an old live tuple deterministically.
        let victim = db.master.relation.live_bool_column(0).map(|(tid, _)| tid).next();
        if let Some(tid) = victim {
            ops.push(MaintenanceOp::Delete { tid });
        }
        ops
    }

    #[test]
    fn recovery_replays_committed_suffix() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        for round in 0..5 {
            let ops = some_ops(&db, round);
            let receipt = db.apply(&ops).expect("apply");
            assert!(receipt.durable);
        }
        assert_eq!(db.applied_txns(), 5);

        let state = db.durable_state();
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .expect("recover");
        assert!(!report.clean);
        assert_eq!(report.txns_replayed, 5);
        assert_eq!(report.txns_dropped, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert!(report.pages_repaired > 0);
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
        assert_eq!(recovered.live_tuples(), db.live_tuples());
        assert_eq!(recovered.applied_txns(), 5);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers_clean() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        for round in 0..4 {
            let ops = some_ops(&db, round);
            db.apply(&ops).expect("apply");
        }
        let before = db.wal_len();
        let outcome = db.checkpoint().expect("checkpoint");
        assert!(outcome.pages_flushed > 0);
        assert!(outcome.wal_bytes_reclaimed > 0);
        assert!(db.wal_len() < before);
        assert_eq!(outcome.txns, 4);

        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert!(report.clean, "post-checkpoint open should be clean: {report}");
        assert_eq!(report.checkpoint_txns, 4);
        assert!(report.pages_verified > 0);
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
    }

    #[test]
    fn unsynced_commits_are_dropped_on_recovery() {
        let opts = DurabilityOptions { fsync_every: 10, ..DurabilityOptions::default() };
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), opts);
        let r1 = db.apply(&some_ops(&db, 0)).expect("apply");
        assert!(!r1.durable);
        db.sync().expect("sync");
        let r2 = db.apply(&some_ops(&db, 1)).expect("apply");
        assert!(!r2.durable, "second txn sits in the unsynced window");

        // Crash now: txn 2 never reached the durable log.
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(recovered.applied_txns(), 1);
        assert!(recovered.durable_txns() == 1);
    }

    #[test]
    fn crash_plan_kills_and_poisons() {
        let mut db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.set_crash_plan(CrashPlan::at_event(0));
        let err = db.apply(&some_ops(&db, 1)).expect_err("must crash");
        assert!(matches!(err, DurabilityError::Crashed { point: CrashPoint::WalAppend }));
        assert_eq!(db.poisoned(), Some(CrashPoint::WalAppend));
        let err = db.apply(&some_ops(&db, 1)).expect_err("poisoned");
        assert!(matches!(err, DurabilityError::Poisoned { .. }));
        // The durable state is still recoverable and contains only txn 1.
        let (_, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(report.txns_replayed, 1);
    }

    #[test]
    fn epoch_snapshots_are_immutable() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        let reader = db.reader();
        let pinned = reader.snapshot();
        let before = skyline_tids(pinned.db());
        let epoch_before = pinned.epoch();

        for round in 0..3 {
            db.apply(&some_ops(&db, round)).expect("apply");
        }
        db.checkpoint().expect("checkpoint");

        // The pinned snapshot still answers identically.
        assert_eq!(skyline_tids(pinned.db()), before);
        assert_eq!(pinned.epoch(), epoch_before);
        // A fresh snapshot sees the new epoch and the new data.
        let fresh = reader.snapshot();
        assert!(fresh.epoch() > epoch_before);
        assert_eq!(skyline_tids(fresh.db()), skyline_tids(db.db()));
    }

    #[test]
    fn apply_batch_spends_one_sync_and_one_publish_on_the_whole_batch() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        let epoch_before = db.epoch();
        let syncs_before = db.wal_stats().syncs;
        let (publishes_before, _) = db.publish_stats();

        // Insert-only transactions: batches are validated against the state
        // their predecessors in the same batch produce, so precomputed
        // deletes of one victim would collide.
        let insert_txn = |k: u64| {
            vec![MaintenanceOp::Insert {
                codes: vec![(k % 3) as u32, (k % 2) as u32],
                coords: vec![(k as f64 * 0.137).fract(), (k as f64 * 0.291).fract()],
            }]
        };
        let batch: Vec<Vec<MaintenanceOp>> = (0..6).map(insert_txn).collect();
        let results = db.apply_batch(&batch);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let receipt = r.as_ref().unwrap_or_else(|e| panic!("txn {i} failed: {e}"));
            assert!(receipt.durable, "batch sync must cover txn {i}");
            assert_eq!(receipt.txn, i as u64 + 1, "dense submission-order txn ids");
            assert_eq!(receipt.epoch, epoch_before + 1, "one shared epoch per batch");
        }
        assert_eq!(db.wal_stats().syncs, syncs_before + 1, "one fsync for six txns");
        assert_eq!(db.publish_stats().0, publishes_before + 1, "one publish for six txns");

        // A malformed transaction mid-batch is rejected alone.
        let mixed = vec![
            insert_txn(10),
            vec![MaintenanceOp::Delete { tid: 9999 }],
            insert_txn(11),
        ];
        let results = db.apply_batch(&mixed);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DurabilityError::InvalidOp { .. })));
        assert!(results[2].is_ok(), "a bad neighbour must not poison the batch");

        // Everything acknowledged durable survives recovery.
        let (recovered, _) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
        assert_eq!(recovered.applied_txns(), 8);
    }

    #[test]
    fn terminal_fsync_failure_is_typed_and_the_tail_lands_later() {
        use pcube_storage::FaultPlan;
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), DurabilityOptions::default());
        db.set_wal_fault_plan(FaultPlan::seeded(7).with_fsync_failures(1.0));
        let err = db.apply(&some_ops(&db, 0)).expect_err("fsync must exhaust its retries");
        assert!(
            matches!(err, DurabilityError::WalSync { attempts, .. } if attempts > 1),
            "unexpected error: {err}"
        );
        assert!(db.poisoned().is_none(), "a failed fsync is not a crash");
        // Retries and backoff were accounted on the shared ledger.
        assert!(db.db().stats.wal_retries() > 0);
        assert!(db.db().stats.wal_backoff_us() > 0);

        // The tail is pending, not lost: heal the fault and sync again.
        db.take_wal_fault_plan();
        db.sync().expect("healed sync");
        assert_eq!(db.durable_txns(), 1);
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(recovered.applied_txns(), 1);
    }

    #[test]
    fn commit_queue_batches_submissions_from_many_threads() {
        let db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        let queue = CommitQueue::start(
            db,
            CommitQueuePolicy { max_batch: 8, max_queue: 16, max_wait: Duration::from_millis(2) },
        );
        let reader = queue.reader();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let queue = &queue;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let k = t * 8 + i;
                        let receipt = queue
                            .submit(vec![MaintenanceOp::Insert {
                                codes: vec![(k % 3) as u32, (k % 2) as u32],
                                coords: vec![
                                    (k as f64 * 0.137).fract(),
                                    (k as f64 * 0.291).fract(),
                                ],
                            }])
                            .expect("submit");
                        assert!(receipt.durable);
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.commits, 32);
        assert_eq!(stats.rejected, 0);
        assert!(stats.batches <= 32);
        let epoch_seen = reader.epoch();
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 32);
        assert_eq!(db.durable_txns(), 32);
        assert!(epoch_seen <= db.epoch());
        assert_eq!(db.live_tuples(), 64 + 32);
    }

    #[test]
    fn commit_queue_backpressure_is_typed_never_a_panic() {
        // A writer throttled by a 200µs-per-fsync device, a queue of depth 1:
        // try_submit from a second thread while the queue is busy must see
        // Backpressure, and a zero-deadline submit must see Timeout.
        let opts = DurabilityOptions { fsync_delay_us: 200, ..DurabilityOptions::default() };
        let db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), opts);
        let queue = CommitQueue::start(
            db,
            CommitQueuePolicy { max_batch: 1, max_queue: 1, max_wait: Duration::ZERO },
        );
        let insert = |k: u64| {
            vec![MaintenanceOp::Insert {
                codes: vec![(k % 3) as u32, (k % 2) as u32],
                coords: vec![(k as f64 * 0.137).fract(), (k as f64 * 0.291).fract()],
            }]
        };
        let mut backpressured = 0u64;
        let mut timed_out = 0u64;
        std::thread::scope(|scope| {
            let queue = &queue;
            let flood = scope.spawn(move || {
                for k in 0..32 {
                    queue.submit(insert(k)).expect("flood submit");
                }
            });
            for k in 100..200 {
                match queue.try_submit(insert(k)) {
                    Ok(_) => {}
                    Err(CommitError::Backpressure { .. }) => backpressured += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
                match queue.submit_timeout(insert(1000 + k), Duration::ZERO) {
                    Ok(_) => {}
                    Err(CommitError::Timeout { .. }) => timed_out += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            flood.join().expect("flood thread");
        });
        assert!(backpressured > 0, "depth-1 queue under flood must push back");
        assert!(timed_out > 0, "zero deadline must time out under flood");
        let stats = queue.stats();
        assert!(stats.max_queue_depth <= 1);
        let db = queue.shutdown();
        assert!(db.poisoned().is_none());
        // Closed-queue submissions are typed too.
    }

    #[test]
    fn commit_queue_rejects_after_shutdown_and_drains_admitted_work() {
        let db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        let queue = CommitQueue::start(db, CommitQueuePolicy::default());
        let receipt = queue
            .submit(vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.5, 0.5] }])
            .expect("submit");
        assert!(receipt.durable);
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 1);

        let queue = CommitQueue::start(db, CommitQueuePolicy::default());
        queue.close();
        let err = queue
            .submit(vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.1, 0.1] }])
            .expect_err("closed queue");
        assert!(matches!(err, CommitError::Closed));
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 1);
    }

    #[test]
    fn epoch_publish_shares_clean_state_with_the_master() {
        // The COW pillar end-to-end: consecutive snapshots of a database
        // share untouched pages/chunks instead of deep-copying them. Needs
        // more than one 4096-row column chunk so a frozen chunk exists to
        // share; the appends below only re-own the partial tail chunk.
        let mut db = DurableDb::create(seed_relation(5000), &PCubeConfig::default(), DurabilityOptions::default());
        let reader = db.reader();
        let before = reader.snapshot();
        db.apply(&some_ops(&db, 0)).expect("apply");
        let after = reader.snapshot();
        let shared = after
            .db()
            .rtree
            .pager()
            .pages_shared_with(before.db().rtree.pager());
        assert!(
            shared > 0,
            "consecutive epochs must share clean R-tree pages (got {shared})"
        );
        assert!(after.db().relation.chunks_shared_with(&before.db().relation) > 0);
    }

    #[test]
    fn malformed_batches_are_rejected_upfront() {
        let mut db = DurableDb::create(seed_relation(16), &PCubeConfig::default(), DurabilityOptions::default());
        let wal_before = db.wal_stats().appends;
        let bad = [
            vec![],
            vec![MaintenanceOp::Insert { codes: vec![0], coords: vec![0.1, 0.2] }],
            vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.1] }],
            vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![f64::NAN, 0.2] }],
            vec![MaintenanceOp::Delete { tid: 999 }],
            vec![MaintenanceOp::Delete { tid: 3 }, MaintenanceOp::Delete { tid: 3 }],
        ];
        for ops in bad {
            let err = db.apply(&ops).expect_err("must reject");
            assert!(matches!(err, DurabilityError::InvalidOp { .. }), "{err}");
        }
        assert_eq!(db.wal_stats().appends, wal_before, "rejected batches must not log");
        assert_eq!(db.applied_txns(), 0);
    }

    #[test]
    fn file_mode_round_trips() {
        let dir = std::env::temp_dir().join(format!("pcube-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = DurableDb::create_at(
            &dir,
            seed_relation(48),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        )
        .expect("create_at");
        for round in 0..3 {
            db.apply(&some_ops(&db, round)).expect("apply");
        }
        let want = skyline_tids(db.db());
        drop(db);

        let (recovered, report) =
            DurableDb::open_or_recover(&dir, DurabilityOptions::default()).expect("open");
        assert_eq!(report.txns_replayed, 3);
        assert_eq!(skyline_tids(recovered.db()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_header_watermark_is_detected() {
        let mut db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.checkpoint().expect("checkpoint");
        let clean = db.durable_state();
        // Flip a bit in each watermark word (epoch, txns, next_txn,
        // next_lsn): the header CRC must catch all of them — a skewed txns
        // watermark silently skips replay, a zeroed next_lsn underflows.
        for byte in [8usize, 16, 24, 32] {
            let mut state = clean.clone();
            state.checkpoint[byte] ^= 0xFF;
            let err = match DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default()) {
                Ok(_) => panic!("must detect header corruption"),
                Err(e) => e,
            };
            assert!(
                matches!(err, DurabilityError::Corrupt { ref store, .. } if store == "checkpoint-header"),
                "byte {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn recovered_wal_drops_torn_tail_so_later_commits_survive() {
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.apply(&some_ops(&db, 1)).expect("apply");

        // A torn fsync left half a frame at the durable tail.
        let mut state = db.durable_state();
        state.wal.extend_from_slice(&[0xEE; 11]);
        let (mut recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .expect("recover");
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(recovered.applied_txns(), 2);

        // A commit acked durable after recovery must survive the next crash:
        // the re-opened log may not still carry the rejected tail, or replay
        // would stop at it and drop everything after.
        let receipt = recovered
            .apply(&[MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.3, 0.7] }])
            .expect("post-recovery apply");
        assert!(receipt.durable);
        let (second, report2) =
            DurableDb::open_or_recover_from_state(&recovered.durable_state(), DurabilityOptions::default())
                .expect("second recovery");
        assert_eq!(report2.torn_tail_bytes, 0, "recovered WAL still carries the torn tail");
        assert_eq!(second.applied_txns(), 3, "acked-durable txn lost behind the torn tail");
        assert_eq!(skyline_tids(second.db()), skyline_tids(recovered.db()));
    }

    #[test]
    fn rot_that_was_never_written_never_reaches_the_image() {
        // Only pages dirtied since the last checkpoint move into the image,
        // so a page that decays in memory (no write, no dirty bit) keeps the
        // clean version the image already holds. A checkpoint that took the
        // master's page table wholesale would pass every other suite.
        //
        // The commits after the rot insert values no row had in either
        // boolean dimension, too few to split an R-tree node: they write new
        // cells' pages and R-tree and directory pages, and never read a
        // rotted signature page. The R-tree rot is the node's reserved byte,
        // which nothing decodes.
        let run = |rot: bool| {
            let mut db = DurableDb::create(
                seed_relation(2000),
                &PCubeConfig::default(),
                DurabilityOptions::default(),
            );
            db.apply(&some_ops(&db, 0)).expect("apply");
            db.checkpoint().expect("checkpoint");
            let before: Vec<Vec<u8>> = {
                let pager = db.master.rtree.pager();
                pager.live_page_ids().iter().map(|&p| pager.read_uncounted(p).to_vec()).collect()
            };
            let fresh = |k: u32| MaintenanceOp::Insert {
                codes: vec![10 + k, 20 + k],
                coords: vec![0.2 + f64::from(k) * 0.3, 0.8 - f64::from(k) * 0.3],
            };
            let commits = [vec![fresh(0), fresh(1)], vec![fresh(0)], vec![fresh(2), fresh(1)]];
            let mut rotted = Vec::new();
            if rot {
                // An R-tree page the commits below leave alone.
                let mut twin = DurableDb::open_or_recover_from_state(
                    &db.durable_state(),
                    DurabilityOptions::default(),
                )
                .expect("twin")
                .0;
                for ops in &commits {
                    twin.apply(ops).expect("apply");
                }
                let twin_pager = twin.master.rtree.pager();
                let untouched = twin_pager
                    .live_page_ids()
                    .into_iter()
                    .zip(&before)
                    .find(|(pid, bytes)| twin_pager.read_uncounted(*pid) == &bytes[..])
                    .map(|(pid, _)| pid)
                    .expect("some R-tree page is not on the insert path");
                let master = db.master_mut();
                master.rtree.pager_mut().corrupt_page(untouched, 1, 0xFF).expect("live page");
                rotted.push((StoreKind::Rtree, untouched));
                let sig_pager = master.pcube.store.sig_pager_mut();
                for pid in sig_pager.live_page_ids() {
                    sig_pager.corrupt_page(pid, 7 + pid.index(), 0x5A).expect("live page");
                    rotted.push((StoreKind::Signature, pid));
                }
            }
            for ops in &commits {
                db.apply(ops).expect("apply");
            }
            let outcome = db.checkpoint().expect("checkpoint");
            assert!(outcome.pages_flushed > 0);
            (db, rotted)
        };
        let pages = |db: &PCubeDb| -> Vec<(StoreKind, PageId, Vec<u8>)> {
            STORE_KINDS
                .into_iter()
                .flat_map(|kind| {
                    let pager = pager_of(db, kind);
                    pager
                        .live_page_ids()
                        .into_iter()
                        .map(move |pid| (kind, pid, pager.read_uncounted(pid).to_vec()))
                })
                .collect()
        };

        let (twin, _) = run(false);
        let (subject, rotted) = run(true);
        assert!(rotted.len() > 3, "every signature page and one R-tree page rotted");
        for &(kind, pid) in &rotted {
            assert_ne!(
                pager_of(&subject.master, kind).page_bytes(pid),
                pager_of(&twin.master, kind).page_bytes(pid),
                "{} page {pid} of the live master carries the rot",
                kind.name()
            );
        }
        let (recovered, report) = DurableDb::open_or_recover_from_state(
            &subject.durable_state(),
            DurabilityOptions::default(),
        )
        .expect("recover");
        assert!(report.clean, "{report}");
        assert!(pages(recovered.db()) == pages(twin.db()), "the image saw the in-memory rot");
        assert!(!pager_of(recovered.db(), StoreKind::Signature).checksums_enabled());
    }

    #[test]
    fn corrupt_checkpoint_page_is_detected() {
        let mut db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.checkpoint().expect("checkpoint");
        let mut state = db.durable_state();
        // Flip a byte deep inside the image body (past the header/meta).
        let mid = state.checkpoint.len() / 2;
        state.checkpoint[mid] ^= 0xFF;
        let err = match DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        {
            Ok(_) => panic!("must detect corruption"),
            Err(e) => e,
        };
        match err {
            DurabilityError::Corrupt { .. } | DurabilityError::Persist(_) => {}
            other => panic!("unexpected error: {other}"),
        }
    }
}
