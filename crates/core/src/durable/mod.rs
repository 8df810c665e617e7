//! Durable concurrent maintenance: WAL, incremental checkpoints, crash
//! recovery, and epoch-based snapshot isolation.
//!
//! [`DurableDb`] wraps a mutable *master* [`PCubeDb`] with the classic
//! ARIES-shaped discipline, scaled to this workspace's simulated storage
//! (see `DESIGN.md` §10):
//!
//! 1. **Log first.** Every maintenance transaction appends its typed,
//!    CRC32-framed redo records *before* mutating any page — one `TreeSplit`
//!    per operation, or one `SigRebuild` per cell online repair regenerates
//!    — then runs them through the one apply function recovery replays
//!    them with. The evidence derived from that mutation follows: a per-cell
//!    signature summary (`SigUpdate`), a physical CRC witness per dirtied
//!    page (`PageWrite`), and finally `Commit`. Fsyncs batch across commits
//!    ([`DurabilityOptions::fsync_every`]).
//! 2. **Checkpoint incrementally.** The pagers track dirty pages; the
//!    [`CheckpointImage`] is three frozen copy-on-write pagers, and a
//!    checkpoint re-points only the dirty slots at the master's current page
//!    versions (staged, then installed atomically — no page byte is copied),
//!    logs a `Checkpoint` record, and truncates the WAL prefix it covers
//!    once the image file has landed.
//! 3. **Recover by replay.** [`DurableDb::open_or_recover`] restores the
//!    last checkpoint image (verifying every page CRC), re-executes the
//!    committed WAL suffix through that same apply function, verifies each
//!    transaction's page witnesses and signature summaries against the
//!    replay, drops the torn tail and any uncommitted transaction, and
//!    reports it all in a typed
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

use std::collections::BTreeSet;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use pcube_cube::Relation;
use pcube_storage::{
    CrashPlan, CrashPoint, Lsn, PageId, Pager, StoreKind, Wal, WalRecord, WalStats,
};

use crate::pcube::{PCubeConfig, PCubeDb};
use crate::persist::{replace_file, PersistError};
pub use crate::persist::CheckpointImage;
use crate::store::SignatureStore;

mod commit;
mod image;
mod queue;
mod recover;
mod repair;

pub use queue::{CommitError, CommitQueue, CommitQueuePolicy, GroupCommitStats};

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
    /// The checkpoint image failed validation (magic, watermarks, framing,
    /// a section or page CRC, the metadata): what its one decoder reports.
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

/// [`replace_file`] as the durable layer reports it.
fn replace_durable_file(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    replace_file(path, bytes).map_err(|(failed, e)| io_err(&failed, e))
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
}

fn io_err(path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io { path: path.display().to_string(), cause: e.to_string() }
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
}
