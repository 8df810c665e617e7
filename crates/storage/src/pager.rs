//! The simulated disk: a pager of fixed-size pages with counted I/O,
//! optional per-page checksums, and deterministic fault injection.

use crate::crc::crc32;
use crate::error::{ImageError, PageOp, StorageError};
use crate::fault::{FaultCounts, FaultPlan, WriteEffect};
use crate::page::PageId;
use crate::stats::{Counter, IoCategory, SharedStats};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Pages per copy-on-write group. Cloning a pager shares the whole page
/// table (one `Arc` bump); the first mutation after a clone re-owns the
/// group spine and then only the touched groups, so the per-commit
/// copy-on-write cost is `O(dirty pages + n_pages / GROUP_PAGES)` pointer
/// copies instead of a deep copy of every page byte.
const GROUP_PAGES: usize = 64;
const GROUP_SHIFT: usize = 6;
const GROUP_MASK: usize = GROUP_PAGES - 1;

/// A fixed-size run of page slots sharing one `Arc`: the unit of
/// copy-on-write between epoch snapshots. `sums` mirrors `Pager::verify`
/// checksums slot-for-slot (zero when checksums are off).
#[derive(Debug, Clone)]
struct PageGroup {
    slots: [Option<Arc<[u8]>>; GROUP_PAGES],
    sums: [u32; GROUP_PAGES],
}

impl PageGroup {
    fn empty() -> Self {
        PageGroup { slots: std::array::from_fn(|_| None), sums: [0; GROUP_PAGES] }
    }
}

/// Re-owns `slot`'s bytes if they are shared with another pager (an epoch
/// snapshot) and returns exclusive access: the copy-on-write fault-in.
fn page_mut(slot: &mut Arc<[u8]>) -> &mut [u8] {
    if Arc::get_mut(slot).is_none() {
        let owned: Arc<[u8]> = Arc::from(&slot[..]);
        *slot = owned;
    }
    Arc::get_mut(slot).expect("invariant: page Arc was just made unique")
}

/// An installed fault plan plus an atomic mirror of whether it can fail
/// reads. `try_read` consults only the flag on the hot path, so a plan that
/// injects no read faults (alloc budgets, write corruption) leaves the
/// concurrent read path entirely lock-free.
#[derive(Debug)]
struct FaultCell {
    arms_reads: AtomicBool,
    plan: Mutex<FaultPlan>,
}

impl FaultCell {
    fn new(plan: FaultPlan) -> Self {
        FaultCell { arms_reads: AtomicBool::new(plan.arms_reads()), plan: Mutex::new(plan) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        // Poison recovery: the plan is a self-contained RNG + counters; a
        // panic mid-roll cannot leave it inconsistent, so keep serving it.
        self.plan.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One quarantined page: the memoized deterministic failure that every
/// later probe is answered with, without re-issuing the doomed read.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The typed error the first failed read surfaced.
    pub error: StorageError,
    /// The owner's catalog epoch when the page was quarantined (`0` for
    /// non-durable databases, which have no epochs).
    pub epoch: u64,
}

/// The page quarantine: a registry of pages whose reads failed
/// *deterministically* (CRC mismatch, malformed contents). Shared across
/// copy-on-write clones of a pager — the registry describes the shared page
/// table, and a heal observed through any handle serves them all.
///
/// `try_read` consults only the atomic `armed` flag on the hot path, so an
/// empty quarantine (the overwhelmingly common case) costs one relaxed load
/// and the concurrent read path stays lock-free.
#[derive(Debug, Default)]
struct Quarantine {
    armed: AtomicBool,
    /// Stamped onto new entries; durable owners bump it at each publish.
    epoch: AtomicU64,
    /// Each entry also records the address of the `Arc` page version it
    /// condemned. The registry is shared across copy-on-write clones, but
    /// page contents are not: a handle whose slot re-owned its copy (so the
    /// corruption is not in *its* bytes) must not be served another handle's
    /// memoized failure. The read path honors an entry only while the slot
    /// still holds the exact page version that failed.
    entries: Mutex<BTreeMap<u32, (QuarantineEntry, usize)>>,
}

impl Quarantine {
    /// Poison recovery: the map is only ever inserted into / removed from —
    /// a panicking thread cannot leave an entry half-written.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u32, (QuarantineEntry, usize)>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An in-memory "disk" of fixed-size pages.
///
/// Each pager is dedicated to one storage structure (an R-tree, a B+-tree, a
/// signature file, a heap file) and charges its accesses to a single
/// [`IoCategory`] on a shared [`crate::IoStats`] ledger. This mirrors how the
/// paper attributes disk accesses per structure (Fig 9: `DBlock`, `SBlock`,
/// `SSig`, `DBool`).
///
/// Reads and writes are counted; allocation alone is not (allocating a page
/// without writing it performs no disk access on a real system either).
///
/// # Fallible and infallible APIs
///
/// Every operation has a `try_*` form returning [`StorageError`] and an
/// `#[inline]` infallible wrapper that panics with the same diagnostic. Query
/// and recovery paths use the `try_*` forms; build paths, which own their
/// pages and cannot race, keep the terse wrappers.
///
/// # Checksums and fault injection
///
/// [`Pager::set_checksums`] maintains a CRC32 per live page, verified by the
/// fallible read path; [`Pager::set_fault_plan`] installs a deterministic
/// [`FaultPlan`] injecting read/write errors, torn writes, bit flips and
/// allocation exhaustion. Both are off by default and cost one predictable
/// branch per operation when disabled.
#[derive(Debug)]
pub struct Pager {
    page_size: usize,
    /// Two-level copy-on-write page table: an `Arc` spine of `Arc` groups of
    /// [`GROUP_PAGES`] slots each. Clones share the spine; mutations re-own
    /// the spine once and then only the touched groups ([`page_mut`]), so an
    /// epoch snapshot costs `O(1)` at publish time and `O(dirty)` at the
    /// writer's next commit — never a deep copy of the clean pages.
    table: Arc<Vec<Arc<PageGroup>>>,
    /// Number of page slots handed out (live + dead); ids are dense in
    /// `0..n_slots` and trailing group slots beyond it are always `None`.
    n_slots: usize,
    free: Vec<PageId>,
    category: IoCategory,
    stats: SharedStats,
    /// Whether per-page CRC32s (stored per group) are maintained.
    verify: bool,
    /// Injected-fault schedule. Reads take `&self` from many query threads,
    /// so the plan sits behind a mutex — but `try_read` checks the cell's
    /// atomic `arms_reads` flag first and only locks when read faults are
    /// actually armed. Disabled (`None`), or installed without read faults,
    /// the read path performs no locking at all.
    fault: Option<FaultCell>,
    /// Wall-clock latency charged per counted read (`None` = off). This is
    /// the cost model's block-retrieval time paid for real: `try_read`
    /// sleeps *without holding any lock*, so concurrent readers overlap
    /// their stalls exactly as independent disks would — which is what lets
    /// a wall-clock benchmark observe read-path serialization. See
    /// `serve_bench --wall-io-us` and DESIGN.md §7.
    read_delay: Option<Duration>,
    /// Pages mutated (written, updated, allocated, or freed) since the last
    /// [`Pager::take_dirty`]. `BTreeSet` so drains are in deterministic page
    /// order — the WAL witnesses and checkpoint flushes built from this set
    /// must be byte-identical across runs.
    dirty: BTreeSet<u32>,
    /// Memoized deterministic read failures; see [`QuarantineEntry`]. Shared
    /// (like `stats`) across copy-on-write clones.
    quarantine: Arc<Quarantine>,
}

impl Clone for Pager {
    /// Copy-on-write copy sharing the same [`SharedStats`] ledger: the page
    /// table is shared via `Arc` (an `O(1)` bump, no page bytes move) and
    /// either side re-owns only the groups it subsequently mutates. The fault
    /// plan (and its schedule position) and the dirty set are cloned too;
    /// epoch snapshots rely on this being a faithful, independently-mutable
    /// copy.
    fn clone(&self) -> Self {
        Pager {
            page_size: self.page_size,
            table: Arc::clone(&self.table),
            n_slots: self.n_slots,
            free: self.free.clone(),
            category: self.category,
            stats: self.stats.clone(),
            verify: self.verify,
            fault: self.fault.as_ref().map(|c| FaultCell::new(c.lock().clone())),
            read_delay: self.read_delay,
            dirty: self.dirty.clone(),
            quarantine: Arc::clone(&self.quarantine),
        }
    }
}

impl Pager {
    /// Creates an empty pager whose accesses will be charged to `category`.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize, category: IoCategory, stats: SharedStats) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Pager {
            page_size,
            table: Arc::new(Vec::new()),
            n_slots: 0,
            free: Vec::new(),
            category,
            stats,
            verify: false,
            fault: None,
            read_delay: None,
            dirty: BTreeSet::new(),
            quarantine: Arc::new(Quarantine::default()),
        }
    }

    /// The slot for page id `idx`, `None` when dead or out of range.
    #[inline]
    fn slot(&self, idx: usize) -> Option<&Arc<[u8]>> {
        if idx >= self.n_slots {
            return None;
        }
        self.table[idx >> GROUP_SHIFT].slots[idx & GROUP_MASK].as_ref()
    }

    /// The recorded checksum of slot `idx` (only meaningful while `verify`).
    #[inline]
    fn sum(&self, idx: usize) -> u32 {
        self.table[idx >> GROUP_SHIFT].sums[idx & GROUP_MASK]
    }

    /// Exclusive access to the group holding slot `idx`, re-owning the spine
    /// and the group if they are shared with a snapshot (copy-on-write).
    /// The caller must have bounds-checked `idx < n_slots`.
    fn group_mut(&mut self, idx: usize) -> &mut PageGroup {
        let table = Arc::make_mut(&mut self.table);
        Arc::make_mut(&mut table[idx >> GROUP_SHIFT])
    }

    /// The fixed page size of this pager, in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The category this pager charges accesses to.
    #[inline]
    pub fn category(&self) -> IoCategory {
        self.category
    }

    /// The shared ledger this pager records into.
    #[inline]
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Number of live (allocated, not freed) pages: every slot handed out
    /// and not on the free list, which names each dead slot once.
    #[inline]
    pub fn live_pages(&self) -> usize {
        self.n_slots - self.free.len()
    }

    /// Ids of all live pages, in allocation order. Chaos tests use this to
    /// pick corruption targets.
    pub fn live_page_ids(&self) -> Vec<PageId> {
        (0..self.n_slots)
            .filter(|&i| self.slot(i).is_some())
            .map(|i| PageId(i as u32))
            .collect()
    }

    /// Number of page slots whose bytes are physically shared (same `Arc`)
    /// with `other` — i.e. pages a copy-on-write clone has *not* had to
    /// duplicate. Tests use this to prove epoch snapshots share clean pages.
    pub fn pages_shared_with(&self, other: &Pager) -> usize {
        let mut shared = 0;
        for idx in 0..self.n_slots.min(other.n_slots) {
            if let (Some(a), Some(b)) = (self.slot(idx), other.slot(idx)) {
                if Arc::ptr_eq(a, b) {
                    shared += 1;
                }
            }
        }
        shared
    }

    /// Total bytes occupied by live pages.
    pub fn size_bytes(&self) -> u64 {
        self.live_pages() as u64 * self.page_size as u64
    }

    /// The raw contents of a page, `None` if the slot is dead. Uncounted,
    /// unfaulted and unverified: the one view of what memory holds, for the
    /// checkpointer and for in-memory rebuild passes the paper does not
    /// count as query I/O.
    pub fn page_bytes(&self, pid: PageId) -> Option<&[u8]> {
        self.slot(pid.index()).map(|p| &p[..])
    }

    /// Drains and returns the ids of pages mutated since the last drain, in
    /// ascending order. Allocations, writes, updates and frees all dirty a
    /// page; a freed page stays in the set so checkpoints learn about
    /// deallocation too.
    pub fn take_dirty(&mut self) -> Vec<PageId> {
        let drained: Vec<PageId> = self.dirty.iter().map(|&i| PageId(i)).collect();
        self.dirty.clear();
        drained
    }

    /// Number of pages currently marked dirty.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Enables or disables per-page CRC32 verification on the fallible read
    /// path. Enabling checksums (re)computes them for every live page.
    pub fn set_checksums(&mut self, on: bool) {
        self.verify = on;
        let table = Arc::make_mut(&mut self.table);
        for group in table.iter_mut() {
            let group = Arc::make_mut(group);
            for i in 0..GROUP_PAGES {
                group.sums[i] =
                    if on { group.slots[i].as_ref().map_or(0, |p| crc32(p)) } else { 0 };
            }
        }
    }

    /// Whether per-page checksums are currently maintained.
    #[inline]
    pub fn checksums_enabled(&self) -> bool {
        self.verify
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultCell::new(plan));
    }

    /// Removes the fault plan, returning it (with its injection counts).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        // Same poison policy as `FaultCell::lock`: the plan is just counters
        // and thresholds, valid whether or not a holder panicked.
        self.fault.take().map(|c| c.plan.into_inner().unwrap_or_else(|e| e.into_inner()))
    }

    /// Injection counts of the installed plan, if any.
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.fault.as_ref().map(|c| c.lock().counts())
    }

    /// `true` if an installed fault plan arms read faults — i.e. `try_read`
    /// will take the plan mutex. Exposed so tests can assert the unfaulted
    /// read path stays lock-free.
    pub fn fault_arms_reads(&self) -> bool {
        self.fault.as_ref().is_some_and(|c| c.arms_reads.load(Ordering::Relaxed))
    }

    /// Sets (or clears) the wall-clock latency charged per counted read.
    /// See the field docs on [`Pager`] — the sleep is taken with no lock
    /// held, so concurrent readers overlap stalls.
    pub fn set_read_delay(&mut self, delay: Option<Duration>) {
        self.read_delay = delay.filter(|d| !d.is_zero());
    }

    /// The wall-clock latency charged per counted read, if any.
    #[inline]
    pub fn read_delay(&self) -> Option<Duration> {
        self.read_delay
    }

    /// Flips bits in a stored page *without* updating its checksum, modelling
    /// at-rest corruption ("bit rot"). Test hook for chaos harnesses.
    pub fn corrupt_page(&mut self, pid: PageId, offset: usize, xor_mask: u8) -> Result<(), StorageError> {
        let page_size = self.page_size;
        let idx = pid.index();
        if self.slot(idx).is_none() {
            return Err(StorageError::DeadPage { pid, op: PageOp::Write });
        }
        let group = self.group_mut(idx);
        let slot = group.slots[idx & GROUP_MASK]
            .as_mut()
            .ok_or(StorageError::DeadPage { pid, op: PageOp::Write })?;
        page_mut(slot)[offset % page_size] ^= xor_mask;
        Ok(())
    }

    // ------------------------------------------------------- quarantine --

    /// Quarantines `pid`: memoizes `error` so every later probe is answered
    /// in O(1) with a clone of it instead of re-issuing the doomed read.
    /// Records a page exactly once — returns `true` (and bumps the ledger's
    /// `pages_quarantined`) only when the page was not already quarantined.
    ///
    /// The fallible read path calls this automatically for *deterministic*
    /// failures (CRC mismatches); injected transient I/O errors are never
    /// quarantined. Higher layers (the signature store, the scrubber) call
    /// it for structural failures the pager cannot see.
    pub fn quarantine(&self, pid: PageId, error: StorageError) -> bool {
        let epoch = self.quarantine.epoch.load(Ordering::Relaxed);
        let ptr = self.slot_ptr(pid);
        let mut entries = self.quarantine.lock();
        if let Some(prev) = entries.get(&pid.0) {
            if prev.1 == ptr {
                return false;
            }
            // A different handle's page version was condemned before; this
            // handle's version failed too. Re-point the entry (not a new
            // quarantined page — the ledger already counted this pid).
            entries.insert(pid.0, (QuarantineEntry { error, epoch }, ptr));
            return false;
        }
        entries.insert(pid.0, (QuarantineEntry { error, epoch }, ptr));
        self.quarantine.armed.store(true, Ordering::Relaxed);
        self.stats.add(Counter::PagesQuarantined, 1);
        true
    }

    /// Removes `pid` from quarantine (the page was healed: rewritten with
    /// fresh contents, or freed so its slot no longer exists). Returns
    /// `true` (and bumps the ledger's `pages_repaired`) if an entry was
    /// cleared. The write/free paths call this automatically.
    pub fn clear_quarantine(&self, pid: PageId) -> bool {
        let mut entries = self.quarantine.lock();
        if entries.remove(&pid.0).is_none() {
            return false;
        }
        if entries.is_empty() {
            self.quarantine.armed.store(false, Ordering::Relaxed);
        }
        self.stats.add(Counter::PagesRepaired, 1);
        true
    }

    /// Whether `pid` is currently quarantined.
    pub fn is_quarantined(&self, pid: PageId) -> bool {
        self.quarantine.armed.load(Ordering::Relaxed) && self.quarantine.lock().contains_key(&pid.0)
    }

    /// Number of currently quarantined pages.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.lock().len()
    }

    /// The quarantined pages and their memoized failures, in page order.
    pub fn quarantine_entries(&self) -> Vec<(PageId, QuarantineEntry)> {
        self.quarantine.lock().iter().map(|(&pid, (e, _))| (PageId(pid), e.clone())).collect()
    }

    /// Stamps the epoch recorded on *future* quarantine entries. The durable
    /// engine calls this at each publish so entries say which epoch first
    /// observed the failure; non-durable databases leave it at zero.
    pub fn set_quarantine_epoch(&self, epoch: u64) {
        self.quarantine.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The memoized failure for `pid`, if quarantined *and* this handle's
    /// slot still holds the exact page version that failed (copy-on-write
    /// clones with a re-owned healthy copy fall through to a real read).
    /// One relaxed atomic load when the quarantine is empty.
    #[inline]
    fn quarantined_error(&self, pid: PageId) -> Option<StorageError> {
        if !self.quarantine.armed.load(Ordering::Relaxed) {
            return None;
        }
        let ptr = self.slot_ptr(pid);
        self.quarantine
            .lock()
            .get(&pid.0)
            .filter(|(_, condemned)| *condemned == ptr)
            .map(|(e, _)| e.error.clone())
    }

    /// The address of the `Arc` page version currently in `pid`'s slot
    /// (`0` for dead or out-of-range pages) — the identity quarantine
    /// entries are keyed to.
    #[inline]
    fn slot_ptr(&self, pid: PageId) -> usize {
        self.slot(pid.0 as usize).map_or(0, |a| Arc::as_ptr(a).cast::<u8>() as usize)
    }

    /// Allocates a zeroed page and returns its id. Recycles freed pages.
    ///
    /// Fails with [`StorageError::OutOfPages`] when the 32-bit page-id space
    /// is exhausted or an injected allocation budget runs out.
    pub fn try_allocate(&mut self) -> Result<PageId, StorageError> {
        if let Some(cell) = &self.fault {
            if cell.lock().deny_alloc() {
                return Err(StorageError::OutOfPages);
            }
        }
        let zeroed: Arc<[u8]> = vec![0u8; self.page_size].into();
        let zero_sum = if self.verify { crc32(&zeroed) } else { 0 };
        if let Some(pid) = self.free.pop() {
            let idx = pid.index();
            let group = self.group_mut(idx);
            group.slots[idx & GROUP_MASK] = Some(zeroed);
            group.sums[idx & GROUP_MASK] = zero_sum;
            self.dirty.insert(pid.0);
            return Ok(pid);
        }
        // PageId::INVALID (u32::MAX) is reserved, so the last usable id is
        // u32::MAX - 1.
        let idx = self.n_slots;
        if idx >= u32::MAX as usize {
            return Err(StorageError::OutOfPages);
        }
        let table = Arc::make_mut(&mut self.table);
        if idx >> GROUP_SHIFT == table.len() {
            table.push(Arc::new(PageGroup::empty()));
        }
        let group = Arc::make_mut(&mut table[idx >> GROUP_SHIFT]);
        group.slots[idx & GROUP_MASK] = Some(zeroed);
        group.sums[idx & GROUP_MASK] = zero_sum;
        self.n_slots += 1;
        self.dirty.insert(idx as u32);
        Ok(PageId(idx as u32))
    }

    /// Infallible [`Pager::try_allocate`]; panics on exhaustion.
    #[inline]
    pub fn allocate(&mut self) -> PageId {
        self.try_allocate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Releases a page back to the allocator.
    ///
    /// Returns [`StorageError::DoubleFree`] for a page that is already free
    /// and [`StorageError::DeadPage`] for one that never existed.
    pub fn try_free(&mut self, pid: PageId) -> Result<(), StorageError> {
        let idx = pid.index();
        if idx >= self.n_slots {
            return Err(StorageError::DeadPage { pid, op: PageOp::Free });
        }
        if self.slot(idx).is_none() {
            return Err(StorageError::DoubleFree { pid });
        }
        self.group_mut(idx).slots[idx & GROUP_MASK] = None;
        self.free.push(pid);
        self.dirty.insert(pid.0);
        // Freeing releases the bad bytes; reallocation hands back a zeroed
        // page. This is how repair retires a quarantined page.
        self.clear_quarantine(pid);
        Ok(())
    }

    /// Infallible [`Pager::try_free`].
    ///
    /// # Panics
    /// Panics if `pid` is not a live page (double free or never allocated).
    #[inline]
    pub fn free(&mut self, pid: PageId) {
        self.try_free(pid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads a page, charging one read to this pager's category.
    ///
    /// Fails on dead pages, injected I/O errors, and (when checksums are on)
    /// pages whose contents no longer match their recorded CRC32.
    /// A quarantined page short-circuits in O(1): the memoized error comes
    /// back without a physical read (no category read is charged, no read
    /// delay is paid — the ledger's `quarantine_hits` counts the skip).
    pub fn try_read(&self, pid: PageId) -> Result<&[u8], StorageError> {
        if let Some(err) = self.quarantined_error(pid) {
            self.stats.add(Counter::QuarantineHits, 1);
            return Err(err);
        }
        self.stats.record_reads(self.category, 1);
        if let Some(delay) = self.read_delay {
            // Charged with no lock held: concurrent readers must be able to
            // overlap these stalls, or serve_bench's wall-speedup gate fails.
            std::thread::sleep(delay);
        }
        // Lock-free unless read faults are armed. A plan whose read-error
        // probability is zero never consumes RNG state in `fail_read` (the
        // roll short-circuits), so skipping the lock entirely preserves the
        // plan's deterministic schedule for writes and allocations.
        if let Some(cell) = &self.fault {
            if cell.arms_reads.load(Ordering::Relaxed) && cell.lock().fail_read() {
                return Err(StorageError::Io { pid, op: PageOp::Read });
            }
        }
        let page =
            self.slot(pid.index()).ok_or(StorageError::DeadPage { pid, op: PageOp::Read })?;
        if self.verify {
            let expected = self.sum(pid.index());
            let actual = crc32(page);
            if expected != actual {
                // Deterministic: the same bytes will mismatch on every
                // probe, so memoize the failure. (Injected `Io` errors
                // above are transient and must keep re-rolling.)
                let err = StorageError::Corrupt { pid, expected, actual };
                self.quarantine(pid, err.clone());
                return Err(err);
            }
        }
        Ok(page)
    }

    /// Infallible [`Pager::try_read`].
    ///
    /// # Panics
    /// Panics if `pid` is not a live page (or an injected fault fires).
    #[inline]
    pub fn read(&self, pid: PageId) -> &[u8] {
        self.try_read(pid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overwrites a page, charging one write. `data` must be exactly one page.
    ///
    /// Injected write faults either fail the call (page untouched) or
    /// *silently* persist corrupted bytes — a torn prefix or one flipped bit —
    /// while the recorded checksum reflects the intended data, so the damage
    /// surfaces on a later checked read, exactly like real storage.
    pub fn try_write(&mut self, pid: PageId, data: &[u8]) -> Result<(), StorageError> {
        if data.len() != self.page_size {
            return Err(StorageError::ShortWrite { pid, len: data.len(), page_size: self.page_size });
        }
        self.stats.record_writes(self.category, 1);
        let effect = match &self.fault {
            Some(cell) => cell.lock().write_effect(self.page_size),
            None => WriteEffect::Clean,
        };
        if effect == WriteEffect::Fail {
            return Err(StorageError::Io { pid, op: PageOp::Write });
        }
        let idx = pid.index();
        if self.slot(idx).is_none() {
            return Err(StorageError::DeadPage { pid, op: PageOp::Write });
        }
        let verify = self.verify;
        let group = self.group_mut(idx);
        let slot = group.slots[idx & GROUP_MASK]
            .as_mut()
            .ok_or(StorageError::DeadPage { pid, op: PageOp::Write })?;
        let page = page_mut(slot);
        match effect {
            WriteEffect::Clean | WriteEffect::Fail => page.copy_from_slice(data),
            WriteEffect::Torn(n) => page[..n].copy_from_slice(&data[..n]),
            WriteEffect::BitFlip { byte, mask } => {
                page.copy_from_slice(data);
                page[byte] ^= mask;
            }
        }
        if verify {
            // Checksum of the *intended* bytes: torn/bit-flipped writes are
            // detected when the page is next read.
            group.sums[idx & GROUP_MASK] = crc32(data);
        }
        self.dirty.insert(pid.0);
        // A full overwrite replaces whatever bytes were bad: the page is
        // healed (a freshly injected torn/bit-flip write re-quarantines on
        // the next verified read).
        self.clear_quarantine(pid);
        Ok(())
    }

    /// Infallible [`Pager::try_write`].
    ///
    /// # Panics
    /// Panics if `pid` is not live or `data.len() != page_size`.
    #[inline]
    pub fn write(&mut self, pid: PageId, data: &[u8]) {
        self.try_write(pid, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// In-place page update via a closure, charging one read and one write.
    ///
    /// The update is a checked [`Pager::try_read`] of the page, `f` run on a
    /// copy of its bytes, and a [`Pager::try_write`] of the copy, so it fails
    /// and is damaged exactly as they are: a quarantined page, an injected
    /// read error or a checksum mismatch fails the call before `f` runs (rot
    /// is refused, never re-summed), and an injected write fault fails it or
    /// lands torn or bit-flipped under the checksum of the intended bytes.
    pub fn try_update<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, StorageError> {
        let mut page = self.try_read(pid)?.to_vec();
        let out = f(&mut page);
        self.try_write(pid, &page)?;
        Ok(out)
    }

    /// Infallible [`Pager::try_update`].
    ///
    /// # Panics
    /// Panics if `pid` is not a live page (or an injected fault fires).
    #[inline]
    pub fn update<R>(&mut self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.try_update(pid, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Makes each listed slot of `self` share `from`'s current page version
    /// — the same `Arc`, no byte copied — or its death, and takes over
    /// `from`'s slot count and free list: how a frozen checkpoint pager
    /// follows its master. `pids` must name every slot that changed in `from`
    /// since the two last agreed (the master's dirty set); a slot not listed
    /// keeps the version it holds, whatever has happened to `from`'s bytes
    /// since. When `self` keeps checksums the CRC32 of an entering page is
    /// taken here, from the bytes it has now. Nothing is counted as I/O or
    /// marked dirty.
    pub fn share_slots(&mut self, from: &Pager, pids: impl IntoIterator<Item = PageId>) {
        assert_eq!(self.page_size, from.page_size, "pagers of different page sizes");
        let verify = self.verify;
        let table = Arc::make_mut(&mut self.table);
        table.resize_with(from.table.len(), || Arc::new(PageGroup::empty()));
        for pid in pids {
            let idx = pid.index();
            let page = from.slot(idx).cloned();
            let group = Arc::make_mut(&mut table[idx >> GROUP_SHIFT]);
            group.sums[idx & GROUP_MASK] =
                if verify { page.as_ref().map_or(0, |p| crc32(p)) } else { 0 };
            group.slots[idx & GROUP_MASK] = page;
        }
        self.n_slots = from.n_slots;
        self.free.clone_from(&from.free);
    }

    /// Appends the page table — every slot, then the free list (not counted
    /// as I/O; checkpointing is outside the query cost model):
    ///
    /// `page_size u64 | n_slots u64 | per slot: tag u8 (0 = dead, 1 = live)
    /// followed, when live, by the page bytes and their CRC32 | n_free u64 |
    /// free pids u32...`
    ///
    /// This is the layout the database image stores pages in, one table per
    /// section. A pager that keeps checksums writes the sum it holds — taken
    /// when the page was written or entered the table — so serializing an
    /// image reads no page byte twice, and a page torn in memory is refused
    /// on load rather than laundered; otherwise the CRC32 is computed here.
    pub fn write_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.page_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.n_slots as u64).to_le_bytes());
        for idx in 0..self.n_slots {
            match self.slot(idx) {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(p);
                    let sum = if self.verify { self.sum(idx) } else { crc32(p) };
                    out.extend_from_slice(&sum.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.free.len() as u64).to_le_bytes());
        for pid in &self.free {
            out.extend_from_slice(&pid.0.to_le_bytes());
        }
    }

    /// Parses a page table written by [`Pager::write_table`], verifying
    /// every live page against its stored CRC32. Returns the pager — with
    /// checksums on, holding the verified sums, and nothing dirty — and the
    /// bytes consumed, or a precise [`ImageError`]. No count read from `buf`
    /// sizes an allocation before it is checked against the bytes that
    /// remain.
    pub fn read_table(
        buf: &[u8],
        category: IoCategory,
        stats: SharedStats,
    ) -> Result<(Pager, usize), ImageError> {
        let err = |offset: usize, cause: &str| ImageError { offset, cause: cause.to_string() };
        let mut pos = 0usize;
        let page_size = read_u64_at(buf, &mut pos)
            .ok_or_else(|| err(0, "image shorter than the page-size header"))?;
        let page_size = match usize::try_from(page_size) {
            Ok(size) if size > 0 && size <= buf.len() => size,
            _ => return Err(err(0, "implausible page size")),
        };
        let n_slots = read_u64_at(buf, &mut pos)
            .ok_or_else(|| err(8, "image shorter than the page-count header"))?;
        // Every page slot costs at least one tag byte, bounding the count.
        let n_slots = match usize::try_from(n_slots) {
            Ok(n) if n <= buf.len() - pos && n < u32::MAX as usize => n,
            _ => return Err(err(8, "page count exceeds image size")),
        };
        let mut groups: Vec<Arc<PageGroup>> = Vec::with_capacity(n_slots.div_ceil(GROUP_PAGES));
        let mut group = PageGroup::empty();
        let mut live = 0usize;
        for i in 0..n_slots {
            let tag_pos = pos;
            let tag = *buf
                .get(pos)
                .ok_or_else(|| err(tag_pos, "image truncated inside the page table"))?;
            pos += 1;
            match tag {
                0 => {}
                1 => {
                    let page = pos
                        .checked_add(page_size)
                        .and_then(|end| buf.get(pos..end))
                        .ok_or_else(|| err(tag_pos, "image truncated inside a page"))?;
                    pos += page_size;
                    let stored = read_u32_at(buf, &mut pos)
                        .ok_or_else(|| err(pos, "image truncated before a page checksum"))?;
                    let actual = crc32(page);
                    if stored != actual {
                        return Err(ImageError {
                            offset: tag_pos,
                            cause: format!(
                                "page {i} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                            ),
                        });
                    }
                    group.slots[i & GROUP_MASK] = Some(Arc::from(page));
                    group.sums[i & GROUP_MASK] = stored;
                    live += 1;
                }
                _ => return Err(err(tag_pos, "invalid page tag (not 0 or 1)")),
            }
            if i & GROUP_MASK == GROUP_MASK || i + 1 == n_slots {
                groups.push(Arc::new(std::mem::replace(&mut group, PageGroup::empty())));
            }
        }
        let free_pos = pos;
        let n_free = read_u64_at(buf, &mut pos)
            .ok_or_else(|| err(free_pos, "image truncated before the free list"))?;
        let n_free = match usize::try_from(n_free) {
            Ok(n) if n <= (buf.len() - pos) / 4 => n,
            _ => return Err(err(free_pos, "free-list length exceeds image size")),
        };
        // The free list names the dead slots, each once: any other entry
        // would hand a later allocation a live or a non-existent page.
        if n_free != n_slots - live {
            return Err(err(free_pos, "free-list length is not the number of dead page slots"));
        }
        let mut free = Vec::with_capacity(n_free);
        let mut listed = vec![false; n_slots];
        for _ in 0..n_free {
            let entry_pos = pos;
            let v = read_u32_at(buf, &mut pos)
                .ok_or_else(|| err(entry_pos, "image truncated inside the free list"))?;
            let idx = v as usize;
            let dead = idx < n_slots
                && groups[idx >> GROUP_SHIFT].slots[idx & GROUP_MASK].is_none()
                && !std::mem::replace(&mut listed[idx], true);
            if !dead {
                return Err(err(entry_pos, "free-list entry does not name a dead page slot once"));
            }
            free.push(PageId(v));
        }
        let mut pager = Pager::new(page_size, category, stats);
        pager.table = Arc::new(groups);
        pager.n_slots = n_slots;
        pager.free = free;
        pager.verify = true;
        Ok((pager, pos))
    }

}

fn read_u64_at(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let v = u64::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

fn read_u32_at(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let end = pos.checked_add(4)?;
    let v = u32::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::IoStats;
    use crate::PAGE_SIZE;

    fn pager() -> Pager {
        Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, IoStats::new_shared())
    }

    #[test]
    fn allocate_returns_zeroed_pages_with_dense_ids() {
        let mut p = pager();
        let a = p.allocate();
        let b = p.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert!(p.read(a).iter().all(|&x| x == 0));
        assert_eq!(p.live_pages(), 2);
        assert_eq!(p.live_page_ids(), vec![a, b]);
        assert_eq!(p.size_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut p = pager();
        let pid = p.allocate();
        let mut data = vec![0u8; PAGE_SIZE];
        data[100] = 7;
        data[PAGE_SIZE - 1] = 9;
        p.write(pid, &data);
        let got = p.read(pid);
        assert_eq!(got[100], 7);
        assert_eq!(got[PAGE_SIZE - 1], 9);
    }

    #[test]
    fn freed_pages_are_recycled_zeroed() {
        let mut p = pager();
        let a = p.allocate();
        let mut data = vec![0xFFu8; PAGE_SIZE];
        data[0] = 1;
        p.write(a, &data);
        p.free(a);
        let b = p.allocate();
        assert_eq!(a, b, "free list should recycle");
        assert!(p.read(b).iter().all(|&x| x == 0), "recycled page must be zeroed");
    }

    #[test]
    fn reads_and_writes_are_counted_but_allocation_is_not() {
        let stats = IoStats::new_shared();
        let mut p = Pager::new(64, IoCategory::BptreePage, stats.clone());
        let pid = p.allocate();
        assert_eq!(stats.total_reads() + stats.total_writes(), 0);
        p.write(pid, &[1u8; 64]);
        let _ = p.read(pid);
        let _ = p.page_bytes(pid);
        p.update(pid, |b| b[0] = 2);
        assert_eq!(stats.reads(IoCategory::BptreePage), 2); // read + update
        assert_eq!(stats.writes(IoCategory::BptreePage), 2); // write + update
    }

    #[test]
    #[should_panic]
    fn double_free_panics() {
        let mut p = pager();
        let a = p.allocate();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut p = pager();
        let a = p.allocate();
        p.free(a);
        assert_eq!(p.try_free(a), Err(StorageError::DoubleFree { pid: a }));
        assert_eq!(
            p.try_free(PageId(99)),
            Err(StorageError::DeadPage { pid: PageId(99), op: PageOp::Free })
        );
    }

    #[test]
    #[should_panic]
    fn short_write_panics() {
        let mut p = pager();
        let a = p.allocate();
        p.write(a, &[0u8; 10]);
    }

    #[test]
    fn short_write_is_a_typed_error() {
        let mut p = pager();
        let a = p.allocate();
        assert_eq!(
            p.try_write(a, &[0u8; 10]),
            Err(StorageError::ShortWrite { pid: a, len: 10, page_size: PAGE_SIZE })
        );
    }

    #[test]
    fn dead_reads_are_typed_errors() {
        let p = pager();
        assert_eq!(
            p.try_read(PageId(3)),
            Err(StorageError::DeadPage { pid: PageId(3), op: PageOp::Read })
        );
    }

    #[test]
    fn alloc_budget_yields_out_of_pages() {
        let mut p = pager();
        p.set_fault_plan(FaultPlan::seeded(7).with_alloc_budget(2));
        assert!(p.try_allocate().is_ok());
        assert!(p.try_allocate().is_ok());
        assert_eq!(p.try_allocate(), Err(StorageError::OutOfPages));
        assert_eq!(p.fault_counts().unwrap().denied_allocs, 1);
    }

    #[test]
    fn checksums_catch_silent_corruption() {
        let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
        let a = p.allocate();
        p.write(a, &[9u8; 64]);
        p.set_checksums(true);
        assert!(p.try_read(a).is_ok());
        p.corrupt_page(a, 13, 0b100).unwrap();
        match p.try_read(a) {
            Err(StorageError::Corrupt { pid, expected, actual }) => {
                assert_eq!(pid, a);
                assert_ne!(expected, actual);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Overwriting heals the page.
        p.write(a, &[1u8; 64]);
        assert!(p.try_read(a).is_ok());
    }

    #[test]
    fn quarantine_memoizes_a_corrupt_page_after_one_physical_read() {
        let stats = IoStats::new_shared();
        let mut p = Pager::new(64, IoCategory::SignaturePage, stats.clone());
        let a = p.allocate();
        p.write(a, &[9u8; 64]);
        p.set_checksums(true);
        p.corrupt_page(a, 5, 0xFF).unwrap();
        let base = stats.snapshot();
        // Regression: a known-bad page must cost exactly ONE physical read;
        // every later probe is served from the quarantine in O(1).
        let first = p.try_read(a);
        assert!(matches!(first, Err(StorageError::Corrupt { .. })));
        assert!(p.is_quarantined(a));
        for _ in 0..9 {
            assert_eq!(p.try_read(a), first, "memoized error is stable");
        }
        let delta = stats.snapshot().since(&base);
        assert_eq!(delta.reads(IoCategory::SignaturePage), 1, "one doomed read, then skips");
        assert_eq!(delta.get(Counter::QuarantineHits), 9);
        assert_eq!(delta.get(Counter::PagesQuarantined), 1, "recorded exactly once");
        assert_eq!(stats.get(Counter::PagesRepaired), 0);
    }

    #[test]
    fn overwrite_and_free_heal_a_quarantined_page() {
        let stats = IoStats::new_shared();
        let mut p = Pager::new(64, IoCategory::SignaturePage, stats.clone());
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, &[1u8; 64]);
        p.write(b, &[2u8; 64]);
        p.set_checksums(true);
        p.corrupt_page(a, 0, 1).unwrap();
        p.corrupt_page(b, 0, 1).unwrap();
        assert!(p.try_read(a).is_err());
        assert!(p.try_read(b).is_err());
        assert_eq!(p.quarantine_len(), 2);
        // Heal one page by overwriting, the other by freeing it.
        p.write(a, &[7u8; 64]);
        assert!(!p.is_quarantined(a));
        assert_eq!(p.try_read(a).unwrap()[0], 7);
        p.free(b);
        assert_eq!(p.quarantine_len(), 0);
        assert_eq!(stats.get(Counter::PagesRepaired), 2);
        // The recycled slot comes back zeroed and readable.
        let b2 = p.allocate();
        assert_eq!(b2, b);
        assert!(p.try_read(b2).is_ok());
    }

    #[test]
    fn quarantine_update_is_blocked_and_entries_carry_the_epoch() {
        let mut p = Pager::new(64, IoCategory::BptreePage, IoStats::new_shared());
        let a = p.allocate();
        p.write(a, &[3u8; 64]);
        p.set_checksums(true);
        p.set_quarantine_epoch(17);
        p.corrupt_page(a, 1, 0x10).unwrap();
        assert!(p.try_read(a).is_err());
        // In-place updates must not mutate known-bad bytes.
        assert!(matches!(p.try_update(a, |pg| pg[0] = 1), Err(StorageError::Corrupt { .. })));
        let entries = p.quarantine_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, a);
        assert_eq!(entries[0].1.epoch, 17);
    }

    #[test]
    fn an_update_never_launders_rot() {
        // An update reads the page through its checksum before it writes:
        // rot that no read has found yet is refused, not summed afresh, so
        // the next read still finds it instead of returning the flipped byte.
        let mut p = Pager::new(64, IoCategory::RtreeBlock, IoStats::new_shared());
        let a = p.allocate();
        p.write(a, &[7u8; 64]);
        p.set_checksums(true);
        p.corrupt_page(a, 9, 0x10).unwrap();
        assert!(!p.is_quarantined(a), "no read has found the rot yet");
        assert!(matches!(p.try_update(a, |pg| pg[0] = 1), Err(StorageError::Corrupt { .. })));
        assert!(matches!(p.try_read(a), Err(StorageError::Corrupt { .. })));
        assert_eq!(p.page_bytes(a).unwrap()[..10], [7, 7, 7, 7, 7, 7, 7, 7, 7, 23]);
    }

    #[test]
    fn quarantine_is_shared_across_cow_clones() {
        let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
        let a = p.allocate();
        p.write(a, &[4u8; 64]);
        p.set_checksums(true);
        p.corrupt_page(a, 2, 0x08).unwrap();
        let snapshot = p.clone();
        assert!(snapshot.try_read(a).is_err(), "clone sees the shared corrupt page");
        assert!(p.is_quarantined(a), "quarantined through the clone's probe");
        // Healing the master clears the shared registry for both handles.
        p.write(a, &[5u8; 64]);
        assert!(!snapshot.is_quarantined(a));
    }

    #[test]
    fn transient_injected_read_errors_are_not_quarantined() {
        let mut p = Pager::new(64, IoCategory::HeapScan, IoStats::new_shared());
        let a = p.allocate();
        p.set_fault_plan(FaultPlan::seeded(11).with_read_errors(0.5));
        for _ in 0..50 {
            let _ = p.try_read(a);
        }
        assert_eq!(p.quarantine_len(), 0, "injected Io faults stay transient");
    }

    #[test]
    fn torn_writes_are_detected_by_checksums() {
        // A write the plan damages lands silently under the checksum of the
        // bytes that were meant: the next verified read finds it and
        // quarantines the page. The third row fails if `try_update` flips
        // the bit before it takes the checksum — the sum would then cover
        // the flipped byte and the read would verify. The fourth fails if an
        // update drops a torn write and stores every byte it meant.
        type Damage = fn(&mut Pager, PageId);
        let write: Damage = |p, a| p.try_write(a, &[0xAB; 64]).unwrap();
        let update: Damage = |p, a| p.try_update(a, |page| page.fill(0xAB)).unwrap();
        let torn = FaultCounts { torn_writes: 1, ..FaultCounts::default() };
        let flipped = FaultCounts { bit_flips: 1, ..FaultCounts::default() };
        for (what, plan, damage, injected) in [
            ("torn write", FaultPlan::seeded(3).with_torn_writes(1.0), write, torn),
            ("bit-flipped write", FaultPlan::seeded(3).with_bit_flips(1.0), write, flipped),
            ("bit-flipped update", FaultPlan::seeded(3).with_bit_flips(1.0), update, flipped),
            ("torn update", FaultPlan::seeded(3).with_torn_writes(1.0), update, torn),
        ] {
            let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
            let a = p.allocate();
            p.set_checksums(true);
            p.set_fault_plan(plan);
            damage(&mut p, a);
            assert_eq!(p.fault_counts().unwrap(), injected, "{what}");
            assert!(
                matches!(p.try_read(a), Err(StorageError::Corrupt { .. })),
                "a {what} of nonzero bytes over a zeroed page must break the checksum"
            );
            assert!(p.is_quarantined(a), "a {what} is quarantined by the read that finds it");
        }
    }

    #[test]
    fn injected_read_errors_fire_at_the_configured_rate() {
        let mut p = Pager::new(64, IoCategory::HeapScan, IoStats::new_shared());
        let a = p.allocate();
        p.set_fault_plan(FaultPlan::seeded(11).with_read_errors(0.5));
        let failures = (0..200).filter(|_| p.try_read(a).is_err()).count();
        assert!((50..150).contains(&failures), "got {failures} failures out of 200");
        assert_eq!(p.fault_counts().unwrap().read_errors as usize, failures);
    }

    #[test]
    fn plans_without_read_faults_leave_the_read_path_lock_free() {
        let stats = IoStats::new_shared();
        let mut p = Pager::new(64, IoCategory::HeapScan, stats.clone());
        let a = p.allocate();
        p.write(a, &[9u8; 64]);
        // Write/alloc-only plan: reads must not take the plan mutex, and the
        // plan's RNG schedule must be untouched by reads (fail_read with
        // p = 0 consumes no RNG state).
        p.set_fault_plan(FaultPlan::seeded(42).with_write_errors(1.0).with_alloc_budget(0));
        assert!(!p.fault_arms_reads());
        let before = stats.snapshot().reads(IoCategory::HeapScan);
        for _ in 0..100 {
            assert!(p.try_read(a).is_ok(), "reads are unfaulted");
        }
        let after = stats.snapshot().reads(IoCategory::HeapScan);
        assert_eq!(after - before, 100, "every read is still counted");
        let counts = p.fault_counts().unwrap();
        assert_eq!(counts.read_errors, 0);
        // The write schedule is unaffected by the 100 lock-free reads: the
        // very first write still fails deterministically.
        assert!(p.try_write(a, &[1u8; 64]).is_err());
        // A plan that does arm reads flips the flag.
        p.set_fault_plan(FaultPlan::seeded(42).with_read_errors(0.1));
        assert!(p.fault_arms_reads());
    }

    #[test]
    fn read_delay_is_off_by_default_and_does_not_change_counts() {
        let stats = IoStats::new_shared();
        let mut p = Pager::new(64, IoCategory::RtreeBlock, stats.clone());
        let a = p.allocate();
        assert!(p.read_delay().is_none());
        p.set_read_delay(Some(Duration::from_micros(50)));
        assert_eq!(p.read_delay(), Some(Duration::from_micros(50)));
        let before = stats.snapshot().reads(IoCategory::RtreeBlock);
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            p.try_read(a).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(500), "delay is actually paid");
        assert_eq!(stats.snapshot().reads(IoCategory::RtreeBlock) - before, 10);
        // Zero disables rather than sleeping for 0ns per read.
        p.set_read_delay(Some(Duration::ZERO));
        assert!(p.read_delay().is_none());
        p.set_read_delay(None);
        assert!(p.read_delay().is_none());
    }

    #[test]
    fn dirty_tracking_covers_every_mutation_kind() {
        let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
        let a = p.allocate();
        let b = p.allocate();
        assert_eq!(p.take_dirty(), vec![a, b], "allocation dirties");
        assert_eq!(p.dirty_len(), 0);

        p.write(b, &[7u8; 64]);
        p.update(a, |buf| buf[0] = 1);
        assert_eq!(p.take_dirty(), vec![a, b], "drain is in ascending page order");

        let _ = p.read(a);
        let _ = p.page_bytes(b);
        assert_eq!(p.dirty_len(), 0, "reads never dirty");

        p.free(a);
        assert_eq!(p.take_dirty(), vec![a], "frees dirty (checkpoint must drop the page)");
        assert_eq!(p.page_bytes(a), None);
        assert_eq!(p.page_bytes(b).map(|s| s[0]), Some(7));

        // Clone carries the dirty set.
        p.write(b, &[8u8; 64]);
        let mut q = p.clone();
        assert_eq!(q.take_dirty(), vec![b]);
        assert_eq!(p.dirty_len(), 1);
    }

    #[test]
    fn a_frozen_pager_follows_its_master_slot_by_slot_and_copies_nothing() {
        let stats = IoStats::new_shared();
        let mut master = Pager::new(32, IoCategory::RtreeBlock, stats.clone());
        let pids: Vec<PageId> = (0..70).map(|_| master.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            master.write(pid, &[i as u8; 32]);
        }
        master.take_dirty();
        let mut frozen = master.clone();
        frozen.set_checksums(true);

        // A write, a free, an allocation past the frozen table's end, and a
        // page that rots without being written.
        master.write(pids[3], &[0xAA; 32]);
        let grown: Vec<PageId> = (0..130).map(|_| master.allocate()).collect();
        master.free(pids[5]);
        master.corrupt_page(pids[9], 0, 0xFF).unwrap();
        let before = stats.snapshot();
        let dirty = master.take_dirty();
        frozen.share_slots(&master, dirty);
        assert_eq!(stats.snapshot().since(&before).total_reads(), 0, "sharing is not I/O");
        assert_eq!(frozen.dirty_len(), 0);

        assert_eq!(frozen.live_page_ids(), master.live_page_ids());
        assert_eq!(frozen.pages_shared_with(&master), master.live_pages() - 1);
        assert_eq!(frozen.page_bytes(pids[3]), Some(&[0xAA; 32][..]));
        assert_eq!(frozen.page_bytes(pids[5]), None);
        assert_eq!(frozen.page_bytes(pids[9]), Some(&[9u8; 32][..]), "rot never enters");
        assert!(frozen.try_read(pids[3]).is_ok(), "an entering page gets its checksum");
        assert!(frozen.try_read(*grown.last().unwrap()).is_ok());

        // The two now serialize identically, and the frozen one allocates
        // what the master would (same free list, same slot count).
        master.write(pids[9], &[9u8; 32]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        master.write_table(&mut a);
        frozen.write_table(&mut b);
        assert_eq!(a, b);
        assert_eq!(frozen.allocate(), master.allocate());
    }

    #[test]
    fn a_parsed_table_keeps_the_stored_sums_and_writes_them_back() {
        let read_table = |bytes: &[u8]| Pager::read_table(bytes, IoCategory::RtreeBlock, IoStats::new_shared());
        let mut p = Pager::new(32, IoCategory::RtreeBlock, IoStats::new_shared());
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate();
        p.write(a, &[3u8; 32]);
        p.write(b, &[4u8; 32]);
        p.write(c, &[5u8; 32]);
        p.free(b);
        let mut bytes = Vec::new();
        p.write_table(&mut bytes);
        let (mut q, used) = read_table(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert!(q.checksums_enabled());
        assert_eq!(q.dirty_len(), 0, "a parsed table starts clean");
        assert!(q.try_read(a).is_ok());
        // Pages and the free list round-trip.
        assert_eq!((q.page_size(), q.live_pages()), (32, 2));
        assert_eq!(q.page_bytes(a), Some(&[3u8; 32][..]));
        assert_eq!(q.page_bytes(b), None);
        assert_eq!(q.page_bytes(c), Some(&[5u8; 32][..]));

        // Garbage and every truncation are refused; a flipped page bit (past
        // the two u64 headers and the tag byte) is pinpointed.
        for garbage in [&b""[..], &[0u8; 4][..], &[0xFFu8; 64][..]] {
            assert!(read_table(garbage).is_err());
        }
        for cut in 0..bytes.len() {
            assert!(read_table(&bytes[..cut]).is_err(), "the first {cut} bytes parsed");
        }
        let e = read_table(&bytes[..16 + 1 + 32 + 16]).unwrap_err();
        assert!(e.cause.contains("truncated"), "cause: {}", e.cause);
        let mut corrupt = bytes.clone();
        corrupt[16 + 1 + 4] ^= 0x10;
        let e = read_table(&corrupt).unwrap_err();
        assert!(e.cause.contains("page 0 checksum mismatch"), "cause: {}", e.cause);
        assert_eq!(e.offset, 16, "the error names the page's tag byte");

        // Rot in memory: the table still writes the sum it holds, so the
        // image it produces is refused instead of carrying the rot along.
        q.corrupt_page(a, 0, 1).unwrap();
        let mut rotted = Vec::new();
        q.write_table(&mut rotted);
        let e = read_table(&rotted).unwrap_err();
        assert!(e.cause.contains("checksum mismatch"), "cause: {}", e.cause);
        assert_eq!(q.allocate(), b, "free list survives");
    }

    #[test]
    fn clone_shares_pages_until_either_side_writes() {
        let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
        let pids: Vec<PageId> = (0..200).map(|_| p.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.write(pid, &[i as u8; 64]);
        }
        let mut q = p.clone();
        assert_eq!(p.pages_shared_with(&q), 200, "a fresh clone shares every page");

        // A write on either side re-owns only the touched page; the other
        // side keeps the old bytes (snapshot isolation at page granularity).
        q.write(pids[7], &[0xEE; 64]);
        assert_eq!(p.pages_shared_with(&q), 199);
        assert_eq!(p.read(pids[7])[0], 7, "the original must not see the clone's write");
        assert_eq!(q.read(pids[7])[0], 0xEE);

        p.update(pids[100], |b| b[0] = 0xAA);
        assert_eq!(p.pages_shared_with(&q), 198);
        assert_eq!(q.read(pids[100])[0], 100, "the clone must not see the original's update");

        // Frees and recycled allocations on the clone leave the original intact.
        q.free(pids[3]);
        assert_eq!(q.allocate(), pids[3]);
        assert!(q.read(pids[3]).iter().all(|&b| b == 0));
        assert_eq!(p.read(pids[3])[0], 3);
    }

    #[test]
    fn checksums_work_across_cow_clones() {
        let mut p = Pager::new(64, IoCategory::SignaturePage, IoStats::new_shared());
        let a = p.allocate();
        p.write(a, &[5u8; 64]);
        p.set_checksums(true);
        let mut q = p.clone();
        q.write(a, &[6u8; 64]);
        assert!(p.try_read(a).is_ok());
        assert!(q.try_read(a).is_ok());
        // Corruption on the clone is detected there and invisible to the
        // original.
        q.corrupt_page(a, 10, 0x40).unwrap();
        assert!(matches!(q.try_read(a), Err(StorageError::Corrupt { .. })));
        assert!(p.try_read(a).is_ok());
        assert_eq!(p.read(a)[10], 5);
    }

    #[test]
    fn live_pages_is_the_slot_scan() {
        let scan = |p: &Pager| p.live_page_ids().len();
        let mut master = Pager::new(32, IoCategory::RtreeBlock, IoStats::new_shared());
        assert_eq!((master.live_pages(), scan(&master)), (0, 0));
        let pids: Vec<PageId> = (0..300).map(|_| master.allocate()).collect();
        assert_eq!(master.live_pages(), scan(&master));
        for &pid in pids.iter().step_by(7) {
            master.free(pid);
        }
        assert_eq!(master.live_pages(), scan(&master));
        master.allocate();
        master.allocate();
        assert_eq!(master.live_pages(), scan(&master));

        // A frozen copy following its master through `share_slots`.
        master.take_dirty();
        let mut frozen = master.clone();
        for &pid in pids[1..40].iter().filter(|pid| pid.0 % 7 != 0) {
            master.free(pid);
        }
        for _ in 0..200 {
            master.allocate();
        }
        let dirty = master.take_dirty();
        frozen.share_slots(&master, dirty);
        assert_eq!(frozen.live_pages(), scan(&frozen));
        assert_eq!(frozen.live_pages(), master.live_pages());

        let mut bytes = Vec::new();
        frozen.write_table(&mut bytes);
        let (parsed, _) = Pager::read_table(&bytes, IoCategory::RtreeBlock, IoStats::new_shared())
            .expect("a written table parses");
        assert_eq!(parsed.live_pages(), scan(&parsed));
        assert_eq!(parsed.live_pages(), master.live_pages());
    }

    #[test]
    fn update_mutates_in_place() {
        let mut p = pager();
        let a = p.allocate();
        let out = p.update(a, |buf| {
            buf[3] = 42;
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(p.read(a)[3], 42);
    }
}
