//! A sharded LRU buffer pool layered over a [`Pager`].
//!
//! The paper's query-time I/O counts assume a cold cache per query (every node
//! visit is a block retrieval). The buffer pool exists to ask how much a warm
//! cache changes the picture: reads served from the pool are *not* charged to
//! the ledger, only misses are.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::page::PageId;
use crate::pager::Pager;

/// One lock-protected slice of a [`ShardedBufferPool`]: an independent LRU
/// cache holding `Arc<[u8]>` pages, so hits can hand out references without
/// copying or pinning.
#[derive(Debug)]
struct BufferShard {
    capacity: usize,
    map: HashMap<PageId, usize>,
    entries: Vec<(PageId, Arc<[u8]>, u64)>,
    clock: u64,
    /// Pages some reader is currently fetching from the pager *outside* this
    /// shard's lock. A concurrent reader of the same page waits on the
    /// shard's condvar instead of issuing a duplicate pager read
    /// (single-flight misses).
    in_flight: HashSet<PageId>,
}

impl BufferShard {
    fn new(capacity: usize) -> Self {
        BufferShard {
            capacity,
            map: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            clock: 0,
            in_flight: HashSet::new(),
        }
    }

    /// Cache lookup only; `None` on miss.
    fn get(&mut self, pid: PageId) -> Option<Arc<[u8]>> {
        self.clock += 1;
        let &slot = self.map.get(&pid)?;
        self.entries[slot].2 = self.clock;
        Some(self.entries[slot].1.clone())
    }

    /// Installs a page fetched by the caller, evicting the LRU entry when
    /// full.
    fn install(&mut self, pid: PageId, data: Arc<[u8]>) {
        if self.map.contains_key(&pid) {
            return; // already resident; keep the existing copy
        }
        let slot = if self.entries.len() < self.capacity {
            self.entries.push((pid, data, self.clock));
            self.entries.len() - 1
        } else {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .expect("capacity > 0");
            let old = self.entries[victim].0;
            self.map.remove(&old);
            self.entries[victim] = (pid, data, self.clock);
            victim
        };
        self.map.insert(pid, slot);
    }

    fn invalidate(&mut self, pid: PageId) {
        if let Some(slot) = self.map.remove(&pid) {
            // Swap-remove keeps the vector dense; fix the moved entry's slot.
            self.entries.swap_remove(slot);
            if slot < self.entries.len() {
                let moved = self.entries[slot].0;
                self.map.insert(moved, slot);
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
    }
}

/// One shard of a [`ShardedBufferPool`]: the cache state behind a mutex plus
/// a condvar that single-flight waiters park on while another reader fetches
/// the page they want.
#[derive(Debug)]
struct Shard {
    state: Mutex<BufferShard>,
    fetch_done: Condvar,
}

impl Shard {
    /// Locks the shard, recovering from lock poisoning. A shard only caches
    /// immutable copies of pages the pager can always re-serve, so the state
    /// a panicking thread abandoned is still structurally sound — dropping
    /// the cache contents (or serving them) is safe either way, and killing
    /// every later reader over a stale `PoisonError` would not be.
    fn lock(&self) -> std::sync::MutexGuard<'_, BufferShard> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A thread-safe LRU read cache: N independent shards, each behind its own
/// mutex, with lock-free hit/miss accounting.
///
/// Pages hash to a shard by page id, so concurrent readers of different
/// pages almost never contend on the same lock. Each shard evicts its
/// least recently used page; capacity is divided evenly across shards (so
/// the worst-case resident set is `capacity` pages, not `capacity ×
/// shards`).
///
/// Only misses charge a counted read on the pager; hits are free.
///
/// # Lock hierarchy
///
/// **The shard lock is never held across a pager read.** A miss releases
/// the lock, fetches, then re-locks to install — so N threads missing on N
/// different pages perform their (wall-clock-expensive) pager reads fully
/// in parallel, even when the pages share a shard. Concurrent misses of
/// *one* page stay deduplicated by single-flight: the first reader marks
/// the page in flight and fetches; the rest wait on the shard condvar and
/// take the hit path once the page is installed. Every shard-lock
/// acquisition on the read path is tallied per shard, so tests can bound
/// lock traffic and prove requests spread across shards.
#[derive(Debug)]
pub struct ShardedBufferPool {
    shards: Vec<Shard>,
    /// Power-of-two mask over the mixed page id.
    mask: u64,
    /// Per-shard hit/miss tallies (indexed like `shards`); totals are their
    /// sums. Per-shard resolution lets fault-injection suites assert that
    /// seeded faults and traffic actually spread across every shard instead
    /// of piling onto one lock.
    hits: Vec<AtomicU64>,
    misses: Vec<AtomicU64>,
    /// Shard-lock acquisitions on the read path (initial lock, post-fetch
    /// re-lock, and condvar re-acquisitions all count). The contention test
    /// asserts an upper bound per request — a change that funnels reads
    /// back through one lock, or holds a lock across a fetch and forces
    /// waiters into extra wakeups, fails that bound.
    lock_acquisitions: Vec<AtomicU64>,
}

impl ShardedBufferPool {
    /// Creates a pool of `capacity` total pages split over `shards` locks
    /// (`shards` is rounded up to a power of two so shard selection is a
    /// mask, not a division).
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        assert!(shards > 0, "need at least one shard");
        let n = shards.next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        ShardedBufferPool {
            shards: (0..n)
                .map(|_| Shard {
                    state: Mutex::new(BufferShard::new(per_shard)),
                    fetch_done: Condvar::new(),
                })
                .collect(),
            mask: n as u64 - 1,
            hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            misses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lock_acquisitions: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `pid` hashes to — the same index
    /// [`Self::shard_hits`]/[`Self::shard_misses`] tally under, so tests
    /// can predict which shard a page's traffic lands on.
    pub fn shard_index(&self, pid: PageId) -> usize {
        // Fibonacci mixing spreads sequential page ids across shards.
        let h = u64::from(pid.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h & self.mask) as usize
    }

    /// Number of read requests served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Number of read requests that had to touch the pager.
    pub fn misses(&self) -> u64 {
        self.misses.iter().map(|m| m.load(Ordering::Relaxed)).sum()
    }

    /// Read requests served from shard `shard`'s cache.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_hits(&self, shard: usize) -> u64 {
        self.hits[shard].load(Ordering::Relaxed)
    }

    /// Read requests shard `shard` had to forward to the pager.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_misses(&self, shard: usize) -> u64 {
        self.misses[shard].load(Ordering::Relaxed)
    }

    /// Total shard-lock acquisitions on the read path, across all shards.
    /// A cache hit costs exactly one; a single-flight miss costs two (lock,
    /// fetch unlocked, re-lock to install); a waiter adds one per condvar
    /// wakeup. Contention tests assert an upper bound per request.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Read-path lock acquisitions charged to shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_lock_acquisitions(&self, shard: usize) -> u64 {
        self.lock_acquisitions[shard].load(Ordering::Relaxed)
    }

    /// Pages currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, pid: PageId) -> &Shard {
        &self.shards[self.shard_index(pid)]
    }

    /// Reads `pid`, consulting the owning shard first. A miss charges one
    /// counted read on `pager` and installs the page; a failed pager read
    /// propagates and nothing is cached, so a later retry re-reads the
    /// page. (No infallible wrapper — pool reads sit on query paths, which
    /// surface [`crate::StorageError`] rather than panic.)
    ///
    /// The pager read happens with the shard lock *released*: misses on
    /// different pages proceed fully in parallel, and concurrent misses on
    /// the same page are deduplicated by single-flight (the extra readers
    /// wait on the shard condvar, then serve the installed copy as a hit).
    /// If the flight fails, one waiter retries as the new fetcher, so an
    /// injected fault never strands the waiters or caches a bad page.
    pub fn try_read(&self, pager: &Pager, pid: PageId) -> Result<Arc<[u8]>, crate::StorageError> {
        let idx = self.shard_index(pid);
        let shard = &self.shards[idx];
        let mut state = shard.lock();
        self.lock_acquisitions[idx].fetch_add(1, Ordering::Relaxed);
        loop {
            if let Some(page) = state.get(pid) {
                self.hits[idx].fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
            if state.in_flight.insert(pid) {
                // This reader owns the flight: count the miss, fetch with
                // the lock released, then re-lock to install and wake any
                // waiters.
                self.misses[idx].fetch_add(1, Ordering::Relaxed);
                drop(state);
                let fetched: Result<Arc<[u8]>, crate::StorageError> =
                    pager.try_read(pid).map(Arc::from);
                let mut state = shard.lock();
                self.lock_acquisitions[idx].fetch_add(1, Ordering::Relaxed);
                state.in_flight.remove(&pid);
                if let Ok(data) = &fetched {
                    state.install(pid, data.clone());
                }
                drop(state);
                // Wake waiters on failure too — one of them retries as the
                // new fetcher instead of sleeping forever.
                shard.fetch_done.notify_all();
                return fetched;
            }
            // Another reader is fetching this page: wait for the flight to
            // land, then re-check. On success the page is cached (hit); on
            // failure it is neither cached nor in flight, so this reader
            // becomes the next fetcher.
            // Same poison policy as `Shard::lock`: re-acquire the guard a
            // panicking fetcher abandoned rather than propagating the panic.
            state = shard.fetch_done.wait(state).unwrap_or_else(|e| e.into_inner());
            self.lock_acquisitions[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops any cached copy of `pid` (call after writing the page through
    /// the pager).
    pub fn invalidate(&self, pid: PageId) {
        self.shard(pid).lock().invalidate(pid);
    }

    /// Writes through to the pager and invalidates the cached copy.
    pub fn write(&self, pager: &mut Pager, pid: PageId, data: &[u8]) {
        self.invalidate(pid);
        pager.write(pid, data);
    }

    /// Drops every cached page in every shard (e.g. between experiment runs
    /// to model a cold cache).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{IoCategory, IoStats};
    use crate::Pager;

    fn setup(n_pages: usize) -> (Pager, Vec<PageId>) {
        let stats = IoStats::new_shared();
        let mut pager = Pager::new(64, IoCategory::RtreeBlock, stats);
        let pids: Vec<PageId> = (0..n_pages)
            .map(|i| {
                let pid = pager.allocate();
                pager.write(pid, &[i as u8; 64]);
                pid
            })
            .collect();
        pager.stats().reset();
        (pager, pids)
    }

    #[test]
    fn a_shard_evicts_its_least_recently_used_page() {
        let (pager, pids) = setup(3);
        let pool = ShardedBufferPool::new(2, 1);
        for (i, hit) in [(0, false), (1, false), (0, true), (2, false), (0, true), (1, false)] {
            let before = pool.hits();
            pool.try_read(&pager, pids[i]).expect("read");
            assert_eq!(pool.hits() - before, u64::from(hit), "page 2 evicts 1, the LRU, not 0");
        }
        assert_eq!((pool.misses(), pool.hits()), (4, 2));
    }

    #[test]
    fn sharded_pool_caches_and_charges_misses_only() {
        let (pager, pids) = setup(4);
        let pool = ShardedBufferPool::new(8, 4);
        for _ in 0..3 {
            for &pid in &pids {
                let page = pool.try_read(&pager, pid).expect("read");
                assert_eq!(page.len(), 64);
            }
        }
        assert_eq!(pool.misses(), 4, "one miss per distinct page");
        assert_eq!(pool.hits(), 8);
        assert_eq!(pager.stats().reads(IoCategory::RtreeBlock), 4);
        pool.clear();
        assert!(pool.is_empty());
    }

    #[test]
    fn sharded_pool_capacity_bounds_resident_pages() {
        let (pager, pids) = setup(32);
        let pool = ShardedBufferPool::new(8, 2);
        for &pid in &pids {
            pool.try_read(&pager, pid).expect("read");
        }
        // 2 shards × ceil(8/2) pages: never more than the per-shard caps.
        assert!(pool.len() <= 8, "resident {} pages", pool.len());
    }

    #[test]
    fn sharded_pool_write_invalidates() {
        let (mut pager, pids) = setup(1);
        let pool = ShardedBufferPool::new(4, 2);
        assert_eq!(pool.try_read(&pager, pids[0]).expect("read")[0], 0);
        pool.write(&mut pager, pids[0], &[7u8; 64]);
        assert_eq!(pool.try_read(&pager, pids[0]).expect("read")[0], 7);
        assert_eq!(pool.misses(), 2, "the write invalidated the cached copy");
    }

    #[test]
    fn sharded_pool_failed_reads_are_not_cached() {
        let (mut pager, pids) = setup(1);
        let pool = ShardedBufferPool::new(4, 2);
        pager.set_fault_plan(crate::FaultPlan::seeded(2).with_read_errors(1.0));
        assert!(pool.try_read(&pager, pids[0]).is_err());
        assert!(pool.is_empty(), "a failed read must not install a cache entry");
        pager.take_fault_plan();
        assert!(pool.try_read(&pager, pids[0]).is_ok());
    }

    #[test]
    fn sharded_pool_concurrent_readers_agree_and_lose_no_counts() {
        let (pager, pids) = setup(16);
        // Per-shard capacity 16: even if every page hashed to one shard,
        // nothing would be evicted, so each page misses exactly once.
        let pool = ShardedBufferPool::new(64, 4);
        let threads = 8usize;
        let rounds = 200usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let (pool, pager, pids) = (&pool, &pager, &pids);
                s.spawn(move || {
                    for i in 0..rounds {
                        let pid = pids[(t + i) % pids.len()];
                        let page = pool.try_read(pager, pid).expect("read");
                        assert_eq!(page[0] as usize, pid.0 as usize, "wrong page contents");
                    }
                });
            }
        });
        assert_eq!(
            pool.hits() + pool.misses(),
            (threads * rounds) as u64,
            "every request is tallied exactly once"
        );
        // The pool fits every page: each page misses exactly once, because
        // single-flight dedups concurrent misses of the same page (waiters
        // park on the shard condvar instead of issuing duplicate reads).
        assert_eq!(pool.misses(), pids.len() as u64);
        assert_eq!(pager.stats().reads(IoCategory::RtreeBlock), pids.len() as u64);
    }

    #[test]
    fn sharded_pool_read_path_lock_cost_is_bounded() {
        let (pager, pids) = setup(8);
        let pool = ShardedBufferPool::new(64, 4);
        for _ in 0..3 {
            for &pid in &pids {
                pool.try_read(&pager, pid).expect("read");
            }
        }
        let requests = 3 * pids.len() as u64;
        // Serial traffic: hits take exactly 1 acquisition, misses exactly 2
        // (lock, fetch unlocked, re-lock to install) — no waiter wakeups.
        assert_eq!(
            pool.lock_acquisitions(),
            requests + pids.len() as u64,
            "hits=1 lock, misses=2 locks"
        );
        let per_shard: Vec<u64> =
            (0..pool.shard_count()).map(|i| pool.shard_lock_acquisitions(i)).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), pool.lock_acquisitions());
    }

    #[test]
    fn sharded_pool_failed_flight_wakes_waiters_and_retries() {
        let (mut pager, pids) = setup(1);
        let pool = ShardedBufferPool::new(4, 2);
        // First read of the page fails; every subsequent read succeeds. The
        // failure must not strand concurrent readers of the same page or
        // cache the failed fetch.
        pager.set_fault_plan(crate::FaultPlan::seeded(9).with_read_errors(1.0));
        assert!(pool.try_read(&pager, pids[0]).is_err());
        assert!(pool.is_empty(), "a failed flight must not install a cache entry");
        pager.take_fault_plan();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (pool, pager, pid) = (&pool, &pager, pids[0]);
                s.spawn(move || {
                    let page = pool.try_read(pager, pid).expect("retry succeeds");
                    assert_eq!(page[0], 0);
                });
            }
        });
        assert_eq!(pool.len(), 1);
    }
}
