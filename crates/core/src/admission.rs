//! Admission control for the query facade: a bounded gate on in-flight
//! queries with shed-on-timeout semantics.
//!
//! A multi-client server fronting one [`PCubeDb`](crate::PCubeDb) wants
//! back-pressure, not an unbounded pile-up: when every slot is busy, an
//! arriving query waits a bounded time for one to free and is **shed** (an
//! explicit, cheap rejection the client can retry) if none does. The gate
//! is a counter behind a mutex/condvar pair — queries are admitted in
//! condvar wake order, the permit is RAII so a panicking query still
//! releases its slot, and admit/shed tallies feed the `serve_bench` /
//! `soak_bench` reports. The serving loop owns the gate and calls
//! [`AdmissionGate::admit`] before each query; the database holds none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Every slot stayed busy for the whole bounded wait; the query was
    /// shed without running.
    ShedTimeout {
        /// How long the query waited before being shed.
        waited: Duration,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ShedTimeout { waited } => {
                write!(f, "query shed: no slot freed within {:.3}s", waited.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A bounded-concurrency gate: at most `max_in_flight` admitted queries at
/// once, arrivals beyond that wait up to `max_wait` and are shed after.
pub struct AdmissionGate {
    max_in_flight: usize,
    max_wait: Duration,
    in_flight: Mutex<usize>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl std::fmt::Debug for AdmissionGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGate")
            .field("max_in_flight", &self.max_in_flight)
            .field("max_wait", &self.max_wait)
            .field("admitted", &self.admitted_total())
            .field("shed", &self.shed_total())
            .finish()
    }
}

impl AdmissionGate {
    /// A gate admitting at most `max_in_flight` concurrent queries, each
    /// arrival waiting at most `max_wait` for a slot.
    ///
    /// # Panics
    /// Panics if `max_in_flight` is zero (a gate that can admit nothing
    /// sheds every query — surely a configuration bug).
    pub fn new(max_in_flight: usize, max_wait: Duration) -> Self {
        assert!(max_in_flight > 0, "admission gate needs at least one slot");
        AdmissionGate {
            max_in_flight,
            max_wait,
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Acquires a slot, blocking up to the gate's `max_wait`. The returned
    /// permit releases the slot when dropped.
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, AdmissionError> {
        let started = Instant::now();
        let mut in_flight = self.lock();
        while *in_flight >= self.max_in_flight {
            let waited = started.elapsed();
            let Some(left) = self.max_wait.checked_sub(waited) else {
                drop(in_flight);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::ShedTimeout { waited });
            };
            let (guard, timeout) = self
                .freed
                .wait_timeout(in_flight, left)
                // Same poison policy as `Self::lock`.
                .unwrap_or_else(|e| e.into_inner());
            in_flight = guard;
            if timeout.timed_out() && *in_flight >= self.max_in_flight {
                drop(in_flight);
                let waited = started.elapsed();
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::ShedTimeout { waited });
            }
        }
        *in_flight += 1;
        drop(in_flight);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { gate: self })
    }

    /// The concurrency limit.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// The bounded wait before a query is shed.
    pub fn max_wait(&self) -> Duration {
        self.max_wait
    }

    /// Queries currently holding a slot.
    pub fn in_flight(&self) -> usize {
        *self.lock()
    }

    /// Total queries admitted so far.
    pub fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total queries shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    fn release(&self) {
        let mut in_flight = self.lock();
        *in_flight = in_flight.saturating_sub(1);
        drop(in_flight);
        self.freed.notify_one();
    }

    /// Locks the in-flight count, recovering from lock poisoning: the count
    /// is a plain integer (never left mid-update by a panicking holder), and
    /// `AdmissionPermit::drop` still releases slots during unwinding, so the
    /// gate stays correct — refusing every later query over a stale
    /// `PoisonError` would not.
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.in_flight.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An admitted query's slot; dropping it (normally or by unwinding) frees
/// the slot and wakes one waiter.
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let gate = AdmissionGate::new(2, Duration::from_millis(1));
        let p1 = gate.admit().expect("slot 1");
        let p2 = gate.admit().expect("slot 2");
        assert_eq!(gate.in_flight(), 2);
        let err = gate.admit().expect_err("full gate sheds");
        assert!(matches!(err, AdmissionError::ShedTimeout { .. }));
        drop(p1);
        let p3 = gate.admit().expect("freed slot readmits");
        assert_eq!(gate.in_flight(), 2);
        drop(p2);
        drop(p3);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.admitted_total(), 3);
        assert_eq!(gate.shed_total(), 1);
    }

    #[test]
    fn waiting_arrival_is_admitted_when_a_slot_frees() {
        let gate = AdmissionGate::new(1, Duration::from_secs(5));
        let permit = gate.admit().expect("first slot");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit().map(drop).is_ok());
            // Give the waiter time to block, then free the slot.
            std::thread::sleep(Duration::from_millis(20));
            drop(permit);
            assert!(waiter.join().expect("waiter thread"), "waiter admitted after release");
        });
        assert_eq!(gate.shed_total(), 0);
    }

    #[test]
    fn unwinding_query_still_frees_its_slot() {
        let gate = AdmissionGate::new(1, Duration::from_millis(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.admit().expect("slot");
            panic!("query exploded");
        }));
        assert!(result.is_err());
        assert_eq!(gate.in_flight(), 0, "panic released the slot");
        drop(gate.admit().expect("gate still usable"));
        assert_eq!(gate.admitted_total(), 2);
    }

    #[test]
    fn shed_counter_is_thread_safe() {
        let gate = AdmissionGate::new(1, Duration::from_millis(1));
        let held = gate.admit().expect("hold the only slot");
        let sheds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    if gate.admit().is_err() {
                        sheds.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        drop(held);
        assert_eq!(sheds.load(Ordering::Relaxed), 4);
        assert_eq!(gate.shed_total(), 4);
    }
}
