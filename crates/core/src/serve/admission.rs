//! Admission control for the serve daemon.
//!
//! The [`AdmissionGate`] bounds how much concurrent session work the
//! daemon accepts: up to `max_sessions` connections hold a session slot
//! at once, up to `queue_depth` more wait (bounded, with a wait budget)
//! for a slot to free, and everything beyond that is **rejected
//! immediately** with a typed backpressure response — the daemon sheds
//! load instead of crashing or hanging under it.
//!
//! Queueing is **FIFO by ticket**: each waiter takes a monotonically
//! increasing ticket and slots are granted strictly in ticket order. A
//! fresh arrival never barges past a queued waiter — while anyone is
//! queued, newcomers queue behind them (or are rejected when the queue
//! is full), so a slot freed under contention always goes to the
//! longest-waiting connection.
//!
//! A granted [`Permit`] is RAII: dropping it (on any path out of the
//! connection handler, including a contained panic) frees the slot and
//! wakes the queue.
//!
//! Panic posture: the production paths in this module never `unwrap()`
//! — lock poisoning is absorbed with `PoisonError::into_inner` (the
//! gate's counters stay consistent because every mutation happens
//! under the lock before any panic-prone code runs). Every `unwrap()`
//! in this file lives in `#[cfg(test)] mod tests`, where a panic *is*
//! the failure report.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sizing knobs for the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent session slots.
    pub max_sessions: usize,
    /// Connections allowed to wait for a slot.
    pub queue_depth: usize,
    /// Longest a queued connection waits before rejection, milliseconds.
    pub queue_wait_ms: u64,
}

/// The gate's cumulative counters and current gauges (serde-serializable,
/// so the `Stats` admin request can carry it over the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionSnapshot {
    /// Admissions granted without queueing.
    pub admitted_direct: u64,
    /// Admissions granted after a queue wait.
    pub admitted_queued: u64,
    /// Rejections because the queue was full.
    pub rejected_full: u64,
    /// Rejections because the queue wait budget expired.
    pub rejected_timeout: u64,
    /// Rejections because the gate was closed (shutdown).
    pub rejected_closed: u64,
    /// Sessions whose slot was reclaimed by the idle reaper.
    pub reaped: u64,
    /// Highest concurrent-session count observed.
    pub peak_active: u64,
    /// Sessions holding a slot when the snapshot was taken (0 after a
    /// clean drain — the survivability suites assert on it).
    #[serde(default)]
    pub active: u64,
    /// Connections queued for a slot when the snapshot was taken.
    #[serde(default)]
    pub queued: u64,
}

impl AdmissionSnapshot {
    /// All rejections, any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_timeout + self.rejected_closed
    }

    /// All admissions, direct or queued.
    pub fn admitted(&self) -> u64 {
        self.admitted_direct + self.admitted_queued
    }
}

#[derive(Debug)]
struct GateState {
    active: usize,
    /// Waiting tickets, front = next to be served.
    queue: VecDeque<u64>,
    next_ticket: u64,
    /// Cumulative counters, mutated under the same lock as the queue;
    /// the `active`/`queued` gauges are filled in by `snapshot`.
    counts: AdmissionSnapshot,
}

/// The admission gate (see the module docs).
#[derive(Debug)]
pub struct AdmissionGate {
    config: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
    closed: AtomicBool,
}

/// Why a connection was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Cap and queue both full at arrival.
    QueueFull {
        /// Active sessions at the decision.
        active: usize,
        /// Queued connections at the decision.
        queued: usize,
    },
    /// Queued, but no slot freed within the wait budget.
    WaitExpired {
        /// Active sessions at the decision.
        active: usize,
    },
    /// The daemon is shutting down.
    Closed,
}

impl Rejection {
    /// Renders the refusal for the wire protocol.
    pub fn reason(&self) -> String {
        match self {
            Rejection::QueueFull { active, queued } => {
                format!("at capacity: {active} active session(s), {queued} queued connection(s)")
            }
            Rejection::WaitExpired { active } => {
                format!("queue wait expired with {active} active session(s)")
            }
            Rejection::Closed => "daemon is shutting down".to_string(),
        }
    }
}

impl GateState {
    /// Takes one slot and tracks the concurrency peak.
    fn grant(&mut self) {
        self.active += 1;
        self.counts.peak_active = self.counts.peak_active.max(self.active as u64);
    }
}

impl AdmissionGate {
    /// Builds a gate.
    pub fn new(config: AdmissionConfig) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            config,
            state: Mutex::new(GateState {
                active: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
                counts: AdmissionSnapshot::default(),
            }),
            freed: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// Requests a session slot: granted immediately, granted after a
    /// bounded FIFO queue wait, or rejected.
    pub fn admit(self: &Arc<Self>) -> Result<Permit, Rejection> {
        let mut state = self.lock_state();
        if self.closed.load(Ordering::Acquire) {
            state.counts.rejected_closed += 1;
            return Err(Rejection::Closed);
        }
        // Direct admission only when nobody is queued ahead — a slot
        // freed under contention always goes to the oldest waiter.
        if state.active < self.config.max_sessions && state.queue.is_empty() {
            state.grant();
            state.counts.admitted_direct += 1;
            return Ok(Permit {
                gate: Arc::clone(self),
            });
        }
        if state.queue.len() >= self.config.queue_depth {
            let rejection = Rejection::QueueFull {
                active: state.active,
                queued: state.queue.len(),
            };
            state.counts.rejected_full += 1;
            return Err(rejection);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        let deadline = Instant::now() + Duration::from_millis(self.config.queue_wait_ms);
        loop {
            if self.closed.load(Ordering::Acquire) {
                state.queue.retain(|t| *t != ticket);
                state.counts.rejected_closed += 1;
                return Err(Rejection::Closed);
            }
            if state.queue.front() == Some(&ticket) && state.active < self.config.max_sessions {
                state.queue.pop_front();
                state.grant();
                state.counts.admitted_queued += 1;
                // The next ticket may also be admissible (several slots
                // freed at once): pass the wakeup along.
                self.freed.notify_all();
                return Ok(Permit {
                    gate: Arc::clone(self),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                let active = state.active;
                state.queue.retain(|t| *t != ticket);
                state.counts.rejected_timeout += 1;
                drop(state);
                // A timed-out head of queue may have been blocking a
                // later admissible ticket.
                self.freed.notify_all();
                return Err(Rejection::WaitExpired { active });
            }
            let (next, _timeout) = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
    }

    /// Closes the gate: every current and future admission request is
    /// rejected with [`Rejection::Closed`]. Active permits drain
    /// normally.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.freed.notify_all();
    }

    /// Sessions currently holding a permit.
    pub fn active(&self) -> usize {
        self.lock_state().active
    }

    /// Connections currently queued for a slot.
    pub fn waiting(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// Records one idle-reaped session (the permit itself returns via
    /// its normal RAII drop; this only counts the event).
    pub fn note_reaped(&self) {
        self.lock_state().counts.reaped += 1;
    }

    /// Snapshot of the cumulative counters and the current gauges, all
    /// read under one lock.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let state = self.lock_state();
        AdmissionSnapshot {
            active: state.active as u64,
            queued: state.queue.len() as u64,
            ..state.counts
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A held session slot; dropping it frees the slot and wakes the queue.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<AdmissionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.gate.lock_state();
        state.active = state.active.saturating_sub(1);
        drop(state);
        // notify_all, not notify_one: only the head ticket may take the
        // slot, and the head is whichever waiter holds it — everyone
        // re-checks, exactly one admits.
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn gate(max: usize, queue: usize, wait_ms: u64) -> Arc<AdmissionGate> {
        AdmissionGate::new(AdmissionConfig {
            max_sessions: max,
            queue_depth: queue,
            queue_wait_ms: wait_ms,
        })
    }

    /// Spawns a waiter and blocks until it is actually queued.
    fn spawn_queued(
        gate: &Arc<AdmissionGate>,
        expect_queued: usize,
    ) -> thread::JoinHandle<Result<Permit, Rejection>> {
        let g = Arc::clone(gate);
        let handle = thread::spawn(move || g.admit());
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.waiting() < expect_queued {
            assert!(Instant::now() < deadline, "waiter never queued");
            thread::sleep(Duration::from_millis(2));
        }
        handle
    }

    #[test]
    fn admits_up_to_cap_then_rejects_past_queue() {
        let gate = gate(2, 1, 50);
        let p1 = gate.admit().unwrap();
        let p2 = gate.admit().unwrap();
        assert_eq!(gate.active(), 2);
        // Queue slot: a waiter that times out.
        let waiter = spawn_queued(&gate, 1);
        match gate.admit() {
            Err(Rejection::QueueFull { active, queued }) => {
                assert_eq!(active, 2);
                assert_eq!(queued, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(matches!(
            waiter.join().unwrap(),
            Err(Rejection::WaitExpired { .. })
        ));
        drop(p1);
        drop(p2);
        let snap = gate.snapshot();
        assert_eq!(snap.admitted(), 2);
        assert_eq!(snap.rejected(), 2);
        assert_eq!(snap.peak_active, 2);
    }

    #[test]
    fn queued_waiter_gets_the_freed_slot() {
        let gate = gate(1, 4, 5_000);
        let permit = gate.admit().unwrap();
        let waiter = spawn_queued(&gate, 1);
        drop(permit);
        drop(waiter.join().unwrap().unwrap());
        let snap = gate.snapshot();
        assert_eq!(snap.admitted_queued, 1);
        assert_eq!(snap.rejected(), 0);
    }

    #[test]
    fn queued_waiters_are_served_in_fifo_order() {
        // One slot, four waiters enqueued in a known order (each is
        // observed in the queue before the next spawns). Slots must be
        // granted in exactly that order — ticket FIFO, no barging.
        let gate = gate(1, 8, 30_000);
        let first = gate.admit().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..4usize)
            .map(|i| {
                let g = Arc::clone(&gate);
                let order = Arc::clone(&order);
                let handle = thread::spawn(move || {
                    let permit = g.admit().expect("queued waiter admitted");
                    order.lock().unwrap().push(i);
                    // Hold briefly so the next grant is observably later.
                    thread::sleep(Duration::from_millis(5));
                    drop(permit);
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                while gate.waiting() < i + 1 {
                    assert!(Instant::now() < deadline, "waiter {i} never queued");
                    thread::sleep(Duration::from_millis(2));
                }
                handle
            })
            .collect();
        // A newcomer while the queue is non-empty must not barge even
        // though... the cap is full anyway; it joins the back.
        drop(first);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "not FIFO");
        assert_eq!(gate.snapshot().admitted_queued, 4);
    }

    #[test]
    fn no_barging_while_the_queue_is_occupied() {
        // Slot free-able, one queued waiter: a newcomer must queue
        // behind it, not snatch the freed slot.
        let gate = gate(1, 8, 30_000);
        let holder = gate.admit().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let spawn_recorder = |tag: u32, expect_queued: usize| {
            let g = Arc::clone(&gate);
            let order = Arc::clone(&order);
            let handle = thread::spawn(move || {
                let permit = g.admit().expect("admitted");
                order.lock().unwrap().push(tag);
                thread::sleep(Duration::from_millis(5));
                drop(permit);
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while gate.waiting() < expect_queued {
                assert!(Instant::now() < deadline, "waiter {tag} never queued");
                thread::sleep(Duration::from_millis(2));
            }
            handle
        };
        let early = spawn_recorder(1, 1);
        let late = spawn_recorder(2, 2);
        drop(holder);
        early.join().unwrap();
        late.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![1, 2], "newcomer barged");
    }

    #[test]
    fn rejected_timeout_accounting_is_exact_under_contention() {
        // One slot held for the whole test; K waiters queue and ALL must
        // time out — rejected_timeout == K exactly, no double counts,
        // and the queue is empty afterwards.
        const K: usize = 6;
        let gate = gate(1, K, 120);
        let _holder = gate.admit().unwrap();
        let waiters: Vec<_> = (0..K)
            .map(|i| {
                let handle = {
                    let g = Arc::clone(&gate);
                    thread::spawn(move || g.admit())
                };
                let deadline = Instant::now() + Duration::from_secs(10);
                while gate.waiting() < i + 1 {
                    assert!(Instant::now() < deadline, "waiter never queued");
                    thread::sleep(Duration::from_millis(2));
                }
                handle
            })
            .collect();
        // Queue is at depth: one more arrival is a full rejection.
        assert!(matches!(gate.admit(), Err(Rejection::QueueFull { .. })));
        for w in waiters {
            assert!(matches!(
                w.join().unwrap(),
                Err(Rejection::WaitExpired { active: 1 })
            ));
        }
        let snap = gate.snapshot();
        assert_eq!(snap.rejected_timeout, K as u64, "exact timeout count");
        assert_eq!(snap.rejected_full, 1);
        assert_eq!(snap.admitted_queued, 0);
        assert_eq!(gate.waiting(), 0, "timed-out tickets must leave the queue");
    }

    #[test]
    fn close_rejects_waiters_and_newcomers() {
        let gate = gate(1, 4, 5_000);
        let _permit = gate.admit().unwrap();
        let waiter = spawn_queued(&gate, 1);
        gate.close();
        assert!(matches!(waiter.join().unwrap(), Err(Rejection::Closed)));
        assert!(matches!(gate.admit(), Err(Rejection::Closed)));
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn permits_release_under_panic_via_drop() {
        let gate = gate(1, 0, 10);
        let g = Arc::clone(&gate);
        let _ = thread::spawn(move || {
            let _permit = g.admit().unwrap();
            panic!("handler bug");
        })
        .join();
        assert_eq!(gate.active(), 0, "panicked holder must free its slot");
        gate.admit().unwrap();
    }

    #[test]
    fn reap_counter_is_independent_of_the_permit_lifecycle() {
        let gate = gate(2, 0, 10);
        let p = gate.admit().unwrap();
        gate.note_reaped();
        drop(p);
        let snap = gate.snapshot();
        assert_eq!(snap.reaped, 1);
        assert_eq!(snap.admitted(), 1);
        assert_eq!(gate.active(), 0);
    }
}
