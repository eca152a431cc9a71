//! Retry, backoff, and circuit-breaking middleware for fallible backends.
//!
//! [`Resilient<B>`] wraps any [`FallibleLanguageModel`] and gives every
//! remote call:
//!
//! - a **retry loop** with an attempt budget and exponential backoff with
//!   deterministic jitter (hashed from the call key and attempt, never
//!   from a global RNG);
//! - a **per-session deadline** counted in *virtual time*: computed
//!   backoff delays accumulate against the deadline whether or not they
//!   are actually slept, so the schedule — and therefore every
//!   deterministic report — is identical whether the middleware sleeps
//!   (live backends) or not (simulated chaos runs);
//! - a **circuit breaker** (closed → open → half-open) that stops
//!   hammering a down backend: after `failure_threshold` consecutive
//!   exhausted calls the breaker opens and fails the next
//!   `cooldown_calls` calls fast, then half-opens and lets one probe
//!   through — success closes it, failure re-opens it.
//!
//! # Breaker scope and determinism
//!
//! Breaker state and the deadline clock are scoped to a *resilience
//! session* — one correction case in the evaluation runner, one
//! conversation in the chat surface — and sessions are thread-local
//! (a case runs entirely on one worker thread). A process-global breaker
//! would make sharded evaluation order-dependent: whether call N finds
//! the breaker open would depend on which thread tripped it first, and
//! reports would stop being bit-identical across worker counts. Global
//! *telemetry* still exists: [`ResilienceStats`] counters are atomic and
//! process-wide, quarantined in `RunMetrics` exactly like cache hit
//! counters.

use crate::backend::FallibleLanguageModel;
use crate::error::{BackendError, BackendResult, ExhaustedReason};
use crate::faults;
use crate::model::{GenRequest, Generation};
use fisql_sqlkit::hash::{splitmix, unit};
use fisql_sqlkit::{fnv64, EditOp, OpClass, Query};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for [`Resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Maximum attempts per call (first try + retries). Clamped to ≥ 1.
    pub attempt_budget: u32,
    /// Base backoff before the first retry, milliseconds. Doubled per
    /// retry up to [`ResilienceConfig::backoff_cap_ms`].
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is multiplied by
    /// `1 + jitter * u` with `u` hashed deterministically from the call
    /// key and attempt.
    pub jitter: f64,
    /// Virtual-time budget per session, milliseconds: once accumulated
    /// backoff passes it, calls fail fast with
    /// [`ExhaustedReason::SessionDeadline`]. `None` = unbounded.
    pub session_deadline_ms: Option<u64>,
    /// Consecutive exhausted calls that open the breaker. `0` disables
    /// the breaker.
    pub failure_threshold: u32,
    /// Calls rejected while open before the breaker half-opens for a
    /// probe.
    pub cooldown_calls: u32,
    /// Actually sleep backoff delays (live backends). Simulated chaos
    /// runs leave this off: delays are only charged to the virtual
    /// deadline clock, so runs stay fast and bit-replayable.
    pub sleep: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            attempt_budget: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            jitter: 0.2,
            session_deadline_ms: Some(30_000),
            failure_threshold: 5,
            cooldown_calls: 2,
            sleep: false,
        }
    }
}

/// Cumulative resilience telemetry (process-wide, atomic). Deltas are
/// deterministic for a deterministic fault schedule — the counters are
/// order-free sums over per-call outcomes — but they are *volatile
/// observables* like cache stats and live in `RunMetrics`, never in the
/// serialized report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Logical backend calls that entered the middleware.
    pub calls: u64,
    /// Physical attempts made (≥ calls when retries happen).
    pub attempts: u64,
    /// Retries (attempts beyond each call's first).
    pub retries: u64,
    /// Calls that gave up with [`BackendError::Exhausted`].
    pub exhausted: u64,
    /// Closed→open breaker transitions.
    pub breaker_trips: u64,
    /// Calls rejected outright by an open breaker.
    pub breaker_fast_fails: u64,
    /// Virtual backoff time charged, milliseconds.
    pub backoff_ms: u64,
}

impl ResilienceStats {
    /// Counter deltas since `before` (saturating, so a stale snapshot
    /// never underflows).
    pub fn since(&self, before: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            calls: self.calls.saturating_sub(before.calls),
            attempts: self.attempts.saturating_sub(before.attempts),
            retries: self.retries.saturating_sub(before.retries),
            exhausted: self.exhausted.saturating_sub(before.exhausted),
            breaker_trips: self.breaker_trips.saturating_sub(before.breaker_trips),
            breaker_fast_fails: self
                .breaker_fast_fails
                .saturating_sub(before.breaker_fast_fails),
            backoff_ms: self.backoff_ms.saturating_sub(before.backoff_ms),
        }
    }
}

#[derive(Debug, Default)]
struct AtomicStats {
    calls: AtomicU64,
    attempts: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
    backoff_ms: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            calls: self.calls.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            backoff_ms: self.backoff_ms.load(Ordering::Relaxed),
        }
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls fail fast until the cooldown is spent.
    Open,
    /// One probe call is allowed through.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct SessionState {
    /// Consecutive exhausted calls while closed.
    consecutive_failures: u32,
    /// Remaining fast-fail calls while open.
    cooldown_remaining: u32,
    state: BreakerState,
    /// Virtual time charged so far, milliseconds.
    virtual_elapsed_ms: u64,
}

impl SessionState {
    fn fresh() -> SessionState {
        SessionState {
            consecutive_failures: 0,
            cooldown_remaining: 0,
            state: BreakerState::Closed,
            virtual_elapsed_ms: 0,
        }
    }
}

thread_local! {
    /// Per-thread session states, keyed by middleware instance id. A
    /// session (one runner case, one chat conversation) runs on one
    /// thread, so thread-locality makes breaker decisions a pure
    /// function of that session's own call history — the property that
    /// keeps sharded chaos runs bit-identical at any worker count.
    static SESSIONS: RefCell<HashMap<u64, SessionState>> = RefCell::new(HashMap::new());
}

static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// Retry/backoff/breaker middleware around a fallible backend.
#[derive(Debug, Clone)]
pub struct Resilient<B> {
    inner: B,
    cfg: ResilienceConfig,
    /// Identity for session-state lookup; clones share it (they are the
    /// same logical middleware).
    instance_id: u64,
    stats: Arc<AtomicStats>,
}

impl<B: FallibleLanguageModel> Resilient<B> {
    /// Wraps `inner` with the given configuration.
    pub fn new(inner: B, cfg: ResilienceConfig) -> Self {
        Resilient {
            inner,
            cfg,
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
            stats: Arc::new(AtomicStats::default()),
        }
    }

    /// Wraps `inner` with [`ResilienceConfig::default`].
    pub fn with_defaults(inner: B) -> Self {
        Resilient::new(inner, ResilienceConfig::default())
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> ResilienceStats {
        self.stats.snapshot()
    }

    /// This thread's current breaker state (diagnostics/tests).
    pub fn breaker_state(&self) -> BreakerState {
        self.with_session(|s| s.state)
    }

    fn with_session<R>(&self, f: impl FnOnce(&mut SessionState) -> R) -> R {
        SESSIONS.with(|cell| {
            let mut map = cell.borrow_mut();
            f(map
                .entry(self.instance_id)
                .or_insert_with(SessionState::fresh))
        })
    }

    /// Deterministic jitter draw in `[0, 1)` for (call key, attempt).
    fn jitter_unit(&self, key: u64, attempt: u32) -> f64 {
        unit(splitmix(
            0x9E6C63D0876A9A35,
            0xC2B2AE3D27D4EB4F,
            29,
            Some(31),
            &[self.instance_id, key, u64::from(attempt)],
        ))
    }

    /// Backoff delay before retry number `retry` (1-based), honouring a
    /// rate-limit hint from the previous error.
    fn backoff_ms(&self, key: u64, retry: u32, hint_ms: Option<u64>) -> u64 {
        let exp = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << (retry - 1).min(16))
            .min(self.cfg.backoff_cap_ms);
        let jittered = (exp as f64
            * (1.0 + self.cfg.jitter.clamp(0.0, 1.0) * self.jitter_unit(key, retry)))
            as u64;
        jittered.max(hint_ms.unwrap_or(0))
    }

    /// Breaker bookkeeping after a call settles.
    fn record_outcome(&self, success: bool) {
        if self.cfg.failure_threshold == 0 {
            return;
        }
        self.with_session(|s| match (s.state, success) {
            (BreakerState::Closed, true) => s.consecutive_failures = 0,
            (BreakerState::Closed, false) => {
                s.consecutive_failures += 1;
                if s.consecutive_failures >= self.cfg.failure_threshold {
                    s.state = BreakerState::Open;
                    s.cooldown_remaining = self.cfg.cooldown_calls;
                    self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            (BreakerState::HalfOpen, true) => {
                s.state = BreakerState::Closed;
                s.consecutive_failures = 0;
            }
            (BreakerState::HalfOpen, false) => {
                s.state = BreakerState::Open;
                s.cooldown_remaining = self.cfg.cooldown_calls;
                self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
            (BreakerState::Open, _) => {}
        });
    }

    /// The retry loop: runs `f` under the budget/deadline/breaker policy.
    fn call<T>(&self, key: u64, f: impl Fn() -> BackendResult<T>) -> BackendResult<T> {
        self.stats.calls.fetch_add(1, Ordering::Relaxed);

        // Breaker gate.
        if self.cfg.failure_threshold > 0 {
            let rejected = self.with_session(|s| match s.state {
                BreakerState::Open if s.cooldown_remaining > 0 => {
                    s.cooldown_remaining -= 1;
                    true
                }
                BreakerState::Open => {
                    s.state = BreakerState::HalfOpen;
                    false
                }
                _ => false,
            });
            if rejected {
                self.stats
                    .breaker_fast_fails
                    .fetch_add(1, Ordering::Relaxed);
                self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(BackendError::Exhausted {
                    attempts: 0,
                    reason: ExhaustedReason::BreakerOpen,
                    last: None,
                });
            }
        }

        let budget = self.cfg.attempt_budget.max(1);
        let mut last: Option<BackendError> = None;
        for attempt in 0..budget {
            if attempt > 0 {
                let hint = last.as_ref().and_then(BackendError::retry_after_ms);
                let delay = self.backoff_ms(key, attempt, hint);
                let over_deadline = self.with_session(|s| {
                    let next = s.virtual_elapsed_ms.saturating_add(delay);
                    match self.cfg.session_deadline_ms {
                        Some(deadline) if next > deadline => true,
                        _ => {
                            s.virtual_elapsed_ms = next;
                            false
                        }
                    }
                });
                if over_deadline {
                    self.record_outcome(false);
                    self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
                    return Err(BackendError::Exhausted {
                        attempts: attempt,
                        reason: ExhaustedReason::SessionDeadline,
                        last: last.map(Box::new),
                    });
                }
                self.stats.backoff_ms.fetch_add(delay, Ordering::Relaxed);
                if self.cfg.sleep && delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            self.stats.attempts.fetch_add(1, Ordering::Relaxed);
            match faults::with_attempt(attempt, &f) {
                Ok(value) => {
                    self.record_outcome(true);
                    return Ok(value);
                }
                Err(err) if err.is_retryable() => last = Some(err),
                Err(err) => {
                    // A nested Exhausted (stacked middleware) is terminal.
                    self.record_outcome(false);
                    self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
                    return Err(err);
                }
            }
        }
        self.record_outcome(false);
        self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
        Err(BackendError::Exhausted {
            attempts: budget,
            reason: ExhaustedReason::AttemptBudget,
            last: last.map(Box::new),
        })
    }
}

impl<B: FallibleLanguageModel> FallibleLanguageModel for Resilient<B> {
    fn try_generate_sql(&self, req: &GenRequest<'_>) -> BackendResult<Generation> {
        let key = (req.example.id as u64).rotate_left(32) ^ req.salt;
        self.call(key, || self.inner.try_generate_sql(req))
    }

    fn try_classify_feedback(&self, utterance: &str, salt: u64) -> BackendResult<OpClass> {
        let key = fnv64(utterance.as_bytes()) ^ salt.rotate_left(32);
        self.call(key, || self.inner.try_classify_feedback(utterance, salt))
    }

    fn try_rewrite_question(&self, question: &str, feedback: &str) -> BackendResult<String> {
        let key = fnv64(question.as_bytes()) ^ fnv64(feedback.as_bytes()).rotate_left(32);
        self.call(key, || self.inner.try_rewrite_question(question, feedback))
    }

    fn try_edit_success_prob(&self, routed: bool, dynamic: bool) -> BackendResult<f64> {
        // Calibration lookup, client-side: no retry policy needed.
        self.inner.try_edit_success_prob(routed, dynamic)
    }

    fn try_edit_complexity_factor(&self, edits: &[EditOp]) -> BackendResult<f64> {
        self.inner.try_edit_complexity_factor(edits)
    }

    fn try_apply_feedback_edit_with_prob(
        &self,
        previous: &Query,
        edits: &[EditOp],
        p: f64,
        example_id: usize,
        salt: u64,
    ) -> BackendResult<Query> {
        let key = (example_id as u64).rotate_left(32) ^ salt;
        self.call(key, || {
            self.inner
                .try_apply_feedback_edit_with_prob(previous, edits, p, example_id, salt)
        })
    }

    fn begin_session(&self) {
        self.with_session(|s| *s = SessionState::fresh());
        self.inner.begin_session();
    }

    fn resilience_stats(&self) -> Option<ResilienceStats> {
        Some(self.stats())
    }

    fn session_virtual_elapsed_ms(&self) -> Option<u64> {
        // The virtual deadline clock doubles as a deterministic stall
        // signal: backoff charged against this session advances it
        // identically at any worker count, so a watchdog reading it
        // expires stalled cases reproducibly.
        Some(self.with_session(|s| s.virtual_elapsed_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted backend: each rewrite call pops the next outcome.
    struct Scripted {
        outcomes: Mutex<Vec<BackendResult<String>>>,
    }

    impl Scripted {
        fn new(mut outcomes: Vec<BackendResult<String>>) -> Self {
            outcomes.reverse(); // pop() takes from the front of the script
            Scripted {
                outcomes: Mutex::new(outcomes),
            }
        }
    }

    impl FallibleLanguageModel for Scripted {
        fn try_generate_sql(&self, _req: &GenRequest<'_>) -> BackendResult<Generation> {
            unimplemented!("script drives rewrite_question only")
        }
        fn try_classify_feedback(&self, _u: &str, _s: u64) -> BackendResult<OpClass> {
            unimplemented!()
        }
        fn try_rewrite_question(&self, _q: &str, _f: &str) -> BackendResult<String> {
            self.outcomes
                .lock()
                .expect("script lock poisoned")
                .pop()
                .unwrap_or_else(|| Ok("ok".into()))
        }
        fn try_edit_success_prob(&self, _r: bool, _d: bool) -> BackendResult<f64> {
            Ok(1.0)
        }
        fn try_edit_complexity_factor(&self, _e: &[EditOp]) -> BackendResult<f64> {
            Ok(1.0)
        }
        fn try_apply_feedback_edit_with_prob(
            &self,
            previous: &Query,
            _edits: &[EditOp],
            _p: f64,
            _id: usize,
            _salt: u64,
        ) -> BackendResult<Query> {
            Ok(previous.clone())
        }
    }

    fn transient() -> BackendResult<String> {
        Err(BackendError::Transient {
            detail: "boom".into(),
        })
    }

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            attempt_budget: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            jitter: 0.5,
            session_deadline_ms: None,
            failure_threshold: 2,
            cooldown_calls: 2,
            sleep: false,
        }
    }

    #[test]
    fn retries_until_success_within_budget() {
        let r = Resilient::new(
            Scripted::new(vec![transient(), Ok("second try".into())]),
            cfg(),
        );
        r.begin_session();
        assert_eq!(r.try_rewrite_question("q", "f").unwrap(), "second try");
        let s = r.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.exhausted, 0);
        assert!(s.backoff_ms > 0);
    }

    #[test]
    fn budget_exhaustion_reports_the_chain() {
        let r = Resilient::new(
            Scripted::new(vec![
                transient(),
                Err(BackendError::RateLimited { retry_after_ms: 77 }),
                transient(),
            ]),
            cfg(),
        );
        r.begin_session();
        let err = r.try_rewrite_question("q", "f").unwrap_err();
        match &err {
            BackendError::Exhausted {
                attempts: 3,
                reason: ExhaustedReason::AttemptBudget,
                last: Some(last),
            } => assert!(matches!(**last, BackendError::Transient { .. })),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.stats().exhausted, 1);
    }

    #[test]
    fn rate_limit_hint_floors_the_backoff() {
        let r = Resilient::new(Scripted::new(vec![]), cfg());
        assert!(r.backoff_ms(1, 1, Some(5_000)) >= 5_000);
        // And without a hint the delay respects base/cap scaling.
        let d1 = r.backoff_ms(1, 1, None);
        let d3 = r.backoff_ms(1, 3, None);
        assert!((10..=15).contains(&d1), "first retry delay {d1}");
        assert!(d3 >= d1, "backoff must not shrink: {d1} -> {d3}");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let r = Resilient::new(
            Scripted::new(vec![
                // Two calls fail entirely (2 * 3 attempts) -> breaker opens.
                transient(),
                transient(),
                transient(),
                transient(),
                transient(),
                transient(),
                // The half-open probe succeeds -> breaker closes.
                Ok("recovered".into()),
            ]),
            cfg(),
        );
        r.begin_session();
        assert_eq!(r.breaker_state(), BreakerState::Closed);
        assert!(r.try_rewrite_question("q", "f").is_err());
        assert!(r.try_rewrite_question("q", "f").is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert_eq!(r.stats().breaker_trips, 1);

        // Cooldown: two fast-fails without touching the backend.
        for _ in 0..2 {
            match r.try_rewrite_question("q", "f").unwrap_err() {
                BackendError::Exhausted {
                    attempts: 0,
                    reason: ExhaustedReason::BreakerOpen,
                    ..
                } => {}
                other => panic!("expected fast-fail, got {other:?}"),
            }
        }
        assert_eq!(r.stats().breaker_fast_fails, 2);

        // Next call half-opens and probes; the scripted success closes.
        assert_eq!(r.try_rewrite_question("q", "f").unwrap(), "recovered");
        assert_eq!(r.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut c = cfg();
        c.attempt_budget = 1;
        c.cooldown_calls = 1;
        let r = Resilient::new(
            Scripted::new(vec![transient(), transient(), transient()]),
            c,
        );
        r.begin_session();
        assert!(r.try_rewrite_question("q", "f").is_err()); // failure 1
        assert!(r.try_rewrite_question("q", "f").is_err()); // failure 2 -> open
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert!(r.try_rewrite_question("q", "f").is_err()); // cooldown fast-fail
        assert!(r.try_rewrite_question("q", "f").is_err()); // probe fails -> open again
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert_eq!(r.stats().breaker_trips, 2);
    }

    #[test]
    fn session_deadline_counts_virtual_backoff() {
        let mut c = cfg();
        c.session_deadline_ms = Some(15); // one ~10 ms retry fits, two don't
        let r = Resilient::new(
            Scripted::new(vec![transient(), transient(), transient()]),
            c,
        );
        r.begin_session();
        let err = r.try_rewrite_question("q", "f").unwrap_err();
        match err {
            BackendError::Exhausted {
                reason: ExhaustedReason::SessionDeadline,
                attempts,
                ..
            } => assert!(attempts >= 1, "at least the first attempt ran"),
            other => panic!("expected deadline exhaustion, got {other:?}"),
        }
        // begin_session resets the clock: the next session gets a fresh
        // backoff budget, so its retry runs (and drains the script to a
        // success) instead of failing fast on a spent deadline.
        let retries_before = r.stats().retries;
        r.begin_session();
        assert_eq!(r.try_rewrite_question("q", "f").unwrap(), "ok");
        assert!(
            r.stats().retries > retries_before,
            "reset clock must allow a retry"
        );
    }

    #[test]
    fn begin_session_resets_breaker_state() {
        let mut c = cfg();
        c.attempt_budget = 1;
        let r = Resilient::new(Scripted::new(vec![transient(), transient()]), c);
        r.begin_session();
        assert!(r.try_rewrite_question("q", "f").is_err());
        assert!(r.try_rewrite_question("q", "f").is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        r.begin_session();
        assert_eq!(r.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn stats_since_computes_deltas() {
        let before = ResilienceStats {
            calls: 10,
            attempts: 15,
            retries: 5,
            exhausted: 1,
            breaker_trips: 0,
            breaker_fast_fails: 0,
            backoff_ms: 120,
        };
        let after = ResilienceStats {
            calls: 13,
            attempts: 20,
            retries: 7,
            exhausted: 2,
            breaker_trips: 1,
            breaker_fast_fails: 2,
            backoff_ms: 300,
        };
        let d = after.since(&before);
        assert_eq!(d.calls, 3);
        assert_eq!(d.attempts, 5);
        assert_eq!(d.retries, 2);
        assert_eq!(d.exhausted, 1);
        assert_eq!(d.breaker_trips, 1);
        assert_eq!(d.breaker_fast_fails, 2);
        assert_eq!(d.backoff_ms, 180);
    }
}
