//! Deterministic fault injection for chaos runs.
//!
//! [`FaultyBackend`] wraps any [`FallibleLanguageModel`] and makes a
//! configurable fraction of calls fail with synthetic
//! [`BackendError`]s — timeouts, rate limits, transient transport faults,
//! malformed completions — plus optional *outage windows* during which
//! every call fails regardless of rate.
//!
//! # Replayability
//!
//! The whole point of this module is that chaos runs are **replayable
//! bit-for-bit at any worker count**. The fault decision for a call is a
//! pure hash of
//!
//! ```text
//! (config seed, role, call arguments, attempt index)
//! ```
//!
//! exactly like [`SimLlm`](crate::SimLlm) derives its sampling from
//! `(seed, example_id, salt)` — never from a shared mutable call counter,
//! which would make the schedule depend on thread interleaving. The
//! *attempt index* is the one piece of context the arguments cannot
//! carry: the retry middleware publishes it through [`call_attempt`]
//! (a thread-local, sound because one logical call — retries included —
//! always runs on one thread), so a retried call re-rolls its fault while
//! a replayed run reproduces it.
//!
//! The two calibration roles (`edit_success_prob`,
//! `edit_complexity_factor`) pass through un-faulted: they are
//! client-side lookup tables, not remote calls.

use crate::backend::FallibleLanguageModel;
use crate::error::{BackendError, BackendResult};
use crate::model::{GenRequest, Generation};
use fisql_sqlkit::{fnv64, EditOp, OpClass, Query};
use std::cell::Cell;

/// Environment variable carrying a uniform fault rate (`0.0..=1.0`) for
/// chaos CI jobs; see [`FaultConfig::from_env`].
pub const FAULT_RATE_ENV: &str = "FISQL_FAULT_RATE";

/// Per-error-kind injection rates and outage windows.
///
/// Rates are per *attempt* probabilities in `[0, 1]`; their sum is the
/// overall per-attempt fault rate. An outage window forces every call for
/// an affected example to fail with [`BackendError::Transient`] on every
/// attempt — modelling a backend that is *down*, not merely flaky — so
/// retry budgets genuinely exhaust and degradation paths run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed the fault schedule derives from (independent of the model
    /// seed, so chaos and model behaviour decorrelate).
    pub seed: u64,
    /// Probability of a synthetic timeout per attempt.
    pub timeout: f64,
    /// Probability of a synthetic rate-limit per attempt.
    pub rate_limited: f64,
    /// Probability of a synthetic transient transport fault per attempt.
    pub transient: f64,
    /// Probability of a synthetic malformed completion per attempt.
    pub malformed: f64,
    /// Probability of an injected *panic* per attempt — modelling a bug
    /// in the backend client rather than a failure of the remote service.
    /// Panics are not [`BackendError`]s: they unwind through the whole
    /// correction pipeline and are caught only by the evaluation runner's
    /// per-case isolation boundary, which records the case as crashed.
    /// Excluded from [`FaultConfig::uniform`] and from
    /// [`FaultConfig::total_rate`] because it is not an error *kind* the
    /// retry middleware can see.
    pub panic: f64,
    /// Outage period in example-id space: every `outage_period`-th block
    /// of example ids enters an outage. `0` disables outages.
    pub outage_period: u64,
    /// Width of each outage window (`example_id % outage_period <
    /// outage_width` is in outage).
    pub outage_width: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA17,
            timeout: 0.0,
            rate_limited: 0.0,
            transient: 0.0,
            malformed: 0.0,
            panic: 0.0,
            outage_period: 0,
            outage_width: 0,
        }
    }
}

impl FaultConfig {
    /// A config spreading `rate` evenly across the four error kinds, with
    /// no outage windows.
    pub fn uniform(rate: f64) -> FaultConfig {
        let per_kind = (rate / 4.0).clamp(0.0, 0.25);
        FaultConfig {
            timeout: per_kind,
            rate_limited: per_kind,
            transient: per_kind,
            malformed: per_kind,
            ..FaultConfig::default()
        }
    }

    /// Reads [`FAULT_RATE_ENV`] into a uniform config; `None` when unset,
    /// empty, unparsable, or zero.
    pub fn from_env() -> Option<FaultConfig> {
        let rate: f64 = std::env::var(FAULT_RATE_ENV).ok()?.trim().parse().ok()?;
        (rate > 0.0).then(|| FaultConfig::uniform(rate))
    }

    /// The overall per-attempt fault rate (outside outage windows).
    pub fn total_rate(&self) -> f64 {
        self.timeout + self.rate_limited + self.transient + self.malformed
    }

    /// Whether `example_id` falls inside an outage window.
    pub fn in_outage(&self, example_id: u64) -> bool {
        self.outage_period > 0 && example_id % self.outage_period < self.outage_width
    }
}

thread_local! {
    /// The current attempt index for the in-flight backend call, set by
    /// the retry middleware. 0 = first attempt.
    static ATTEMPT: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` with the thread's call-attempt index set to `attempt`, then
/// restores the previous value. The resilience middleware wraps each
/// retry in this so the fault schedule can distinguish attempts while
/// staying a pure function of per-call context.
pub fn with_attempt<R>(attempt: u32, f: impl FnOnce() -> R) -> R {
    ATTEMPT.with(|a| {
        let prev = a.replace(attempt);
        let out = f();
        a.set(prev);
        out
    })
}

/// The attempt index of the in-flight backend call on this thread
/// (0 outside any [`with_attempt`] scope, i.e. a first attempt).
pub fn call_attempt() -> u32 {
    ATTEMPT.with(|a| a.get())
}

/// The six backend roles, as salt for the fault schedule so the same
/// example's generate and classify calls fault independently.
#[derive(Debug, Clone, Copy)]
enum Role {
    Generate = 1,
    Classify = 2,
    Rewrite = 3,
    ApplyEdit = 4,
}

/// A deterministic fault-injecting wrapper around any backend.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    cfg: FaultConfig,
}

impl<B: FallibleLanguageModel> FaultyBackend<B> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: B, cfg: FaultConfig) -> Self {
        FaultyBackend { inner, cfg }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The fault schedule.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// SplitMix-style avalanche over the call key. One latent per
    /// (seed, role, key, attempt); sub-draws (kind selection, synthetic
    /// delays) reuse its high bits.
    fn latent(&self, role: Role, key: u64) -> u64 {
        let mut h: u64 = 0x2545F4914F6CDD1D;
        for v in [self.cfg.seed, role as u64, key, call_attempt() as u64] {
            h ^= v.wrapping_add(0x9E3779B97F4A7C15).rotate_left(17);
            h = h.wrapping_mul(0xD6E8FEB86659FD93);
            h ^= h >> 32;
        }
        h
    }

    /// The fault decision for one call. `example_id` drives outage
    /// windows; `key` is a pure hash of the call arguments.
    fn maybe_fault(&self, role: Role, example_id: u64, key: u64) -> BackendResult<()> {
        if self.cfg.in_outage(example_id) {
            return Err(BackendError::Transient {
                detail: format!("simulated outage window (example {example_id})"),
            });
        }
        let h = self.latent(role, key);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut threshold = self.cfg.timeout;
        if u < threshold {
            return Err(BackendError::Timeout {
                elapsed_ms: 1_000 + h % 9_000,
            });
        }
        threshold += self.cfg.rate_limited;
        if u < threshold {
            return Err(BackendError::RateLimited {
                retry_after_ms: 50 + h % 450,
            });
        }
        threshold += self.cfg.transient;
        if u < threshold {
            return Err(BackendError::Transient {
                detail: "connection reset by peer".into(),
            });
        }
        threshold += self.cfg.malformed;
        if u < threshold {
            return Err(BackendError::MalformedOutput {
                detail: "completion was not parsable SQL".into(),
            });
        }
        threshold += self.cfg.panic;
        // Deliberately NOT a BackendError: this models a client-side
        // bug, and must unwind to the runner's isolation boundary.
        assert!(
            u >= threshold,
            "injected backend panic (example {example_id}, key {key:#x})"
        );
        Ok(())
    }
}

impl<B: FallibleLanguageModel> FallibleLanguageModel for FaultyBackend<B> {
    fn try_generate_sql(&self, req: &GenRequest<'_>) -> BackendResult<Generation> {
        let key = (req.example.id as u64).rotate_left(32) ^ req.salt;
        self.maybe_fault(Role::Generate, req.example.id as u64, key)?;
        self.inner.try_generate_sql(req)
    }

    fn try_classify_feedback(&self, utterance: &str, salt: u64) -> BackendResult<OpClass> {
        let key = fnv64(utterance.as_bytes()) ^ salt.rotate_left(32);
        self.maybe_fault(Role::Classify, key, key)?;
        self.inner.try_classify_feedback(utterance, salt)
    }

    fn try_rewrite_question(&self, question: &str, feedback: &str) -> BackendResult<String> {
        let key = fnv64(question.as_bytes()) ^ fnv64(feedback.as_bytes()).rotate_left(32);
        self.maybe_fault(Role::Rewrite, key, key)?;
        self.inner.try_rewrite_question(question, feedback)
    }

    fn try_edit_success_prob(&self, routed: bool, dynamic: bool) -> BackendResult<f64> {
        // Calibration lookup, client-side: never faulted.
        self.inner.try_edit_success_prob(routed, dynamic)
    }

    fn try_edit_complexity_factor(&self, edits: &[EditOp]) -> BackendResult<f64> {
        // Calibration lookup, client-side: never faulted.
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
        let key = (example_id as u64).rotate_left(32) ^ salt ^ ((edits.len() as u64) << 48);
        self.maybe_fault(Role::ApplyEdit, example_id as u64, key)?;
        self.inner
            .try_apply_feedback_edit_with_prob(previous, edits, p, example_id, salt)
    }

    fn begin_session(&self) {
        self.inner.begin_session();
    }

    fn resilience_stats(&self) -> Option<crate::resilience::ResilienceStats> {
        self.inner.resilience_stats()
    }

    fn session_virtual_elapsed_ms(&self) -> Option<u64> {
        self.inner.session_virtual_elapsed_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GenMode, LlmConfig, SimLlm};
    use fisql_spider::{build_aep, AepConfig};

    fn corpus() -> fisql_spider::Corpus {
        build_aep(&AepConfig {
            n_examples: 40,
            seed: 5,
        })
    }

    fn faulty(rate: f64) -> FaultyBackend<SimLlm> {
        FaultyBackend::new(
            SimLlm::new(LlmConfig::default()),
            FaultConfig::uniform(rate),
        )
    }

    #[test]
    fn zero_rate_never_faults_and_matches_inner() {
        let corpus = corpus();
        let b = faulty(0.0);
        for e in &corpus.examples {
            let req = GenRequest {
                example: e,
                demos: 0,
                hint_text: "",
                salt: 0,
                mode: GenMode::Initial,
            };
            let out = b.try_generate_sql(&req).expect("rate 0 must never fault");
            assert_eq!(out.query, b.inner().generate_sql(&req).query);
        }
    }

    #[test]
    fn fault_schedule_is_deterministic_and_attempt_sensitive() {
        let corpus = corpus();
        let b = faulty(0.5);
        let outcome = |example_idx: usize, attempt: u32| {
            with_attempt(attempt, || {
                b.try_generate_sql(&GenRequest {
                    example: &corpus.examples[example_idx],
                    demos: 0,
                    hint_text: "",
                    salt: 0,
                    mode: GenMode::Initial,
                })
                .is_ok()
            })
        };
        let mut faulted = 0;
        let mut attempt_varies = 0;
        for i in 0..corpus.examples.len() {
            // Same call, same attempt: identical outcome (replayability).
            assert_eq!(outcome(i, 0), outcome(i, 0));
            assert_eq!(outcome(i, 1), outcome(i, 1));
            if !outcome(i, 0) {
                faulted += 1;
            }
            if outcome(i, 0) != outcome(i, 1) {
                attempt_varies += 1;
            }
        }
        assert!(faulted > 0, "50% schedule never fired");
        assert!(
            attempt_varies > 0,
            "attempt index never changed an outcome — retries would be pointless"
        );
    }

    #[test]
    fn fault_rate_is_roughly_calibrated() {
        let corpus = corpus();
        let b = faulty(0.2);
        let mut faults = 0;
        let mut calls = 0;
        for e in &corpus.examples {
            for salt in 0..25 {
                calls += 1;
                if b.try_classify_feedback(&e.question, salt).is_err() {
                    faults += 1;
                }
            }
        }
        let rate = faults as f64 / calls as f64;
        assert!((0.1..0.3).contains(&rate), "observed fault rate {rate}");
    }

    #[test]
    fn all_four_kinds_are_injected() {
        let corpus = corpus();
        let b = faulty(0.8);
        let mut kinds = std::collections::BTreeSet::new();
        for e in &corpus.examples {
            for salt in 0..20 {
                if let Err(err) = b.try_classify_feedback(&e.question, salt) {
                    kinds.insert(match err {
                        BackendError::Timeout { .. } => "timeout",
                        BackendError::RateLimited { .. } => "rate-limited",
                        BackendError::Transient { .. } => "transient",
                        BackendError::MalformedOutput { .. } => "malformed",
                        BackendError::Exhausted { .. } => "exhausted",
                    });
                }
            }
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["malformed", "rate-limited", "timeout", "transient"]
        );
    }

    #[test]
    fn outage_windows_fail_every_attempt() {
        let corpus = corpus();
        let cfg = FaultConfig {
            outage_period: 10,
            outage_width: 3,
            ..FaultConfig::default()
        };
        let b = FaultyBackend::new(SimLlm::new(LlmConfig::default()), cfg);
        for e in &corpus.examples {
            let call = |attempt| {
                with_attempt(attempt, || {
                    b.try_generate_sql(&GenRequest {
                        example: e,
                        demos: 0,
                        hint_text: "",
                        salt: 0,
                        mode: GenMode::Initial,
                    })
                })
            };
            if cfg.in_outage(e.id as u64) {
                for attempt in 0..4 {
                    assert!(call(attempt).is_err(), "outage must defeat retries");
                }
            } else {
                assert!(call(0).is_ok(), "no faults outside the outage window");
            }
        }
    }

    #[test]
    fn calibration_roles_pass_through_unfaulted() {
        let b = faulty(1.0); // every remote call faults …
        assert!(b.try_edit_success_prob(true, false).is_ok());
        assert!(b.try_edit_complexity_factor(&[]).is_ok());
        // … and remote roles indeed fault at rate 1.
        assert!(b.try_rewrite_question("q", "f").is_err());
    }

    #[test]
    fn panic_rate_unwinds_instead_of_erroring() {
        let cfg = FaultConfig {
            panic: 1.0,
            ..FaultConfig::default()
        };
        // Panics are not error kinds: the retry surface never sees them.
        assert_eq!(cfg.total_rate(), 0.0);
        let b = FaultyBackend::new(SimLlm::new(LlmConfig::default()), cfg);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.try_classify_feedback("how many singers", 0)
        }));
        assert!(unwound.is_err(), "panic rate 1 must unwind");
    }

    #[test]
    fn uniform_and_env_parsing() {
        let cfg = FaultConfig::uniform(0.2);
        assert!((cfg.total_rate() - 0.2).abs() < 1e-12);
        assert_eq!(FaultConfig::uniform(0.0).total_rate(), 0.0);
        // from_env is exercised only when the variable is set; the chaos
        // CI job sets FISQL_FAULT_RATE=0.2.
        if let Some(env_cfg) = FaultConfig::from_env() {
            assert!(env_cfg.total_rate() > 0.0);
        }
    }
}
