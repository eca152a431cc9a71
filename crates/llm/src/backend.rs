//! The LLM-backend abstraction.
//!
//! The feedback-incorporation pipeline, the parallel evaluation runner,
//! the chat `Session` and the daemon are generic over
//! [`FallibleLanguageModel`] rather than tied to [`SimLlm`], so a real-LLM
//! backend (an HTTP client for `gpt-3.5-turbo`-class models, a local
//! inference server, …) can slot in without touching the pipeline. The
//! `Send + Sync` bound is load-bearing: the runner shares one backend
//! reference across its scoped worker threads.
//!
//! [`FallibleLanguageModel`] is the one backend trait: every role returns
//! `Result<_, BackendError>`, because a remote model can always time out,
//! rate-limit or return a malformed completion. [`SimLlm`] cannot fail, so
//! its impl wraps each inherent role in `Ok`. The fault injector
//! ([`crate::faults::FaultyBackend`]) and the retry middleware
//! ([`crate::resilience::Resilient`]) are the layers where failure is real.

use crate::error::BackendResult;
use crate::model::{GenRequest, Generation, SimLlm};
use crate::resilience::ResilienceStats;
use fisql_sqlkit::{EditOp, OpClass, Query};

/// The backend surface the pipeline consumes: the three roles the paper
/// prompts its LLM for (§3.2-3.3), plus the calibration surface the
/// pipeline consults when deciding how reliably an edit will be applied,
/// each returning
/// `Result<_, `[`BackendError`](crate::error::BackendError)`>`.
///
/// Determinism contract: every method must be a pure function of its
/// arguments (plus per-call attempt context, see
/// [`crate::faults::call_attempt`]) — the evaluation runner replays
/// faulted runs bit-for-bit at any worker count on the strength of it. A
/// stochastic backend should derive its sampling from the call
/// arguments, as [`SimLlm`] does from `(seed, example_id, salt)`.
pub trait FallibleLanguageModel: Send + Sync {
    /// NL2SQL generation (role 1), fallibly.
    fn try_generate_sql(&self, req: &GenRequest<'_>) -> BackendResult<Generation>;

    /// Feedback-type identification (role 2), fallibly.
    fn try_classify_feedback(&self, utterance: &str, salt: u64) -> BackendResult<OpClass>;

    /// The Query Rewrite baseline's paraphrasing step, fallibly.
    fn try_rewrite_question(&self, question: &str, feedback: &str) -> BackendResult<String>;

    /// Edit success probability (calibration surface), fallibly.
    fn try_edit_success_prob(&self, routed: bool, dynamic: bool) -> BackendResult<f64>;

    /// Edit complexity multiplier (calibration surface), fallibly.
    fn try_edit_complexity_factor(&self, edits: &[EditOp]) -> BackendResult<f64>;

    /// Applies interpreted feedback edits (role 3), fallibly.
    fn try_apply_feedback_edit_with_prob(
        &self,
        previous: &Query,
        edits: &[EditOp],
        p: f64,
        example_id: usize,
        salt: u64,
    ) -> BackendResult<Query>;

    /// Marks the start of a resilience session — one correction case in
    /// the runner, one conversation in the chat surface. Middleware
    /// resets per-session state (circuit breaker, deadline clock) here;
    /// plain backends need not care.
    fn begin_session(&self) {}

    /// Cumulative resilience telemetry, when this backend (or a layer
    /// inside it) is retry middleware. `None` for plain backends.
    fn resilience_stats(&self) -> Option<ResilienceStats> {
        None
    }

    /// Milliseconds of *virtual* time charged against the current
    /// thread's session, when this backend keeps a session clock (the
    /// resilience middleware charges simulated latency for timeouts and
    /// backoff waits). The evaluation runner's stall watchdog consults
    /// this to expire stalled cases *deterministically*: unlike wall
    /// time, the virtual clock advances identically at any worker
    /// count. `None` (the default) means no session clock.
    fn session_virtual_elapsed_ms(&self) -> Option<u64> {
        None
    }
}

/// `SimLlm` cannot fail: each role is its inherent method wrapped in `Ok`.
impl FallibleLanguageModel for SimLlm {
    fn try_generate_sql(&self, req: &GenRequest<'_>) -> BackendResult<Generation> {
        Ok(self.generate_sql(req))
    }

    fn try_classify_feedback(&self, utterance: &str, salt: u64) -> BackendResult<OpClass> {
        Ok(self.classify_feedback(utterance, salt))
    }

    fn try_rewrite_question(&self, question: &str, feedback: &str) -> BackendResult<String> {
        Ok(self.rewrite_question(question, feedback))
    }

    fn try_edit_success_prob(&self, routed: bool, dynamic: bool) -> BackendResult<f64> {
        Ok(self.edit_success_prob(routed, dynamic))
    }

    fn try_edit_complexity_factor(&self, edits: &[EditOp]) -> BackendResult<f64> {
        Ok(self.edit_complexity_factor(edits))
    }

    fn try_apply_feedback_edit_with_prob(
        &self,
        previous: &Query,
        edits: &[EditOp],
        p: f64,
        example_id: usize,
        salt: u64,
    ) -> BackendResult<Query> {
        Ok(self.apply_feedback_edit_with_prob(previous, edits, p, example_id, salt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GenMode, LlmConfig};
    use fisql_spider::{build_aep, AepConfig};

    #[test]
    fn sim_llm_roles_agree_with_its_inherent_methods() {
        let llm = SimLlm::new(LlmConfig::default());
        let backend: &dyn FallibleLanguageModel = &llm;
        let corpus = build_aep(&AepConfig {
            n_examples: 3,
            seed: 21,
        });
        let req = GenRequest {
            example: &corpus.examples[0],
            demos: 0,
            hint_text: "",
            salt: 0,
            mode: GenMode::Initial,
        };
        let initial = llm.generate_sql(&req).query;
        assert_eq!(backend.try_generate_sql(&req).unwrap().query, initial);
        assert_eq!(
            backend.try_classify_feedback("we are in 2024", 0).unwrap(),
            llm.classify_feedback("we are in 2024", 0)
        );
        assert_eq!(
            backend
                .try_rewrite_question("how many?", "we are in 2024")
                .unwrap(),
            llm.rewrite_question("how many?", "we are in 2024")
        );
        assert_eq!(
            backend.try_edit_success_prob(true, false).unwrap(),
            llm.edit_success_prob(true, false)
        );
        assert_eq!(
            backend.try_edit_complexity_factor(&[]).unwrap(),
            llm.edit_complexity_factor(&[])
        );
        assert_eq!(
            backend
                .try_apply_feedback_edit_with_prob(&initial, &[], 0.5, 0, 0)
                .unwrap(),
            llm.apply_feedback_edit_with_prob(&initial, &[], 0.5, 0, 0)
        );
        // A plain backend exposes no resilience machinery.
        assert!(backend.resilience_stats().is_none());
        backend.begin_session(); // a no-op, but callable
    }
}
