//! Parallel, sharded evaluation runner (the builder-style experiment API).
//!
//! [`CorrectionRun`] is the single entry point for the §4.1/§4.2
//! correction experiments:
//!
//! ```no_run
//! # use fisql_core::runner::CorrectionRun;
//! # use fisql_core::pipeline::Strategy;
//! # let (corpus, llm, user) = unimplemented!();
//! let run = CorrectionRun::new(&corpus, &llm, &user)
//!     .strategy(Strategy::Fisql { routing: true, highlighting: false })
//!     .rounds(3)
//!     .workers(4);
//! let errors = run.collect_errors();
//! let annotated = run.annotate(&errors);
//! let report = run.run(&annotated);
//! ```
//!
//! # Sharding and determinism
//!
//! Workers take case indices one at a time from a shared atomic cursor,
//! so a worker that draws cheap cases simply takes more of them and none
//! idles while another still holds a backlog. The calling thread is one
//! of the workers; the rest run on scoped threads ([`std::thread::scope`],
//! so the corpus, model, and user are plain borrows — no `Arc` plumbing).
//! Per-case work is *order-independent by construction*: every random
//! draw in the simulated model and user derives from a pure hash of
//! (component seed, example id, round), never from shared mutable state,
//! and the merged report is a sum of per-case outcomes. Outcomes are
//! placed by case index, so the report is **bit-identical to a serial
//! run at any worker count** — asserted by this module's tests and
//! `tests/concurrency.rs`.
//!
//! The only thread-count-dependent observables are throughput numbers
//! (wall time, cache hit counters), which are quarantined in
//! [`RunMetrics`] and excluded from report serialization. Which cases
//! share a worker — and so a per-worker semantic cache — now varies from
//! run to run, so the cache counters vary between runs too.
//!
//! # Durability and robustness
//!
//! Three opt-in layers keep long evaluations alive and restartable:
//!
//! - **Write-ahead journal** ([`crate::journal`]): with
//!   [`CorrectionRun::journal`], every finished case is appended to an
//!   append-only, checksummed journal *before* it is merged; a killed
//!   run restarted with [`CorrectionRun::resume`] replays the journal,
//!   skips every recorded case, and produces a report bit-identical to
//!   an uninterrupted run — at any worker count, because per-case work
//!   is pure and the journal is keyed by case index, not append order.
//! - **Panic isolation**: each case runs under
//!   [`std::panic::catch_unwind`]; a panic (from a pipeline bug or an
//!   injected backend fault) records a [`CaseOutcome::Crashed`] verdict
//!   instead of aborting the run.
//! - **Stall watchdog**: with [`CorrectionRun::case_deadline_ms`], each
//!   case gets a wall-clock budget. Engine executions poll the budget
//!   through an execution pulse ([`fisql_engine::set_exec_pulse`]) and
//!   the round loop checks it at every round boundary, so a stalled
//!   case is marked [`CaseOutcome::TimedOut`] while the run continues;
//!   a monitor thread additionally journals cases hung long past their
//!   deadline so even a subsequent kill loses nothing. Backends that
//!   expose a virtual session clock
//!   ([`FallibleLanguageModel::session_virtual_elapsed_ms`]) are also
//!   expired *deterministically* against that clock, which keeps
//!   reports worker-count invariant under simulated stalls.

use crate::assistant::Assistant;
use crate::experiment::{build_view, build_view_with, AnnotatedCase, CorrectionReport, ErrorCase};
use crate::journal::{FsyncPolicy, RunJournal};
use crate::pipeline::{try_incorporate, IncorporateContext, Strategy};
use crate::semcache::SemanticCache;
use fisql_feedback::SimUser;
use fisql_llm::{
    cache, AgreementStats, CacheStats, FallibleLanguageModel, ResilienceStats, SimLlm,
};
use fisql_spider::{check_prediction, Corpus, Verdict};
use fisql_sqlkit::{normalize_query, print_query, print_query_spanned, Fnv64};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count (used by CI
/// to exercise the suite serially and sharded).
pub const WORKERS_ENV: &str = "FISQL_WORKERS";

/// Everything a correction experiment is parameterized by.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Feedback-incorporation strategy under test.
    pub strategy: Strategy,
    /// Feedback rounds per case (the paper's Figure 8 x-axis).
    pub rounds: usize,
    /// Experiment seed recorded with the run (per-component seeds live in
    /// the model/user configs; this labels the run as a whole).
    pub seed: u64,
    /// Worker threads for sharded evaluation. `0` means "auto": use
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Demonstrations retrieved per prompt for error collection.
    pub demos_k: usize,
    /// Feedback-conformance gate in the incorporation pipeline (see
    /// [`crate::pipeline::ConformanceReport`]).
    #[serde(default)]
    pub conformance_gate: bool,
    /// Stall-watchdog budget per case, in milliseconds. `None` (the
    /// default) disables the watchdog entirely — no monitor thread, no
    /// execution pulse, bit-for-bit the pre-watchdog behavior. When
    /// set, a case exceeding the budget is marked
    /// [`CaseOutcome::TimedOut`] and the run continues. Backends with a
    /// virtual session clock are expired against it deterministically;
    /// otherwise expiry is wall-clock (and so only deterministic when
    /// no case actually stalls).
    #[serde(default)]
    pub case_deadline_ms: Option<u64>,
    /// Per-worker semantic result cache: serve repeated executions of
    /// canonically-equivalent SQL (and byte-identical view renders)
    /// from memory instead of the engine (see [`crate::semcache`]).
    /// Reports are bit-identical with the cache on or off and at any
    /// worker count; only the [`RunMetrics`] cache counters move.
    #[serde(default = "default_true")]
    pub semantic_cache: bool,
}

fn default_true() -> bool {
    true
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            strategy: Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            rounds: 1,
            seed: 0xF15C,
            workers: workers_from_env(),
            demos_k: 3,
            conformance_gate: false,
            case_deadline_ms: None,
            semantic_cache: default_true(),
        }
    }
}

impl ExperimentConfig {
    /// Resolves `workers` to a concrete thread count for `n_items` work
    /// items: `0` becomes the machine's available parallelism, and the
    /// count never exceeds the number of items (and never drops below 1).
    pub fn effective_workers(&self, n_items: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, n_items.max(1))
    }
}

/// Reads [`WORKERS_ENV`]; unset, empty, or unparsable means `0` (auto).
pub fn workers_from_env() -> usize {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Throughput metrics for one runner invocation.
///
/// These are the *volatile* observables — wall time and cache counters
/// legitimately vary with thread count and machine load — kept apart from
/// the deterministic report fields (and skipped during serialization of
/// [`CorrectionReport`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time of the sharded evaluation, milliseconds.
    pub wall_ms: f64,
    /// Cases evaluated per second of wall time.
    pub cases_per_sec: f64,
    /// Engine executions attributable to the evaluation loop (user-view
    /// renders and correctness checks; deterministic).
    pub engine_executions: u64,
    /// Retrieval/embedding cache hits during the run (process-wide delta).
    pub cache_hits: u64,
    /// Retrieval/embedding cache misses during the run.
    pub cache_misses: u64,
    /// Engine executions served from the per-worker semantic result
    /// caches instead of the engine, gold results read from the corpus
    /// memo included (summed over workers; zero with the cache
    /// disabled).
    pub executions_skipped_cache: u64,
    /// Semantic-cache lookups that had to execute the engine.
    pub semantic_cache_misses: u64,
    /// Resilience-layer telemetry deltas for the run (attempts, retries,
    /// breaker trips, fast-fails, …). All zeros when the backend exposes
    /// no resilience middleware.
    pub resilience: ResilienceStats,
    /// Router-vs-realized conformance telemetry (all zeros when the
    /// conformance gate is off). The serialized report carries the same
    /// totals in its own counter fields; this copy rides with the other
    /// run-level telemetry for programmatic access.
    pub agreement: AgreementStats,
}

impl RunMetrics {
    /// Cache hits as a fraction of all cache lookups during the run.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
        }
        .hit_rate()
    }

    /// Semantic result-cache hits as a fraction of all lookups.
    pub fn semantic_cache_hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.executions_skipped_cache,
            misses: self.semantic_cache_misses,
        }
        .hit_rate()
    }

    fn finish(
        workers: usize,
        n_cases: usize,
        started: Instant,
        before: CacheStats,
        engine_executions: u64,
        resilience: ResilienceStats,
    ) -> RunMetrics {
        let wall = started.elapsed();
        let delta = cache::global_stats().since(&before);
        let secs = wall.as_secs_f64();
        RunMetrics {
            workers,
            wall_ms: secs * 1e3,
            cases_per_sec: if secs > 0.0 {
                n_cases as f64 / secs
            } else {
                0.0
            },
            engine_executions,
            cache_hits: delta.hits,
            cache_misses: delta.misses,
            executions_skipped_cache: 0,
            semantic_cache_misses: 0,
            resilience,
            agreement: AgreementStats::default(),
        }
    }
}

/// What one *completed* case contributes to the merged report. Summing
/// these in any order yields the same totals, which is what makes
/// sharding free.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CaseVerdict {
    /// Zero-based round after which the case was corrected (`None` if
    /// every round left it wrong).
    pub corrected_at: Option<usize>,
    /// Rounds whose candidate the static gate flagged with
    /// error-severity diagnostics.
    pub statically_flagged: usize,
    /// Engine executions the gate's auto-repair avoided.
    pub executions_saved: u64,
    /// Engine executions attributable to this case's evaluation loop.
    pub engine_executions: u64,
    /// Rounds that degraded gracefully after backend failures.
    pub degraded_rounds: u64,
    /// Engine executions skipped by the static equivalence oracle.
    pub executions_skipped_static: u64,
    /// Conformance-gate router-vs-realized telemetry for this case.
    pub agreement: AgreementStats,
}

/// Terminal outcome of one case — the unit the write-ahead journal
/// records and the sharded runner merges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CaseOutcome {
    /// The case ran its correction loop to completion.
    Completed(CaseVerdict),
    /// The case panicked. The panic was contained by the runner's
    /// per-case isolation; the run continued.
    Crashed {
        /// Captured panic message (with source location when known).
        message: String,
    },
    /// The stall watchdog expired the case.
    TimedOut {
        /// Zero-based round that was in flight when the budget ran out.
        round: usize,
    },
}

/// Builder for the correction experiment (see the module docs).
///
/// Generic over the one backend trait, [`FallibleLanguageModel`], so the
/// simulated model, a fault-injected chaos stack, or a real remote
/// client all drive the same runner;
/// [`collect_errors`](CorrectionRun::collect_errors) alone is specific
/// to [`SimLlm`] because the Assistant front end is.
///
/// When a backend call fails past the resilience layer, the affected
/// round **degrades** — the case keeps its previous SQL and moves on —
/// and the merged report counts degraded rounds/cases. The runner calls
/// [`FallibleLanguageModel::begin_session`] at the start of every case,
/// so circuit-breaker and deadline state is per-case and the report
/// stays bit-identical at any worker count even under injected faults.
#[derive(Debug)]
pub struct CorrectionRun<'a, L: FallibleLanguageModel + ?Sized = SimLlm> {
    corpus: &'a Corpus,
    llm: &'a L,
    user: &'a SimUser,
    cfg: ExperimentConfig,
    journal: Option<&'a Path>,
    resume: bool,
    fsync: FsyncPolicy,
}

// Manual Clone/Copy: derives would bound `L: Clone`/`L: Copy`, but only
// references to `L` are stored.
impl<L: FallibleLanguageModel + ?Sized> Clone for CorrectionRun<'_, L> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<L: FallibleLanguageModel + ?Sized> Copy for CorrectionRun<'_, L> {}

impl<'a, L: FallibleLanguageModel + ?Sized> CorrectionRun<'a, L> {
    /// Starts a run over `corpus` with the default
    /// [`ExperimentConfig`].
    pub fn new(corpus: &'a Corpus, llm: &'a L, user: &'a SimUser) -> Self {
        CorrectionRun {
            corpus,
            llm,
            user,
            cfg: ExperimentConfig::default(),
            journal: None,
            resume: false,
            fsync: FsyncPolicy::default(),
        }
    }

    /// Sets the feedback-incorporation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Sets the number of feedback rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.cfg.rounds = rounds;
        self
    }

    /// Sets the recorded experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the demonstrations-per-prompt for error collection.
    pub fn demos_k(mut self, demos_k: usize) -> Self {
        self.cfg.demos_k = demos_k;
        self
    }

    /// Enables or disables the feedback-conformance gate.
    pub fn conformance_gate(mut self, on: bool) -> Self {
        self.cfg.conformance_gate = on;
        self
    }

    /// Enables or disables the per-worker semantic result cache (on by
    /// default; reports are bit-identical either way).
    pub fn semantic_cache(mut self, on: bool) -> Self {
        self.cfg.semantic_cache = on;
        self
    }

    /// Sets the stall-watchdog budget per case (`None` disables the
    /// watchdog — the default).
    pub fn case_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.cfg.case_deadline_ms = deadline_ms;
        self
    }

    /// Journals every finished case to the write-ahead journal at
    /// `path` (see [`crate::journal`]). Without
    /// [`resume`](CorrectionRun::resume) an existing file is truncated
    /// and the run starts fresh.
    pub fn journal(mut self, path: &'a Path) -> Self {
        self.journal = Some(path);
        self
    }

    /// Resume from the configured journal when one already exists:
    /// recorded cases are skipped and their journaled outcomes merged
    /// directly, so a killed run picks up where it stopped and still
    /// produces a report bit-identical to an uninterrupted one. A
    /// journal written by a different experiment (config or case set)
    /// is refused. No-op without [`journal`](CorrectionRun::journal).
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Sets the journal's fsync policy (default:
    /// [`FsyncPolicy::Batch`]).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Asks the simulated user for feedback on every error; keeps the
    /// annotatable subset (the paper's 101-of-243). Sharded like
    /// [`run`](CorrectionRun::run); output order matches input order.
    pub fn annotate(&self, errors: &[ErrorCase]) -> Vec<AnnotatedCase> {
        let annotate_one = |err: &ErrorCase| -> Option<AnnotatedCase> {
            let example = &self.corpus.examples[err.example_idx];
            let db = self.corpus.database(example);
            let view = build_view(db, example, &err.initial);
            self.user
                .feedback(example, &err.initial, &view, 0)
                .map(|feedback| AnnotatedCase {
                    error: err.clone(),
                    feedback,
                })
        };
        shard_map(
            errors,
            self.cfg.effective_workers(errors.len()),
            annotate_one,
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs the multi-round correction protocol (§4.2, Figure 8) for the
    /// configured strategy over the annotated cases, sharded across the
    /// configured worker count. The returned report is bit-identical at
    /// any worker count; only [`CorrectionReport::metrics`] varies.
    ///
    /// Panics on journal I/O failure; use
    /// [`try_run`](CorrectionRun::try_run) to handle that gracefully.
    /// Runs without a journal configured never fail.
    pub fn run(&self, cases: &[AnnotatedCase]) -> CorrectionReport {
        self.try_run(cases).expect("run journal I/O failed")
    }

    /// [`run`](CorrectionRun::run) surfacing journal I/O errors instead
    /// of panicking.
    pub fn try_run(&self, cases: &[AnnotatedCase]) -> io::Result<CorrectionReport> {
        let started = Instant::now();
        let cache_before = cache::global_stats();
        let resilience_before = self.llm.resilience_stats().unwrap_or_default();

        let mut outcomes: Vec<Option<CaseOutcome>> = vec![None; cases.len()];
        let journal = self.open_journal(cases, &mut outcomes)?;
        let pending: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.is_none().then_some(i))
            .collect();
        let workers = self.cfg.effective_workers(pending.len());
        let semcache_hits = AtomicU64::new(0);
        let semcache_misses = AtomicU64::new(0);
        let semcache_totals = (&semcache_hits, &semcache_misses);
        for (idx, outcome) in
            self.run_pending(cases, &pending, workers, journal.as_ref(), semcache_totals)?
        {
            outcomes[idx] = Some(outcome);
        }
        if let Some(journal) = &journal {
            journal.lock().expect("journal lock").sync()?;
        }

        let mut corrected_after_round = vec![0usize; self.cfg.rounds];
        let mut statically_flagged = 0usize;
        let mut executions_saved = 0u64;
        let mut engine_executions = 0u64;
        let mut degraded_rounds = 0u64;
        let mut cases_degraded = 0usize;
        let mut executions_skipped_static = 0u64;
        let mut cases_crashed = 0usize;
        let mut cases_timed_out = 0usize;
        let mut agreement = AgreementStats::default();
        for outcome in outcomes.iter().flatten() {
            match outcome {
                CaseOutcome::Completed(verdict) => {
                    statically_flagged += verdict.statically_flagged;
                    executions_saved += verdict.executions_saved;
                    engine_executions += verdict.engine_executions;
                    degraded_rounds += verdict.degraded_rounds;
                    cases_degraded += usize::from(verdict.degraded_rounds > 0);
                    executions_skipped_static += verdict.executions_skipped_static;
                    agreement.merge(&verdict.agreement);
                    if let Some(r) = verdict.corrected_at {
                        for slot in corrected_after_round.iter_mut().skip(r) {
                            *slot += 1;
                        }
                    }
                }
                CaseOutcome::Crashed { .. } => cases_crashed += 1,
                CaseOutcome::TimedOut { .. } => cases_timed_out += 1,
            }
        }
        let resilience = self
            .llm
            .resilience_stats()
            .unwrap_or_default()
            .since(&resilience_before);
        let mut metrics = RunMetrics::finish(
            workers,
            cases.len(),
            started,
            cache_before,
            engine_executions,
            resilience,
        );
        metrics.agreement = agreement;
        metrics.executions_skipped_cache = semcache_hits.load(Ordering::Acquire);
        metrics.semantic_cache_misses = semcache_misses.load(Ordering::Acquire);
        Ok(CorrectionReport {
            strategy: self.cfg.strategy.name().to_string(),
            total: cases.len(),
            corrected_after_round,
            statically_flagged,
            executions_saved,
            degraded_rounds,
            cases_degraded,
            executions_skipped_static,
            cases_crashed,
            cases_timed_out,
            router_realized_agreements: agreement.agreements,
            router_realized_disagreements: agreement.disagreements(),
            conformance_retries: agreement.retries,
            metrics,
        })
    }

    /// Creates or resumes the configured journal, merging any recovered
    /// records into `outcomes`. `None` when journaling is off.
    fn open_journal(
        &self,
        cases: &[AnnotatedCase],
        outcomes: &mut [Option<CaseOutcome>],
    ) -> io::Result<Option<Mutex<RunJournal>>> {
        let Some(path) = self.journal else {
            return Ok(None);
        };
        let fingerprint = run_fingerprint(&self.cfg, cases);
        let n = cases.len() as u64;
        if self.resume && path.exists() {
            let (journal, records) =
                RunJournal::open_resume::<CaseOutcome>(path, fingerprint, n, self.fsync)?;
            for (idx, outcome) in records {
                if let Some(slot) = outcomes.get_mut(usize::try_from(idx).unwrap_or(usize::MAX)) {
                    *slot = Some(outcome); // duplicate records: last wins
                }
            }
            Ok(Some(Mutex::new(journal)))
        } else {
            let journal = RunJournal::create(path, fingerprint, n, self.fsync)?;
            Ok(Some(Mutex::new(journal)))
        }
    }

    /// Evaluates the not-yet-recorded cases on `workers` workers — the
    /// calling thread plus `workers - 1` scoped threads — each taking the
    /// next pending case from one shared cursor, write-ahead journaling
    /// each outcome as it lands. Returns `(case index, outcome)` pairs in
    /// completion order.
    fn run_pending(
        &self,
        cases: &[AnnotatedCase],
        pending: &[usize],
        workers: usize,
        journal: Option<&Mutex<RunJournal>>,
        semcache_totals: (&AtomicU64, &AtomicU64),
    ) -> io::Result<Vec<(usize, CaseOutcome)>> {
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let slots: Vec<Arc<CaseSlot>> = (0..workers).map(|_| Arc::new(CaseSlot::idle())).collect();
        let done = AtomicBool::new(false);
        let epoch = Instant::now();
        let cursor = Cursor::new(pending);
        std::thread::scope(|scope| {
            let watchdog = self.cfg.case_deadline_ms.map(|deadline_ms| {
                let slots = slots.clone();
                let done = &done;
                scope.spawn(move || watch_for_stalls(&slots, done, epoch, deadline_ms, journal))
            });
            let parts = on_workers(workers, |w| {
                self.run_worker(cases, &cursor, &slots[w], epoch, journal, semcache_totals)
            });
            done.store(true, Ordering::Release);
            if let Some(watchdog) = watchdog {
                watchdog.join().expect("watchdog panicked");
            }
            let mut merged = Vec::with_capacity(pending.len());
            for part in parts {
                merged.extend(part?);
            }
            Ok(merged)
        })
    }

    /// One worker's loop: take the next pending case from `cursor` until
    /// none is left, run it in panic isolation, journal its outcome, and
    /// keep the watchdog slot current.
    fn run_worker(
        &self,
        cases: &[AnnotatedCase],
        cursor: &Cursor<'_, usize>,
        slot: &Arc<CaseSlot>,
        epoch: Instant,
        journal: Option<&Mutex<RunJournal>>,
        semcache_totals: (&AtomicU64, &AtomicU64),
    ) -> io::Result<Vec<(usize, CaseOutcome)>> {
        // While the watchdog is armed, long engine executions on this
        // thread poll the case budget (strided, inside the engine's
        // existing budget checks) and abort once it is exhausted.
        let _pulse = self.cfg.case_deadline_ms.map(|_| {
            let slot = Arc::clone(slot);
            fisql_engine::set_exec_pulse(Some(Box::new(move || {
                now_ms(epoch) > slot.deadline_at_ms.load(Ordering::Relaxed)
            })));
            PulseGuard
        });
        // One semantic result cache per worker: no cross-thread state,
        // and its result lanes are transparent, so which cases this
        // worker happens to draw cannot change any report field.
        let mut semcache = SemanticCache::new(self.cfg.semantic_cache);
        let mut out = Vec::new();
        while let Some((_, &idx)) = cursor.next() {
            slot.begin(idx, epoch, self.cfg.case_deadline_ms);
            let mut outcome = match crate::isolate::run_isolated(|| {
                self.run_case(&cases[idx], slot, epoch, &mut semcache)
            }) {
                Ok(outcome) => outcome,
                Err(message) => CaseOutcome::Crashed { message },
            };
            if slot.claim_journaled() {
                if let Some(journal) = journal {
                    journal
                        .lock()
                        .expect("journal lock")
                        .append(idx as u64, &outcome)?;
                }
            } else {
                // The watchdog already journaled this case as hung past
                // its grace period; keep the in-memory report
                // consistent with what the journal says.
                outcome = CaseOutcome::TimedOut {
                    round: slot.round.load(Ordering::Acquire),
                };
            }
            slot.end();
            out.push((idx, outcome));
        }
        semcache_totals
            .0
            .fetch_add(semcache.stats.hits, Ordering::AcqRel);
        semcache_totals
            .1
            .fetch_add(semcache.stats.misses, Ordering::AcqRel);
        Ok(out)
    }

    /// One case's multi-round correction loop — the unit of sharding.
    fn run_case(
        &self,
        case: &AnnotatedCase,
        slot: &CaseSlot,
        epoch: Instant,
        semcache: &mut SemanticCache,
    ) -> CaseOutcome {
        // One case = one resilience session: the backend resets its
        // per-session breaker/deadline state here, on this worker's
        // thread, so failure handling depends only on this case's own
        // call history (the sharding-invariance contract).
        self.llm.begin_session();
        let example = &self.corpus.examples[case.error.example_idx];
        let db = self.corpus.database(example);
        let mut current = normalize_query(&case.error.initial);
        let mut question = example.question.clone();
        let mut verdict = CaseVerdict::default();
        // The initial prediction seeds the refuted lane: the case exists
        // because that query was wrong.
        semcache.begin_case(db, (!case.error.execution_error).then_some(&current));

        for round in 0..self.cfg.rounds {
            // Heartbeat plus stall checks at every round boundary: the
            // wall-clock budget (the same one the engine pulse polls)
            // and, when the backend keeps one, the *virtual* session
            // clock — deterministic, so simulated stalls time out
            // identically at any worker count.
            slot.round.store(round, Ordering::Release);
            if let Some(limit) = self.cfg.case_deadline_ms {
                if now_ms(epoch) > slot.deadline_at_ms.load(Ordering::Relaxed) {
                    return CaseOutcome::TimedOut { round };
                }
                if self
                    .llm
                    .session_virtual_elapsed_ms()
                    .is_some_and(|virtual_ms| virtual_ms > limit)
                {
                    return CaseOutcome::TimedOut { round };
                }
            }
            // Elicit (or reuse) this round's feedback.
            let mut feedback = if round == 0 {
                Some(case.feedback.clone())
            } else {
                // The render goes through the cache's exact-print lane:
                // a hit replays the byte-identical grid or error string a
                // fresh execution would have produced. The logical
                // execution counter is charged either way — report
                // fields must not depend on cache state.
                let view =
                    build_view_with(db, example, &current, |db, q| semcache.execute_view(db, q));
                verdict.engine_executions += 1; // the view renders a result grid
                self.user.feedback(example, &current, &view, round as u64)
            };
            let Some(fb) = feedback.as_mut() else {
                break;
            };
            // Attach a highlight when the interface supports it.
            if let Strategy::Fisql {
                highlighting: true, ..
            } = self.cfg.strategy
            {
                if fb.highlight.is_none() {
                    let spanned = print_query_spanned(&current);
                    self.user
                        .add_highlight(fb, &spanned, example.id, round as u64);
                }
            }
            let Ok(step) = try_incorporate(
                self.cfg.strategy,
                self.llm,
                &IncorporateContext {
                    db,
                    example,
                    question: &question,
                    previous: &current,
                    feedback: fb,
                    round: round as u64,
                    conformance_gate: self.cfg.conformance_gate,
                },
            ) else {
                // Graceful degradation: the backend failed past the
                // resilience layer's patience, so this round keeps
                // the previous SQL (known incorrect — the loop only
                // reaches here uncorrected) and moves on. The next
                // round re-elicits feedback against it.
                verdict.degraded_rounds += 1;
                continue;
            };
            if step.gate.has_errors() {
                verdict.statically_flagged += 1;
            }
            verdict.executions_saved += step.gate.executions_saved;
            if let Some(s) = &step.search {
                // Search accounting: statically-pruned candidates are
                // executions a generate-and-test loop would have burned;
                // non-chosen survivors are candidates the beam ranked
                // below the one the validator actually runs.
                verdict.executions_skipped_static += s.pruned_static;
                verdict.executions_saved += s.survivors.saturating_sub(1);
            }
            if let Some(c) = step.conformance {
                verdict
                    .agreement
                    .record(c.agreed, c.retried, c.agreed_after_retry);
            }
            current = step.query;
            question = step.question;

            // The correctness check (predicted + gold) goes through the
            // cache's execution gate. A candidate canonically equivalent
            // to a query this case already refuted is answered without
            // the engine; otherwise the prediction routes through the
            // semantic lane and the gold comes from the corpus memo, and
            // the logical counter is charged whether or not either ran,
            // so reports stay cache-invariant.
            let Some(check) =
                semcache.check_in_corpus(self.corpus, example, &current, !step.gate.has_errors())
            else {
                verdict.executions_skipped_static += 2;
                continue;
            };
            verdict.engine_executions += 2;
            if check.is_correct() {
                verdict.corrected_at = Some(round);
                break;
            }
        }
        CaseOutcome::Completed(verdict)
    }
}

impl CorrectionRun<'_, SimLlm> {
    /// Runs the production Assistant (few-shot RAG) over the corpus and
    /// collects the error cases (§4.1). Sharded across the configured
    /// worker count; output order matches corpus order.
    pub fn collect_errors(&self) -> Vec<ErrorCase> {
        let assistant = Assistant::for_corpus(self.corpus, self.llm.clone(), self.cfg.demos_k);
        let indexed: Vec<usize> = (0..self.corpus.examples.len()).collect();
        let workers = self.cfg.effective_workers(indexed.len());
        let check_one = |i: &usize| -> Option<ErrorCase> {
            let e = &self.corpus.examples[*i];
            let db = self.corpus.database(e);
            let turn = assistant.answer(db, e, 0);
            let verdict = check_prediction(db, e, &turn.query);
            if verdict.is_correct() {
                None
            } else {
                Some(ErrorCase {
                    example_idx: *i,
                    initial: turn.query,
                    execution_error: matches!(verdict, Verdict::ExecutionError { .. }),
                })
            }
        };
        shard_map(&indexed, workers, check_one)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Hands out the items of a slice one at a time, with their positions,
/// to whichever worker asks next — the runner's only scheduling state.
struct Cursor<'a, T> {
    items: &'a [T],
    next: AtomicUsize,
}

impl<'a, T> Cursor<'a, T> {
    fn new(items: &'a [T]) -> Self {
        Cursor {
            items,
            next: AtomicUsize::new(0),
        }
    }

    /// The next untaken item and its position; `None` once all are taken.
    fn next(&self) -> Option<(usize, &'a T)> {
        // Relaxed: the read-modify-write alone makes every position
        // unique, the cursor publishes no other data, and outputs travel
        // back through the threads' joins.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.items.get(i).map(|item| (i, item))
    }
}

/// Runs `work(w)` for every worker `w` in `0..workers` — worker 0 on the
/// calling thread, so it does not idle while the others run, and the
/// rest on scoped threads — and returns their results in worker order.
fn on_workers<R: Send>(workers: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut results = vec![work(0)];
        results.extend(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("runner worker panicked")),
        );
        results
    })
}

/// Maps `f` over `items` on `workers` workers, each taking the next item
/// from one shared [`Cursor`], and places every output at its item's
/// position — so the result equals `items.iter().map(f).collect()`
/// exactly, for any `workers`.
fn shard_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = Cursor::new(items);
    let parts = on_workers(workers, |_| {
        let mut out = Vec::new();
        while let Some((i, item)) = cursor.next() {
            out.push((i, f(item)));
        }
        out
    });
    let mut placed: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        placed[i] = Some(r);
    }
    placed
        .into_iter()
        .map(|r| r.expect("the cursor hands out every item"))
        .collect()
}

/// Milliseconds elapsed since the run epoch (saturating).
fn now_ms(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Shared per-worker watchdog slot: which case the worker is on, its
/// current round, and the case's absolute wall-clock deadline in
/// milliseconds since the run epoch (`u64::MAX` = unarmed,
/// `usize::MAX` case index = idle).
struct CaseSlot {
    case_idx: AtomicUsize,
    round: AtomicUsize,
    deadline_at_ms: AtomicU64,
    journaled: AtomicBool,
}

impl CaseSlot {
    fn idle() -> CaseSlot {
        CaseSlot {
            case_idx: AtomicUsize::new(usize::MAX),
            round: AtomicUsize::new(0),
            deadline_at_ms: AtomicU64::new(u64::MAX),
            journaled: AtomicBool::new(true),
        }
    }

    fn begin(&self, idx: usize, epoch: Instant, deadline_ms: Option<u64>) {
        self.round.store(0, Ordering::Release);
        self.journaled.store(false, Ordering::Release);
        self.deadline_at_ms.store(
            deadline_ms.map_or(u64::MAX, |d| now_ms(epoch).saturating_add(d)),
            Ordering::Release,
        );
        self.case_idx.store(idx, Ordering::Release);
    }

    fn end(&self) {
        self.case_idx.store(usize::MAX, Ordering::Release);
        self.deadline_at_ms.store(u64::MAX, Ordering::Release);
    }

    /// Exactly-once journaling handshake between the worker and the
    /// watchdog: whoever flips the flag first writes the record.
    fn claim_journaled(&self) -> bool {
        self.journaled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Clears the engine's execution pulse when the worker thread finishes.
struct PulseGuard;

impl Drop for PulseGuard {
    fn drop(&mut self) {
        fisql_engine::set_exec_pulse(None);
    }
}

/// The stall monitor: wakes a few times per deadline period and
/// write-ahead journals any case hung *far* past its budget (cooperative
/// cancellation cannot fire while non-engine code is stuck), so that
/// killing the process mid-hang still leaves a record and the resumed
/// run skips the poisonous case instead of hanging on it again.
fn watch_for_stalls(
    slots: &[Arc<CaseSlot>],
    done: &AtomicBool,
    epoch: Instant,
    deadline_ms: u64,
    journal: Option<&Mutex<RunJournal>>,
) {
    let grace = deadline_ms.saturating_mul(4).max(1);
    let poll = Duration::from_millis((deadline_ms / 4).clamp(5, 250));
    while !done.load(Ordering::Acquire) {
        let now = now_ms(epoch);
        for slot in slots {
            let idx = slot.case_idx.load(Ordering::Acquire);
            if idx == usize::MAX {
                continue;
            }
            let due = slot.deadline_at_ms.load(Ordering::Acquire);
            if now <= due.saturating_add(grace) {
                continue;
            }
            if let Some(journal) = journal {
                if slot.claim_journaled() {
                    let outcome = CaseOutcome::TimedOut {
                        round: slot.round.load(Ordering::Acquire),
                    };
                    if let Ok(mut guard) = journal.lock() {
                        // Best effort: a journaling error here must not
                        // take down the monitor.
                        let _ = guard.append(idx as u64, &outcome);
                        let _ = guard.sync();
                    }
                }
            }
        }
        std::thread::sleep(poll);
    }
}

/// Content fingerprint binding a run journal to one experiment: the
/// full configuration *except* the worker count (sharding never changes
/// the report, so a journal written at one worker count resumes at any
/// other) plus a digest of the case set — example index, initial SQL,
/// feedback text, and execution status of every annotated case.
pub fn run_fingerprint(cfg: &ExperimentConfig, cases: &[AnnotatedCase]) -> u64 {
    let mut id_cfg = *cfg;
    id_cfg.workers = 0;
    let mut hasher = Fnv64::new();
    hasher.update(
        serde_json::to_string(&id_cfg)
            .expect("config serializes")
            .as_bytes(),
    );
    for case in cases {
        hasher.update(&(case.error.example_idx as u64).to_le_bytes());
        hasher.update(print_query(&case.error.initial).as_bytes());
        hasher.update(case.feedback.text.as_bytes());
        hasher.update(&[u8::from(case.error.execution_error)]);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_feedback::UserConfig;
    use fisql_llm::LlmConfig;
    use fisql_spider::SpiderConfig;

    fn small_setup() -> (Corpus, SimLlm, SimUser) {
        let corpus = fisql_spider::build_spider(&SpiderConfig::small(77));
        (
            corpus,
            SimLlm::new(LlmConfig::default()),
            SimUser::new(UserConfig::default()),
        )
    }

    #[test]
    fn shard_map_equals_serial_map_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        // 3 and 7 leave an uneven cursor tail; 64 is more workers than
        // items.
        for workers in [1, 2, 3, 7, 8, 64] {
            assert_eq!(shard_map(&items, workers, |x| x * x), serial);
        }
        assert!(shard_map(&[] as &[u64], 4, |x| x * x).is_empty());
    }

    #[test]
    fn reports_are_bit_identical_at_any_worker_count() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2);
        let errors = run.workers(1).collect_errors();
        let annotated = run.workers(1).annotate(&errors);
        assert!(
            !annotated.is_empty(),
            "need cases to make the test meaningful"
        );

        let serial = run.workers(1).run(&annotated);
        let serial_json = serde_json::to_string(&serial).unwrap();
        // 3 and 7 do not divide the case count; the last is more workers
        // than cases (the runner clamps it to one per case).
        for workers in [2, 3, 7, 8, annotated.len() + 5] {
            let parallel = run.workers(workers).run(&annotated);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serial_json,
                "report diverged at {workers} workers"
            );
        }
        assert_eq!(
            run.workers(annotated.len() + 5)
                .run(&annotated)
                .metrics
                .workers,
            annotated.len()
        );
    }

    #[test]
    fn collection_and_annotation_are_worker_count_invariant() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user).demos_k(3);
        let serial_errors = run.workers(1).collect_errors();
        let sharded_errors = run.workers(8).collect_errors();
        assert_eq!(serial_errors.len(), sharded_errors.len());
        for (a, b) in serial_errors.iter().zip(&sharded_errors) {
            assert_eq!(a.example_idx, b.example_idx);
            assert_eq!(a.initial, b.initial);
        }
        let serial_ann = run.workers(1).annotate(&serial_errors);
        let sharded_ann = run.workers(8).annotate(&serial_errors);
        assert_eq!(serial_ann.len(), sharded_ann.len());
    }

    #[test]
    fn metrics_record_throughput() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .workers(2);
        let errors = run.collect_errors();
        let annotated = run.annotate(&errors);
        let report = run.run(&annotated);
        assert_eq!(report.metrics.workers, 2.min(annotated.len().max(1)));
        assert!(report.metrics.wall_ms >= 0.0);
        if !annotated.is_empty() {
            assert!(report.metrics.cases_per_sec > 0.0);
            // Every case's correctness check either ran (2 executions)
            // or was answered by the semantic cache's refuted lane.
            assert!(
                report.metrics.engine_executions + report.executions_skipped_static
                    >= 2 * annotated.len() as u64
            );
        }
        // metrics are serde(skip): serialized reports contain none of them
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("wall_ms"));
    }

    #[test]
    fn refuted_lane_skips_fire_and_are_worker_count_invariant() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2);
        let errors = run.workers(1).collect_errors();
        let annotated = run.workers(1).annotate(&errors);
        assert!(!annotated.is_empty());

        let serial = run.workers(1).run(&annotated);
        assert!(
            serial.executions_skipped_static > 0,
            "expected at least one refuted candidate"
        );
        // The lane is per case, so which candidates it refutes cannot
        // depend on which cases share a worker — nor on the result lanes.
        let serial_json = serde_json::to_string(&serial).unwrap();
        for (workers, cache) in [(2, true), (8, true), (8, false)] {
            let sharded = run.workers(workers).semantic_cache(cache).run(&annotated);
            assert_eq!(
                serde_json::to_string(&sharded).unwrap(),
                serial_json,
                "report diverged at {workers} workers (cache {cache})"
            );
            assert_eq!(
                sharded.metrics.engine_executions,
                serial.metrics.engine_executions
            );
        }
    }

    #[test]
    fn search_refine_reports_bit_identical_and_resumable() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .strategy(Strategy::SearchRefine)
            .demos_k(3)
            .rounds(2);
        let errors = run.workers(1).collect_errors();
        let annotated = run.workers(1).annotate(&errors);
        assert!(!annotated.is_empty());

        let serial = run.workers(1).run(&annotated);
        let serial_json = serde_json::to_string(&serial).unwrap();
        for workers in [2, 8] {
            let parallel = run.workers(workers).run(&annotated);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serial_json,
                "SearchRefine report diverged at {workers} workers"
            );
        }

        // Torn-tail resume must reproduce the fresh report byte for byte.
        let path = std::env::temp_dir().join(format!(
            "fisql-runner-search-journal-{}.fjnl",
            std::process::id()
        ));
        let journaled = run
            .workers(1)
            .journal(&path)
            .fsync(FsyncPolicy::Never)
            .run(&annotated);
        assert_eq!(serde_json::to_string(&journaled).unwrap(), serial_json);
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() / 2).max(crate::journal::HEADER_LEN);
        std::fs::write(&path, &full[..cut]).unwrap();
        let resumed = run
            .workers(4)
            .journal(&path)
            .resume(true)
            .fsync(FsyncPolicy::Never)
            .run(&annotated);
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serial_json,
            "SearchRefine resume diverged from the fresh run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_refine_executes_less_than_rewrite_per_correction() {
        let (corpus, llm, user) = small_setup();
        let base = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = base.collect_errors();
        let annotated = base.annotate(&errors);
        assert!(!annotated.is_empty());

        let corrected = |r: &CorrectionReport| *r.corrected_after_round.last().unwrap_or(&0);
        let search = base.strategy(Strategy::SearchRefine).run(&annotated);
        let rewrite = base.strategy(Strategy::QueryRewrite).run(&annotated);
        assert!(
            corrected(&search) >= corrected(&rewrite),
            "SearchRefine corrected {} < Query Rewrite {}",
            corrected(&search),
            corrected(&rewrite)
        );
        assert!(corrected(&search) > 0, "SearchRefine corrected nothing");
        let per_case =
            |r: &CorrectionReport| r.metrics.engine_executions as f64 / corrected(r).max(1) as f64;
        assert!(
            per_case(&search) < per_case(&rewrite),
            "SearchRefine {:.2} executions per corrected case >= Query Rewrite {:.2}",
            per_case(&search),
            per_case(&rewrite)
        );
        // The search's static pruning shows up in the ledger.
        assert!(search.executions_skipped_static > 0 || search.executions_saved > 0);
    }

    #[test]
    fn conformance_gate_preserves_report_modulo_counters() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = run.collect_errors();
        let annotated = run.annotate(&errors);
        assert!(!annotated.is_empty());

        let gated = run.conformance_gate(true).run(&annotated);
        let plain = run.conformance_gate(false).run(&annotated);
        assert_eq!(plain.router_realized_agreements, 0);
        assert_eq!(plain.conformance_retries, 0);
        assert!(
            gated.router_realized_agreements + gated.router_realized_disagreements > 0,
            "gate saw no candidates"
        );
        // On a deterministic backend the re-prompt regenerates the same
        // candidate, so everything except the new counters is identical.
        let mut neutered = gated.clone();
        neutered.router_realized_agreements = plain.router_realized_agreements;
        neutered.router_realized_disagreements = plain.router_realized_disagreements;
        neutered.conformance_retries = plain.conformance_retries;
        assert_eq!(
            serde_json::to_string(&neutered).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
    }

    #[test]
    fn dynamic_strategy_differs_from_fisql_only_by_its_calibrated_bonus() {
        let corpus = fisql_spider::build_spider(&SpiderConfig::small(77));
        let llm = SimLlm::new(LlmConfig {
            calibration: fisql_llm::Calibration {
                dynamic_demo_bonus: 0.0,
                ..Default::default()
            },
            ..LlmConfig::default()
        });
        let user = SimUser::new(UserConfig::default());
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = run.collect_errors();
        let annotated = run.annotate(&errors);
        assert!(!annotated.is_empty());

        let blanked = |strategy: Strategy| {
            let mut report = run.strategy(strategy).run(&annotated);
            report.strategy = String::new();
            report
        };
        let fisql = blanked(Strategy::Fisql {
            routing: true,
            highlighting: false,
        });
        assert!(fisql.corrected_after_round.iter().any(|&n| n > 0));
        assert_eq!(
            serde_json::to_string(&blanked(Strategy::FisqlDynamic)).unwrap(),
            serde_json::to_string(&fisql).unwrap()
        );
    }

    /// A forwarding backend whose virtual session clock is permanently
    /// past any deadline: every case expires at its first round boundary,
    /// deterministically, at any worker count.
    struct StalledClock<B>(B);

    impl<B: FallibleLanguageModel> FallibleLanguageModel for StalledClock<B> {
        fn try_generate_sql(
            &self,
            req: &fisql_llm::GenRequest<'_>,
        ) -> fisql_llm::BackendResult<fisql_llm::Generation> {
            self.0.try_generate_sql(req)
        }

        fn try_classify_feedback(
            &self,
            utterance: &str,
            salt: u64,
        ) -> fisql_llm::BackendResult<fisql_sqlkit::OpClass> {
            self.0.try_classify_feedback(utterance, salt)
        }

        fn try_rewrite_question(
            &self,
            question: &str,
            feedback: &str,
        ) -> fisql_llm::BackendResult<String> {
            self.0.try_rewrite_question(question, feedback)
        }

        fn try_edit_success_prob(
            &self,
            routed: bool,
            dynamic: bool,
        ) -> fisql_llm::BackendResult<f64> {
            self.0.try_edit_success_prob(routed, dynamic)
        }

        fn try_edit_complexity_factor(
            &self,
            edits: &[fisql_sqlkit::EditOp],
        ) -> fisql_llm::BackendResult<f64> {
            self.0.try_edit_complexity_factor(edits)
        }

        fn try_apply_feedback_edit_with_prob(
            &self,
            previous: &fisql_sqlkit::Query,
            edits: &[fisql_sqlkit::EditOp],
            p: f64,
            example_id: usize,
            salt: u64,
        ) -> fisql_llm::BackendResult<fisql_sqlkit::Query> {
            self.0
                .try_apply_feedback_edit_with_prob(previous, edits, p, example_id, salt)
        }

        fn session_virtual_elapsed_ms(&self) -> Option<u64> {
            Some(u64::MAX)
        }
    }

    #[test]
    fn panicking_cases_are_contained_and_bit_identical() {
        let (corpus, llm, user) = small_setup();
        let collect = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = collect.collect_errors();
        let annotated = collect.annotate(&errors);
        assert!(!annotated.is_empty());

        let crashing = fisql_llm::FaultyBackend::new(
            llm.clone(),
            fisql_llm::FaultConfig {
                panic: 0.15,
                ..fisql_llm::FaultConfig::default()
            },
        );
        let run = CorrectionRun::new(&corpus, &crashing, &user)
            .demos_k(3)
            .rounds(2);
        let serial = run.workers(1).run(&annotated);
        assert!(
            serial.cases_crashed > 0,
            "a 15% per-call panic rate never fired across {} cases",
            annotated.len()
        );
        assert_eq!(serial.total, annotated.len());
        let serial_json = serde_json::to_string(&serial).unwrap();
        for workers in [4, 8] {
            let parallel = run.workers(workers).run(&annotated);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serial_json,
                "crash containment diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn virtual_clock_stalls_time_out_deterministically() {
        let (corpus, llm, user) = small_setup();
        let collect = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = collect.collect_errors();
        let annotated = collect.annotate(&errors);
        assert!(!annotated.is_empty());

        let stalled = StalledClock(llm.clone());
        let run = CorrectionRun::new(&corpus, &stalled, &user)
            .demos_k(3)
            .rounds(2)
            .case_deadline_ms(Some(5_000));
        let serial = run.workers(1).run(&annotated);
        assert_eq!(
            serial.cases_timed_out,
            annotated.len(),
            "every case's virtual clock is past the deadline"
        );
        assert_eq!(serial.corrected_after_round, vec![0, 0]);
        let serial_json = serde_json::to_string(&serial).unwrap();
        for workers in [4, 8] {
            let parallel = run.workers(workers).run(&annotated);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serial_json,
                "virtual-clock expiry diverged at {workers} workers"
            );
        }

        // Without a deadline the same backend runs to completion: the
        // watchdog is strictly opt-in.
        let unarmed = run.case_deadline_ms(None).workers(1).run(&annotated);
        assert_eq!(unarmed.cases_timed_out, 0);
    }

    #[test]
    fn journal_resume_after_torn_tail_matches_fresh_run() {
        let (corpus, llm, user) = small_setup();
        let run = CorrectionRun::new(&corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(1);
        let errors = run.collect_errors();
        let annotated = run.annotate(&errors);
        assert!(annotated.len() >= 4, "need a few cases to truncate");
        let baseline = run.run(&annotated);
        let baseline_json = serde_json::to_string(&baseline).unwrap();

        let path =
            std::env::temp_dir().join(format!("fisql-runner-journal-{}.fjnl", std::process::id()));
        // Journal at one worker (records in case order) and at three
        // (records in completion order, so a torn tail loses cases from
        // anywhere in the list), then chop each journal mid-record — the
        // moral equivalent of SIGKILL mid-write — and resume at several
        // worker counts.
        for journal_workers in [1, 3] {
            let journaled = run
                .workers(journal_workers)
                .journal(&path)
                .fsync(FsyncPolicy::Never)
                .run(&annotated);
            assert_eq!(
                serde_json::to_string(&journaled).unwrap(),
                baseline_json,
                "journaling must not perturb the report"
            );
            let full = std::fs::read(&path).unwrap();
            assert!(full.len() > crate::journal::HEADER_LEN + 16);
            for (workers, cut) in [
                (1, full.len() / 3),
                (4, full.len() / 2),
                (8, full.len() - 5),
            ] {
                let cut = cut.max(crate::journal::HEADER_LEN);
                std::fs::write(&path, &full[..cut]).unwrap();
                let resumed = run
                    .workers(workers)
                    .journal(&path)
                    .resume(true)
                    .fsync(FsyncPolicy::Never)
                    .run(&annotated);
                assert_eq!(
                    serde_json::to_string(&resumed).unwrap(),
                    baseline_json,
                    "resume(journaled at {journal_workers}, cut={cut}, workers={workers}) \
                     diverged from the fresh run"
                );
            }
        }
        let full = std::fs::read(&path).unwrap();

        // A resume against a *different* experiment is refused outright.
        std::fs::write(&path, &full).unwrap();
        let err = run
            .rounds(1)
            .journal(&path)
            .resume(true)
            .try_run(&annotated)
            .unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "wanted a fingerprint refusal, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workers_env_and_effective_workers_resolution() {
        let cfg = ExperimentConfig {
            workers: 4,
            ..ExperimentConfig::default()
        };
        assert_eq!(cfg.effective_workers(100), 4);
        assert_eq!(cfg.effective_workers(2), 2); // never more threads than items
        assert_eq!(cfg.effective_workers(0), 1); // never fewer than one
        let auto = ExperimentConfig {
            workers: 0,
            ..ExperimentConfig::default()
        };
        assert!(auto.effective_workers(100) >= 1);
    }
}
