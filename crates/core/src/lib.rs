//! # fisql-core
//!
//! FISQL — Feedback-Infused SQL generation (Menon et al., EDBT 2025) —
//! the paper's primary contribution: an interactive human-in-the-loop
//! NL2SQL correction pipeline.
//!
//! - [`assistant`]: the NL2SQL front end (§3.2) returning execution
//!   result, reformulation, step-by-step explanation, and SQL.
//! - [`interpret`](mod@interpret): grounding natural-language feedback onto clause-level
//!   edits of the previous query.
//! - [`pipeline`]: the two-step feedback incorporation (§3.3) with the
//!   routing and highlighting switches, plus the Query Rewrite baseline.
//! - [`refine`]: incremental query building (§5 future work).
//! - [`session`]: the chat surface (Figures 3-4).
//! - [`experiment`]: drivers regenerating the paper's evaluation (§4).
//! - [`runner`]: the parallel, sharded evaluation runner behind the
//!   [`CorrectionRun`] builder — bit-identical reports at any worker
//!   count, with per-case panic isolation and an optional stall
//!   watchdog.
//! - [`journal`]: the crash-safe write-ahead run journal that makes
//!   killed evaluations resumable without changing their reports.
//! - [`config`]: typed, validated configuration for the `fisql` entry
//!   points (`--eval`, `serve`, `load`).
//! - [`serve`]: the long-lived multi-session daemon — wire protocol,
//!   admission control, journal-backed session store, server, client,
//!   and deterministic load generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod assistant;
pub mod config;
pub mod experiment;
pub mod explain;
pub mod interpret;
mod isolate;
pub mod journal;
pub mod pipeline;
pub mod refine;
pub mod runner;
pub mod semcache;
pub mod serve;
pub mod session;

pub use analysis::{analyze_round, ErrorAnalysis, FailureCause};
pub use assistant::{Assistant, AssistantTurn, QuestionIndex};
pub use config::{chaos_stack, ConfigError, EvalConfig, LoadConfig, ServeConfig};
pub use experiment::{zero_shot_report, AnnotatedCase, CorrectionReport, ErrorCase};
pub use explain::{explain_query, reformulate};
pub use interpret::{interpret, interpret_candidates, Candidate, Interpretation};
pub use journal::{FsyncPolicy, RunJournal};
pub use pipeline::{
    gate_candidate, try_incorporate, AvoidedExecutions, ConformanceReport, GateOutcome,
    IncorporateContext, IncorporateOutcome, Strategy,
};
pub use refine::{QueryBuilder, RefineError, RefineStep};
pub use runner::{
    run_fingerprint, workers_from_env, CaseOutcome, CaseVerdict, CorrectionRun, ExperimentConfig,
    RunMetrics,
};
pub use semcache::{CacheStats, SemanticCache};
pub use serve::{
    run_chaos, run_load, ChaosBehavior, ChaosConfig, ChaosReport, ClientTurn, Connected,
    LoadReport, ServeClient, Server, ServerHandle, ServerStats, SessionStore, StoreOptions,
};
pub use session::{render_events, Session, SessionEvent};
