//! # fisql — Feedback-Infused SQL generation
//!
//! A full Rust reproduction of *"FISQL: Enhancing Text-to-SQL Systems
//! with Rich Interactive Feedback"* (Menon et al., EDBT 2025): an
//! interactive human-in-the-loop NL2SQL correction pipeline, together
//! with every substrate it needs to run offline —
//!
//! - [`fisql_sqlkit`]: SQL lexer/parser/AST, span-tracked printer,
//!   structural diff, and clause-level edit engine;
//! - [`fisql_engine`]: an in-memory relational executor with SQLite-like
//!   semantics and the execution-match metric;
//! - [`fisql_spider`]: seeded SPIDER-like and AEP-like benchmark corpora;
//! - [`fisql_llm`]: the simulated LLM (prompt templates per the paper's
//!   Figures 1/5/6, calibrated comprehension model);
//! - [`fisql_feedback`]: the simulated user/annotator;
//! - [`fisql_core`]: FISQL itself — Assistant, feedback interpretation,
//!   routing, highlighting, baselines, and the experiment drivers.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! substitution arguments, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! ```
//! use fisql::prelude::*;
//!
//! let mut db = Database::new("demo");
//! let mut t = Table::new("singer", vec![
//!     Column::new("name", DataType::Text),
//!     Column::new("age", DataType::Int),
//! ]);
//! t.push_row(vec!["Ann".into(), Value::Int(33)]);
//! db.add_table(t);
//! let rs = execute_sql(&db, "SELECT COUNT(*) FROM singer").unwrap();
//! assert_eq!(rs.scalar().unwrap(), &Value::Int(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fisql_core;
pub use fisql_engine;
pub use fisql_feedback;
pub use fisql_llm;
pub use fisql_spider;
pub use fisql_sqlkit;

/// The commonly-used surface of the whole workspace in one import.
pub mod prelude {
    pub use fisql_core::{
        explain_query, interpret, reformulate, render_events, run_fingerprint, try_incorporate,
        zero_shot_report, AnnotatedCase, Assistant, AssistantTurn, CaseOutcome, CaseVerdict,
        ConfigError, ConformanceReport, CorrectionReport, CorrectionRun, ErrorCase, EvalConfig,
        ExperimentConfig, FsyncPolicy, IncorporateContext, LoadConfig, RunJournal, RunMetrics,
        ServeClient, ServeConfig, Server, Session, SessionEvent, Strategy,
    };
    pub use fisql_engine::{
        execute_sql, results_match, Column, DataType, Database, ForeignKey, ResultSet, Table, Value,
    };
    pub use fisql_feedback::{Feedback, SimUser, UserConfig, UserView};
    pub use fisql_llm::{
        BackendError, BackendResult, Calibration, Demonstration, ExhaustedReason,
        FallibleLanguageModel, FaultConfig, FaultyBackend, GenMode, GenRequest, LlmConfig,
        ResilienceConfig, ResilienceStats, Resilient, SimLlm,
    };
    pub use fisql_spider::{
        build_aep, build_spider, AepConfig, Corpus, Example, Hardness, SpiderConfig,
    };
    pub use fisql_sqlkit::{
        apply_edits, canon_fingerprint, canonicalize, canonically_equivalent, check_query,
        diff_queries, normalize_query, parse_query, print_query, provably_equivalent,
        render_report, repair_query, structurally_equal, DiagCode, Diagnostic, EditOp, OpClass,
        Query, SchemaInfo, Severity, Span,
    };
    pub use rand::SeedableRng;
}
