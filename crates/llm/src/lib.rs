//! # fisql-llm
//!
//! Simulated-LLM substrate for the FISQL reproduction.
//!
//! The paper builds on OpenAI's `gpt-3.5-turbo-1106`, which cannot run in
//! this offline reproduction. This crate replaces it with [`SimLlm`]: a
//! deterministic, seeded model that plays the same three roles the paper
//! prompts GPT for — NL2SQL generation, feedback-type classification, and
//! feedback-conditioned regeneration — behind the *same prompts* (built
//! verbatim per the paper's Figures 1, 5, and 6 by [`prompt`]).
//!
//! The substitution argument (DESIGN.md §2): the paper's claims concern
//! the pipeline *around* the LLM — routing plus demonstrations plus
//! feedback context versus query rewriting — not GPT-3.5 itself. A
//! calibrated comprehension model reproduces the shape of every reported
//! number while keeping each pipeline stage real and testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod backend;
pub mod cache;
pub mod calibration;
pub mod embedding;
pub mod error;
pub mod faults;
pub mod model;
pub mod prompt;
pub mod resilience;
pub mod retrieval;
pub mod routing_pool;

pub use agreement::{routing_alignment, AgreementStats};
pub use backend::FallibleLanguageModel;
pub use cache::{CacheStats, ConcurrentCache};
pub use calibration::Calibration;
pub use embedding::Embedding;
pub use error::{BackendError, BackendResult, ExhaustedReason};
pub use faults::{FaultConfig, FaultyBackend, FAULT_RATE_ENV};
pub use model::{
    channel_resolved_by_text, keyword_route, GenMode, GenRequest, Generation, LlmConfig, SimLlm,
};
pub use resilience::{BreakerState, ResilienceConfig, ResilienceStats, Resilient};
pub use retrieval::{DemoStore, Demonstration};
pub use routing_pool::{clause_inventory, ClauseKind, FeedbackDemo, RoutingPool};
