//! # fisql-llm
//!
//! Simulated-LLM substrate for the FISQL reproduction.
//!
//! The paper builds on OpenAI's `gpt-3.5-turbo-1106`, which cannot run in
//! this offline reproduction. This crate replaces it with [`SimLlm`]: a
//! deterministic, seeded model that plays the same three roles the paper
//! prompts GPT for — NL2SQL generation, feedback-type classification, and
//! feedback-conditioned regeneration. It reads counts, queries and edit
//! lists rather than prompt text; the paper's Figure 1, 5, and 6 prompts
//! are kept as templates in [`prompt`], pinned by golden tests.
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
pub mod calibration;
pub mod embedding;
pub mod error;
pub mod faults;
pub mod model;
pub mod prompt;
pub mod resilience;

pub use agreement::{routing_alignment, AgreementStats};
pub use backend::FallibleLanguageModel;
pub use calibration::Calibration;
pub use embedding::Embedding;
pub use error::{BackendError, BackendResult, ExhaustedReason};
pub use faults::{FaultConfig, FaultyBackend, FAULT_RATE_ENV};
pub use model::{
    channel_resolved_by_text, keyword_route, GenMode, GenRequest, Generation, LlmConfig, SimLlm,
};
pub use prompt::Demonstration;
pub use resilience::{BreakerState, ResilienceConfig, ResilienceStats, Resilient};
