//! # fisql-spider
//!
//! Benchmark substrate for the FISQL reproduction: synthetic SPIDER-like
//! and AEP-like corpora plus the execution-accuracy evaluation harness.
//!
//! The paper evaluates on (a) the SPIDER validation set (~200 databases,
//! 1034 dev questions) and (b) an internal Adobe Experience Platform
//! dataset. Neither is shippable here, so this crate generates seeded
//! synthetic equivalents that match the paper's published statistics and
//! ambiguity structure (see DESIGN.md §2 for the substitution argument).
//!
//! Every example is generated *intent-first*: a semantic frame sampled
//! from the schema is compiled into gold SQL and rendered into a natural-
//! language question, and the frame's *error channels* — the structured
//! ways a model can misread the question — are recorded for the simulated
//! LLM in `fisql-llm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aep;
pub mod channels;
pub mod corpus;
pub mod data_gen;
pub mod eval;
pub mod example;
pub mod intent;
pub mod intent_gen;
pub mod question;
pub mod schema_gen;
pub mod vocab;

pub use aep::{build_aep, build_aep_database, jargon_surface, AepConfig};
pub use channels::{
    applicable_channels, corrupt, corrupt_many, DifficultyProfile, ErrorChannel, WeightedChannel,
};
pub use corpus::{build_spider, SpiderConfig};
pub use eval::{
    check_prediction, check_prediction_with, evaluate, judge_prediction, user_visible_result,
    AccuracyReport, Verdict,
};
pub use example::{Corpus, Example, ExecOutcome, Hardness};
pub use intent::{AggIntent, Intent, JoinStep, PredIntent, PredKind, Projection, Shape};
pub use intent_gen::generate_intent;
pub use question::{humanize, pluralize, render_question};
