//! Shared harness for the paper driver and the bench binaries.
//!
//! Every table and figure of the paper is a row of the `exp` binary (see
//! DESIGN.md §4); this library holds the common corpus/model/user
//! construction so all experiments run off identical, seeded inputs, and
//! [`emit`], the one writer of the `BENCH_*.json` files the two bench
//! binaries (`bench_serve`, `bench_ha`) produce. The eval benchmark of
//! record is perfbench's `eval` workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fisql_core::{AnnotatedCase, CorrectionRun};
use fisql_feedback::{SimUser, UserConfig};
use fisql_llm::{LlmConfig, SimLlm};
use fisql_spider::{build_aep, build_spider, AepConfig, Corpus, SpiderConfig};
use serde::Content;
use serde_json::Value;

/// Master seed shared by all experiments unless overridden with
/// `FISQL_SEED`.
pub const DEFAULT_SEED: u64 = 0xF15C;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale: 200 databases / 1034 SPIDER-like questions, 225
    /// AEP-like questions.
    Full,
    /// CI scale: a few databases, a few dozen questions.
    Small,
}

impl Scale {
    /// Reads `FISQL_SCALE=small` from the environment (default: full).
    pub fn from_env() -> Scale {
        match std::env::var("FISQL_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            _ => Scale::Full,
        }
    }

    /// The `FISQL_SCALE` spelling of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// Seed from `FISQL_SEED`, defaulting to [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    std::env::var("FISQL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The full experimental setup: both corpora plus model and user.
pub struct Setup {
    /// SPIDER-like corpus.
    pub spider: Corpus,
    /// AEP-like corpus.
    pub aep: Corpus,
    /// The simulated LLM.
    pub llm: SimLlm,
    /// The simulated user.
    pub user: SimUser,
    /// The seed everything derives from.
    pub seed: u64,
}

impl Setup {
    /// Builds the setup at the given scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Setup {
        let spider = match scale {
            Scale::Full => build_spider(&SpiderConfig {
                seed,
                ..Default::default()
            }),
            Scale::Small => build_spider(&SpiderConfig::small(seed)),
        };
        let aep = match scale {
            Scale::Full => build_aep(&AepConfig {
                seed: seed ^ 0xAE9,
                ..Default::default()
            }),
            Scale::Small => build_aep(&AepConfig {
                n_examples: 60,
                seed: seed ^ 0xAE9,
            }),
        };
        let llm = SimLlm::new(LlmConfig {
            seed: seed ^ 0x515E,
            calibration: fisql_llm::Calibration::default(),
        });
        let user = SimUser::new(UserConfig {
            seed: seed ^ 0x05E4,
            ..Default::default()
        });
        Setup {
            spider,
            aep,
            llm,
            user,
            seed,
        }
    }

    /// Builds from environment (`FISQL_SCALE`, `FISQL_SEED`).
    pub fn from_env() -> Setup {
        Setup::new(Scale::from_env(), seed_from_env())
    }
}

/// The experiment builder wired for one corpus of this setup, honouring
/// `FISQL_WORKERS` (the builder default reads it).
pub fn runner<'a>(setup: &'a Setup, corpus: &'a Corpus) -> CorrectionRun<'a> {
    CorrectionRun::new(corpus, &setup.llm, &setup.user).demos_k(3)
}

/// Error collection + annotation for one corpus (the §4.1 protocol).
pub fn annotated_cases(setup: &Setup, corpus: &Corpus) -> (usize, Vec<AnnotatedCase>) {
    let run = runner(setup, corpus);
    let errors = run.collect_errors();
    let n_errors = errors.len();
    let annotated = run.annotate(&errors);
    (n_errors, annotated)
}

/// Formats a percentage the way the paper's tables do.
pub fn pct(n: usize, total: usize) -> String {
    if total == 0 {
        "-".to_string()
    } else {
        format!("{:.2}", 100.0 * n as f64 / total as f64)
    }
}

/// Writes `BENCH_{name}.json` to the working directory and says so.
///
/// Every BENCH file opens with the same header: the bench `name`, the
/// `seed` its inputs derive from, the `FISQL_SCALE` it ran under, and the
/// machine's `available_parallelism`. The fields of `body` (a JSON
/// object: the bench's settings and result rows) follow.
///
/// # Panics
/// Panics when `body` is not a JSON object or the file cannot be
/// written.
pub fn emit(name: &str, seed: u64, body: Value) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = serde_json::json!({
        "bench": name,
        "seed": seed,
        "scale": Scale::from_env().name(),
        "available_parallelism": cores,
    });
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, merge(header, body).to_string())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// The fields of JSON object `a` followed by those of `b`.
///
/// # Panics
/// Panics when either value is not a JSON object.
pub fn merge(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value(Content::Map(mut a)), Value(Content::Map(b))) => {
            a.extend(b);
            Value(Content::Map(a))
        }
        _ => panic!("merge takes two JSON objects"),
    }
}
