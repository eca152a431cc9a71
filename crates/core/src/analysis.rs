//! Error analysis — the paper's §4.2 discussion, made measurable.
//!
//! The paper attributes FISQL's residual failures to three causes:
//!
//! - **(a)** "SQL queries with multiple errors and hence needing multiple
//!   feedback rounds";
//! - **(b)** "inability of the approaches to interpret user feedback and
//!   make edits to the SQL query";
//! - **(c)** "user feedback being misaligned with the correction required
//!   for the SQL query".
//!
//! [`analyze_round`] classifies every round-1 failure into this taxonomy
//! (plus the channel composition of the initial errors), producing the
//! report behind the `errors` row of the `exp` binary.

use crate::experiment::AnnotatedCase;
use crate::pipeline::{try_incorporate, IncorporateContext, Strategy};
use fisql_feedback::year_shift_target;
use fisql_llm::SimLlm;
use fisql_spider::{check_prediction, Corpus};
use fisql_sqlkit::{diff_queries, normalize_query};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why one case failed its first feedback round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FailureCause {
    /// Paper cause (a): the initial prediction had multiple independent
    /// errors; one round fixed at most one of them.
    MultipleErrors,
    /// Paper cause (b): the feedback could not be grounded to any edit.
    InterpretationFailure,
    /// Paper cause (b): an edit was found but not applied (the model
    /// "did not understand" the revision demonstrations).
    ApplicationFailure,
    /// Paper cause (b): grounding was ambiguous and the sampled choice
    /// was wrong.
    WrongGrounding,
    /// Paper cause (c): the feedback itself did not describe the needed
    /// correction.
    MisalignedFeedback,
    /// The edit applied, the query changed, but the result still differs
    /// (e.g. the interpreted edit was semantically off).
    Other,
}

impl FailureCause {
    /// Short label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::MultipleErrors => "multiple errors (a)",
            FailureCause::InterpretationFailure => "interpretation failure (b)",
            FailureCause::ApplicationFailure => "application failure (b)",
            FailureCause::WrongGrounding => "wrong grounding (b)",
            FailureCause::MisalignedFeedback => "misaligned feedback (c)",
            FailureCause::Other => "other",
        }
    }
}

/// The §4.2-style analysis of one corpus's annotated error set under one
/// strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorAnalysis {
    /// Corpus name.
    pub corpus: String,
    /// Strategy name.
    pub strategy: String,
    /// Cases analyzed.
    pub total: usize,
    /// Cases corrected in round 1.
    pub corrected: usize,
    /// Failure counts per cause.
    pub failures: BTreeMap<String, usize>,
    /// Channel-kind composition of the *initial* errors (how the
    /// Assistant failed in the first place), by diff-derived edit class.
    pub initial_edit_classes: BTreeMap<String, usize>,
}

impl ErrorAnalysis {
    /// Renders the analysis as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} / {}: {}/{} corrected in round 1\n",
            self.corpus, self.strategy, self.corrected, self.total
        );
        out.push_str("failure causes (paper §4.2):\n");
        for (cause, n) in &self.failures {
            out.push_str(&format!("  {cause:<28} {n:>4}\n"));
        }
        out.push_str("initial error composition (edit classes needed):\n");
        for (class, n) in &self.initial_edit_classes {
            out.push_str(&format!("  {class:<28} {n:>4}\n"));
        }
        out
    }
}

/// Runs one feedback round per case and classifies every failure.
pub fn analyze_round(
    corpus: &Corpus,
    cases: &[AnnotatedCase],
    strategy: Strategy,
    llm: &SimLlm,
) -> ErrorAnalysis {
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    let mut initial_edit_classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut corrected = 0;

    for case in cases {
        let example = &corpus.examples[case.error.example_idx];
        let db = corpus.database(example);
        let previous = normalize_query(&case.error.initial);

        let initial_diff = diff_queries(&previous, &example.gold);
        for e in &initial_diff {
            *initial_edit_classes
                .entry(e.class().to_string())
                .or_insert(0) += 1;
        }
        // A year-shift group counts as one logical error even though it is
        // several predicate edits.
        let logical_errors = if year_shift_target(&initial_diff).is_some() {
            1
        } else {
            initial_diff.len()
        };

        let out = try_incorporate(
            strategy,
            llm,
            &IncorporateContext {
                db,
                example,
                question: &example.question,
                previous: &previous,
                feedback: &case.feedback,
                round: 0,
                conformance_gate: false,
            },
        )
        .expect("SimLlm never returns a backend error");
        if check_prediction(db, example, &out.query).is_correct() {
            corrected += 1;
            continue;
        }
        let cause = if case.feedback.misaligned {
            FailureCause::MisalignedFeedback
        } else if let Some(interp) = &out.interpretation {
            if interp.candidates == 0 {
                FailureCause::InterpretationFailure
            } else if out.query == previous {
                FailureCause::ApplicationFailure
            } else if logical_errors > 1 {
                FailureCause::MultipleErrors
            } else if interp.candidates > 1 {
                FailureCause::WrongGrounding
            } else {
                FailureCause::Other
            }
        } else if logical_errors > 1 {
            // Query Rewrite has no interpretation stage.
            FailureCause::MultipleErrors
        } else {
            FailureCause::Other
        };
        *failures.entry(cause.label().to_string()).or_insert(0) += 1;
    }

    ErrorAnalysis {
        corpus: corpus.name.clone(),
        strategy: strategy.name().to_string(),
        total: cases.len(),
        corrected,
        failures,
        initial_edit_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CorrectionRun;
    use fisql_feedback::{SimUser, UserConfig};
    use fisql_llm::LlmConfig;
    use fisql_spider::{build_spider, SpiderConfig};

    fn setup() -> (Corpus, SimLlm, Vec<AnnotatedCase>) {
        let corpus = build_spider(&SpiderConfig {
            n_databases: 16,
            n_examples: 140,
            seed: 0xA417,
        });
        let llm = SimLlm::new(LlmConfig::default());
        let user = SimUser::new(UserConfig::default());
        let run = CorrectionRun::new(&corpus, &llm, &user).demos_k(3);
        let errors = run.collect_errors();
        let cases = run.annotate(&errors);
        (corpus, llm, cases)
    }

    #[test]
    fn analysis_accounts_for_every_case() {
        let (corpus, llm, cases) = setup();
        assert!(!cases.is_empty());
        let a = analyze_round(
            &corpus,
            &cases,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &llm,
        );
        let failed: usize = a.failures.values().sum();
        assert_eq!(a.corrected + failed, a.total);
    }

    #[test]
    fn taxonomy_covers_multiple_causes() {
        let (corpus, llm, cases) = setup();
        let a = analyze_round(
            &corpus,
            &cases,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &llm,
        );
        // At least the paper's dominant cause (a) shows up on any
        // reasonably sized error set.
        assert!(
            a.failures.contains_key("multiple errors (a)") || a.total < 10,
            "causes: {:?}",
            a.failures
        );
    }

    #[test]
    fn render_is_complete() {
        let (corpus, llm, cases) = setup();
        let a = analyze_round(&corpus, &cases, Strategy::QueryRewrite, &llm);
        let text = a.render();
        assert!(text.contains("corrected in round 1"));
        assert!(text.contains("failure causes"));
    }

    #[test]
    fn analysis_is_deterministic() {
        let (corpus, llm, cases) = setup();
        let s = Strategy::Fisql {
            routing: true,
            highlighting: false,
        };
        let a = analyze_round(&corpus, &cases, s, &llm);
        let b = analyze_round(&corpus, &cases, s, &llm);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.corrected, b.corrected);
    }
}
