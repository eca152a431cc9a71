//! Execution-accuracy evaluation harness (the SPIDER evaluator's metric).

use crate::example::{Corpus, Example, ExecOutcome, Hardness};
use fisql_engine::{execute, results_match, Database, ResultSet};
use fisql_sqlkit::Query;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of checking one prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Prediction executed and matched gold.
    Correct,
    /// Prediction executed but result differed from gold.
    WrongResult,
    /// Prediction failed to execute.
    ExecutionError {
        /// The engine's error message.
        message: String,
    },
}

impl Verdict {
    /// Whether the prediction counts as correct.
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }
}

/// Checks a predicted query against an example's gold on `db`.
pub fn check_prediction(db: &Database, example: &Example, predicted: &Query) -> Verdict {
    check_prediction_with(db, example, predicted, |db, q| {
        execute(db, q).map_err(|e| e.to_string())
    })
}

/// [`check_prediction`] with the engine call abstracted out, so callers
/// can route both the gold and the predicted execution through a result
/// cache. The executor must behave like `execute` under unlimited
/// budgets (same rows, same error strings) for the verdict to match an
/// uncached check.
pub fn check_prediction_with(
    db: &Database,
    example: &Example,
    predicted: &Query,
    mut exec: impl FnMut(&Database, &Query) -> Result<ResultSet, String>,
) -> Verdict {
    let gold = exec(db, &example.gold);
    judge_prediction(&gold, || exec(db, predicted))
}

/// The verdict on a prediction given the gold's execution outcome (for
/// instance [`Corpus::gold_result`]). `predicted` executes the
/// prediction; it is not called when the gold itself failed.
pub fn judge_prediction(gold: &ExecOutcome, predicted: impl FnOnce() -> ExecOutcome) -> Verdict {
    let gold_rs = match gold {
        Ok(rs) => rs,
        Err(e) => {
            // Corpus construction validates gold; reaching this means the
            // example is corrupt.
            return Verdict::ExecutionError {
                message: format!("gold failed: {e}"),
            };
        }
    };
    match predicted() {
        Ok(rs) => {
            if results_match(&rs, gold_rs) {
                Verdict::Correct
            } else {
                Verdict::WrongResult
            }
        }
        Err(e) => Verdict::ExecutionError { message: e },
    }
}

/// Executes a predicted query, returning what the Assistant would show the
/// user (the "Evaluation" grid of Figure 7), or the error message.
pub fn user_visible_result(db: &Database, predicted: &Query) -> Result<ResultSet, String> {
    execute(db, predicted).map_err(|e| e.to_string())
}

/// Aggregate accuracy report, with per-hardness breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Corpus name.
    pub corpus: String,
    /// Total examples evaluated.
    pub total: usize,
    /// Correct predictions.
    pub correct: usize,
    /// Predictions with execution errors.
    pub execution_errors: usize,
    /// Per-hardness `(correct, total)`.
    pub by_hardness: BTreeMap<String, (usize, usize)>,
}

impl AccuracyReport {
    /// Overall execution accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {}/{} correct ({:.1}%), {} execution errors\n",
            self.corpus,
            self.correct,
            self.total,
            100.0 * self.accuracy(),
            self.execution_errors
        );
        for (h, (c, t)) in &self.by_hardness {
            out.push_str(&format!(
                "  {h:<8} {c:>4}/{t:<4} ({:.1}%)\n",
                if *t == 0 {
                    0.0
                } else {
                    100.0 * *c as f64 / *t as f64
                }
            ));
        }
        out
    }
}

/// Evaluates a batch of `(example, prediction)` pairs over a corpus.
pub fn evaluate<'a>(
    corpus: &Corpus,
    predictions: impl IntoIterator<Item = (&'a Example, &'a Query)>,
) -> AccuracyReport {
    let mut report = AccuracyReport {
        corpus: corpus.name.clone(),
        total: 0,
        correct: 0,
        execution_errors: 0,
        by_hardness: BTreeMap::new(),
    };
    for h in [
        Hardness::Easy,
        Hardness::Medium,
        Hardness::Hard,
        Hardness::Extra,
    ] {
        report.by_hardness.insert(h.label().to_string(), (0, 0));
    }
    for (example, predicted) in predictions {
        let db = corpus.database(example);
        let verdict = check_prediction(db, example, predicted);
        report.total += 1;
        let slot = report
            .by_hardness
            .get_mut(example.hardness.label())
            .expect("hardness bucket");
        slot.1 += 1;
        match verdict {
            Verdict::Correct => {
                report.correct += 1;
                slot.0 += 1;
            }
            Verdict::ExecutionError { .. } => report.execution_errors += 1,
            Verdict::WrongResult => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build_spider, SpiderConfig};

    #[test]
    fn gold_predictions_score_100_percent() {
        let corpus = build_spider(&SpiderConfig::small(21));
        let pairs: Vec<_> = corpus.examples.iter().map(|e| (e, &e.gold)).collect();
        let report = evaluate(&corpus, pairs);
        assert_eq!(report.correct, report.total);
        assert_eq!(report.execution_errors, 0);
        assert!((report.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn corrupted_predictions_mostly_fail() {
        use crate::channels::corrupt;
        let corpus = build_spider(&SpiderConfig::small(22));
        let mut corrupted: Vec<(usize, fisql_sqlkit::Query)> = Vec::new();
        for (i, e) in corpus.examples.iter().enumerate() {
            if let Some(wc) = e.channels.first() {
                corrupted.push((i, corrupt(&e.intent, &wc.channel)));
            }
        }
        let pairs: Vec<_> = corrupted
            .iter()
            .map(|(i, q)| (&corpus.examples[*i], q))
            .collect();
        assert!(!pairs.is_empty());
        let report = evaluate(&corpus, pairs);
        // Some corruptions are semantically invisible on the concrete data
        // (e.g. a dropped DISTINCT on already-unique values), but most must
        // change the result.
        assert!(
            (report.correct as f64) < 0.5 * report.total as f64,
            "{}/{} corrupted predictions still 'correct'",
            report.correct,
            report.total
        );
    }

    #[test]
    fn report_renders_hardness_rows() {
        let corpus = build_spider(&SpiderConfig::small(23));
        let pairs: Vec<_> = corpus.examples.iter().map(|e| (e, &e.gold)).collect();
        let text = evaluate(&corpus, pairs).render();
        assert!(text.contains("easy"));
        assert!(text.contains("medium"));
    }
}
