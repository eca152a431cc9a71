//! Benchmark example and corpus types.

use crate::channels::WeightedChannel;
use crate::intent::{Intent, Shape};
use fisql_engine::{Database, ResultSet};
use fisql_sqlkit::Query;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// SPIDER-style hardness tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Hardness {
    /// Single table, at most one predicate, no shaping.
    Easy,
    /// One join, or multiple predicates, or plain grouping.
    Medium,
    /// Superlatives, HAVING, extremum subqueries.
    Hard,
    /// Multiple joins combined with complex shaping.
    Extra,
}

impl Hardness {
    /// Classifies an intent the way SPIDER's official evaluator buckets
    /// queries (approximately — the official heuristic counts SQL
    /// components; ours counts the intent's).
    pub fn classify(intent: &Intent) -> Hardness {
        let joins = intent.joins.len();
        let preds = intent.preds.len();
        let shaped = !matches!(intent.shape, Shape::Select | Shape::AggOnly);
        let complex_shape = matches!(
            intent.shape,
            Shape::Extremum { .. }
                | Shape::GroupBy {
                    having_count_gt: Some(_),
                    ..
                }
        );
        if joins >= 2 || (joins >= 1 && complex_shape) || (complex_shape && preds >= 2) {
            Hardness::Extra
        } else if complex_shape || matches!(intent.shape, Shape::Superlative { .. }) {
            Hardness::Hard
        } else if joins >= 1 || preds >= 2 || shaped {
            Hardness::Medium
        } else {
            Hardness::Easy
        }
    }

    /// Display label matching the SPIDER evaluator's output.
    pub fn label(&self) -> &'static str {
        match self {
            Hardness::Easy => "easy",
            Hardness::Medium => "medium",
            Hardness::Hard => "hard",
            Hardness::Extra => "extra",
        }
    }
}

/// One benchmark example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Example id, unique within its corpus.
    pub id: usize,
    /// Index into the corpus's database list.
    pub db_index: usize,
    /// Natural-language question.
    pub question: String,
    /// The underlying semantic frame.
    pub intent: Intent,
    /// Gold SQL (compiled from the intent).
    pub gold: Query,
    /// Error channels applicable to this example, with weights.
    pub channels: Vec<WeightedChannel>,
    /// Hardness tier.
    pub hardness: Hardness,
}

/// What executing a query under unlimited budgets yields: its rows, or
/// the engine's error text.
pub type ExecOutcome = Result<ResultSet, String>;

/// A corpus: databases plus examples over them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    /// Corpus name ("spider-like" / "aep-like").
    pub name: String,
    /// Databases, indexed by [`Example::db_index`].
    pub databases: Vec<Database>,
    /// Examples.
    pub examples: Vec<Example>,
    /// Each example's gold execution, run on first need
    /// ([`Corpus::gold_result`]).
    #[serde(skip)]
    gold_results: GoldResults,
}

/// One [`OnceLock`] per example, sized to the examples on first use.
#[derive(Debug, Clone, Default)]
struct GoldResults(OnceLock<Box<[OnceLock<ExecOutcome>]>>);

impl Corpus {
    /// A corpus over `databases` and `examples`. An example whose `id` is
    /// its position in `examples` — as `build_spider` and `build_aep`
    /// number them — gets its gold memoized ([`Corpus::gold_result`]).
    pub fn new(name: impl Into<String>, databases: Vec<Database>, examples: Vec<Example>) -> Self {
        Corpus {
            name: name.into(),
            databases,
            examples,
            gold_results: GoldResults::default(),
        }
    }

    /// The database an example runs against.
    pub fn database(&self, example: &Example) -> &Database {
        &self.databases[example.db_index]
    }

    /// The outcome of executing `example`'s gold on its database, the way
    /// [`fisql_engine::execute`] reports it (rows, or the error text).
    ///
    /// The gold is fixed per example, so an example of this corpus —
    /// `example` must be the element of [`Corpus::examples`] itself, not
    /// a copy — executes it on the first call and every later call, from
    /// any thread, reads the memo. Any other example executes afresh. The
    /// memo trusts the corpus not to change under it: the fields are
    /// public, so debug builds confirm every read against a fresh
    /// execution.
    pub fn gold_result(&self, example: &Example) -> Cow<'_, ExecOutcome> {
        let execute_gold = || {
            fisql_engine::execute(self.database(example), &example.gold).map_err(|e| e.to_string())
        };
        let own = self
            .examples
            .get(example.id)
            .is_some_and(|e| std::ptr::eq(e, example));
        let slots = self
            .gold_results
            .0
            .get_or_init(|| self.examples.iter().map(|_| OnceLock::new()).collect());
        let Some(slot) = slots.get(example.id).filter(|_| own) else {
            return Cow::Owned(execute_gold());
        };
        let mut fresh = false;
        let memo = slot.get_or_init(|| {
            fresh = true;
            execute_gold()
        });
        debug_assert!(
            fresh || *memo == execute_gold(),
            "example {}'s gold result changed after it was memoized",
            example.id
        );
        Cow::Borrowed(memo)
    }

    /// Hardness histogram `(easy, medium, hard, extra)`.
    pub fn hardness_mix(&self) -> (usize, usize, usize, usize) {
        let mut mix = (0, 0, 0, 0);
        for e in &self.examples {
            match e.hardness {
                Hardness::Easy => mix.0 += 1,
                Hardness::Medium => mix.1 += 1,
                Hardness::Hard => mix.2 += 1,
                Hardness::Extra => mix.3 += 1,
            }
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::{JoinStep, PredIntent, PredKind, Projection};
    use fisql_sqlkit::ast::{BinOp, Literal};

    fn base() -> Intent {
        Intent {
            primary: "t".into(),
            joins: vec![],
            projections: vec![Projection::Column {
                table: "t".into(),
                column: "a".into(),
            }],
            distinct: false,
            preds: vec![],
            shape: Shape::Select,
        }
    }

    #[test]
    fn classify_easy() {
        assert_eq!(Hardness::classify(&base()), Hardness::Easy);
    }

    #[test]
    fn classify_medium_on_join_or_preds() {
        let mut i = base();
        i.joins = vec![JoinStep {
            table: "s".into(),
            left_table: "t".into(),
            left_col: "id".into(),
            right_col: "tid".into(),
        }];
        assert_eq!(Hardness::classify(&i), Hardness::Medium);

        let mut i = base();
        i.preds = vec![
            PredIntent {
                table: "t".into(),
                column: "a".into(),
                kind: PredKind::Cmp {
                    op: BinOp::Gt,
                    value: Literal::Number(1),
                },
            },
            PredIntent {
                table: "t".into(),
                column: "b".into(),
                kind: PredKind::Cmp {
                    op: BinOp::Lt,
                    value: Literal::Number(9),
                },
            },
        ];
        assert_eq!(Hardness::classify(&i), Hardness::Medium);
    }

    #[test]
    fn classify_hard_on_superlative_and_extremum() {
        let mut i = base();
        i.shape = Shape::Superlative {
            order_table: "t".into(),
            order_col: "a".into(),
            desc: true,
            limit: 1,
        };
        assert_eq!(Hardness::classify(&i), Hardness::Hard);

        let mut i = base();
        i.shape = Shape::Extremum {
            column: "a".into(),
            max: true,
        };
        assert_eq!(Hardness::classify(&i), Hardness::Hard);
    }

    #[test]
    fn classify_extra_on_join_plus_complex_shape() {
        let mut i = base();
        i.joins = vec![JoinStep {
            table: "s".into(),
            left_table: "t".into(),
            left_col: "id".into(),
            right_col: "tid".into(),
        }];
        i.shape = Shape::Extremum {
            column: "a".into(),
            max: true,
        };
        assert_eq!(Hardness::classify(&i), Hardness::Extra);
    }
}
