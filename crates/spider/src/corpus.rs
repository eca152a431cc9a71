//! The SPIDER-like corpus builder.

use crate::channels::{applicable_channels, DifficultyProfile};
use crate::data_gen::{populate, DataGenOptions};
use crate::example::{Corpus, Example, Hardness};
use crate::intent_gen::generate_intent;
use crate::question::render_question;
use crate::schema_gen::{generate_schema, SchemaGenOptions};
use crate::vocab::THEMES;
use fisql_engine::execute;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the SPIDER-like corpus.
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Number of databases (paper: "about 200").
    pub n_databases: usize,
    /// Number of examples (paper: 1034 dev questions).
    pub n_examples: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SpiderConfig {
    fn default() -> Self {
        SpiderConfig {
            n_databases: 200,
            n_examples: 1034,
            seed: 0xF15C,
        }
    }
}

/// A smaller configuration for tests and quick runs.
impl SpiderConfig {
    /// 12 databases / 80 examples: fast but structurally identical.
    pub fn small(seed: u64) -> Self {
        SpiderConfig {
            n_databases: 12,
            n_examples: 80,
            seed,
        }
    }
}

/// Builds the SPIDER-like corpus: ~200 seeded databases over the domain
/// themes, populated with data, with intent-first generated questions
/// whose gold SQL is validated by execution.
pub fn build_spider(cfg: &SpiderConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema_opts = SchemaGenOptions::default();
    let data_opts = DataGenOptions::default();
    let profile = DifficultyProfile::spider();

    let mut databases = Vec::with_capacity(cfg.n_databases);
    for i in 0..cfg.n_databases {
        let theme = &THEMES[i % THEMES.len()];
        let variant = i / THEMES.len();
        let mut db = generate_schema(theme, variant, &schema_opts, &mut rng);
        populate(&mut db, theme, &data_opts, &mut rng);
        databases.push(db);
    }

    let mut examples = Vec::with_capacity(cfg.n_examples);
    let mut id = 0;
    let mut attempts = 0;
    while examples.len() < cfg.n_examples && attempts < cfg.n_examples * 20 {
        attempts += 1;
        let db_index = rng.gen_range(0..databases.len());
        let db = &databases[db_index];
        let Some(intent) = generate_intent(db, &mut rng) else {
            continue;
        };
        let gold = intent.compile();
        // Gold must execute cleanly.
        if execute(db, &gold).is_err() {
            continue;
        }
        let question = render_question(&intent, None, &mut rng);
        let channels = applicable_channels(&intent, db, &profile);
        let hardness = Hardness::classify(&intent);
        examples.push(Example {
            id,
            db_index,
            question,
            intent,
            gold,
            channels,
            hardness,
        });
        id += 1;
    }

    Corpus::new("spider-like", databases, examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn small_corpus_builds_completely() {
        let corpus = build_spider(&SpiderConfig::small(7));
        assert_eq!(corpus.databases.len(), 12);
        assert_eq!(corpus.examples.len(), 80);
        for e in &corpus.examples {
            assert!(e.db_index < corpus.databases.len());
            assert!(!e.question.is_empty());
            // Gold executes on its database.
            assert!(execute(corpus.database(e), &e.gold).is_ok());
        }
    }

    fn fresh_gold(corpus: &Corpus, e: &crate::Example) -> crate::ExecOutcome {
        execute(corpus.database(e), &e.gold).map_err(|err| err.to_string())
    }

    #[test]
    fn gold_results_equal_fresh_executions() {
        let mut corpus = build_spider(&SpiderConfig::small(7));
        // One gold that fails, so the memo must keep error text too.
        corpus.examples[1].gold = fisql_sqlkit::parse_query("SELECT no_such_column FROM nowhere")
            .expect("the broken gold parses");
        for e in &corpus.examples {
            let fresh = fresh_gold(&corpus, e);
            assert_eq!(*corpus.gold_result(e), fresh, "example {}", e.id);
            // Later reads are the memo itself, not new executions.
            let (Cow::Borrowed(first), Cow::Borrowed(again)) =
                (corpus.gold_result(e), corpus.gold_result(e))
            else {
                panic!("example {} did not read its memo", e.id);
            };
            assert!(std::ptr::eq(first, again));
        }
        assert!(corpus.gold_result(&corpus.examples[1]).is_err());
        // A copy of an example is not the corpus's own: it executes afresh.
        let copy = corpus.examples[2].clone();
        let served = corpus.gold_result(&copy);
        assert!(matches!(served, Cow::Owned(_)));
        assert_eq!(*served, fresh_gold(&corpus, &copy));
        // A clone of the corpus carries the memo along.
        let cloned = corpus.clone();
        for e in &cloned.examples {
            assert_eq!(*cloned.gold_result(e), fresh_gold(&cloned, e));
        }
    }

    /// A small corpus whose example at the returned index has a gold
    /// that returns rows and has been read once.
    fn corpus_with_a_read_gold() -> (Corpus, usize) {
        let corpus = build_spider(&SpiderConfig::small(7));
        let e = corpus
            .examples
            .iter()
            .position(|e| fresh_gold(&corpus, e).is_ok_and(|rs| !rs.rows.is_empty()))
            .expect("an example whose gold returns rows");
        let _ = corpus.gold_result(&corpus.examples[e]);
        (corpus, e)
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed after it was memoized")]
    fn debug_builds_catch_a_gold_mutated_after_its_read() {
        let (mut corpus, e) = corpus_with_a_read_gold();
        corpus.examples[e].gold.limit = Some(fisql_sqlkit::LimitClause::new(0));
        let _ = corpus.gold_result(&corpus.examples[e]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed after it was memoized")]
    fn debug_builds_catch_a_database_mutated_after_its_read() {
        let (mut corpus, e) = corpus_with_a_read_gold();
        let db = corpus.examples[e].db_index;
        for t in &mut corpus.databases[db].tables {
            t.rows.clear();
        }
        let _ = corpus.gold_result(&corpus.examples[e]);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_spider(&SpiderConfig::small(9));
        let b = build_spider(&SpiderConfig::small(9));
        assert_eq!(a.examples.len(), b.examples.len());
        for (x, y) in a.examples.iter().zip(&b.examples) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.gold, y.gold);
        }
    }

    #[test]
    fn hardness_mix_has_spread() {
        let corpus = build_spider(&SpiderConfig::small(11));
        let (e, m, h, _x) = corpus.hardness_mix();
        assert!(e > 0, "no easy examples");
        assert!(m > 0, "no medium examples");
        assert!(h > 0, "no hard examples");
    }

    #[test]
    fn every_full_scale_database_context_matches_fresh_derivations() {
        let corpus = build_spider(&SpiderConfig::default());
        for db in &corpus.databases {
            let ctx = db.context();
            assert!(std::sync::Arc::ptr_eq(&ctx, &db.context()), "{}", db.name);
            assert_eq!(*ctx.schema(db), db.schema_info(), "{}", db.name);
        }
    }

    #[test]
    fn most_examples_have_channels() {
        let corpus = build_spider(&SpiderConfig::small(13));
        let with = corpus
            .examples
            .iter()
            .filter(|e| !e.channels.is_empty())
            .count();
        assert!(
            with * 10 >= corpus.examples.len() * 7,
            "{with}/{} examples have channels",
            corpus.examples.len()
        );
    }
}
