//! Semantic result cache keyed by `(db_fingerprint, canon_fingerprint)`,
//! and the one gate that decides whether a correctness check executes.
//!
//! Correction runs execute the same SQL over and over: candidate repairs
//! are dense with semantically-equal spellings, and serve sessions
//! re-render the same prediction grid after every feedback turn.
//! [`SemanticCache`] turns those repeats into hash lookups with three
//! lanes:
//!
//! * the **refuted lane** answers a correctness check without running it
//!   at all. It holds, per case, the keys of queries the case already
//!   executed and found *incorrect* (seeded with the case's initial
//!   prediction, which is why the case exists). A candidate whose key is
//!   in the set must produce the same wrong result, so
//!   [`check_prediction`](SemanticCache::check_prediction) skips both
//!   engine runs. Each query has up to two keys, and together they
//!   reproduce [`canonically_equivalent`](fisql_sqlkit::canonically_equivalent)
//!   exactly: its canonical fingerprint (equal canonical forms), and —
//!   when [`flow::provably_empty`](fisql_sqlkit::provably_empty) proves
//!   the normalized query empty with a known
//!   [`output_arity`](fisql_sqlkit::output_arity) — that arity (two empty
//!   results of one width compare equal). Only analyzer-clean candidates
//!   consult or extend the lane, and `ExecutionError` verdicts are never
//!   recorded: rewrites may erase an erroring subexpression, so a
//!   refutation only transfers between queries that cannot error. The
//!   lane is cleared by [`begin_case`](SemanticCache::begin_case) and
//!   runs whether or not the result lanes are enabled, so skip counts
//!   never depend on cache state or on which cases share a worker;
//! * the **semantic lane** serves correctness checks
//!   ([`check_prediction`](fisql_spider::check_prediction)-shaped
//!   executions under unlimited budgets). It is keyed by the canonical
//!   fingerprint ([`fisql_sqlkit::canon_fingerprint`]), so *any*
//!   canonically-equivalent spelling hits. Soundness leans on two
//!   established contracts: the canon soundness proptest (equal
//!   fingerprints ⇒ identical engine results) and the analyzer-agreement
//!   property (analyzer-clean queries execute without error) — the lane
//!   therefore only serves or stores analyzer-clean queries and `Ok`
//!   results, the same gate the refuted lane applies. A runner check
//!   ([`check_in_corpus`](SemanticCache::check_in_corpus)) takes the
//!   gold's outcome from the corpus memo ([`Corpus::gold_result`])
//!   instead, and counts that read as a hit;
//! * the **exact lane** serves user-visible renders (view grids and
//!   serve-session result frames) under the interactive row budget. It
//!   is keyed by the exact printed SQL, which makes it trivially sound —
//!   byte-identical query text on the same database — so it may cache
//!   `Err` strings too.
//!
//! Every lookup prints its query once. One map keyed by
//! `(db fingerprint, print fingerprint)` holds what the lanes derive
//! from a query: its canonical fingerprint and empty-arity key (computed
//! on first need) and its analyzer verdict against that database. The
//! database fingerprint, like the analyzer schema, is read from the
//! database's memoized [`fisql_engine::DbContext`].
//!
//! The cache is deliberately **per worker** (one per runner worker, one
//! per serve session): no cross-thread state, and the result lanes are
//! transparent, so which cases share a cache cannot change a verdict and
//! reports stay bit-identical at any worker count. Hit counters of the
//! two result lanes are folded into
//! [`RunMetrics`](crate::runner::RunMetrics), which is `#[serde(skip)]`
//! in serialized reports, so cache effectiveness is observable without
//! perturbing replay contracts; refuted-lane skips are report fields
//! (`executions_skipped_static`).

use fisql_engine::{Database, DbContext, ExecLimits, ResultSet};
use fisql_llm::CacheStats;
use fisql_spider::{check_prediction_with, judge_prediction, Corpus, Example, Verdict};
use fisql_sqlkit::{canon_fingerprint, check_query, empty_arity, fnv64, print_query, Query};
use std::collections::{HashMap, HashSet};

/// A query's keys in the refuted lane (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RefutedKey {
    /// Canonical fingerprint.
    Canon(u64),
    /// A provably empty query of this output arity.
    Empty(usize),
}

/// Fingerprints of one query.
#[derive(Debug, Clone, Copy)]
struct QueryKeys {
    canon: u64,
    empty_arity: Option<usize>,
}

impl QueryKeys {
    fn of(query: &Query) -> QueryKeys {
        QueryKeys {
            canon: canon_fingerprint(query),
            empty_arity: empty_arity(query),
        }
    }

    fn refuted(self) -> impl Iterator<Item = RefutedKey> {
        std::iter::once(RefutedKey::Canon(self.canon))
            .chain(self.empty_arity.map(RefutedKey::Empty))
    }
}

/// What the lanes know about one query on one database, each fact
/// derived on first need.
#[derive(Debug, Default)]
struct QueryFacts {
    keys: Option<QueryKeys>,
    /// No error-severity analyzer diagnostics against the database.
    clean: Option<bool>,
}

/// The key of one query on one database: `(db fingerprint, print
/// fingerprint)`.
type QueryKey = (u64, u64);

fn query_key(db: &DbContext, query: &Query) -> QueryKey {
    (db.fingerprint, fnv64(print_query(query).as_bytes()))
}

/// A per-worker execution gate: refuted + semantic + exact lanes. See
/// the module docs for the lanes and their soundness arguments.
#[derive(Debug, Default)]
pub struct SemanticCache {
    enabled: bool,
    /// Per-query facts (see the module docs).
    queries: HashMap<QueryKey, QueryFacts>,
    /// Refuted lane: keys of queries the current case found incorrect.
    refuted: HashSet<RefutedKey>,
    /// Semantic lane: `(db_fp, canon_fp)` → unlimited-budget `Ok` rows.
    semantic: HashMap<(u64, u64), ResultSet>,
    /// Exact lane: `(db_fp, print_fp)` → interactive-budget outcome.
    exact: HashMap<QueryKey, Result<ResultSet, String>>,
    /// Result-lane counters.
    pub stats: CacheStats,
}

impl SemanticCache {
    /// A live cache (`enabled = true`) or transparent result lanes
    /// (`enabled = false`: every execution runs, counters stay zero; the
    /// refuted lane works either way).
    pub fn new(enabled: bool) -> Self {
        SemanticCache {
            enabled,
            ..SemanticCache::default()
        }
    }

    fn keys(&mut self, key: QueryKey, query: &Query) -> QueryKeys {
        *self
            .queries
            .entry(key)
            .or_default()
            .keys
            .get_or_insert_with(|| QueryKeys::of(query))
    }

    fn analyzer_clean(
        &mut self,
        db: &Database,
        ctx: &DbContext,
        key: QueryKey,
        query: &Query,
    ) -> bool {
        *self
            .queries
            .entry(key)
            .or_default()
            .clean
            .get_or_insert_with(|| {
                !check_query(query, ctx.schema(db))
                    .iter()
                    .any(|d| d.is_error())
            })
    }

    /// Starts a new case on `db`: clears the refuted lane and seeds it
    /// with the case's initial prediction when that query executed
    /// without error (it is known incorrect — that is why the case
    /// exists).
    pub fn begin_case(&mut self, db: &Database, initial: Option<&Query>) {
        self.refuted.clear();
        if let Some(query) = initial {
            let keys = self.keys(query_key(&db.context(), query), query);
            self.refuted.extend(keys.refuted());
        }
    }

    /// One correctness check of `query` against `example`'s gold.
    ///
    /// `None` means refuted: `query` is canonically equivalent to a query
    /// this case already found incorrect, so both engine runs are
    /// skipped. Otherwise the check runs through the semantic lane, and
    /// a `WrongResult` verdict is recorded in the refuted lane. Only
    /// `analyzer_clean` queries (no error-severity diagnostics) consult
    /// or extend the refuted lane; the caller's `true` is taken as the
    /// analyzer's verdict on `query`, so it is not checked again.
    pub fn check_prediction(
        &mut self,
        db: &Database,
        example: &Example,
        query: &Query,
        analyzer_clean: bool,
    ) -> Option<Verdict> {
        self.check(db, example, None, query, analyzer_clean)
    }

    /// [`check_prediction`](Self::check_prediction) for an element of
    /// `corpus.examples`: with the result lanes enabled, the gold's
    /// outcome is read from [`Corpus::gold_result`] — counted as an
    /// execution the cache skipped — so the gold is never printed,
    /// checked, canonicalized or executed here. Disabled, the gold
    /// executes afresh.
    pub fn check_in_corpus(
        &mut self,
        corpus: &Corpus,
        example: &Example,
        query: &Query,
        analyzer_clean: bool,
    ) -> Option<Verdict> {
        self.check(
            corpus.database(example),
            example,
            Some(corpus),
            query,
            analyzer_clean,
        )
    }

    fn check(
        &mut self,
        db: &Database,
        example: &Example,
        corpus: Option<&Corpus>,
        query: &Query,
        analyzer_clean: bool,
    ) -> Option<Verdict> {
        let ctx = db.context();
        let key = query_key(&ctx, query);
        let keys = analyzer_clean.then(|| {
            self.queries
                .entry(key)
                .or_default()
                .clean
                .get_or_insert(true);
            self.keys(key, query)
        });
        if keys.is_some_and(|k| k.refuted().any(|key| self.refuted.contains(&key))) {
            return None;
        }
        let verdict = match corpus.filter(|_| self.enabled) {
            Some(corpus) => {
                self.stats.hits += 1;
                judge_prediction(&corpus.gold_result(example), || {
                    self.semantic(db, &ctx, key, query)
                })
            }
            None => check_prediction_with(db, example, query, |db, q| {
                // The predicted query's key is already printed; the
                // gold's is printed here.
                let key = if std::ptr::eq(q, query) {
                    key
                } else {
                    query_key(&ctx, q)
                };
                self.semantic(db, &ctx, key, q)
            }),
        };
        if let (Some(keys), Verdict::WrongResult) = (keys, &verdict) {
            self.refuted.extend(keys.refuted());
        }
        Some(verdict)
    }

    /// Execute under unlimited budgets through the semantic lane.
    ///
    /// Analyzer-clean queries are served by canonical fingerprint and
    /// their `Ok` results stored; analyzer-rejected queries bypass the
    /// lane entirely (their error behaviour is spelling-dependent, which
    /// canonical keying would erase).
    pub fn execute_semantic(&mut self, db: &Database, query: &Query) -> Result<ResultSet, String> {
        if !self.enabled {
            return fisql_engine::execute(db, query).map_err(|e| e.to_string());
        }
        let ctx = db.context();
        self.semantic(db, &ctx, query_key(&ctx, query), query)
    }

    fn semantic(
        &mut self,
        db: &Database,
        ctx: &DbContext,
        key: QueryKey,
        query: &Query,
    ) -> Result<ResultSet, String> {
        if !self.enabled {
            return fisql_engine::execute(db, query).map_err(|e| e.to_string());
        }
        if !self.analyzer_clean(db, ctx, key, query) {
            self.stats.misses += 1;
            return fisql_engine::execute(db, query).map_err(|e| e.to_string());
        }
        let lane_key = (ctx.fingerprint, self.keys(key, query).canon);
        if let Some(rs) = self.semantic.get(&lane_key) {
            self.stats.hits += 1;
            return Ok(rs.clone());
        }
        self.stats.misses += 1;
        let res = fisql_engine::execute(db, query).map_err(|e| e.to_string());
        if let Ok(rs) = &res {
            self.semantic.insert(lane_key, rs.clone());
        }
        res
    }

    /// Execute under the interactive row budget through the exact lane
    /// (byte-identical printed SQL on the same database; errors cached
    /// too). This is the lane user-visible grids render from, so hits
    /// reproduce exactly what a fresh execution would have shown.
    pub fn execute_view(&mut self, db: &Database, query: &Query) -> Result<ResultSet, String> {
        let guard = ExecLimits {
            max_rows: ExecLimits::interactive().max_rows,
            deadline_ms: None,
        };
        if !self.enabled {
            return fisql_engine::execute_with_limits(db, query, guard).map_err(|e| e.to_string());
        }
        let key = query_key(&db.context(), query);
        if let Some(res) = self.exact.get(&key) {
            self.stats.hits += 1;
            return res.clone();
        }
        self.stats.misses += 1;
        let res = fisql_engine::execute_with_limits(db, query, guard).map_err(|e| e.to_string());
        self.exact.insert(key, res.clone());
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_spider::{build_spider, SpiderConfig};
    use fisql_sqlkit::parse_query;

    fn corpus_db() -> Database {
        build_spider(&SpiderConfig::small(77)).databases[0].clone()
    }

    fn first_table_and_int_col(db: &Database) -> (String, String) {
        for t in &db.tables {
            for c in &t.columns {
                if matches!(c.dtype, fisql_engine::DataType::Int) {
                    return (t.name.clone(), c.name.clone());
                }
            }
        }
        panic!("no int column in corpus db");
    }

    #[test]
    fn semantic_lane_serves_equivalent_spellings() {
        let db = corpus_db();
        let (t, c) = first_table_and_int_col(&db);
        let mut cache = SemanticCache::new(true);
        let a = parse_query(&format!("SELECT {c} FROM {t} WHERE {c} > 1")).unwrap();
        let b = parse_query(&format!("SELECT {c} FROM {t} WHERE NOT ({c} <= 1)")).unwrap();
        let ra = cache.execute_semantic(&db, &a).unwrap();
        assert_eq!(cache.stats, CacheStats { hits: 0, misses: 1 });
        let rb = cache.execute_semantic(&db, &b).unwrap();
        assert_eq!(cache.stats, CacheStats { hits: 1, misses: 1 });
        assert!(fisql_engine::results_match(&ra, &rb));
        // Fresh execution agrees with the served result.
        let fresh = fisql_engine::execute(&db, &b).unwrap();
        assert!(fisql_engine::results_match(&fresh, &rb));
    }

    #[test]
    fn analyzer_rejected_queries_bypass_the_semantic_lane() {
        let db = corpus_db();
        let (t, _) = first_table_and_int_col(&db);
        let mut cache = SemanticCache::new(true);
        let bad = parse_query(&format!("SELECT no_such_column FROM {t}")).unwrap();
        assert!(cache.execute_semantic(&db, &bad).is_err());
        assert!(cache.execute_semantic(&db, &bad).is_err());
        assert_eq!(cache.stats.hits, 0, "error executions are never served");
        assert_eq!(cache.stats.misses, 2);
    }

    #[test]
    fn analyzer_verdicts_are_keyed_per_database() {
        use fisql_engine::{Column, DataType, Table, Value};
        let db_with = |name: &str, columns: &[&str]| {
            let mut db = Database::new(name);
            let mut t = Table::new(
                "t",
                columns
                    .iter()
                    .map(|c| Column::new(*c, DataType::Int))
                    .collect(),
            );
            t.push_row(vec![Value::Int(1); columns.len()]);
            db.add_table(t);
            db
        };
        let narrow = db_with("narrow", &["a"]);
        let wide = db_with("wide", &["a", "b"]);
        let q = parse_query("SELECT b FROM t").unwrap();
        let mut cache = SemanticCache::new(true);
        assert!(cache.execute_semantic(&narrow, &q).is_err());
        // The same text is analyzer-clean on `wide`, so the semantic
        // lane serves its second run.
        assert!(cache.execute_semantic(&wide, &q).is_ok());
        assert!(cache.execute_semantic(&wide, &q).is_ok());
        assert_eq!(cache.stats, CacheStats { hits: 1, misses: 2 });
        assert!(cache.execute_semantic(&narrow, &q).is_err());
        assert_eq!(cache.stats, CacheStats { hits: 1, misses: 3 });
    }

    #[test]
    fn exact_lane_caches_renders_and_errors() {
        let db = corpus_db();
        let (t, c) = first_table_and_int_col(&db);
        let mut cache = SemanticCache::new(true);
        let q = parse_query(&format!("SELECT {c} FROM {t}")).unwrap();
        let r1 = cache.execute_view(&db, &q);
        let r2 = cache.execute_view(&db, &q);
        assert_eq!(r1, r2);
        assert_eq!(cache.stats, CacheStats { hits: 1, misses: 1 });
        let bad = parse_query(&format!("SELECT nope FROM {t}")).unwrap();
        let e1 = cache.execute_view(&db, &bad);
        let e2 = cache.execute_view(&db, &bad);
        assert!(e1.is_err());
        assert_eq!(e1, e2);
        assert_eq!(cache.stats, CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn disabled_cache_is_transparent() {
        let db = corpus_db();
        let (t, c) = first_table_and_int_col(&db);
        let mut cache = SemanticCache::new(false);
        let q = parse_query(&format!("SELECT {c} FROM {t} WHERE {c} > 0")).unwrap();
        let a = cache.execute_semantic(&db, &q).unwrap();
        let b = cache.execute_semantic(&db, &q).unwrap();
        assert!(fisql_engine::results_match(&a, &b));
        assert_eq!(cache.stats, CacheStats::default());
    }

    /// A corpus example whose gold returns rows, its database, and an
    /// integer column of one of that database's tables.
    fn example_with_rows() -> (fisql_spider::Corpus, usize, String, String) {
        let corpus = build_spider(&SpiderConfig::small(77));
        let idx = corpus
            .examples
            .iter()
            .position(|e| {
                let db = corpus.database(e);
                fisql_engine::execute(db, &e.gold).is_ok_and(|rs| !rs.rows.is_empty())
            })
            .expect("an example with a non-empty gold result");
        let (t, c) = first_table_and_int_col(corpus.database(&corpus.examples[idx]));
        (corpus, idx, t, c)
    }

    #[test]
    fn refuted_lane_skips_equivalent_spellings_within_one_case() {
        let (corpus, idx, t, c) = example_with_rows();
        let example = &corpus.examples[idx];
        let db = corpus.database(example);
        // Disabled result lanes: the refuted lane works regardless.
        for enabled in [true, false] {
            let mut cache = SemanticCache::new(enabled);
            cache.begin_case(db, None);
            let wrong = parse_query(&format!("SELECT {c} FROM {t} WHERE {c} < -999")).unwrap();
            let same =
                parse_query(&format!("SELECT {c} FROM {t} WHERE NOT ({c} >= -999)")).unwrap();
            let verdict = cache.check_prediction(db, example, &wrong, true);
            assert_eq!(verdict, Some(Verdict::WrongResult));
            assert_eq!(cache.check_prediction(db, example, &same, true), None);
            // Analyzer-flagged candidates never consult the lane.
            assert_eq!(
                cache.check_prediction(db, example, &same, false),
                Some(Verdict::WrongResult)
            );
            // Any two provably empty queries of one width are refuted
            // together, whatever their canonical forms.
            let empty =
                parse_query(&format!("SELECT {c} FROM {t} WHERE {c} > 5 AND {c} < 3")).unwrap();
            let also_empty = parse_query(&format!("SELECT {c} FROM {t} WHERE FALSE")).unwrap();
            assert_ne!(
                fisql_sqlkit::canon_fingerprint(&empty),
                fisql_sqlkit::canon_fingerprint(&also_empty)
            );
            assert_eq!(
                cache.check_prediction(db, example, &empty, true),
                Some(Verdict::WrongResult)
            );
            assert_eq!(cache.check_prediction(db, example, &also_empty, true), None);
        }
    }

    #[test]
    fn refuted_lane_is_per_case_and_seeded_by_begin_case() {
        let (corpus, idx, t, c) = example_with_rows();
        let example = &corpus.examples[idx];
        let db = corpus.database(example);
        let wrong = parse_query(&format!("SELECT {c} FROM {t} WHERE {c} < -999")).unwrap();
        let mut cache = SemanticCache::new(true);
        cache.begin_case(db, Some(&wrong));
        assert_eq!(cache.check_prediction(db, example, &wrong, true), None);
        // The next case starts with an empty lane.
        cache.begin_case(db, None);
        assert_eq!(
            cache.check_prediction(db, example, &wrong, true),
            Some(Verdict::WrongResult)
        );
    }

    #[test]
    fn execution_errors_are_never_refuted() {
        let (corpus, idx, t, _) = example_with_rows();
        let example = &corpus.examples[idx];
        let db = corpus.database(example);
        let broken = parse_query(&format!("SELECT no_such_column FROM {t}")).unwrap();
        let mut cache = SemanticCache::new(true);
        cache.begin_case(db, None);
        for _ in 0..2 {
            // Even when the caller vouches for it, an erroring query's
            // verdict is not recorded: it executes every time.
            assert!(matches!(
                cache.check_prediction(db, example, &broken, true),
                Some(Verdict::ExecutionError { .. })
            ));
        }
    }

    #[test]
    fn db_fingerprints_distinguish_corpus_databases() {
        let corpus = build_spider(&SpiderConfig::small(78));
        let mut fps: Vec<u64> = corpus
            .databases
            .iter()
            .map(|db| db.context().fingerprint)
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), corpus.databases.len());
    }
}
