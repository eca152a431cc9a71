//! Semantic result cache keyed by `(db_fingerprint, canon_fingerprint)`,
//! and the one gate that decides whether a correctness check executes.
//!
//! Correction runs execute the same SQL over and over: the gold query of
//! a case re-executes every round, candidate repairs are dense with
//! semantically-equal spellings, and serve sessions re-render the same
//! prediction grid after every feedback turn. [`SemanticCache`] turns
//! those repeats into hash lookups with three lanes:
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
//!   results, the same gate the refuted lane applies;
//! * the **exact lane** serves user-visible renders (view grids and
//!   serve-session result frames) under the interactive row budget. It
//!   is keyed by the exact printed SQL, which makes it trivially sound —
//!   byte-identical query text on the same database — so it may cache
//!   `Err` strings too.
//!
//! The cache is deliberately **per-shard** (one per worker thread, one
//! per serve session): no cross-thread state means worker count cannot
//! change which executions hit, and reports stay bit-identical at any
//! worker count. Hit counters of the two result lanes are folded into
//! [`RunMetrics`](crate::runner::RunMetrics), which is `#[serde(skip)]`
//! in serialized reports, so cache effectiveness is observable without
//! perturbing replay contracts; refuted-lane skips are report fields
//! (`executions_skipped_static`).

use fisql_engine::{Database, ExecLimits, ResultSet};
use fisql_llm::CacheStats;
use fisql_spider::{check_prediction_with, Example, Verdict};
use fisql_sqlkit::{
    check_query, fnv64, normalize_query, output_arity, print_query, provably_empty, Query,
    SchemaInfo,
};
use std::collections::{HashMap, HashSet};

/// A query's keys in the refuted lane (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RefutedKey {
    /// Canonical fingerprint.
    Canon(u64),
    /// A provably empty query of this output arity.
    Empty(usize),
}

/// Fingerprints of one query, memoized by its printed SQL.
#[derive(Debug, Clone, Copy)]
struct QueryKeys {
    canon: u64,
    empty_arity: Option<usize>,
}

impl QueryKeys {
    fn refuted(self) -> impl Iterator<Item = RefutedKey> {
        std::iter::once(RefutedKey::Canon(self.canon))
            .chain(self.empty_arity.map(RefutedKey::Empty))
    }
}

/// A per-shard execution gate: refuted + semantic + exact lanes. See
/// the module docs for the lanes and their soundness arguments.
#[derive(Debug, Default)]
pub struct SemanticCache {
    enabled: bool,
    /// Database fingerprints, memoized by database name (corpus
    /// databases are unique by name; the fingerprint content-checks that
    /// assumption cheaply).
    db_fps: HashMap<String, u64>,
    /// Schema introspection memo for the analyzer gate, keyed by db
    /// fingerprint.
    schemas: HashMap<u64, SchemaInfo>,
    /// Query fingerprints keyed by exact printed SQL (computing the
    /// canonical form is pure AST work but not free).
    keys: HashMap<u64, QueryKeys>,
    /// Refuted lane: keys of queries the current case found incorrect.
    refuted: HashSet<RefutedKey>,
    /// Semantic lane: `(db_fp, canon_fp)` → unlimited-budget `Ok` rows.
    semantic: HashMap<(u64, u64), ResultSet>,
    /// Exact lane: `(db_fp, print_fp)` → interactive-budget outcome.
    exact: HashMap<(u64, u64), Result<ResultSet, String>>,
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

    /// Fingerprint of a database: FNV-1a over its name plus every
    /// table's name, column names, and row count. Cheap (no row data)
    /// but strong enough to content-check the name-uniqueness assumption
    /// the corpus already guarantees.
    pub fn db_fingerprint(db: &Database) -> u64 {
        let mut payload = Vec::new();
        payload.extend_from_slice(db.name.as_bytes());
        for table in &db.tables {
            payload.push(0x1f);
            payload.extend_from_slice(table.name.as_bytes());
            for col in &table.columns {
                payload.push(0x1e);
                payload.extend_from_slice(col.name.as_bytes());
            }
            payload.push(0x1d);
            payload.extend_from_slice(&(table.rows.len() as u64).to_le_bytes());
        }
        fnv64(&payload)
    }

    fn db_fp(&mut self, db: &Database) -> u64 {
        if let Some(fp) = self.db_fps.get(&db.name) {
            return *fp;
        }
        let fp = Self::db_fingerprint(db);
        self.db_fps.insert(db.name.clone(), fp);
        fp
    }

    fn analyzer_clean(&mut self, db_fp: u64, db: &Database, query: &Query) -> bool {
        let schema = self
            .schemas
            .entry(db_fp)
            .or_insert_with(|| db.schema_info());
        !check_query(query, schema).iter().any(|d| d.is_error())
    }

    fn query_keys(&mut self, query: &Query) -> QueryKeys {
        let print_fp = fnv64(print_query(query).as_bytes());
        *self.keys.entry(print_fp).or_insert_with(|| {
            let normalized = normalize_query(query);
            QueryKeys {
                canon: fisql_sqlkit::canon_fingerprint(query),
                empty_arity: output_arity(&normalized).filter(|_| provably_empty(&normalized)),
            }
        })
    }

    /// Starts a new case: clears the refuted lane and seeds it with the
    /// case's initial prediction when that query executed without error
    /// (it is known incorrect — that is why the case exists).
    pub fn begin_case(&mut self, initial: Option<&Query>) {
        self.refuted.clear();
        if let Some(query) = initial {
            let keys = self.query_keys(query);
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
    /// or extend the refuted lane.
    pub fn check_prediction(
        &mut self,
        db: &Database,
        example: &Example,
        query: &Query,
        analyzer_clean: bool,
    ) -> Option<Verdict> {
        let keys = analyzer_clean.then(|| self.query_keys(query));
        if keys.is_some_and(|k| k.refuted().any(|key| self.refuted.contains(&key))) {
            return None;
        }
        let verdict =
            check_prediction_with(db, example, query, |db, q| self.execute_semantic(db, q));
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
        let db_fp = self.db_fp(db);
        if !self.analyzer_clean(db_fp, db, query) {
            self.stats.misses += 1;
            return fisql_engine::execute(db, query).map_err(|e| e.to_string());
        }
        let canon_fp = self.query_keys(query).canon;
        if let Some(rs) = self.semantic.get(&(db_fp, canon_fp)) {
            self.stats.hits += 1;
            return Ok(rs.clone());
        }
        self.stats.misses += 1;
        let res = fisql_engine::execute(db, query).map_err(|e| e.to_string());
        if let Ok(rs) = &res {
            self.semantic.insert((db_fp, canon_fp), rs.clone());
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
        let db_fp = self.db_fp(db);
        let print_fp = fnv64(print_query(query).as_bytes());
        if let Some(res) = self.exact.get(&(db_fp, print_fp)) {
            self.stats.hits += 1;
            return res.clone();
        }
        self.stats.misses += 1;
        let res = fisql_engine::execute_with_limits(db, query, guard).map_err(|e| e.to_string());
        self.exact.insert((db_fp, print_fp), res.clone());
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
            cache.begin_case(None);
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
        cache.begin_case(Some(&wrong));
        assert_eq!(cache.check_prediction(db, example, &wrong, true), None);
        // The next case starts with an empty lane.
        cache.begin_case(None);
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
        cache.begin_case(None);
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
            .map(SemanticCache::db_fingerprint)
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), corpus.databases.len());
    }
}
