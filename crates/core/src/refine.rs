//! Incremental query building — the paper's §5 future work:
//! "this tool could be adapted to allow users to build up complex SQL
//! queries by asking simple questions first".
//!
//! A [`QueryBuilder`] starts from a simple query and layers refinements
//! expressed in plain language, reusing FISQL's feedback-interpretation
//! machinery in a *cooperative* mode: every utterance is a construction
//! step, not an error correction, so interpretation is deterministic and
//! each successful step must change the query.
//!
//! ```
//! use fisql_core::refine::QueryBuilder;
//! use fisql_engine::{Column, DataType, Database, Table};
//!
//! let mut db = Database::new("d");
//! db.add_table(Table::new("segment", vec![
//!     Column::new("segment_id", DataType::Int),
//!     Column::new("segment_name", DataType::Text),
//!     Column::new("status", DataType::Text),
//!     Column::new("profile_count", DataType::Int),
//! ]));
//!
//! let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
//! b.refine("only include rows where status is 'active'").unwrap();
//! b.refine("order the profile count in descending order").unwrap();
//! b.refine("only show the top 5").unwrap();
//! assert_eq!(
//!     b.sql(),
//!     "SELECT segment_name FROM segment WHERE status = 'active' \
//!      ORDER BY profile_count DESC LIMIT 5"
//! );
//! ```

use crate::interpret::interpret;
use crate::pipeline::{gate_candidate, prune_and_rank};
use fisql_engine::{Database, DbContext};
use fisql_llm::keyword_route;
use fisql_sqlkit::check::{render_report, Diagnostic};
use fisql_sqlkit::{
    apply_edits, diff_queries, enumerate_repairs, locate_faults_with_diagnostics, normalize_query,
    parse_query, print_query, realized_classes, EditOp, FeedbackCues, OpClass, PruneBase, Query,
    QueryFacts,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Why a refinement step failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RefineError {
    /// The utterance could not be grounded to any edit.
    NotUnderstood {
        /// The utterance.
        text: String,
    },
    /// The interpreted edit left the query unchanged.
    NoEffect {
        /// The utterance.
        text: String,
    },
    /// The interpreted edit could not be applied.
    Apply {
        /// The edit engine's message.
        message: String,
    },
    /// The seed SQL failed to parse.
    Parse {
        /// The parser's message.
        message: String,
    },
    /// The refined query failed static semantic analysis and could not be
    /// auto-repaired.
    Invalid {
        /// The rendered diagnostic report
        /// ([`fisql_sqlkit::check::render_report`]).
        report: String,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::NotUnderstood { text } => {
                write!(f, "could not interpret refinement `{text}`")
            }
            RefineError::NoEffect { text } => {
                write!(f, "refinement `{text}` had no effect on the query")
            }
            RefineError::Apply { message } => write!(f, "could not apply refinement: {message}"),
            RefineError::Parse { message } => write!(f, "invalid seed SQL: {message}"),
            RefineError::Invalid { report } => {
                write!(f, "refined query fails semantic analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for RefineError {}

/// One applied refinement step (for history/undo).
#[derive(Debug, Clone)]
pub struct RefineStep {
    /// What the user said.
    pub text: String,
    /// The edits it was interpreted as.
    pub edits: Vec<EditOp>,
    /// The edit classes the step *actually realized*, per
    /// [`diff_queries`] of before vs after (normalization or the typo
    /// repair can make these differ from the interpreted edits' classes).
    pub realized: Vec<OpClass>,
    /// The query before this step.
    pub before: Query,
}

impl RefineStep {
    /// Whether every interpreted edit class was realized in the final
    /// diff — the refinement analogue of the pipeline's
    /// feedback-conformance check.
    pub fn conformant(&self) -> bool {
        let realized = &self.realized;
        self.edits.iter().all(|e| realized.contains(&e.class()))
    }
}

/// An incremental query builder.
pub struct QueryBuilder<'a> {
    db: &'a Database,
    /// The database's memoized context (analyzer schema, lexicon).
    ctx: Arc<DbContext>,
    current: Query,
    history: Vec<RefineStep>,
    /// The current query's facts, derived on first need.
    facts: QueryFacts,
}

impl<'a> QueryBuilder<'a> {
    /// Starts from an existing query.
    pub fn new(db: &'a Database, seed: Query) -> Self {
        QueryBuilder {
            db,
            ctx: db.context(),
            current: normalize_query(&seed),
            history: Vec::new(),
            facts: QueryFacts::default(),
        }
    }

    /// Starts from SQL text.
    pub fn from_sql(db: &'a Database, sql: &str) -> Result<Self, RefineError> {
        let q = parse_query(sql).map_err(|e| RefineError::Parse {
            message: e.to_string(),
        })?;
        Ok(QueryBuilder::new(db, q))
    }

    /// The current query.
    pub fn query(&self) -> &Query {
        &self.current
    }

    /// The current SQL text.
    pub fn sql(&self) -> String {
        print_query(&self.current)
    }

    /// Steps applied so far.
    pub fn history(&self) -> &[RefineStep] {
        &self.history
    }

    /// Static-analysis findings for the current query (warnings only —
    /// an error-bearing refinement is rejected, so the current query
    /// never carries error-severity diagnostics past [`Self::refine`]).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        self.facts
            .diagnostics(&self.current, self.ctx.schema(self.db))
    }

    /// Applies one plain-language refinement. Interpretation is
    /// deterministic (seeded by the step index) and a step that leaves
    /// the query unchanged is an error — a construction step must build.
    pub fn refine(&mut self, text: &str) -> Result<&Query, RefineError> {
        let mut rng = StdRng::seed_from_u64(self.history.len() as u64);
        // Cooperative mode: no routing filter (the builder trusts the
        // interpreter's own candidate ranking), no highlight.
        let interp = interpret(text, &self.current, self.db, None, None, &mut rng);
        if interp.edits.is_empty() {
            return Err(RefineError::NotUnderstood {
                text: text.to_string(),
            });
        }
        let next = apply_edits(&self.current, &interp.edits).map_err(|e| RefineError::Apply {
            message: e.to_string(),
        })?;
        let next = normalize_query(&next);
        if next == self.current {
            return Err(RefineError::NoEffect {
                text: text.to_string(),
            });
        }
        // Static gate: a refinement that makes the query semantically
        // invalid is repaired when it is a unique typo, rejected otherwise.
        let schema = self.ctx.schema(self.db);
        let (next, gate, facts) = gate_candidate(schema, next, QueryFacts::default());
        if gate.has_errors() && !gate.repaired {
            return Err(RefineError::Invalid {
                report: render_report(&print_query(&next), &gate.diagnostics),
            });
        }
        self.facts = facts;
        let realized = realized_classes(&diff_queries(&self.current, &next));
        self.history.push(RefineStep {
            text: text.to_string(),
            edits: interp.edits,
            realized,
            before: std::mem::replace(&mut self.current, next),
        });
        Ok(&self.current)
    }

    /// Ranked repair suggestions for an utterance, best first: the
    /// static repair search's surviving candidates (fault localization →
    /// structure-preserving enumeration → static pruning), scored and
    /// ranked by the `SearchRefine` strategy's own first search round.
    /// Useful when [`Self::refine`] returns `NotUnderstood` — the
    /// builder can show what the analyzer *would* change. Never touches
    /// the engine.
    pub fn suggest(&self, text: &str) -> Vec<(String, i64)> {
        let schema = self.ctx.schema(self.db);
        let cues = FeedbackCues::extract_linked(text, self.ctx.lexicon(self.db));
        let sites = locate_faults_with_diagnostics(
            &self.current,
            schema,
            self.diagnostics(),
            Some(&cues),
            None,
        );
        let pool = enumerate_repairs(&self.current, schema, &sites, &cues);
        let base = PruneBase::new(&self.current);
        let (ranked, _) = prune_and_rank(&base, pool, schema, &cues, keyword_route(text));
        ranked.into_iter().map(|r| (r.sql, r.score)).collect()
    }

    /// Undoes the last refinement; returns false when there is nothing to
    /// undo.
    pub fn undo(&mut self) -> bool {
        match self.history.pop() {
            Some(step) => {
                self.current = step.before;
                self.facts = QueryFacts::default();
                true
            }
            None => false,
        }
    }

    /// Executes the current query against the builder's database, under
    /// the interactive resource guard — a runaway cross join built up
    /// step by step must not hang the refinement session.
    pub fn run(&self) -> Result<fisql_engine::ResultSet, String> {
        fisql_engine::execute_with_limits(
            self.db,
            &self.current,
            fisql_engine::ExecLimits::interactive(),
        )
        .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_engine::{Column, DataType, Table, Value};

    fn db() -> Database {
        let mut db = Database::new("d");
        let mut seg = Table::new(
            "segment",
            vec![
                Column::new("segment_id", DataType::Int),
                Column::new("segment_name", DataType::Text),
                Column::new("status", DataType::Text),
                Column::new("profile_count", DataType::Int),
            ],
        );
        seg.primary_key = Some(0);
        for (id, name, status, count) in [
            (1, "ABC", "active", 100),
            (2, "Loyalty", "active", 400),
            (3, "Churned", "inactive", 50),
            (4, "VIP", "active", 900),
        ] {
            seg.push_row(vec![
                Value::Int(id),
                name.into(),
                status.into(),
                Value::Int(count),
            ]);
        }
        db.add_table(seg);
        db
    }

    #[test]
    fn suggest_ranks_repair_candidates_statically() {
        let db = db();
        let b = QueryBuilder::from_sql(
            &db,
            "SELECT segment_name FROM segment WHERE status = 'activ'",
        )
        .unwrap();
        let suggestions = b.suggest("the status should be 'active'");
        assert!(
            !suggestions.is_empty(),
            "the literal-swap repair should propose 'active'"
        );
        assert!(
            suggestions[0].0.contains("'active'"),
            "top suggestion {:?} does not use the quoted value",
            suggestions[0]
        );
        // Deterministic: same input, same ranking.
        assert_eq!(suggestions, b.suggest("the status should be 'active'"));
    }

    #[test]
    fn builds_up_a_query_step_by_step() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
        b.refine("only include rows where status is 'active'")
            .unwrap();
        b.refine("order the profile count in descending order")
            .unwrap();
        b.refine("only show the top 2").unwrap();
        assert_eq!(
            b.sql(),
            "SELECT segment_name FROM segment WHERE status = 'active' \
             ORDER BY profile_count DESC LIMIT 2"
        );
        let rs = b.run().unwrap();
        assert_eq!(rs.rows[0][0], Value::Text("VIP".into()));
        assert_eq!(rs.rows[1][0], Value::Text("Loyalty".into()));
        assert_eq!(b.history().len(), 3);
    }

    #[test]
    fn steps_record_realized_classes() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
        b.refine("only include rows where status is 'active'")
            .unwrap();
        let step = &b.history()[0];
        assert_eq!(step.realized, vec![OpClass::Add]);
        assert!(step.conformant());
    }

    #[test]
    fn also_show_adds_columns() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
        b.refine("also show the profile count").unwrap();
        assert_eq!(b.sql(), "SELECT segment_name, profile_count FROM segment");
    }

    #[test]
    fn ungroundable_refinement_errors() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
        let err = b.refine("make it nicer somehow").unwrap_err();
        assert!(matches!(err, RefineError::NotUnderstood { .. }));
        assert!(b.history().is_empty());
    }

    #[test]
    fn no_effect_refinement_errors() {
        let db = db();
        let mut b = QueryBuilder::from_sql(
            &db,
            "SELECT segment_name FROM segment ORDER BY segment_name ASC",
        )
        .unwrap();
        let err = b
            .refine("order the segment name in ascending order")
            .unwrap_err();
        assert!(matches!(err, RefineError::NoEffect { .. }));
    }

    #[test]
    fn undo_restores_previous_query() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_name FROM segment").unwrap();
        let before = b.sql();
        b.refine("only show the top 3").unwrap();
        assert_ne!(b.sql(), before);
        assert!(b.undo());
        assert_eq!(b.sql(), before);
        assert!(!b.undo());
    }

    #[test]
    fn invalid_seed_sql_errors() {
        let db = db();
        assert!(matches!(
            QueryBuilder::from_sql(&db, "SELECT FROM"),
            Err(RefineError::Parse { .. })
        ));
    }

    #[test]
    fn refine_repairs_typo_in_seed_query() {
        let db = db();
        // `segment_nme` exists nowhere; its unique nearest schema name is
        // `segment_name`, so the first refinement both applies and heals.
        let mut b = QueryBuilder::from_sql(&db, "SELECT segment_nme FROM segment").unwrap();
        assert!(b.diagnostics().iter().any(|d| d.is_error()));
        b.refine("only show the top 3").unwrap();
        assert_eq!(b.sql(), "SELECT segment_name FROM segment LIMIT 3");
        assert!(b.diagnostics().is_empty());
    }

    #[test]
    fn unrepairable_refinement_is_rejected() {
        let db = db();
        let mut b = QueryBuilder::from_sql(&db, "SELECT completely_made_up FROM segment").unwrap();
        let err = b.refine("only show the top 3").unwrap_err();
        match err {
            RefineError::Invalid { report } => {
                assert!(report.contains("unknown-column"), "{report}");
                assert!(report.contains("completely_made_up"), "{report}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // The failed step is not recorded.
        assert!(b.history().is_empty());
    }

    #[test]
    fn diagnostics_surface_warnings() {
        let db = db();
        let b = QueryBuilder::from_sql(
            &db,
            "SELECT segment_name FROM segment WHERE segment_name > 5",
        )
        .unwrap();
        let diags = b.diagnostics();
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| !d.is_error()));
    }

    #[test]
    fn removal_refinements_work_too() {
        let db = db();
        let mut b = QueryBuilder::from_sql(
            &db,
            "SELECT segment_name, status FROM segment WHERE status = 'active'",
        )
        .unwrap();
        b.refine("do not show the status").unwrap();
        b.refine("do not filter by status").unwrap();
        assert_eq!(b.sql(), "SELECT segment_name FROM segment");
    }
}
