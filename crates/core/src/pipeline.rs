//! Feedback-incorporation strategies: FISQL (with and without routing and
//! highlighting) and the Query Rewrite baseline.
//!
//! All strategies share one signature — previous query + feedback in,
//! revised query out — so the experiment driver and benches swap them
//! freely.

use crate::interpret::{interpret, interpret_candidates, Interpretation};
use fisql_engine::Database;
use fisql_feedback::Feedback;
use fisql_llm::{routing_alignment, BackendResult, FallibleLanguageModel, GenMode, GenRequest};
use fisql_spider::Example;
use fisql_sqlkit::check::{check_query, repair_query, Diagnostic, SchemaInfo};
use fisql_sqlkit::{
    apply_edits, diff_queries, enumerate_repairs, literal_year, locate_faults_with_cues,
    locate_faults_with_diagnostics, normalize_query, print_query, print_query_spanned,
    prune_against, realized_classes, same_clause_family, Expr, FeedbackCues, Literal, OpClass,
    PruneBase, PruneOutcome, Query, RepairCandidate,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which feedback-incorporation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// FISQL's two-step prompting (§3.3). `routing` enables feedback-type
    /// identification; `highlighting` uses the user's highlight span for
    /// grounding (Table 3).
    Fisql {
        /// Feedback-type identification on/off (Table 2's ablation).
        routing: bool,
        /// Highlight grounding on/off (Table 3).
        highlighting: bool,
    },
    /// FISQL with *dynamically selected* routing demonstrations (the
    /// paper's §5 future-work extension). The simulated model reads only
    /// that the demonstrations were selected dynamically, which adds
    /// [`fisql_llm::Calibration::dynamic_demo_bonus`] to its edit-success
    /// probability.
    FisqlDynamic,
    /// The Query Rewrite baseline (§4.1): paraphrase the question to fold
    /// in the feedback, then regenerate from scratch.
    QueryRewrite,
    /// Static fault localization + structure-preserving repair search:
    /// rank fault sites from analyzer/flow/feedback evidence, enumerate
    /// minimal candidate edits, prune statically (abstract
    /// interpretation and equivalence proofs), and beam-search the
    /// survivors by a static closeness score. The engine is touched only
    /// by the runner's final validation — never inside the strategy.
    SearchRefine,
}

impl Strategy {
    /// Canonical display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            } => "FISQL",
            Strategy::Fisql {
                routing: false,
                highlighting: false,
            } => "FISQL (- Routing)",
            Strategy::Fisql {
                routing: true,
                highlighting: true,
            } => "FISQL (+ Highlighting)",
            Strategy::Fisql {
                routing: false,
                highlighting: true,
            } => "FISQL (- Routing, + Highlighting)",
            Strategy::FisqlDynamic => "FISQL (dynamic routing)",
            Strategy::QueryRewrite => "Query Rewrite",
            Strategy::SearchRefine => "SearchRefine",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses the CLI spelling of a strategy (`fisql`, `dynamic`,
    /// `rewrite`, `search`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fisql" => Ok(Strategy::Fisql {
                routing: true,
                highlighting: false,
            }),
            "dynamic" => Ok(Strategy::FisqlDynamic),
            "rewrite" => Ok(Strategy::QueryRewrite),
            "search" => Ok(Strategy::SearchRefine),
            other => Err(format!(
                "unknown strategy {other:?} (expected fisql, dynamic, rewrite, or search)"
            )),
        }
    }
}

/// Everything a strategy needs for one incorporation step.
pub struct IncorporateContext<'a> {
    /// Database under query.
    pub db: &'a Database,
    /// The benchmark example (question + gold + channels).
    pub example: &'a Example,
    /// The question as currently phrased (Query Rewrite mutates this
    /// across rounds).
    pub question: &'a str,
    /// The previous (normalized) prediction.
    pub previous: &'a Query,
    /// The user's feedback this round.
    pub feedback: &'a Feedback,
    /// Round number (0-based).
    pub round: u64,
    /// Run the feedback-conformance gate: diff the candidate against the
    /// previous query and verify the realized edit class (and, with
    /// highlighting, the touched clause) agrees with the routed feedback
    /// type; a non-conformant candidate gets one re-prompt.
    pub conformance_gate: bool,
}

/// The result of one incorporation step.
#[derive(Debug, Clone)]
pub struct IncorporateOutcome {
    /// The revised query (normalized).
    pub query: Query,
    /// The question text after this round (changes only for Query
    /// Rewrite).
    pub question: String,
    /// The routed feedback class, when routing ran.
    pub routed: Option<OpClass>,
    /// Interpretation diagnostics (FISQL paths only).
    pub interpretation: Option<Interpretation>,
    /// What the static-analysis gate found (and possibly fixed) in the
    /// candidate before it could reach the engine.
    pub gate: GateOutcome,
    /// What the feedback-conformance gate observed, when it ran (FISQL
    /// paths with routing, `conformance_gate` on).
    pub conformance: Option<ConformanceReport>,
    /// What the repair search did, when the strategy was
    /// [`Strategy::SearchRefine`].
    pub search: Option<SearchReport>,
}

/// Accounting for one search-refine step: how many fault sites were
/// localized, how many candidates were enumerated, how many the static
/// pruner removed before any execution, and how many survivors the beam
/// search chose among. The runner folds `pruned_static` into
/// `executions_skipped_static` and the non-chosen survivors into
/// `executions_saved` — each is a candidate a generate-and-test loop
/// would have run against the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchReport {
    /// Ranked fault sites localized in the previous query.
    pub sites: u64,
    /// Repair candidates enumerated across all search rounds.
    pub enumerated: u64,
    /// Candidates removed statically (contradictory, invalid, or proven
    /// equivalent) — executions a generate-and-test loop would have
    /// burned.
    pub pruned_static: u64,
    /// Candidates that survived static pruning (the beam pool).
    pub survivors: u64,
    /// Beam members expanded with a second localization round.
    pub expanded: u64,
    /// Static closeness score of the chosen candidate (0 when no
    /// candidate survived and the previous query was kept).
    pub score: i64,
    /// Generator label of the chosen candidate (`"none"` when no
    /// candidate survived).
    pub chosen: &'static str,
}

/// What the feedback-conformance gate observed for one candidate: whether
/// the edit class realized by the regeneration (per [`diff_queries`])
/// agrees with the class the router predicted from the feedback text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// The routed feedback class the candidate was checked against.
    pub routed: OpClass,
    /// Whether the first candidate already conformed.
    pub agreed: bool,
    /// Whether a conformance re-prompt was issued.
    pub retried: bool,
    /// Whether the final candidate (after any retry) conformed.
    pub agreed_after_retry: bool,
}

/// What the static-analysis gate ([`gate_candidate`]) did to one
/// candidate query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GateOutcome {
    /// Diagnostics the analyzer reported for the candidate (pre-repair).
    pub diagnostics: Vec<Diagnostic>,
    /// Whether a typo-level repair made the candidate analyzer-clean.
    pub repaired: bool,
    /// Engine executions avoided: a repaired candidate skips the failing
    /// run it would otherwise have burned.
    pub executions_saved: u64,
}

impl GateOutcome {
    /// Whether the candidate had error-severity findings (before repair).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }
}

/// Gates a candidate query through the static analyzer before it can
/// reach the engine. Error findings are kept in the outcome, and a
/// unique typo-level repair (edit distance ≤ 2 against the schema, names
/// that exist nowhere in it) is applied when it makes the candidate
/// analyzer-clean.
pub fn gate_candidate(db: &Database, candidate: Query) -> (Query, GateOutcome) {
    let ctx = db.context();
    let schema = ctx.schema(db);
    let diagnostics = check_query(&candidate, schema);
    gate_checked(schema, candidate, diagnostics)
}

/// [`gate_candidate`] for a candidate whose analyzer `diagnostics`
/// against `schema` are already known.
fn gate_checked(
    schema: &SchemaInfo,
    candidate: Query,
    diagnostics: Vec<Diagnostic>,
) -> (Query, GateOutcome) {
    if !diagnostics.iter().any(Diagnostic::is_error) {
        return (
            candidate,
            GateOutcome {
                diagnostics,
                ..GateOutcome::default()
            },
        );
    }
    match repair_query(&candidate, schema) {
        Some(fixed) => (
            normalize_query(&fixed),
            GateOutcome {
                diagnostics,
                repaired: true,
                executions_saved: 1,
            },
        ),
        None => (
            candidate,
            GateOutcome {
                diagnostics,
                repaired: false,
                executions_saved: 0,
            },
        ),
    }
}

/// Runs one feedback-incorporation step with `strategy`.
///
/// Generic over the one backend trait: the simulated model, a
/// faulty/resilient wrapper stack, or a future real-LLM client all drive
/// the same pipeline. A returned error means a backend role failed past
/// any middleware's patience — callers decide whether to degrade (keep
/// the previous round's SQL) or surface it. [`fisql_llm::SimLlm`] never
/// fails, so its callers may unwrap.
pub fn try_incorporate<L: FallibleLanguageModel + ?Sized>(
    strategy: Strategy,
    llm: &L,
    ctx: &IncorporateContext<'_>,
) -> BackendResult<IncorporateOutcome> {
    match strategy {
        Strategy::Fisql {
            routing,
            highlighting,
        } => fisql_step(llm, ctx, routing, highlighting, false),
        Strategy::FisqlDynamic => fisql_step(llm, ctx, true, false, true),
        Strategy::QueryRewrite => rewrite_step(llm, ctx),
        Strategy::SearchRefine => search_step(llm, ctx),
    }
}

fn fisql_step<L: FallibleLanguageModel + ?Sized>(
    llm: &L,
    ctx: &IncorporateContext<'_>,
    routing: bool,
    highlighting: bool,
    dynamic: bool,
) -> BackendResult<IncorporateOutcome> {
    // Step 1 (§3.3): feedback-type identification. Step 2 regenerates
    // from the routed demonstrations (fixed, or dynamically selected —
    // the §5 extension), which the model reads as `routing` and
    // `dynamic`.
    let routed = if routing {
        Some(llm.try_classify_feedback(&ctx.feedback.text, ctx.round)?)
    } else {
        None
    };

    // Interpret the feedback against the previous query.
    let mut rng = StdRng::seed_from_u64(
        0x1E27 ^ (ctx.example.id as u64).rotate_left(13) ^ ctx.round.rotate_left(29),
    );
    let highlight = if highlighting {
        ctx.feedback.highlight
    } else {
        None
    };
    let interp = interpret(
        &ctx.feedback.text,
        ctx.previous,
        ctx.db,
        routed,
        highlight,
        &mut rng,
    );

    let candidate = || -> BackendResult<Query> {
        if interp.edits.is_empty() {
            // Interpretation failure: the model regenerates essentially
            // the same query (paper error cause (b)).
            return Ok(ctx.previous.clone());
        }
        let p = llm.try_edit_success_prob(routing, dynamic)?
            * llm.try_edit_complexity_factor(&interp.edits)?;
        let applied = llm.try_apply_feedback_edit_with_prob(
            ctx.previous,
            &interp.edits,
            p,
            ctx.example.id,
            ctx.round,
        )?;
        Ok(normalize_query(&applied))
    };
    let mut query = candidate()?;

    // Feedback-conformance gate: the realized edit class (diff of previous
    // vs candidate) must agree with the routed class, and — under
    // highlighting — the realized edits must touch the clause the user
    // highlighted. A no-op candidate (empty diff) is cause-(b)
    // non-conformance whenever the router predicted any change.
    let conformance = match (ctx.conformance_gate, routed) {
        (true, Some(routed_class)) => {
            let conforms = |q: &Query| {
                // A candidate canonically equivalent to the previous
                // query is a semantic no-op regardless of its spelling —
                // cause-(b) non-conformance just like an empty diff.
                if fisql_sqlkit::canonically_equivalent(ctx.previous, q) {
                    return false;
                }
                let realized = diff_queries(ctx.previous, q);
                let classes = realized_classes(&realized);
                if !classes.contains(&routed_class) {
                    return false;
                }
                let span_ok = match highlight {
                    Some(h) => {
                        let spanned = print_query_spanned(ctx.previous);
                        match spanned.clause_at(h) {
                            Some(path) => realized
                                .iter()
                                .any(|e| same_clause_family(&e.clause(), path)),
                            None => true,
                        }
                    }
                    None => true,
                };
                span_ok
            };
            let agreed = conforms(&query);
            let mut report = ConformanceReport {
                routed: routed_class,
                agreed,
                retried: false,
                agreed_after_retry: agreed,
            };
            if !agreed {
                report.retried = true;
                // One re-prompt. Deterministic backends reproduce the same
                // candidate (the report still records the retry); if the
                // retry dies in a faulty backend, keep the first candidate
                // rather than fail the whole round.
                if let Ok(second) = candidate() {
                    query = second;
                }
                report.agreed_after_retry = conforms(&query);
            }
            Some(report)
        }
        _ => None,
    };

    let (query, gate) = gate_candidate(ctx.db, query);

    Ok(IncorporateOutcome {
        query,
        question: ctx.question.to_string(),
        routed,
        interpretation: Some(interp),
        gate,
        conformance,
        search: None,
    })
}

/// Beam width of the repair search: survivors re-localized in round two.
const BEAM_WIDTH: usize = 4;

/// One statically-surviving repair candidate, scored once: its analyzer
/// diagnostics from pruning, its closeness score, and its printed SQL
/// (the rank's tie-break).
struct Ranked {
    cand: RepairCandidate,
    diagnostics: Vec<Diagnostic>,
    score: i64,
    sql: String,
}

fn search_step<L: FallibleLanguageModel + ?Sized>(
    llm: &L,
    ctx: &IncorporateContext<'_>,
) -> BackendResult<IncorporateOutcome> {
    // The backend's only role here is feedback-type classification; every
    // later step is pure static analysis, so the whole strategy is
    // deterministic in (query, feedback, schema) — a requirement for the
    // runner's bit-identical-reports contract.
    let routed = llm.try_classify_feedback(&ctx.feedback.text, ctx.round)?;
    let db = ctx.db.context();
    let schema = db.schema(ctx.db);
    let highlight = ctx.feedback.highlight;
    // The original's normalized form, canonical fingerprint and empty
    // arity, derived once for every pool pruned this round.
    let base = PruneBase::new(ctx.previous);
    let previous = base.query();

    // Mine the feedback once for the whole round; localize: rank fault
    // sites from analyzer, flow, feedback, and highlight evidence.
    let cues = FeedbackCues::extract_linked(&ctx.feedback.text, db.lexicon(ctx.db));
    let sites = locate_faults_with_cues(previous, schema, Some(&cues), highlight);

    // Enumerate: site-driven repairs, plus the feedback interpreter's
    // full candidate pool (the same pool `interpret` samples one member
    // from) re-expressed as repair candidates. Interpreter candidates
    // carry the out-of-range site index `sites.len()` so diagnostics can
    // tell the two generators apart.
    let mut pool = enumerate_repairs(previous, schema, &sites, &cues);
    for cand in interpret_candidates(
        &ctx.feedback.text,
        previous,
        ctx.db,
        Some(routed),
        highlight,
    ) {
        if let Ok(query) = apply_edits(previous, &cand.edits) {
            pool.push(RepairCandidate {
                query,
                edits: cand.edits,
                site: sites.len(),
                label: cand.label,
            });
        }
    }
    let enumerated_round1 = pool.len() as u64;

    // Prune: abstract interpretation (contradictory/empty), analyzer
    // (invalid names), and the equivalence oracle (no-ops, duplicates)
    // drop candidates before anything can reach the engine. Each
    // survivor is scored once, from the diagnostics pruning kept.
    let ranked = |outcome: PruneOutcome| {
        outcome
            .kept
            .into_iter()
            .zip(outcome.diagnostics)
            .map(|(cand, diagnostics)| Ranked {
                score: closeness(previous, &cand, &diagnostics, &cues, routed),
                sql: print_query(&cand.query),
                cand,
                diagnostics,
            })
    };
    let rank = |pool: &mut Vec<Ranked>| {
        pool.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.sql.cmp(&b.sql)));
    };
    let outcome = prune_against(&base, pool, schema);
    let mut pruned_static = outcome.pruned_static();
    let mut survivors: Vec<Ranked> = ranked(outcome).collect();
    rank(&mut survivors);

    // Expand: a second localization round on the top beam members, so
    // multi-edit faults (join + literal, table + column) are reachable.
    // Second-round candidates are re-pruned against the *original* query
    // and the accumulated pool, then ranked into it. Survivors are only
    // appended here, so the beam stays at the front of the pool.
    let beam = survivors.len().min(BEAM_WIDTH);
    let mut enumerated_round2 = 0u64;
    for i in 0..beam {
        // A member is localized from the diagnostics pruning kept for it.
        let Ranked {
            cand: member,
            diagnostics,
            ..
        } = &survivors[i];
        let member_sites =
            locate_faults_with_diagnostics(&member.query, schema, diagnostics, Some(&cues), None);
        let expansions = enumerate_repairs(&member.query, schema, &member_sites, &cues);
        enumerated_round2 += expansions.len() as u64;
        let expansions: Vec<RepairCandidate> = expansions
            .into_iter()
            .map(|e| RepairCandidate {
                query: e.query,
                edits: member.edits.iter().cloned().chain(e.edits).collect(),
                site: member.site,
                label: e.label,
            })
            .collect();
        let second = prune_against(&base, expansions, schema);
        pruned_static += second.pruned_static();
        for cand in ranked(second) {
            let duplicate = survivors.iter().any(|k| k.cand.query == cand.cand.query);
            if duplicate {
                pruned_static += 1;
            } else {
                survivors.push(cand);
            }
        }
    }
    rank(&mut survivors);

    let report = SearchReport {
        sites: sites.len() as u64,
        enumerated: enumerated_round1 + enumerated_round2,
        pruned_static,
        survivors: survivors.len() as u64,
        expanded: beam as u64,
        score: survivors.first().map_or(0, |r| r.score),
        chosen: survivors.first().map_or("none", |r| r.cand.label),
    };

    // Choose: the top-ranked survivor goes to the runner's validator,
    // gated on the diagnostics pruning already found; an empty pool keeps
    // the previous query (interpretation failure, the paper's error
    // cause (b)).
    let (chosen, diagnostics) = match survivors.into_iter().next() {
        Some(top) => (top.cand.query, top.diagnostics),
        None => (previous.clone(), check_query(previous, schema)),
    };
    let (query, gate) = gate_checked(schema, chosen, diagnostics);

    Ok(IncorporateOutcome {
        query,
        question: ctx.question.to_string(),
        routed: Some(routed),
        interpretation: None,
        gate,
        conformance: None,
        search: Some(report),
    })
}

/// Static closeness score for one repair candidate: cue coverage
/// dominates, routed-class agreement breaks coverage ties, and edit
/// count plus analyzer warnings (the candidate's `diagnostics`, as
/// pruning found them) act as minimality penalties. Integer arithmetic
/// throughout — scores must be exactly reproducible.
pub(crate) fn closeness(
    previous: &Query,
    cand: &RepairCandidate,
    diagnostics: &[Diagnostic],
    cues: &FeedbackCues,
    routed: OpClass,
) -> i64 {
    let realized = realized_classes(&diff_queries(previous, &cand.query));
    let coverage = cue_coverage(&cand.query, cues);
    let warnings = diagnostics.len() as i64;
    coverage * 30 + routing_alignment(routed, &realized) * 12
        - 3 * (cand.edits.len() as i64)
        - 2 * warnings
}

/// Counts how many of the feedback's cues the candidate query satisfies:
/// mentioned years appear as literal years, numbers as numeric literals
/// or the LIMIT count, strings as string literals, schema entities as
/// referenced tables/columns, plus aggregate, sort-direction, and LIMIT
/// expectations.
fn cue_coverage(query: &Query, cues: &FeedbackCues) -> i64 {
    let mut literals: Vec<Literal> = Vec::new();
    let mut columns: Vec<String> = Vec::new();
    let mut funcs: Vec<fisql_sqlkit::Func> = Vec::new();
    for_each_expr(query, &mut |e| match e {
        Expr::Literal(lit) => literals.push(lit.clone()),
        Expr::Column(c) => columns.push(c.column.to_lowercase()),
        Expr::Call { func, .. } => funcs.push(*func),
        _ => {}
    });
    let tables = query.all_table_names();

    let mut satisfied = 0i64;
    for year in &cues.years {
        if literals.iter().any(|l| literal_year(l) == Some(*year)) {
            satisfied += 1;
        }
    }
    for n in &cues.numbers {
        let as_literal = literals
            .iter()
            .any(|l| matches!(l, Literal::Number(v) if v == n));
        let as_limit = *n >= 0 && query.limit.is_some_and(|l| l.count == *n as u64);
        if as_literal || as_limit {
            satisfied += 1;
        }
    }
    for s in &cues.strings {
        if literals
            .iter()
            .any(|l| matches!(l, Literal::String(v) if v.eq_ignore_ascii_case(s)))
        {
            satisfied += 1;
        }
    }
    for t in &cues.tables {
        if tables.iter().any(|n| n.eq_ignore_ascii_case(t)) {
            satisfied += 1;
        }
    }
    for c in &cues.columns {
        if columns.iter().any(|n| n.eq_ignore_ascii_case(c)) {
            satisfied += 1;
        }
    }
    for agg in &cues.aggregates {
        if funcs.contains(agg) {
            satisfied += 1;
        }
    }
    if cues.ascending && query.order_by.iter().any(|o| !o.desc) {
        satisfied += 1;
    }
    if cues.descending && query.order_by.iter().any(|o| o.desc) {
        satisfied += 1;
    }
    if cues.limit_hint && query.limit.is_some() {
        satisfied += 1;
    }
    satisfied
}

/// Visits every expression in every core's SELECT list, WHERE, GROUP BY,
/// and HAVING, plus the trailing ORDER BY keys (subquery interiors are
/// reached through [`Expr::walk`]'s own contract).
fn for_each_expr(query: &Query, f: &mut impl FnMut(&Expr)) {
    for core in query.cores() {
        for item in &core.items {
            if let fisql_sqlkit::SelectItem::Expr { expr, .. } = item {
                expr.walk(f);
            }
        }
        if let Some(w) = &core.where_clause {
            w.walk(f);
        }
        for g in &core.group_by {
            g.walk(f);
        }
        if let Some(h) = &core.having {
            h.walk(f);
        }
    }
    for o in &query.order_by {
        o.expr.walk(f);
    }
}

fn rewrite_step<L: FallibleLanguageModel + ?Sized>(
    llm: &L,
    ctx: &IncorporateContext<'_>,
) -> BackendResult<IncorporateOutcome> {
    // Paraphrase the question to absorb the feedback …
    let new_question = llm.try_rewrite_question(ctx.question, &ctx.feedback.text)?;
    // … then regenerate from scratch. The regeneration resamples the
    // comprehension model: hints now present in the question resolve their
    // channels, but every *other* channel refires independently — the
    // mechanism behind the baseline's weakness.
    let generation = llm.try_generate_sql(&GenRequest {
        example: ctx.example,
        demos: 3,
        hint_text: &new_question,
        salt: 1000 + ctx.round,
        mode: GenMode::Rewrite,
    })?;
    let (query, gate) = gate_candidate(ctx.db, normalize_query(&generation.query));
    Ok(IncorporateOutcome {
        query,
        question: new_question,
        routed: None,
        interpretation: None,
        gate,
        conformance: None,
        search: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_feedback::Feedback;
    use fisql_llm::{Calibration, LlmConfig, SimLlm};
    use fisql_spider::{build_aep, AepConfig};
    use fisql_sqlkit::check::DiagCode;
    use fisql_sqlkit::{parse_query, structurally_equal};

    fn flawless_llm() -> SimLlm {
        SimLlm::new(LlmConfig {
            seed: 1,
            calibration: Calibration {
                router_noise: 0.0,
                edit_apply_with_routing: 1.0,
                edit_apply_without_routing: 1.0,
                ..Default::default()
            },
        })
    }

    #[test]
    fn fisql_fixes_the_figure4_flagship() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(
            &parse_query(
                "SELECT COUNT(*) FROM hkg_dim_segment \
                 WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            )
            .unwrap(),
        );
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        assert!(
            structurally_equal(&out.query, &e.gold),
            "got {}",
            print_query(&out.query)
        );
        assert_eq!(out.routed, Some(OpClass::Edit));
    }

    #[test]
    fn conformance_gate_reports_agreement_on_good_edit() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(
            &parse_query(
                "SELECT COUNT(*) FROM hkg_dim_segment \
                 WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            )
            .unwrap(),
        );
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: true,
            },
        )
        .unwrap();
        let report = out.conformance.expect("gate should have run");
        assert_eq!(report.routed, OpClass::Edit);
        assert!(report.agreed);
        assert!(!report.retried);
        assert!(report.agreed_after_retry);
    }

    #[test]
    fn conformance_gate_retries_on_noop_candidate() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(&e.gold);
        // Routable but ungroundable: the router sees an Edit-type
        // feedback, the interpreter finds nothing to change, so the
        // candidate is a no-op — cause-(b) non-conformance.
        let fb = Feedback {
            text: "change the frobnication coefficient".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: true,
            },
        )
        .unwrap();
        let report = out.conformance.expect("gate should have run");
        assert!(!report.agreed);
        assert!(report.retried);
        // Deterministic backend: the retry reproduces the no-op.
        assert!(!report.agreed_after_retry);
        assert!(structurally_equal(&out.query, &previous));
    }

    #[test]
    fn conformance_gate_off_reports_nothing() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(&e.gold);
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        assert!(out.conformance.is_none());
    }

    #[test]
    fn rewrite_step_changes_question() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(&e.gold);
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::QueryRewrite,
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        assert!(out.question.contains("2024"));
        assert!(out.question.contains("January"));
        assert!(out.interpretation.is_none());
    }

    #[test]
    fn search_refine_fixes_the_figure4_flagship() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(
            &parse_query(
                "SELECT COUNT(*) FROM hkg_dim_segment \
                 WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            )
            .unwrap(),
        );
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::SearchRefine,
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        assert!(
            structurally_equal(&out.query, &e.gold),
            "got {}",
            print_query(&out.query)
        );
        assert_eq!(out.routed, Some(OpClass::Edit));
        let report = out.search.expect("search report should be present");
        assert!(report.sites >= 1, "no fault sites localized: {report:?}");
        assert!(report.survivors >= 1, "no survivors: {report:?}");
        assert!(
            report.pruned_static >= 1,
            "nothing pruned statically: {report:?}"
        );
        assert_ne!(report.chosen, "none");
        // The strategy itself never touches the engine; the runner's
        // validator does.
        assert!(out.interpretation.is_none());
    }

    #[test]
    fn search_refine_is_deterministic() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(
            &parse_query(
                "SELECT COUNT(*) FROM hkg_dim_segment \
                 WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            )
            .unwrap(),
        );
        let fb = Feedback {
            text: "we are in 2024".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let ctx = IncorporateContext {
            db: corpus.database(e),
            example: e,
            question: &e.question,
            previous: &previous,
            feedback: &fb,
            round: 0,
            conformance_gate: false,
        };
        let a = try_incorporate(Strategy::SearchRefine, &flawless_llm(), &ctx).unwrap();
        let b = try_incorporate(Strategy::SearchRefine, &flawless_llm(), &ctx).unwrap();
        assert_eq!(a.query, b.query);
        assert_eq!(a.search, b.search);
    }

    #[test]
    fn search_refine_keeps_previous_on_ungroundable_feedback() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let previous = normalize_query(&e.gold);
        let fb = Feedback {
            text: "change the frobnication coefficient".into(),
            highlight: None,
            intended: vec![],
            misaligned: false,
        };
        let out = try_incorporate(
            Strategy::SearchRefine,
            &flawless_llm(),
            &IncorporateContext {
                db: corpus.database(e),
                example: e,
                question: &e.question,
                previous: &previous,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        let report = out.search.expect("search report should be present");
        if report.survivors == 0 {
            assert!(structurally_equal(&out.query, &previous));
            assert_eq!(report.chosen, "none");
            assert_eq!(report.score, 0);
        }
    }

    #[test]
    fn gate_repairs_typo_and_reports_its_diagnostics() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let db = corpus.database(e);
        // `createdTme` exists nowhere in the schema; its unique nearest
        // schema name within distance 2 is `createdTime`.
        let candidate =
            parse_query("SELECT COUNT(*) FROM hkg_dim_segment WHERE createdTme >= '2024-01-01'")
                .unwrap();
        let (fixed, gate) = gate_candidate(db, candidate);
        assert!(gate.has_errors());
        assert!(gate.repaired);
        assert_eq!(gate.executions_saved, 1);
        // The gate normalizes the repaired query, lowercasing identifiers.
        assert!(print_query(&fixed).contains("createdtime"));
        let typo = gate
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::UnknownColumn)
            .expect("unknown-column diagnostic");
        assert!(
            typo.hint
                .as_deref()
                .is_some_and(|h| h.contains("createdTime")),
            "{typo:?}"
        );
    }

    #[test]
    fn gate_leaves_structural_errors_for_feedback() {
        let corpus = build_aep(&AepConfig {
            n_examples: 5,
            seed: 2,
        });
        let e = &corpus.examples[0];
        let db = corpus.database(e);
        // `activation_date` is a real column of another table: that is a
        // missing join, not a typo — the gate must not rename it.
        let candidate = parse_query("SELECT activation_date FROM hkg_dim_segment").unwrap();
        let (kept, gate) = gate_candidate(db, candidate.clone());
        assert!(gate.has_errors());
        assert!(!gate.repaired);
        assert_eq!(kept, candidate);
        assert!(
            gate.diagnostics
                .iter()
                .any(|d| d.message.contains("activation_date")),
            "{:?}",
            gate.diagnostics
        );
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(
            Strategy::Fisql {
                routing: true,
                highlighting: false
            }
            .name(),
            "FISQL"
        );
        assert_eq!(
            Strategy::Fisql {
                routing: false,
                highlighting: false
            }
            .name(),
            "FISQL (- Routing)"
        );
        assert_eq!(
            Strategy::Fisql {
                routing: true,
                highlighting: true
            }
            .name(),
            "FISQL (+ Highlighting)"
        );
        assert_eq!(Strategy::QueryRewrite.name(), "Query Rewrite");
        assert_eq!(Strategy::SearchRefine.name(), "SearchRefine");
    }
}
