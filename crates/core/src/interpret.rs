//! Feedback interpretation: mapping a natural-language feedback utterance
//! onto clause-level edits of the previous SQL query.
//!
//! This is the understanding half of FISQL's §3.3 pipeline. The utterance
//! is parsed with generic machinery — entity linking against the schema,
//! literal extraction, keyword cues — *not* by inverting the simulated
//! user's templates, so vague feedback genuinely is harder to ground than
//! specific feedback:
//!
//! 1. tokenize; extract years, numbers, quoted strings, direction words;
//! 2. link mentions to schema tables/columns (longest-match, plural-
//!    tolerant);
//! 3. generate candidate edits against the predicted query's clauses;
//! 4. filter by the routed feedback type (when routing is enabled) and by
//!    the user's highlight (when present);
//! 5. choose: a unique candidate is applied; ambiguity forces a sampled
//!    choice (which can be wrong); zero candidates is an interpretation
//!    failure — the paper's error cause (b).

use fisql_engine::Database;
use fisql_sqlkit::ast::*;
use fisql_sqlkit::{
    parse_expr, print_query_spanned, shift_years, EditOp, OpClass, SchemaLexicon, Span,
};
use rand::Rng;
use std::sync::Arc;

/// One candidate interpretation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The edits to apply (usually one; the year-shift pattern needs
    /// several).
    pub edits: Vec<EditOp>,
    /// The feedback class this candidate embodies.
    pub class: OpClass,
    /// A short label for diagnostics.
    pub label: &'static str,
}

/// The interpretation outcome.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// Chosen edits (empty = interpretation failure).
    pub edits: Vec<EditOp>,
    /// How many candidates survived filtering (diagnostics: 0 = failure,
    /// 1 = grounded, >1 = ambiguous, resolved by sampling).
    pub candidates: usize,
    /// Label of the chosen candidate.
    pub label: &'static str,
}

/// Interprets `text` against `predicted` (which must be normalized — the
/// pipeline normalizes before diffing/editing).
///
/// `routed` is the classified feedback type (None for the −Routing
/// ablation); `highlight` is the user's optional span over the rendered
/// predicted SQL.
pub fn interpret(
    text: &str,
    predicted: &Query,
    db: &Database,
    routed: Option<OpClass>,
    highlight: Option<Span>,
    rng: &mut impl Rng,
) -> Interpretation {
    let mut candidates = interpret_candidates(text, predicted, db, routed, highlight);
    match candidates.len() {
        0 => Interpretation {
            edits: vec![],
            candidates: 0,
            label: "none",
        },
        n => {
            let pick = if n == 1 { 0 } else { rng.gen_range(0..n) };
            let chosen = candidates.swap_remove(pick);
            Interpretation {
                edits: chosen.edits,
                candidates: n,
                label: chosen.label,
            }
        }
    }
}

/// Builds the full filtered candidate pool for `text` against
/// `predicted`, without sampling: cue extraction, candidate generation,
/// then the routing and highlight filters (each applied only when it
/// leaves at least one survivor).
///
/// [`interpret`] samples one candidate from this pool; the search-refine
/// strategy instead keeps the whole pool and scores every member
/// statically.
pub fn interpret_candidates(
    text: &str,
    predicted: &Query,
    db: &Database,
    routed: Option<OpClass>,
    highlight: Option<Span>,
) -> Vec<Candidate> {
    let cues = Cues::extract(text, predicted, db);
    let mut candidates = generate_candidates(&cues, predicted, db);

    // Routing filter: keep type-consistent candidates when any survive.
    if let Some(class) = routed {
        let filtered: Vec<Candidate> = candidates
            .iter()
            .filter(|c| c.class == class)
            .cloned()
            .collect();
        if !filtered.is_empty() {
            candidates = filtered;
        }
    }

    // Highlight filter: keep candidates touching the highlighted clause.
    if let Some(hl) = highlight {
        let spanned = print_query_spanned(predicted);
        if let Some(target) = spanned.clause_at(hl).cloned() {
            let filtered: Vec<Candidate> = candidates
                .iter()
                .filter(|c| {
                    c.edits
                        .iter()
                        .any(|e| clause_compatible(&e.clause(), &target))
                })
                .cloned()
                .collect();
            if !filtered.is_empty() {
                candidates = filtered;
            }
        }
    }
    candidates
}

/// Two clause paths are compatible when equal or when one is the WHERE
/// umbrella of the other (a predicate highlight grounds a WHERE edit).
fn clause_compatible(a: &ClausePath, b: &ClausePath) -> bool {
    if a == b {
        return true;
    }
    let where_ish = |c: &ClausePath| matches!(c, ClausePath::Where | ClausePath::WherePredicate(_));
    let select_ish =
        |c: &ClausePath| matches!(c, ClausePath::SelectList | ClausePath::SelectItem(_));
    let from_ish = |c: &ClausePath| matches!(c, ClausePath::From | ClausePath::Join(_));
    (where_ish(a) && where_ish(b))
        || (select_ish(a) && select_ish(b))
        || (from_ish(a) && from_ish(b))
}

// ---------------------------------------------------------------------------
// Cue extraction
// ---------------------------------------------------------------------------

/// Everything the interpreter could extract from the utterance.
#[derive(Debug, Clone)]
struct Cues {
    /// Original-case text (string literals must keep their case).
    raw: String,
    lower: String,
    years: Vec<i64>,
    numbers: Vec<i64>,
    /// Decimal values mentioned ("49.21").
    floats: Vec<f64>,
    quoted: Vec<String>,
    /// Columns mentioned, linked to `(table, column)` pairs from tables
    /// in the predicted query first, then the whole schema.
    columns: Vec<(String, String)>,
    /// Tables mentioned.
    tables: Vec<String>,
    /// The schema's lexicon, for the de-linker.
    lexicon: Arc<SchemaLexicon>,
    ascending: bool,
    descending: bool,
}

impl Cues {
    fn extract(text: &str, predicted: &Query, db: &Database) -> Cues {
        let lower = text.to_lowercase();
        let mut years = Vec::new();
        let mut numbers = Vec::new();
        let mut floats = Vec::new();
        // Numeric tokens, keeping interior dots so decimals survive
        // ("49.21" is one float, not two integers).
        for token in lower.split(|c: char| !c.is_ascii_digit() && c != '.') {
            let token = token.trim_matches('.');
            if token.is_empty() {
                continue;
            }
            if let Ok(n) = token.parse::<i64>() {
                if (1900..=2100).contains(&n) && token.len() == 4 {
                    years.push(n);
                } else {
                    numbers.push(n);
                }
            } else if let Ok(x) = token.parse::<f64>() {
                floats.push(x);
            }
        }
        let quoted: Vec<String> = extract_quoted(text);

        // Column linking: longest humanized names first so "song name"
        // wins over "name". Within one length the lexicon orders by name;
        // columns of tables *outside* the query are tried before those of
        // tables in it (the user may name a column the query should use).
        // That tie-break is historical — the key once prefixed
        // out-of-query names with "\u{1}", which sorts before letters —
        // and the recorded eval reports depend on it.
        let lexicon = Arc::clone(db.context().lexicon(db));
        let mentions = lexicon.mentions(&lower);
        let query_tables = predicted.all_table_names();
        let in_query: Vec<bool> = db
            .tables
            .iter()
            .map(|t| query_tables.iter().any(|n| n.eq_ignore_ascii_case(&t.name)))
            .collect();
        let mut masked = lower.clone();
        let mut columns = Vec::new();
        for run in lexicon.ranked_columns() {
            for want_in_query in [false, true] {
                for &e in run {
                    if in_query[lexicon.table(e)] != want_in_query || !mentions.contains(e) {
                        continue;
                    }
                    let human = lexicon.human(e);
                    if let Some(pos) = find_word(&masked, human) {
                        // Mask the matched region so substrings don't re-match.
                        masked.replace_range(pos..pos + human.len(), &"\u{2}".repeat(human.len()));
                    } else if let Some(pos) = find_word(&masked, &format!("{human}s")) {
                        masked.replace_range(
                            pos..=(pos + human.len()),
                            &"\u{2}".repeat(human.len() + 1),
                        );
                    } else {
                        continue;
                    }
                    columns.push((
                        lexicon.table_name(e).to_string(),
                        lexicon.name(e).to_string(),
                    ));
                }
            }
        }

        let mut tables = Vec::new();
        for &e in lexicon.tables() {
            let human = lexicon.human(e);
            if mentions.contains(e)
                && (find_word(&lower, human).is_some()
                    || find_word(&lower, &format!("{human}s")).is_some())
            {
                tables.push(lexicon.name(e).to_string());
            }
        }

        Cues {
            ascending: lower.contains("ascending") || lower.contains(" asc"),
            descending: lower.contains("descending") || lower.contains(" desc"),
            raw: text.to_string(),
            lower,
            years,
            numbers,
            floats,
            quoted,
            columns,
            tables,
            lexicon,
        }
    }

    fn has(&self, cue: &str) -> bool {
        self.lower.contains(cue)
    }
}

fn extract_quoted(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('\'') {
        let after = &rest[start + 1..];
        match after.find('\'') {
            Some(end) => {
                out.push(after[..end].to_string());
                rest = &after[end + 1..];
            }
            None => break,
        }
    }
    out
}

/// Finds `needle` in `haystack` at word boundaries.
fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let pos = from + rel;
        let before_ok = pos == 0 || !haystack.as_bytes()[pos - 1].is_ascii_alphanumeric();
        let end = pos + needle.len();
        let after_ok = end >= haystack.len() || !haystack.as_bytes()[end].is_ascii_alphanumeric();
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + 1;
        if from >= haystack.len() {
            break;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Candidate generation
// ---------------------------------------------------------------------------

fn generate_candidates(cues: &Cues, predicted: &Query, db: &Database) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let conjuncts: Vec<Expr> = predicted
        .core
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();

    // --- Year shift -------------------------------------------------------
    if let Some(&year) = cues.years.first() {
        let mut edits = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some(replaced) = shift_years(c, year) {
                edits.push(EditOp::ReplacePredicate {
                    index: i,
                    from: c.clone(),
                    to: replaced,
                });
            }
        }
        if !edits.is_empty() {
            out.push(Candidate {
                edits,
                class: OpClass::Edit,
                label: "year-shift",
            });
        }
    }

    // --- "X instead of Y" replacements -------------------------------------
    if cues.has("instead of") {
        // Column replacement in SELECT.
        let select_cols: Vec<(usize, &ColumnRef)> = predicted
            .core
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, item)| match item {
                SelectItem::Expr {
                    expr: Expr::Column(c),
                    ..
                } => Some((i, c)),
                _ => None,
            })
            .collect();
        let mentioned_in_select: Vec<&(String, String)> = cues
            .columns
            .iter()
            .filter(|(_, col)| {
                select_cols
                    .iter()
                    .any(|(_, c)| c.column.eq_ignore_ascii_case(col))
            })
            .collect();
        let mentioned_outside: Vec<&(String, String)> = cues
            .columns
            .iter()
            .filter(|(_, col)| {
                !select_cols
                    .iter()
                    .any(|(_, c)| c.column.eq_ignore_ascii_case(col))
            })
            .collect();
        if let (Some((_, old_col)), Some((new_table, new_col))) =
            (mentioned_in_select.first(), mentioned_outside.first())
        {
            if let Some((idx, old_ref)) = select_cols
                .iter()
                .find(|(_, c)| c.column.eq_ignore_ascii_case(old_col))
            {
                let new_ref = if old_ref.table.is_some() {
                    ColumnRef::qualified(new_table.clone(), new_col.clone())
                } else {
                    ColumnRef::bare(new_col.clone())
                };
                out.push(Candidate {
                    edits: vec![EditOp::ReplaceSelectItem {
                        index: *idx,
                        from: predicted.core.items[*idx].clone(),
                        to: SelectItem::expr(Expr::Column(new_ref)),
                    }],
                    class: OpClass::Edit,
                    label: "select-replace",
                });
            }
        }
        // Table replacement.
        let q_tables = predicted.all_table_names();
        let old_t = cues
            .tables
            .iter()
            .find(|t| q_tables.iter().any(|q| q.eq_ignore_ascii_case(t)));
        let new_t = cues
            .tables
            .iter()
            .find(|t| !q_tables.iter().any(|q| q.eq_ignore_ascii_case(t)));
        if let (Some(old_t), Some(new_t)) = (old_t, new_t) {
            out.push(Candidate {
                edits: vec![EditOp::ReplaceTable {
                    from: old_t.clone(),
                    to: new_t.clone(),
                }],
                class: OpClass::Edit,
                label: "table-replace",
            });
        }
    }

    // --- Bare table redirection ("that information lives in X") -----------
    if (cues.has("lives in")
        || cues.has("look in")
        || cues.has("use the")
        || cues.has("wrong table"))
        && !cues.tables.is_empty()
    {
        let q_tables = predicted.all_table_names();
        if let Some(new_t) = cues
            .tables
            .iter()
            .find(|t| !q_tables.iter().any(|q| q.eq_ignore_ascii_case(t)))
        {
            if let Some(from) = q_tables.first() {
                out.push(Candidate {
                    edits: vec![EditOp::ReplaceTable {
                        from: from.clone(),
                        to: new_t.clone(),
                    }],
                    class: OpClass::Edit,
                    label: "table-redirect",
                });
            }
        }
    }

    // --- Removals -----------------------------------------------------------
    let removing = cues.has("do not")
        || cues.has("don't")
        || cues.has("no need")
        || cues.has("remove")
        || cues.has("without")
        || cues.has("omit")
        || cues.has("keep all");
    if removing {
        // Remove a select item by mentioned column.
        for (table, col) in &cues.columns {
            let _ = table;
            if let Some(idx) = predicted.core.items.iter().position(|item| {
                matches!(item, SelectItem::Expr { expr: Expr::Column(c), .. }
                    if c.column.eq_ignore_ascii_case(col))
            }) {
                out.push(Candidate {
                    edits: vec![EditOp::RemoveSelectItem {
                        index: idx,
                        item: predicted.core.items[idx].clone(),
                    }],
                    class: OpClass::Remove,
                    label: "select-remove",
                });
            }
            // Remove a predicate by mentioned column.
            if cues.has("filter") || cues.has("condition") || cues.has("only") || removing {
                if let Some(idx) = conjuncts.iter().position(|c| {
                    c.columns()
                        .iter()
                        .any(|cr| cr.column.eq_ignore_ascii_case(col))
                }) {
                    out.push(Candidate {
                        edits: vec![EditOp::RemovePredicate {
                            index: idx,
                            pred: conjuncts[idx].clone(),
                        }],
                        class: OpClass::Remove,
                        label: "predicate-remove",
                    });
                }
            }
        }
        // Remove ORDER BY.
        if (cues.has("sort") || cues.has("order")) && !predicted.order_by.is_empty() {
            out.push(Candidate {
                edits: vec![EditOp::SetOrderBy {
                    from: predicted.order_by.clone(),
                    to: vec![],
                }],
                class: OpClass::Remove,
                label: "order-remove",
            });
        }
        // Remove LIMIT ("show all rows").
        if (cues.has("all rows") || cues.has("not just a few") || cues.has("limit"))
            && predicted.limit.is_some()
        {
            out.push(Candidate {
                edits: vec![EditOp::SetLimit {
                    from: predicted.limit,
                    to: None,
                }],
                class: OpClass::Remove,
                label: "limit-remove",
            });
        }
        // Remove a join.
        if let Some(from) = &predicted.core.from {
            for t in &cues.tables {
                if let Some(idx) = from.joins.iter().position(|j| {
                    j.factor.binding_name().eq_ignore_ascii_case(t)
                        || matches!(&j.factor, TableFactor::Table { name, .. } if name.eq_ignore_ascii_case(t))
                }) {
                    out.push(Candidate {
                        edits: vec![EditOp::RemoveJoin {
                            index: idx,
                            join: from.joins[idx].clone(),
                        }],
                        class: OpClass::Remove,
                        label: "join-remove",
                    });
                }
            }
        }
        // Keep duplicates.
        if cues.has("duplicate") && predicted.core.distinct {
            out.push(Candidate {
                edits: vec![EditOp::SetDistinct { distinct: false }],
                class: OpClass::Remove,
                label: "distinct-remove",
            });
        }
        // Keep all groups (remove HAVING).
        if cues.has("all groups") && predicted.core.having.is_some() {
            out.push(Candidate {
                edits: vec![EditOp::SetHaving {
                    from: predicted.core.having.clone(),
                    to: None,
                }],
                class: OpClass::Remove,
                label: "having-remove",
            });
        }
    }

    // --- Ordering additions/changes -----------------------------------------
    if (cues.has("order") || cues.has("sort")) && !removing {
        let desc = cues.descending && !cues.ascending;
        let expr = cues
            .columns
            .first()
            .map(|(_, c)| column_like_in_query(predicted, c))
            .unwrap_or_else(|| first_projected_expr(predicted));
        if let Some(expr) = expr {
            out.push(Candidate {
                edits: vec![EditOp::SetOrderBy {
                    from: predicted.order_by.clone(),
                    to: vec![OrderItem { expr, desc }],
                }],
                class: if predicted.order_by.is_empty() {
                    OpClass::Add
                } else {
                    OpClass::Edit
                },
                label: "order-set",
            });
        }
    }

    // --- LIMIT ("top N") -----------------------------------------------------
    if (cues.has("top") || cues.has("limit") || cues.has("first")) && !removing {
        if let Some(&n) = cues.numbers.first() {
            if n > 0 {
                out.push(Candidate {
                    edits: vec![EditOp::SetLimit {
                        from: predicted.limit,
                        to: Some(LimitClause::new(n as u64)),
                    }],
                    class: if predicted.limit.is_none() {
                        OpClass::Add
                    } else {
                        OpClass::Edit
                    },
                    label: "limit-set",
                });
            }
        }
    }

    // --- DISTINCT additions ---------------------------------------------------
    if (cues.has("duplicate") || cues.has("distinct") || cues.has("unique"))
        && !predicted.core.distinct
        && (cues.has("remove duplicate")
            || cues.has("without duplicate")
            || cues.has("distinct")
            || cues.has("unique"))
    {
        out.push(Candidate {
            edits: vec![EditOp::SetDistinct { distinct: true }],
            class: OpClass::Add,
            label: "distinct-add",
        });
    }

    // --- Predicate additions ("only include rows where ...") ------------------
    if cues.has("only include")
        || cues.has("only keep")
        || cues.has("only count")
        || cues.has("restrict")
    {
        if let Some(pred) = build_predicate(cues, predicted) {
            if cues.has("groups") && !predicted.core.group_by.is_empty() {
                out.push(Candidate {
                    edits: vec![EditOp::SetHaving {
                        from: predicted.core.having.clone(),
                        to: Some(pred),
                    }],
                    class: if predicted.core.having.is_none() {
                        OpClass::Add
                    } else {
                        OpClass::Edit
                    },
                    label: "having-set",
                });
            } else {
                out.push(Candidate {
                    edits: vec![EditOp::AddPredicate { pred }],
                    class: OpClass::Add,
                    label: "predicate-add",
                });
            }
        }
    }

    // --- "also show the X" ------------------------------------------------------
    if (cues.has("also show")
        || cues.has("also give")
        || cues.has("as well")
        || cues.has("add the"))
        && !removing
    {
        if let Some((table, col)) = cues.columns.first() {
            let already = predicted.core.items.iter().any(|item| {
                matches!(item, SelectItem::Expr { expr: Expr::Column(c), .. }
                    if c.column.eq_ignore_ascii_case(col))
            });
            if !already {
                let qualified = predicted
                    .core
                    .from
                    .as_ref()
                    .map(|f| !f.joins.is_empty())
                    .unwrap_or(false);
                let expr = if qualified {
                    Expr::qcol(table.clone(), col.clone())
                } else {
                    Expr::col(col.clone())
                };
                out.push(Candidate {
                    edits: vec![EditOp::AddSelectItem {
                        item: SelectItem::expr(expr),
                    }],
                    class: OpClass::Add,
                    label: "select-add",
                });
            }
        }
    }

    // --- Join additions ("bring in the X information") ---------------------------
    if cues.has("bring in")
        || cues.has("need to include")
        || cues.has("need the")
        || cues.has("join")
    {
        let q_tables = predicted.all_table_names();
        for t in &cues.tables {
            if q_tables.iter().any(|q| q.eq_ignore_ascii_case(t)) {
                continue;
            }
            if let Some(join) = fk_join(db, &q_tables, t) {
                out.push(Candidate {
                    edits: vec![EditOp::AddJoin { join }],
                    class: OpClass::Add,
                    label: "join-add",
                });
            }
        }
    }

    // --- Generic predicate replacement ("change A to B" / "should be B") ------
    if cues.has("change") || cues.has("should be") || cues.has("condition") {
        if let Some(new_pred) = build_predicate(cues, predicted) {
            let new_cols = new_pred.columns();
            // Prefer a conjunct on the same column; failing that, a
            // conjunct on any *mentioned* column ("change song name = 'x'
            // to name = 'x'" mentions both), which distinguishes a
            // replacement from an addition.
            let target = conjuncts
                .iter()
                .enumerate()
                .find(|(_, c)| {
                    c.columns().iter().any(|cr| {
                        new_cols
                            .iter()
                            .any(|nc| nc.column.eq_ignore_ascii_case(&cr.column))
                    })
                })
                .or_else(|| {
                    if !cues.has("change") {
                        return None;
                    }
                    conjuncts.iter().enumerate().find(|(_, c)| {
                        c.columns().iter().any(|cr| {
                            cues.columns
                                .iter()
                                .any(|(_, col)| col.eq_ignore_ascii_case(&cr.column))
                        })
                    })
                });
            let edit = match target {
                Some((idx, c)) => EditOp::ReplacePredicate {
                    index: idx,
                    from: c.clone(),
                    to: new_pred,
                },
                None => EditOp::AddPredicate { pred: new_pred },
            };
            let class = match &edit {
                EditOp::AddPredicate { .. } => OpClass::Add,
                _ => OpClass::Edit,
            };
            out.push(Candidate {
                edits: vec![edit],
                class,
                label: "predicate-set",
            });
        }
    }

    // --- Group-by ("break it down by X") ---------------------------------------
    if cues.has("break it down") || cues.has("group by") || cues.has("for each") {
        if let Some((_, col)) = cues.columns.first() {
            if let Some(expr) = column_like_in_query(predicted, col) {
                out.push(Candidate {
                    edits: vec![EditOp::SetGroupBy {
                        from: predicted.core.group_by.clone(),
                        to: vec![expr],
                    }],
                    class: if predicted.core.group_by.is_empty() {
                        OpClass::Add
                    } else {
                        OpClass::Edit
                    },
                    label: "group-set",
                });
            }
        }
    }

    // --- Value-only replacement ("it should be 'active'" / "change to 500") ----
    // A terse correction naming only the new value must be grounded to a
    // conjunct. Every literal-bearing conjunct of a compatible type is a
    // candidate — this is where grounding genuinely gets ambiguous and a
    // highlight earns its keep (Table 3).
    if cues.has("should be") || cues.has("change to") || cues.has("it should") {
        let has_specific = out.iter().any(|c| c.label == "predicate-set");
        if !has_specific {
            for (i, c) in conjuncts.iter().enumerate() {
                if let Some(swapped) = swap_literal(c, cues) {
                    out.push(Candidate {
                        edits: vec![EditOp::ReplacePredicate {
                            index: i,
                            from: c.clone(),
                            to: swapped,
                        }],
                        class: OpClass::Edit,
                        label: "literal-swap",
                    });
                }
            }
        }
    }

    // --- Aggregate replacement ("I wanted the average age, not the total") -----
    if let Some(target_func) = mentioned_aggregate(&cues.lower) {
        for (i, item) in predicted.core.items.iter().enumerate() {
            if let SelectItem::Expr {
                expr:
                    Expr::Call {
                        func,
                        distinct,
                        args,
                    },
                alias,
            } = item
            {
                if func.is_aggregate() && *func != target_func {
                    let new_args = if target_func == Func::Count && args.is_empty() {
                        vec![Expr::Wildcard]
                    } else {
                        args.clone()
                    };
                    out.push(Candidate {
                        edits: vec![EditOp::ReplaceSelectItem {
                            index: i,
                            from: item.clone(),
                            to: SelectItem::Expr {
                                expr: Expr::Call {
                                    func: target_func,
                                    distinct: *distinct,
                                    args: new_args,
                                },
                                alias: alias.clone(),
                            },
                        }],
                        class: OpClass::Edit,
                        label: "agg-replace",
                    });
                }
            }
        }
    }

    // --- Extremum flip ("youngest" vs "oldest") ---------------------------------
    if cues.has("youngest")
        || cues.has("oldest")
        || cues.has("smallest")
        || cues.has("largest")
        || cues.has("minimum")
        || cues.has("maximum")
        || cues.has("lowest")
        || cues.has("highest")
    {
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some(flipped) = flip_extremum(c) {
                out.push(Candidate {
                    edits: vec![EditOp::ReplacePredicate {
                        index: i,
                        from: c.clone(),
                        to: flipped,
                    }],
                    class: OpClass::Edit,
                    label: "extremum-flip",
                });
            }
        }
        // Or a direction flip on ORDER BY.
        if !predicted.order_by.is_empty() {
            let wants_min = cues.has("youngest")
                || cues.has("smallest")
                || cues.has("minimum")
                || cues.has("lowest");
            let mut to = predicted.order_by.clone();
            to[0].desc = !wants_min;
            if to != predicted.order_by {
                out.push(Candidate {
                    edits: vec![EditOp::SetOrderBy {
                        from: predicted.order_by.clone(),
                        to,
                    }],
                    class: OpClass::Edit,
                    label: "order-flip",
                });
            }
        }
    }

    out
}

/// Replaces the literal of a simple comparison conjunct with the value
/// the cues mention, when the types are compatible and the value differs.
fn swap_literal(conjunct: &Expr, cues: &Cues) -> Option<Expr> {
    let Expr::Binary { left, op, right } = conjunct else {
        return None;
    };
    let Expr::Literal(old) = right.as_ref() else {
        return None;
    };
    let new_lit = match old {
        Literal::String(s) => {
            let q = cues.quoted.first()?;
            if q == s {
                return None;
            }
            Literal::String(q.clone())
        }
        Literal::Number(n) => {
            let &v = cues.numbers.first().or(cues.years.first())?;
            if v == *n {
                return None;
            }
            Literal::Number(v)
        }
        Literal::Float(x) => {
            let v = cues
                .floats
                .first()
                .copied()
                .or_else(|| cues.numbers.first().map(|&n| n as f64))?;
            if (v - x).abs() < f64::EPSILON {
                return None;
            }
            Literal::Float(v)
        }
        _ => return None,
    };
    Some(Expr::Binary {
        left: left.clone(),
        op: *op,
        right: Box::new(Expr::Literal(new_lit)),
    })
}

/// Builds a predicate from the cues: prefer re-parsing the tail after a
/// connective phrase; fall back to (column, comparator, value) assembly.
fn build_predicate(cues: &Cues, predicted: &Query) -> Option<Expr> {
    // Try structural parse of the tail after "where"/"should be"/"to ".
    // Markers are located case-insensitively, but the tail is sliced from
    // the original text: string literals must keep their case
    // (`status = 'Active'`, not `'active'`).
    let searchable = cues.raw.to_ascii_lowercase();
    for marker in ["rows where ", "groups where ", "should be ", " to "] {
        if let Some(pos) = searchable.find(marker) {
            let tail = cues.raw[pos + marker.len()..].trim_end_matches(['.', '?']);
            if let Some(expr) = parse_delinked(tail, &cues.lexicon) {
                // Only accept predicate-shaped expressions; "change to
                // 2024" should not yield a bare literal here.
                if is_predicate_shaped(&expr) {
                    return Some(expr);
                }
            }
        }
    }
    // Assembly: mentioned column + value (+ comparator words).
    let (_, col) = cues.columns.first()?;
    let col_expr = column_like_in_query(predicted, col).unwrap_or_else(|| Expr::col(col.clone()));
    let value = if let Some(q) = cues.quoted.first() {
        Expr::str(q.clone())
    } else if let Some(&n) = cues.numbers.first().or(cues.years.first()) {
        Expr::num(n)
    } else if let Some(&x) = cues.floats.first() {
        Expr::Literal(Literal::Float(x))
    } else {
        return None;
    };
    let op = if cues.has("greater than") || cues.has("more than") {
        BinOp::Gt
    } else if cues.has("less than") || cues.has("fewer than") {
        BinOp::Lt
    } else if cues.has("at least") {
        BinOp::GtEq
    } else if cues.has("at most") {
        BinOp::LtEq
    } else {
        BinOp::Eq
    };
    Some(Expr::binary(col_expr, op, value))
}

/// The aggregate function the text names first, if any. "I wanted the
/// average age, not the total" resolves to the *first*-mentioned
/// aggregate (the corrected one in the natural phrasing).
fn mentioned_aggregate(lower: &str) -> Option<Func> {
    const WORDS: &[(&str, Func)] = &[
        ("number of", Func::Count),
        ("count", Func::Count),
        ("how many", Func::Count),
        ("total", Func::Sum),
        ("sum", Func::Sum),
        ("average", Func::Avg),
        ("mean", Func::Avg),
        ("minimum", Func::Min),
        ("smallest", Func::Min),
        ("maximum", Func::Max),
        ("largest", Func::Max),
    ];
    // Word-boundary matching: "country" must not register as "count",
    // nor "meant" as "mean".
    WORDS
        .iter()
        .filter_map(|(w, f)| find_word(lower, w).map(|pos| (pos, *f)))
        .min_by_key(|(pos, _)| *pos)
        .map(|(_, f)| f)
}

/// Whether an expression can serve as a WHERE conjunct.
fn is_predicate_shaped(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Binary { .. }
            | Expr::Like { .. }
            | Expr::Between { .. }
            | Expr::InList { .. }
            | Expr::InSubquery { .. }
            | Expr::IsNull { .. }
            | Expr::Exists { .. }
            | Expr::Unary { .. }
    )
}

/// Re-links humanized identifiers in `text` back to schema identifiers,
/// then attempts to parse the result as an expression. This is the
/// schema-linking step a real NL2SQL model performs when reading feedback
/// that mentions "song release year" for `song_release_year`.
fn parse_delinked(text: &str, lexicon: &SchemaLexicon) -> Option<Expr> {
    // "count(*)" style words survive; try the parse.
    parse_expr(&delink(text, lexicon)).ok()
}

/// Replaces every humanized multi-word identifier in `text` with its
/// schema spelling, longest identifiers first.
fn delink(text: &str, lexicon: &SchemaLexicon) -> String {
    let mut delinked = text.to_string();
    // Match case-insensitively but replace in the original-case string
    // (byte offsets coincide under ASCII lowering).
    let mut shadow = delinked.to_ascii_lowercase();
    let mut mentions = lexicon.mentions(&shadow);
    for &e in lexicon.idents() {
        if !mentions.contains(e) {
            continue;
        }
        let human = lexicon.human(e);
        while let Some(pos) = find_word(&shadow, human) {
            delinked.replace_range(pos..pos + human.len(), lexicon.name(e));
            shadow = delinked.to_ascii_lowercase();
            // Re-read the words: the prefilter must see the text the
            // remaining identifiers are matched against.
            mentions = lexicon.mentions(&shadow);
        }
    }
    delinked
}

/// The expression form of a column as it would appear in the predicted
/// query's dialect (qualified iff the query joins).
fn column_like_in_query(predicted: &Query, column: &str) -> Option<Expr> {
    // Prefer an exact existing reference.
    let mut found: Option<Expr> = None;
    let mut visit = |e: &Expr| {
        if found.is_some() {
            return;
        }
        if let Expr::Column(c) = e {
            if c.column.eq_ignore_ascii_case(column) {
                found = Some(Expr::Column(c.clone()));
            }
        }
    };
    for item in &predicted.core.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.walk(&mut visit);
        }
    }
    if let Some(w) = &predicted.core.where_clause {
        w.walk(&mut visit);
    }
    if found.is_some() {
        return found;
    }
    Some(Expr::col(column.to_string()))
}

fn first_projected_expr(predicted: &Query) -> Option<Expr> {
    predicted.core.items.iter().find_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr.clone()),
        _ => None,
    })
}

/// Flips a `col = (SELECT MIN(col) ...)` extremum subquery to MAX (or
/// vice versa).
fn flip_extremum(e: &Expr) -> Option<Expr> {
    let Expr::Binary { left, op, right } = e else {
        return None;
    };
    if *op != BinOp::Eq {
        return None;
    }
    let Expr::Subquery(sub) = right.as_ref() else {
        return None;
    };
    let mut flipped = (**sub).clone();
    let mut changed = false;
    for item in &mut flipped.core.items {
        if let SelectItem::Expr {
            expr: Expr::Call { func, .. },
            ..
        } = item
        {
            match func {
                Func::Min => {
                    *func = Func::Max;
                    changed = true;
                }
                Func::Max => {
                    *func = Func::Min;
                    changed = true;
                }
                _ => {}
            }
        }
    }
    changed.then(|| Expr::Binary {
        left: left.clone(),
        op: BinOp::Eq,
        right: Box::new(Expr::Subquery(Box::new(flipped))),
    })
}

/// Finds a foreign-key join between any already-present table and
/// `target`.
fn fk_join(db: &Database, present: &[String], target: &str) -> Option<Join> {
    let t = db.table(target)?;
    // target has an FK to a present table …
    for fk in &t.foreign_keys {
        if present
            .iter()
            .any(|p| p.eq_ignore_ascii_case(&fk.ref_table))
        {
            let ref_table = db.table(&fk.ref_table)?;
            return Some(Join {
                kind: JoinKind::Inner,
                factor: TableFactor::table(t.name.clone()),
                constraint: Some(Expr::binary(
                    Expr::qcol(
                        ref_table.name.clone(),
                        ref_table.columns[fk.ref_column].name.clone(),
                    ),
                    BinOp::Eq,
                    Expr::qcol(t.name.clone(), t.columns[fk.column].name.clone()),
                )),
            });
        }
    }
    // … or a present table has an FK to target.
    for p in present {
        let pt = db.table(p)?;
        for fk in &pt.foreign_keys {
            if fk.ref_table.eq_ignore_ascii_case(target) {
                return Some(Join {
                    kind: JoinKind::Inner,
                    factor: TableFactor::table(t.name.clone()),
                    constraint: Some(Expr::binary(
                        Expr::qcol(pt.name.clone(), pt.columns[fk.column].name.clone()),
                        BinOp::Eq,
                        Expr::qcol(t.name.clone(), t.columns[fk.ref_column].name.clone()),
                    )),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_engine::{Column, DataType, Table};
    use fisql_sqlkit::{apply_edits, normalize_query, parse_query, structurally_equal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut db = Database::new("d");
        let mut singer = Table::new(
            "singer",
            vec![
                Column::new("singer_id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("song_name", DataType::Text),
                Column::new("song_release_year", DataType::Int),
                Column::new("age", DataType::Int),
                Column::new("description", DataType::Text),
                Column::new("status", DataType::Text),
            ],
        );
        singer.primary_key = Some(0);
        db.add_table(singer);
        let mut seg = Table::new(
            "hkg_dim_segment",
            vec![
                Column::new("segment_id", DataType::Int),
                Column::new("segment_name", DataType::Text),
                Column::new("createdTime", DataType::Date),
            ],
        );
        seg.primary_key = Some(0);
        db.add_table(seg);
        let mut concert = Table::new(
            "concert",
            vec![
                Column::new("concert_id", DataType::Int),
                Column::new("singer_id", DataType::Int),
                Column::new("year", DataType::Int),
            ],
        );
        concert.primary_key = Some(0);
        concert.foreign_keys.push(fisql_engine::ForeignKey {
            column: 1,
            ref_table: "singer".into(),
            ref_column: 0,
        });
        db.add_table(concert);
        db
    }

    fn run(text: &str, sql: &str, routed: Option<OpClass>) -> (Query, Interpretation) {
        let predicted = normalize_query(&parse_query(sql).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let interp = interpret(text, &predicted, &db(), routed, None, &mut rng);
        let applied = apply_edits(&predicted, &interp.edits).unwrap_or(predicted);
        (applied, interp)
    }

    #[test]
    fn out_of_query_columns_win_equal_length_ties() {
        // `singer.singer_id` and `concert.singer_id` humanize alike; the
        // query reads `concert`, yet the out-of-query column links. The
        // recorded eval reports depend on this tie-break.
        let predicted = parse_query("SELECT year FROM concert").unwrap();
        let cues = Cues::extract("show the singer id", &predicted, &db());
        assert_eq!(
            cues.columns,
            vec![("singer".to_string(), "singer_id".to_string())]
        );
    }

    #[test]
    fn year_shift_we_are_in_2024() {
        let (fixed, interp) = run(
            "we are in 2024",
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.label, "year-shift");
        let want = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'",
        )
        .unwrap();
        assert!(structurally_equal(&fixed, &want));
    }

    /// A string literal whose first four bytes are not four ASCII digits
    /// carries no year, even when a multibyte character straddles byte
    /// four: the shift leaves it as it is and rewrites only the dates.
    #[test]
    fn year_shift_leaves_non_ascii_string_literals_alone() {
        let (fixed, interp) = run(
            "we are in 2024",
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE segment_name = 'ab€d' AND createdTime >= '2023-01-01'",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.label, "year-shift");
        let want = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE segment_name = 'ab€d' AND createdTime >= '2024-01-01'",
        )
        .unwrap();
        assert!(structurally_equal(&fixed, &want));
    }

    #[test]
    fn figure7_song_name_instead_of_name() {
        let (fixed, interp) = run(
            "Provide song name instead of singer name",
            "SELECT name, song_release_year FROM singer \
             WHERE age = (SELECT MIN(age) FROM singer)",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.label, "select-replace");
        let want = parse_query(
            "SELECT song_name, song_release_year FROM singer \
             WHERE age = (SELECT MIN(age) FROM singer)",
        )
        .unwrap();
        assert!(
            structurally_equal(&fixed, &want),
            "got {}",
            fisql_sqlkit::print_query(&fixed)
        );
    }

    #[test]
    fn do_not_give_descriptions() {
        let (fixed, _) = run(
            "do not give descriptions",
            "SELECT name, description FROM singer",
            Some(OpClass::Remove),
        );
        let want = parse_query("SELECT name FROM singer").unwrap();
        assert!(structurally_equal(&fixed, &want));
    }

    #[test]
    fn order_names_ascending() {
        let (fixed, _) = run(
            "order the names in ascending order.",
            "SELECT name FROM singer",
            Some(OpClass::Add),
        );
        let want = parse_query("SELECT name FROM singer ORDER BY name ASC").unwrap();
        assert!(
            structurally_equal(&fixed, &want),
            "got {}",
            fisql_sqlkit::print_query(&fixed)
        );
    }

    #[test]
    fn only_include_rows_where_status() {
        let (fixed, _) = run(
            "only include rows where status is 'active'",
            "SELECT COUNT(*) FROM singer",
            Some(OpClass::Add),
        );
        let want = parse_query("SELECT COUNT(*) FROM singer WHERE status = 'active'").unwrap();
        assert!(
            structurally_equal(&fixed, &want),
            "got {}",
            fisql_sqlkit::print_query(&fixed)
        );
    }

    #[test]
    fn top_n_limit() {
        let (fixed, _) = run(
            "only show the top 5",
            "SELECT name FROM singer ORDER BY age DESC",
            Some(OpClass::Add),
        );
        assert_eq!(fixed.limit, Some(LimitClause::new(5)));
    }

    #[test]
    fn remove_sorting() {
        let (fixed, _) = run(
            "no need to sort the results",
            "SELECT name FROM singer ORDER BY age ASC",
            Some(OpClass::Remove),
        );
        assert!(fixed.order_by.is_empty());
    }

    #[test]
    fn table_replacement() {
        let (fixed, _) = run(
            "use concert instead of singer",
            "SELECT year FROM singer",
            Some(OpClass::Edit),
        );
        assert!(fisql_sqlkit::print_query(&fixed).contains("FROM concert"));
    }

    #[test]
    fn extremum_flip_youngest() {
        let (fixed, interp) = run(
            "I asked about the youngest singer, not the oldest",
            "SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.label, "extremum-flip");
        assert!(fisql_sqlkit::print_query(&fixed).contains("MIN(age)"));
    }

    #[test]
    fn join_addition_via_fk() {
        let (fixed, _) = run(
            "you need to bring in the concert information",
            "SELECT name FROM singer",
            Some(OpClass::Add),
        );
        let sql = fisql_sqlkit::print_query(&fixed);
        assert!(sql.contains("JOIN concert"), "{sql}");
        assert!(
            sql.contains("singer.singer_id = concert.singer_id"),
            "{sql}"
        );
    }

    #[test]
    fn uninterpretable_feedback_fails_gracefully() {
        let (_, interp) = run(
            "hmm that looks odd somehow",
            "SELECT name FROM singer",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.candidates, 0);
        assert!(interp.edits.is_empty());
    }

    #[test]
    fn routing_filter_prefers_matching_class() {
        // "change the year to 2024" on a query with both a year literal
        // and sortable output: routed Edit keeps the year-shift.
        let (_, interp) = run(
            "change the year to 2024",
            "SELECT name FROM concert WHERE year = 2023 ORDER BY name ASC",
            Some(OpClass::Edit),
        );
        assert_eq!(interp.label, "year-shift");
    }

    #[test]
    fn highlight_disambiguates() {
        // Feedback mentioning a column in both SELECT and WHERE is
        // ambiguous between select-remove and predicate-remove; a WHERE
        // highlight settles it.
        let predicted = normalize_query(
            &parse_query("SELECT name, status FROM singer WHERE status = 'x'").unwrap(),
        );
        let spanned = fisql_sqlkit::print_query_spanned(&predicted);
        let where_span = spanned.span_of(&ClausePath::WherePredicate(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let interp = interpret(
            "do not filter by status",
            &predicted,
            &db(),
            None,
            Some(where_span),
            &mut rng,
        );
        assert_eq!(interp.label, "predicate-remove");
    }

    #[test]
    fn change_condition_with_parsed_tail() {
        let (fixed, _) = run(
            "the condition should be age > 30",
            "SELECT name FROM singer WHERE age > 50",
            Some(OpClass::Edit),
        );
        let want = parse_query("SELECT name FROM singer WHERE age > 30").unwrap();
        assert!(
            structurally_equal(&fixed, &want),
            "got {}",
            fisql_sqlkit::print_query(&fixed)
        );
    }
}
