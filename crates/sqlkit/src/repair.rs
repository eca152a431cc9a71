//! Structure-preserving repair enumeration and static pruning.
//!
//! Given the fault sites ranked by [`crate::locate`], this module
//! enumerates *minimal* candidate edits at each site — nearest-name
//! swaps, FK-path joins, operator and literal substitutions, aggregate
//! swaps — and then prunes the pool **statically**, before any engine
//! execution:
//!
//! * candidates the abstract interpreter proves contradictory or empty
//!   are dropped (they cannot possibly produce the user's expected rows,
//!   except in the degenerate empty-result case the analyzer already
//!   lints);
//! * candidates the equivalence oracle proves equivalent to the original
//!   or to an earlier candidate are deduplicated (executing them would
//!   re-learn what we already know);
//! * candidates the analyzer rejects outright (unknown names, type
//!   errors) never reach the pool's survivors.
//!
//! A search step prunes several pools against one original (round one,
//! then one expansion per beam member), so the original and the
//! [`QueryFacts`] of every candidate pruned so far live in a
//! [`PruneBase`] built once per step. Each survivor carries its facts
//! forward, so scoring, the pipeline's gate and the runner's execution
//! gate never derive them again.
//!
//! Every candidate is *structure-preserving*: it is expressed as
//! [`EditOp`]s against the normalized original, and the realized AST
//! diff stays inside the clause family of the fault site that proposed
//! it ([`is_structure_preserving`] checks exactly this; the property
//! test in the workspace root exercises it over random schemas).

use crate::ast::{
    BinOp, ClausePath, Expr, Func, Join, JoinKind, LimitClause, Literal, OrderItem, Query,
    SelectItem, TableFactor,
};
use crate::canon::canon_fingerprint;
use crate::check::{check_query, nearest_name, ColType, Diagnostic, SchemaInfo};
use crate::diff::{diff_queries, same_clause_family, EditOp};
use crate::edit::{apply_edit, apply_edits};
use crate::flow::{analyze_conjunction, empty_arity, provably_empty};
use crate::locate::{literal_year, FaultKind, FaultSite, FeedbackCues};
use crate::normalize::normalize_query;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum candidates enumerated per call; keeps the search bounded.
const ENUM_BUDGET: usize = 48;

/// Edit distance allowed for nearest-name repairs.
const NAME_DIST: usize = 3;

/// One candidate repair: the edited query plus the edit script that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairCandidate {
    /// The repaired query (normalized original with `edits` applied).
    pub query: Query,
    /// The structure-preserving edit script.
    pub edits: Vec<EditOp>,
    /// Index of the fault site (into the slice given to
    /// [`enumerate_repairs`]) that proposed this candidate.
    pub site: usize,
    /// Which generator family produced it.
    pub label: &'static str,
}

/// One candidate that survived static pruning.
#[derive(Debug, Clone)]
pub struct Survivor {
    /// The candidate.
    pub cand: RepairCandidate,
    /// Its query's facts (warning-only diagnostics, fingerprint).
    pub facts: QueryFacts,
    /// The structural hash pruning keyed its query by.
    pub hash: u64,
}

/// Outcome of static pruning: survivors plus the statically-rejected
/// pools, kept separate so callers (and tests) can inspect *why* a
/// candidate never reached the engine.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Candidates that survived every static check, original order.
    pub kept: Vec<Survivor>,
    /// Proven contradictory / empty by the abstract interpreter.
    pub contradictory: Vec<RepairCandidate>,
    /// Rejected by the analyzer (error-severity diagnostics).
    pub invalid: Vec<RepairCandidate>,
    /// Count proven equivalent to the original or an earlier survivor.
    pub deduped: u64,
}

impl PruneOutcome {
    /// Total candidates removed statically (never executed).
    pub fn pruned_static(&self) -> u64 {
        self.contradictory.len() as u64 + self.invalid.len() as u64 + self.deduped
    }
}

struct Enumerator<'a> {
    base: Query,
    schema: &'a SchemaInfo,
    cues: &'a FeedbackCues,
    out: Vec<RepairCandidate>,
}

impl Enumerator<'_> {
    fn full(&self) -> bool {
        self.out.len() >= ENUM_BUDGET
    }

    fn propose(&mut self, site: usize, label: &'static str, edits: Vec<EditOp>) {
        if self.full() || edits.is_empty() {
            return;
        }
        if let Ok(query) = apply_edits(&self.base, &edits) {
            self.out.push(RepairCandidate {
                query,
                edits,
                site,
                label,
            });
        }
    }

    /// Columns visible through the query's FROM tables.
    fn visible_columns(&self) -> Vec<(String, String, ColType)> {
        let mut out = Vec::new();
        for name in self.base.all_table_names() {
            if let Some(t) = self.schema.table(&name) {
                for c in &t.columns {
                    out.push((t.name.clone(), c.name.clone(), c.ctype));
                }
            }
        }
        out
    }
}

/// Enumerates minimal structure-preserving repairs at each fault site.
/// Deterministic: generators run in site order, candidates carry the
/// proposing site's index, and the pool is capped at a fixed budget.
pub fn enumerate_repairs(
    original: &Query,
    schema: &SchemaInfo,
    sites: &[FaultSite],
    cues: &FeedbackCues,
) -> Vec<RepairCandidate> {
    let mut e = Enumerator {
        base: normalize_query(original),
        schema,
        cues,
        out: Vec::new(),
    };
    for (i, site) in sites.iter().enumerate() {
        if e.full() {
            break;
        }
        match site.kind {
            FaultKind::Relation => relation_repairs(&mut e, i, site),
            FaultKind::Attribute => attribute_repairs(&mut e, i, site),
            FaultKind::Function => function_repairs(&mut e, i),
            FaultKind::Literal => literal_repairs(&mut e, i, site),
            FaultKind::Operator => operator_repairs(&mut e, i, site),
        }
    }
    e.out
}

fn relation_repairs(e: &mut Enumerator<'_>, site_idx: usize, site: &FaultSite) {
    let query_tables = e.base.all_table_names();
    let in_query = |name: &str| query_tables.iter().any(|t| t.eq_ignore_ascii_case(name));

    // Nearest-name swap for a misspelled table.
    if !site.subject.is_empty()
        && in_query(&site.subject)
        && e.schema.table(&site.subject).is_none()
    {
        if let Some(fix) = nearest_name(&site.subject, e.schema.table_names(), NAME_DIST) {
            let fix = fix.to_string();
            e.propose(
                site_idx,
                "nearest-table",
                vec![EditOp::ReplaceTable {
                    from: site.subject.clone(),
                    to: fix,
                }],
            );
        }
    }

    // A cue table absent from the query: either swap an existing table
    // for it, or join it in along a foreign-key path.
    for cue_table in &e.cues.tables {
        if in_query(cue_table) || e.schema.table(cue_table).is_none() {
            continue;
        }
        for existing in &query_tables {
            e.propose(
                site_idx,
                "cue-table-swap",
                vec![EditOp::ReplaceTable {
                    from: existing.clone(),
                    to: cue_table.clone(),
                }],
            );
        }
        if let Some(join) = fk_join(e.schema, &query_tables, cue_table) {
            e.propose(site_idx, "fk-join", vec![EditOp::AddJoin { join }]);
        }
    }

    // The site's subject itself (e.g. from a highlight) may be a table
    // the FK graph says should be joined, not swapped.
    if !site.subject.is_empty()
        && !in_query(&site.subject)
        && e.schema.table(&site.subject).is_some()
    {
        if let Some(join) = fk_join(e.schema, &query_tables, &site.subject) {
            e.propose(site_idx, "fk-join", vec![EditOp::AddJoin { join }]);
        }
    }
}

/// An INNER JOIN bringing `target` into a query over `present` tables,
/// along the first foreign-key edge (either direction) connecting them.
fn fk_join(schema: &SchemaInfo, present: &[String], target: &str) -> Option<Join> {
    let target_info = schema.table(target)?;
    for p in present {
        let Some(p_info) = schema.table(p) else {
            continue;
        };
        // target.fk -> p
        for fk in &target_info.foreign_keys {
            if fk.ref_table.eq_ignore_ascii_case(p) {
                return Some(join_on(target, &fk.column, p, &fk.ref_column));
            }
        }
        // p.fk -> target
        for fk in &p_info.foreign_keys {
            if fk.ref_table.eq_ignore_ascii_case(target) {
                return Some(join_on(target, &fk.ref_column, p, &fk.column));
            }
        }
    }
    None
}

fn join_on(new_table: &str, new_col: &str, old_table: &str, old_col: &str) -> Join {
    Join {
        kind: JoinKind::Inner,
        factor: TableFactor::table(new_table),
        constraint: Some(Expr::binary(
            Expr::qcol(new_table, new_col),
            BinOp::Eq,
            Expr::qcol(old_table, old_col),
        )),
    }
}

/// Rewrites every reference to column `from` inside `expr` to `to`,
/// dropping a table qualifier that no longer fits.
fn rename_column(expr: &Expr, from: &str, to: &str, schema: &SchemaInfo) -> Expr {
    let mut out = expr.clone();
    out.walk_mut(&mut |e| {
        if let Expr::Column(cr) = e {
            if cr.column.eq_ignore_ascii_case(from) {
                let keep_qualifier = cr
                    .table
                    .as_deref()
                    .and_then(|t| schema.table(t))
                    .is_some_and(|t| t.column(to).is_some());
                if !keep_qualifier {
                    cr.table = None;
                }
                cr.column = to.to_string();
            }
        }
    });
    out
}

fn expr_mentions(expr: &Expr, column: &str) -> bool {
    expr.columns()
        .iter()
        .any(|c| c.column.eq_ignore_ascii_case(column))
}

fn attribute_repairs(e: &mut Enumerator<'_>, site_idx: usize, site: &FaultSite) {
    let visible = e.visible_columns();
    let subject = site.subject.rsplit('.').next().unwrap_or("").to_string();
    let referenced = !subject.is_empty()
        && e.base.cores().any(|c| {
            c.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr_mentions(expr, &subject),
                _ => false,
            }) || c
                .where_clause
                .as_ref()
                .is_some_and(|w| expr_mentions(w, &subject))
                || c.group_by.iter().any(|g| expr_mentions(g, &subject))
                || c.having
                    .as_ref()
                    .is_some_and(|h| expr_mentions(h, &subject))
        })
        || e.base
            .order_by
            .iter()
            .any(|o| expr_mentions(&o.expr, &subject));

    // Replacement pool: cue columns visible in the query's scope, plus
    // the nearest visible name when the subject resolves to nothing.
    let mut replacements: Vec<String> = Vec::new();
    for cue in &e.cues.columns {
        if visible.iter().any(|(_, c, _)| c.eq_ignore_ascii_case(cue))
            && !cue.eq_ignore_ascii_case(&subject)
            && !replacements.iter().any(|r| r.eq_ignore_ascii_case(cue))
        {
            replacements.push(cue.clone());
        }
    }
    if !subject.is_empty()
        && !visible
            .iter()
            .any(|(_, c, _)| c.eq_ignore_ascii_case(&subject))
    {
        let names: Vec<&str> = visible.iter().map(|(_, c, _)| c.as_str()).collect();
        if let Some(fix) = nearest_name(&subject, names.iter().copied(), NAME_DIST) {
            let fix = fix.to_string();
            if !replacements.iter().any(|r| r.eq_ignore_ascii_case(&fix)) {
                replacements.push(fix);
            }
        }
    }

    if referenced {
        for to in &replacements {
            rename_occurrence_repairs(e, site_idx, &subject, to);
            if e.full() {
                return;
            }
        }
    } else {
        // The feedback names a column the query lacks entirely.
        for cue in &e.cues.columns {
            let Some((table, col, _)) =
                visible.iter().find(|(_, c, _)| c.eq_ignore_ascii_case(cue))
            else {
                continue;
            };
            if e.base.cores().next().is_some_and(|c| {
                c.items.iter().any(|i| match i {
                    SelectItem::Expr { expr, .. } => expr_mentions(expr, col),
                    _ => false,
                })
            }) {
                continue;
            }
            if e.cues.removal {
                continue; // removals are interpret's business, not ours
            }
            match site.clause {
                ClausePath::OrderBy => {
                    e.propose(
                        site_idx,
                        "order-by-column",
                        vec![EditOp::SetOrderBy {
                            from: e.base.order_by.clone(),
                            to: vec![OrderItem {
                                expr: Expr::col(col.clone()),
                                desc: e.cues.descending,
                            }],
                        }],
                    );
                }
                _ => {
                    e.propose(
                        site_idx,
                        "add-select",
                        vec![EditOp::AddSelectItem {
                            item: SelectItem::Expr {
                                expr: Expr::qcol(table.clone(), col.clone()),
                                alias: None,
                            },
                        }],
                    );
                }
            }
        }
    }
}

/// One candidate per clause occurrence of `from`: the minimal rename.
fn rename_occurrence_repairs(e: &mut Enumerator<'_>, site_idx: usize, from: &str, to: &str) {
    let core = e.base.core.clone();
    for (i, item) in core.items.iter().enumerate() {
        if let SelectItem::Expr { expr, alias } = item {
            if expr_mentions(expr, from) {
                let renamed = rename_column(expr, from, to, e.schema);
                e.propose(
                    site_idx,
                    "column-swap",
                    vec![EditOp::ReplaceSelectItem {
                        index: i,
                        from: item.clone(),
                        to: SelectItem::Expr {
                            expr: renamed,
                            alias: alias.clone(),
                        },
                    }],
                );
            }
        }
    }
    if let Some(w) = &core.where_clause {
        for (j, conj) in w.conjuncts().into_iter().enumerate() {
            if expr_mentions(conj, from) {
                e.propose(
                    site_idx,
                    "column-swap",
                    vec![EditOp::ReplacePredicate {
                        index: j,
                        from: conj.clone(),
                        to: rename_column(conj, from, to, e.schema),
                    }],
                );
            }
        }
    }
    if core.group_by.iter().any(|g| expr_mentions(g, from)) {
        let to_keys: Vec<Expr> = core
            .group_by
            .iter()
            .map(|g| rename_column(g, from, to, e.schema))
            .collect();
        e.propose(
            site_idx,
            "column-swap",
            vec![EditOp::SetGroupBy {
                from: core.group_by.clone(),
                to: to_keys,
            }],
        );
    }
    if let Some(h) = &core.having {
        if expr_mentions(h, from) {
            e.propose(
                site_idx,
                "column-swap",
                vec![EditOp::SetHaving {
                    from: Some(h.clone()),
                    to: Some(rename_column(h, from, to, e.schema)),
                }],
            );
        }
    }
    if e.base.order_by.iter().any(|o| expr_mentions(&o.expr, from)) {
        let to_items: Vec<OrderItem> = e
            .base
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: rename_column(&o.expr, from, to, e.schema),
                desc: o.desc,
            })
            .collect();
        e.propose(
            site_idx,
            "column-swap",
            vec![EditOp::SetOrderBy {
                from: e.base.order_by.clone(),
                to: to_items,
            }],
        );
    }
}

fn function_repairs(e: &mut Enumerator<'_>, site_idx: usize) {
    let visible = e.visible_columns();
    let numeric_cue_col = e.cues.columns.iter().find_map(|cue| {
        visible
            .iter()
            .find(|(_, c, ct)| c.eq_ignore_ascii_case(cue) && ct.is_numeric())
            .map(|(_, c, _)| c.clone())
    });

    let targets: Vec<Func> = if e.cues.aggregates.is_empty() {
        vec![Func::Count, Func::Sum, Func::Avg, Func::Min, Func::Max]
    } else {
        e.cues.aggregates.clone()
    };

    let items = e.base.core.items.clone();
    for (i, item) in items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            continue;
        };
        let Expr::Call {
            func,
            distinct,
            args,
        } = expr
        else {
            continue;
        };
        if !func.is_aggregate() {
            continue;
        }
        for target in &targets {
            if target == func {
                continue;
            }
            // COUNT takes anything (including *); the numeric aggregates
            // need a numeric column argument.
            let new_args: Vec<Expr> = if *target == Func::Count {
                args.clone()
            } else {
                match args.first() {
                    Some(Expr::Column(cr)) => {
                        let numeric = visible.iter().any(|(_, c, ct)| {
                            c.eq_ignore_ascii_case(&cr.column) && ct.is_numeric()
                        });
                        if !numeric && !matches!(target, Func::Min | Func::Max) {
                            continue;
                        }
                        args.clone()
                    }
                    Some(Expr::Wildcard) | None => match &numeric_cue_col {
                        Some(c) => vec![Expr::col(c.clone())],
                        None => continue,
                    },
                    _ => args.clone(),
                }
            };
            e.propose(
                site_idx,
                "aggregate-swap",
                vec![EditOp::ReplaceSelectItem {
                    index: i,
                    from: item.clone(),
                    to: SelectItem::Expr {
                        expr: Expr::Call {
                            func: *target,
                            distinct: *distinct,
                            args: new_args,
                        },
                        alias: alias.clone(),
                    },
                }],
            );
        }
    }
}

/// Rewrites every year-shaped literal in `expr` (see [`literal_year`])
/// to year `to`. Returns `None` if nothing changed.
pub fn shift_years(expr: &Expr, to: i64) -> Option<Expr> {
    let mut out = expr.clone();
    let mut changed = false;
    out.walk_mut(&mut |e| {
        if let Expr::Literal(lit) = e {
            if let Some(y) = literal_year(lit) {
                if y != to {
                    match lit {
                        Literal::Number(n) => *n = to,
                        Literal::String(s) => *s = format!("{to}{}", &s[4..]),
                        _ => unreachable!("literal_year only fires on numbers/strings"),
                    }
                    changed = true;
                }
            }
        }
    });
    changed.then_some(out)
}

/// Replaces the first literal in `expr` matching `from_pred` with `to`.
fn swap_literal(
    expr: &Expr,
    from_pred: &mut impl FnMut(&Literal) -> bool,
    to: &Literal,
) -> Option<Expr> {
    let mut out = expr.clone();
    let mut done = false;
    out.walk_mut(&mut |e| {
        if done {
            return;
        }
        if let Expr::Literal(lit) = e {
            if from_pred(lit) {
                *lit = to.clone();
                done = true;
            }
        }
    });
    done.then_some(out)
}

fn literal_repairs(e: &mut Enumerator<'_>, site_idx: usize, site: &FaultSite) {
    let core = e.base.core.clone();
    let conjuncts: Vec<Expr> = core
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();

    // Year shift (paper Figure 4): one multi-edit candidate per target
    // year, touching every stale conjunct at once.
    for year in &e.cues.years {
        let mut edits = Vec::new();
        for (j, conj) in conjuncts.iter().enumerate() {
            if let Some(to) = shift_years(conj, *year) {
                edits.push(EditOp::ReplacePredicate {
                    index: j,
                    from: conj.clone(),
                    to,
                });
            }
        }
        if let Some(h) = &core.having {
            if let Some(to) = shift_years(h, *year) {
                edits.push(EditOp::SetHaving {
                    from: Some(h.clone()),
                    to: Some(to),
                });
            }
        }
        e.propose(site_idx, "year-shift", edits);
    }

    // Plain number / float / string substitutions, one conjunct at a time.
    for n in &e.cues.numbers {
        for (j, conj) in conjuncts.iter().enumerate() {
            let mut pred = |l: &Literal| matches!(l, Literal::Number(m) if m != n && literal_year(l).is_none());
            if let Some(to) = swap_literal(conj, &mut pred, &Literal::Number(*n)) {
                e.propose(
                    site_idx,
                    "number-sub",
                    vec![EditOp::ReplacePredicate {
                        index: j,
                        from: conj.clone(),
                        to,
                    }],
                );
            }
        }
    }
    for x in &e.cues.floats {
        for (j, conj) in conjuncts.iter().enumerate() {
            let mut pred = |l: &Literal| matches!(l, Literal::Float(y) if y != x);
            if let Some(to) = swap_literal(conj, &mut pred, &Literal::Float(*x)) {
                e.propose(
                    site_idx,
                    "number-sub",
                    vec![EditOp::ReplacePredicate {
                        index: j,
                        from: conj.clone(),
                        to,
                    }],
                );
            }
        }
    }
    for s in &e.cues.strings {
        for (j, conj) in conjuncts.iter().enumerate() {
            let mut pred =
                |l: &Literal| matches!(l, Literal::String(t) if !t.eq_ignore_ascii_case(s));
            if let Some(to) = swap_literal(conj, &mut pred, &Literal::String(s.clone())) {
                e.propose(
                    site_idx,
                    "string-sub",
                    vec![EditOp::ReplacePredicate {
                        index: j,
                        from: conj.clone(),
                        to,
                    }],
                );
            }
        }
    }

    // LIMIT substitutions at the Limit site.
    if site.clause == ClausePath::Limit {
        for n in &e.cues.numbers {
            let Ok(count) = u64::try_from(*n) else {
                continue;
            };
            if count == 0 || e.base.limit.as_ref().is_some_and(|l| l.count == count) {
                continue;
            }
            e.propose(
                site_idx,
                "limit-sub",
                vec![EditOp::SetLimit {
                    from: e.base.limit,
                    to: Some(LimitClause {
                        count,
                        offset: e.base.limit.as_ref().and_then(|l| l.offset),
                    }),
                }],
            );
        }
    }
}

fn operator_repairs(e: &mut Enumerator<'_>, site_idx: usize, site: &FaultSite) {
    const COMPARISONS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ];

    // Comparison swap at the accused conjunct. Only fires for sites
    // backed by analyzer / flow / highlight evidence — raw feedback text
    // is too weak a signal to justify a 5-way fan-out.
    let evidence_backed = site
        .sources
        .iter()
        .any(|s| matches!(*s, "check" | "flow" | "highlight"));
    if evidence_backed {
        let conjunct_at = |j: usize| -> Option<Expr> {
            e.base
                .core
                .where_clause
                .as_ref()
                .and_then(|w| w.conjuncts().get(j).map(|c| (*c).clone()))
        };
        let targets: Vec<(usize, Expr)> = match site.clause {
            ClausePath::WherePredicate(j) => conjunct_at(j).map(|c| (j, c)).into_iter().collect(),
            ClausePath::Where => e
                .base
                .core
                .where_clause
                .as_ref()
                .map(|w| {
                    w.conjuncts()
                        .into_iter()
                        .cloned()
                        .enumerate()
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        for (j, conj) in targets {
            let Expr::Binary { left, op, right } = &conj else {
                continue;
            };
            if !op.is_comparison() {
                continue;
            }
            for alt in COMPARISONS {
                if alt == *op {
                    continue;
                }
                e.propose(
                    site_idx,
                    "op-swap",
                    vec![EditOp::ReplacePredicate {
                        index: j,
                        from: conj.clone(),
                        to: Expr::Binary {
                            left: left.clone(),
                            op: alt,
                            right: right.clone(),
                        },
                    }],
                );
            }
        }
    }

    // Sort-direction flip at the ORDER BY site.
    if site.clause == ClausePath::OrderBy
        && (e.cues.ascending || e.cues.descending)
        && !e.base.order_by.is_empty()
    {
        let to: Vec<OrderItem> = e
            .base
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: o.expr.clone(),
                desc: e.cues.descending,
            })
            .collect();
        if to != e.base.order_by {
            e.propose(
                site_idx,
                "direction-flip",
                vec![EditOp::SetOrderBy {
                    from: e.base.order_by.clone(),
                    to,
                }],
            );
        }
    }
}

/// Whether any core's WHERE conjunction is unsatisfiable under the
/// abstract interpreter's constant/interval domain.
fn where_unsat(q: &Query) -> bool {
    q.cores().any(|c| {
        c.where_clause.as_ref().is_some_and(|w| {
            let conjs = w.conjuncts();
            analyze_conjunction(&conjs).unsatisfiable()
        })
    })
}

/// What is known about one query against one schema: its analyzer
/// diagnostics (and so whether it is clean), its canonical fingerprint,
/// and its empty arity (the output arity of a provably empty query).
///
/// Each fact is derived on first need and then kept, so facts handed
/// from one pass to the next (pruning to the lint gate, the gate to the
/// runner's execution gate) are never derived twice. The diagnostics are
/// lazy too: pruning fingerprints a candidate before (and often instead
/// of) checking it. The facts do not hold their query: every accessor
/// takes it, and it must be the query the facts travel with, which
/// [`QueryFacts::debug_confirm`] checks in debug builds.
#[derive(Debug, Clone, Default)]
pub struct QueryFacts {
    diagnostics: OnceLock<Arc<[Diagnostic]>>,
    fingerprint: OnceLock<u64>,
    empty_arity: OnceLock<Option<usize>>,
}

impl QueryFacts {
    /// Facts of `query` with its diagnostics against `schema` derived.
    pub fn of(query: &Query, schema: &SchemaInfo) -> QueryFacts {
        let facts = QueryFacts::default();
        facts.diagnostics(query, schema);
        facts
    }

    /// The analyzer's diagnostics of `query` against `schema`.
    pub fn diagnostics(&self, query: &Query, schema: &SchemaInfo) -> &[Diagnostic] {
        self.diagnostics
            .get_or_init(|| check_query(query, schema).into())
    }

    /// Whether `query` has no error-severity diagnostics.
    pub fn is_clean(&self, query: &Query, schema: &SchemaInfo) -> bool {
        !self
            .diagnostics(query, schema)
            .iter()
            .any(Diagnostic::is_error)
    }

    /// The canonical fingerprint of `query` ([`canon_fingerprint`]).
    pub fn fingerprint(&self, query: &Query) -> u64 {
        *self.fingerprint.get_or_init(|| canon_fingerprint(query))
    }

    /// The output arity of `query` when the abstract interpreter proves
    /// it empty ([`empty_arity`]).
    pub fn empty_arity(&self, query: &Query) -> Option<usize> {
        *self.empty_arity.get_or_init(|| empty_arity(query))
    }

    /// These facts, completed with what `other` (facts of the same
    /// query) has derived and these have not.
    pub fn or(self, other: QueryFacts) -> QueryFacts {
        fn or<T>(known: OnceLock<T>, other: OnceLock<T>) -> OnceLock<T> {
            known.into_inner().map_or(other, OnceLock::from)
        }
        QueryFacts {
            diagnostics: or(self.diagnostics, other.diagnostics),
            fingerprint: or(self.fingerprint, other.fingerprint),
            empty_arity: or(self.empty_arity, other.empty_arity),
        }
    }

    /// In debug builds, panics unless every fact derived so far equals a
    /// fresh derivation on `query` against `schema`. Callers that receive
    /// facts from another pass confirm them here.
    #[track_caller]
    pub fn debug_confirm(&self, query: &Query, schema: &SchemaInfo) {
        fn holds<T: PartialEq>(known: &OnceLock<T>, fresh: impl FnOnce() -> T) -> bool {
            known.get().is_none_or(|known| *known == fresh())
        }
        if cfg!(debug_assertions) {
            assert!(
                holds(&self.diagnostics, || check_query(query, schema).into())
                    && holds(&self.fingerprint, || canon_fingerprint(query))
                    && holds(&self.empty_arity, || empty_arity(query)),
                "facts handed forward do not hold for `{}`",
                crate::printer::print_query(query)
            );
        }
    }
}

/// The original query of one search step, normalized, with its
/// [`QueryFacts`] and the facts of every candidate pruned against it so
/// far. A candidate that reappears in a later pool of the step, or that
/// is the original itself, is found by its structural hash, confirmed by
/// `==`, and is neither fingerprinted nor checked again. The memo holds
/// facts only, never lanes: each pool makes its own dedup decisions.
#[derive(Debug)]
pub struct PruneBase {
    query: Query,
    hash: u64,
    facts: QueryFacts,
    memo: RefCell<HashMap<u64, (Query, QueryFacts)>>,
}

impl PruneBase {
    /// The base of `original`; its facts are derived on first need.
    pub fn new(original: &Query) -> PruneBase {
        let query = normalize_query(original);
        PruneBase {
            hash: structural_hash(&query),
            query,
            facts: QueryFacts::default(),
            memo: RefCell::default(),
        }
    }

    /// The normalized original.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The normalized original's facts.
    pub fn facts(&self) -> &QueryFacts {
        &self.facts
    }

    /// Whether a candidate with these `facts` is proven equivalent to the
    /// base. This is exactly
    /// [`canonically_equivalent`](crate::canon::canonically_equivalent)
    /// given the fingerprints: equal canonical forms (or equal normalized
    /// forms, which canonicalize alike) print alike, and the prover's
    /// other path is "both provably empty with one arity".
    fn equivalent(&self, candidate: &Query, facts: &QueryFacts) -> bool {
        facts.fingerprint(candidate) == self.facts.fingerprint(&self.query)
            || self
                .facts
                .empty_arity(&self.query)
                .is_some_and(|arity| facts.empty_arity(candidate) == Some(arity))
    }
}

/// Statically prunes a candidate pool: drops candidates proven
/// contradictory/empty, drops analyzer-rejected candidates, and
/// deduplicates candidates proven equivalent to the original or to an
/// earlier survivor. No engine execution happens here — that is the
/// point. [`prune_against`] with a one-off [`PruneBase`].
pub fn prune_candidates(
    original: &Query,
    candidates: Vec<RepairCandidate>,
    schema: &SchemaInfo,
) -> PruneOutcome {
    prune_against(&PruneBase::new(original), candidates, schema)
}

/// [`prune_candidates`] against a base shared by every pool of a search
/// step.
///
/// Each distinct candidate query of the step is canonicalized and
/// checked at most once. Dedup is a canonical-fingerprint set lookup
/// (O(n) over the pool) instead of the old O(n²) pairwise prover.
/// Canonical-form equality subsumes `structurally_equal` and the
/// prover's syntactic path; the prover's remaining path (both sides
/// provably empty) cannot apply among survivors, because provably-empty
/// candidates were already routed to the contradictory lane — so the
/// fingerprint set drops exactly what pairwise proving dropped.
/// Equivalence to the original also honours that path, since the
/// original need not be non-empty ([`PruneBase`]).
///
/// A candidate whose query equals an earlier one's in the same pool (a
/// structural hash, confirmed by AST equality) takes that candidate's
/// lane without being looked at: contradictory or invalid again, and
/// otherwise deduplicated, exactly as its own fingerprint would have
/// decided.
pub fn prune_against(
    base: &PruneBase,
    candidates: Vec<RepairCandidate>,
    schema: &SchemaInfo,
) -> PruneOutcome {
    let hashes: Vec<u64> = candidates
        .iter()
        .map(|cand| structural_hash(&cand.query))
        .collect();
    let mut memo = base.memo.borrow_mut();
    let mut lanes: Vec<Lane> = Vec::with_capacity(candidates.len());
    let mut seen: HashSet<u64> = HashSet::new();
    for (i, cand) in candidates.iter().enumerate() {
        let copy_of = (0..i).find(|&j| hashes[j] == hashes[i] && candidates[j].query == cand.query);
        let lane = match copy_of.map(|j| &lanes[j]) {
            Some(Lane::Contradictory) => Lane::Contradictory,
            Some(Lane::Invalid) => Lane::Invalid,
            Some(Lane::Deduped | Lane::Kept(_)) => Lane::Deduped,
            None => {
                let fresh = QueryFacts::default();
                let facts = if hashes[i] == base.hash && cand.query == base.query {
                    &base.facts
                } else {
                    match memo
                        .entry(hashes[i])
                        .or_insert_with(|| (cand.query.clone(), QueryFacts::default()))
                    {
                        (known, facts) if *known == cand.query => &*facts,
                        // A hash collision with a different query gets
                        // fresh facts.
                        _ => &fresh,
                    }
                };
                first_lane(base, &cand.query, facts, schema, &mut seen)
            }
        };
        lanes.push(lane);
    }
    let mut out = PruneOutcome::default();
    for ((cand, lane), hash) in candidates.into_iter().zip(lanes).zip(hashes) {
        match lane {
            Lane::Deduped => out.deduped += 1,
            Lane::Contradictory => out.contradictory.push(cand),
            Lane::Invalid => out.invalid.push(cand),
            Lane::Kept(facts) => out.kept.push(Survivor { cand, facts, hash }),
        }
    }
    out
}

/// The structural hash pruning keys a candidate query by.
fn structural_hash(query: &Query) -> u64 {
    let mut h = DefaultHasher::new();
    query.hash(&mut h);
    h.finish()
}

/// Where [`prune_against`] puts one candidate.
enum Lane {
    Deduped,
    Contradictory,
    Invalid,
    /// Survived, with its facts (warning-only diagnostics, fingerprint).
    Kept(QueryFacts),
}

/// The lane of the first candidate in a pool with this `query` and
/// these `facts`; `seen` holds the fingerprints of its survivors so far.
fn first_lane(
    base: &PruneBase,
    query: &Query,
    facts: &QueryFacts,
    schema: &SchemaInfo,
    seen: &mut HashSet<u64>,
) -> Lane {
    if base.equivalent(query, facts) {
        return Lane::Deduped;
    }
    if provably_empty(query) || where_unsat(query) {
        return Lane::Contradictory;
    }
    if !facts.is_clean(query, schema) {
        return Lane::Invalid;
    }
    if !seen.insert(facts.fingerprint(query)) {
        return Lane::Deduped;
    }
    Lane::Kept(facts.clone())
}

/// Whether a candidate is structure-preserving: the realized AST diff
/// between the (normalized) original and the candidate stays inside the
/// clause families of the candidate's declared edits. `ReplaceTable`
/// edits are replayed onto the original first, because renaming a table
/// legitimately rewrites qualified column references in other clauses.
pub fn is_structure_preserving(original: &Query, cand: &RepairCandidate) -> bool {
    let mut base = normalize_query(original);
    for edit in &cand.edits {
        if matches!(edit, EditOp::ReplaceTable { .. }) {
            match apply_edit(&base, edit) {
                Ok(q) => base = q,
                Err(_) => return false,
            }
        }
    }
    let realized = diff_queries(&base, &cand.query);
    if realized.is_empty() {
        return true;
    }
    let allowed: Vec<ClausePath> = cand.edits.iter().map(EditOp::clause).collect();
    realized.iter().all(|r| {
        !matches!(r, EditOp::ReplaceQuery { .. })
            && allowed.iter().any(|a| same_clause_family(&r.clause(), a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::TableInfo;
    use crate::locate::{locate_faults, locate_faults_with_diagnostics, LocateOptions};
    use crate::parser::parse_query;
    use crate::printer::print_query;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![
            TableInfo::new(
                "singer",
                vec![
                    ("singer_id", ColType::Int),
                    ("name", ColType::Text),
                    ("age", ColType::Int),
                    ("country", ColType::Text),
                ],
            ),
            TableInfo::new(
                "concert",
                vec![
                    ("concert_id", ColType::Int),
                    ("singer_id", ColType::Int),
                    ("year", ColType::Int),
                ],
            )
            .with_fk("singer_id", "singer", "singer_id"),
        ])
    }

    fn repairs_for(sql: &str, feedback: &str) -> (Query, Vec<RepairCandidate>) {
        let q = parse_query(sql).unwrap();
        let s = schema();
        let sites = locate_faults(
            &q,
            &s,
            LocateOptions {
                feedback: Some(feedback),
                highlight: None,
            },
        );
        let cues = FeedbackCues::extract(feedback, &s);
        let cands = enumerate_repairs(&q, &s, &sites, &cues);
        (q, cands)
    }

    #[test]
    fn year_shift_produces_the_figure4_fix() {
        let (q, cands) = repairs_for(
            "SELECT COUNT(*) FROM concert WHERE year >= 2023 AND year < 2024",
            "we are in 2024",
        );
        let shifted = cands
            .iter()
            .find(|c| c.label == "year-shift")
            .expect("year-shift candidate");
        let sql = print_query(&shifted.query);
        assert!(sql.contains("2024"), "{sql}");
        assert!(is_structure_preserving(&q, shifted));
    }

    #[test]
    fn misspelled_column_gets_nearest_name_swap() {
        let q = parse_query("SELECT nam FROM singer").unwrap();
        let s = schema();
        let sites = locate_faults(&q, &s, LocateOptions::default());
        let cues = FeedbackCues::default();
        let cands = enumerate_repairs(&q, &s, &sites, &cues);
        assert!(cands
            .iter()
            .any(|c| print_query(&c.query).to_lowercase().contains("name")));
    }

    #[test]
    fn fk_join_brings_in_the_cue_table() {
        let (_q, cands) = repairs_for(
            "SELECT name FROM singer",
            "only include singers that have a concert",
        );
        let joined = cands
            .iter()
            .find(|c| c.label == "fk-join")
            .expect("fk-join");
        let sql = print_query(&joined.query);
        assert!(sql.contains("JOIN concert"), "{sql}");
    }

    #[test]
    fn aggregate_swap_honours_the_cue() {
        let (q, cands) = repairs_for(
            "SELECT SUM(age) FROM singer",
            "I wanted the average age, not the total age",
        );
        let swapped = cands
            .iter()
            .find(|c| print_query(&c.query).contains("AVG(age)"))
            .expect("aggregate swap to AVG");
        assert!(is_structure_preserving(&q, swapped));
    }

    #[test]
    fn pruning_drops_contradictory_candidates() {
        let q = parse_query("SELECT name FROM singer WHERE age > 30").unwrap();
        let s = schema();
        let base = normalize_query(&q);
        // Hand-craft a contradictory candidate: age > 30 AND age < 10.
        let pred = Expr::binary(Expr::col("age"), BinOp::Lt, Expr::num(10));
        let edits = vec![EditOp::AddPredicate { pred }];
        let cand = RepairCandidate {
            query: apply_edits(&base, &edits).unwrap(),
            edits,
            site: 0,
            label: "test",
        };
        let out = prune_candidates(&q, vec![cand], &s);
        assert!(out.kept.is_empty());
        assert_eq!(out.contradictory.len(), 1);
        assert_eq!(out.pruned_static(), 1);
    }

    #[test]
    fn pruning_dedupes_equivalent_candidates_and_noops() {
        let q = parse_query("SELECT name FROM singer WHERE age > 30").unwrap();
        let s = schema();
        let base = normalize_query(&q);
        let noop = RepairCandidate {
            query: base.clone(),
            edits: vec![EditOp::SetDistinct { distinct: false }],
            site: 0,
            label: "noop",
        };
        let twin_edits = vec![EditOp::SetLimit {
            from: None,
            to: Some(LimitClause::new(5)),
        }];
        let twin = |label: &'static str| RepairCandidate {
            query: apply_edits(&base, &twin_edits).unwrap(),
            edits: twin_edits.clone(),
            site: 0,
            label,
        };
        let out = prune_candidates(&q, vec![noop, twin("a"), twin("b")], &s);
        assert_eq!(out.kept.len(), 1);
        assert_eq!(out.deduped, 2);
    }

    #[test]
    fn survivors_are_analyzer_clean_and_nonempty() {
        let (q, cands) = repairs_for(
            "SELECT COUNT(*) FROM concert WHERE year = 2023",
            "we are in 2024",
        );
        let s = schema();
        let out = prune_candidates(&q, cands, &s);
        assert!(!out.kept.is_empty());
        for k in &out.kept {
            assert!(!check_query(&k.cand.query, &s).iter().any(|d| d.is_error()));
            assert!(!provably_empty(&k.cand.query));
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_bounded() {
        let (_q, a) = repairs_for(
            "SELECT SUM(age) FROM singer WHERE age > 30",
            "show the average age of singers from concert year 2024, top 5",
        );
        let (_q2, b) = repairs_for(
            "SELECT SUM(age) FROM singer WHERE age > 30",
            "show the average age of singers from concert year 2024, top 5",
        );
        assert_eq!(a, b);
        assert!(a.len() <= ENUM_BUDGET);
    }

    /// Reference pruner, the pre-`PruneBase` path: identical lane
    /// structure, but every candidate is canonicalized three times
    /// (`canonically_equivalent` against the original, recomputed per
    /// call) and dedup is O(n²) pairwise proving instead of the
    /// fingerprint set.
    fn prune_reference(
        original: &Query,
        candidates: Vec<RepairCandidate>,
        schema: &SchemaInfo,
    ) -> PruneOutcome {
        let base = normalize_query(original);
        let mut out = PruneOutcome::default();
        for cand in candidates {
            if crate::canon::canonically_equivalent(&cand.query, &base) {
                out.deduped += 1;
                continue;
            }
            if provably_empty(&cand.query) || where_unsat(&cand.query) {
                out.contradictory.push(cand);
                continue;
            }
            if check_query(&cand.query, schema)
                .iter()
                .any(|d| d.is_error())
            {
                out.invalid.push(cand);
                continue;
            }
            if out
                .kept
                .iter()
                .any(|k| crate::canon::canonically_equivalent(&k.cand.query, &cand.query))
            {
                out.deduped += 1;
                continue;
            }
            out.kept.push(Survivor {
                facts: QueryFacts::of(&cand.query, schema),
                hash: structural_hash(&cand.query),
                cand,
            });
        }
        out
    }

    /// `fast` and the reference `slow` pruned alike, and every fact
    /// `fast` derived for a survivor — memoized across the step's pools
    /// or not — equals a fresh derivation.
    fn assert_prunes_alike(fast: &PruneOutcome, slow: &PruneOutcome, schema: &SchemaInfo) {
        let cands = |o: &PruneOutcome| o.kept.iter().map(|k| k.cand.clone()).collect::<Vec<_>>();
        assert_eq!(cands(fast), cands(slow));
        for (f, s) in fast.kept.iter().zip(&slow.kept) {
            let query = &f.cand.query;
            f.facts.debug_confirm(query, schema);
            assert_eq!(
                f.facts.diagnostics(query, schema),
                s.facts.diagnostics(query, schema)
            );
            assert_eq!(f.facts.fingerprint(query), s.facts.fingerprint(query));
            assert_eq!(f.hash, s.hash);
        }
        assert_eq!(fast.contradictory, slow.contradictory);
        assert_eq!(fast.invalid, slow.invalid);
        assert_eq!(fast.deduped, slow.deduped);
    }

    #[test]
    fn fingerprint_dedup_matches_pairwise_on_200_candidates() {
        // A dense pool of syntactic variants: semantically-equal spellings
        // (NOT-pushed, reordered, padded), genuinely distinct predicates,
        // contradictory and analyzer-rejected candidates.
        let original = "SELECT name FROM singer WHERE age > 30";
        let q = parse_query(original).unwrap();
        let s = schema();
        let mut pool: Vec<RepairCandidate> = Vec::new();
        let variants = [
            "SELECT name FROM singer WHERE NOT (age <= 30)",
            "SELECT name FROM singer WHERE age > 30 AND age > 20",
            "SELECT name FROM singer WHERE age > {n}",
            "SELECT name FROM singer WHERE NOT (age <= {n})",
            "SELECT name FROM singer WHERE age > {n} AND age > 1",
            "SELECT name FROM singer WHERE age > {n} AND TRUE",
            "SELECT name FROM singer WHERE age = {n} AND age != {n}",
            "SELECT name FROM singer WHERE bogus_col > {n}",
            "SELECT name FROM singer WHERE country = 'x{n}'",
            "SELECT s.name FROM singer AS s WHERE s.age > {n}",
        ];
        for i in 0..200usize {
            let tpl = variants[i % variants.len()];
            let sql = tpl.replace("{n}", &(30 + (i / variants.len()) as i64).to_string());
            pool.push(RepairCandidate {
                query: normalize_query(&parse_query(&sql).unwrap()),
                edits: Vec::new(),
                site: 0,
                label: "pool",
            });
        }
        assert_eq!(pool.len(), 200);
        let fast = prune_candidates(&q, pool.clone(), &s);
        let slow = prune_reference(&q, pool.clone(), &s);
        assert_prunes_alike(&fast, &slow, &s);
        // The pool is genuinely dense: every lane is exercised.
        assert!(fast.deduped > 0, "deduped {}", fast.deduped);
        assert!(!fast.contradictory.is_empty());
        assert!(!fast.invalid.is_empty());
        assert!(!fast.kept.is_empty());

        // Exact copies of the first 30 candidates, appended: each takes
        // its first occurrence's lane without a fingerprint or a check.
        let mut repeated = pool.clone();
        repeated.extend(pool.iter().take(30).map(|c| RepairCandidate {
            label: "copy",
            ..c.clone()
        }));
        let fast = prune_candidates(&q, repeated.clone(), &s);
        assert_prunes_alike(&fast, &prune_reference(&q, repeated, &s), &s);
        assert!(fast.contradictory.iter().any(|c| c.label == "copy"));
        assert!(fast.invalid.iter().any(|c| c.label == "copy"));
        assert!(fast.kept.iter().all(|k| k.cand.label != "copy"));
    }

    /// Originals over the test schema: clean, misspelled, joined,
    /// aggregated, ordered, and provably empty (so equivalence to the
    /// original takes the prover's both-empty path too).
    const ORIGINALS: [&str; 8] = [
        "SELECT name FROM singer WHERE age > {n}",
        "SELECT COUNT(*) FROM concert WHERE year >= {y} AND year < {z}",
        "SELECT SUM(age) FROM singer WHERE country = 'x{n}'",
        "SELECT nam FROM singer WHERE age > {n}",
        "SELECT name FROM singer WHERE age > {n} AND age < {m}",
        "SELECT name, age FROM singer ORDER BY age LIMIT {k}",
        "SELECT s.name FROM singer AS s JOIN concert AS c ON s.singer_id = c.singer_id WHERE c.year = {y}",
        "SELECT name FROM singer WHERE age > {n} AND FALSE",
    ];

    const FEEDBACK: [&str; 8] = [
        "we are in 2024",
        "order the results in descending order",
        "only show the top 3",
        "that name is wrong",
        "I wanted the average age, not the total age",
        "only include singers that have a concert",
        "show singers older than 40 instead",
        "the country should be 'France'",
    ];

    /// Round one of a search over the test schema: the original built
    /// from `ORIGINALS[t]` and the parameters, the cues of `FEEDBACK[f]`,
    /// and its enumerated repair pool. With `stride > 0` the pool repeats
    /// candidates: every `stride`-th one again right after itself, and
    /// every `stride`-th from the end once more at the end, each copy
    /// relabeled so the lanes show which one went where.
    fn round_one(
        t: usize,
        f: usize,
        (n, m, k): (i64, i64, i64),
        stride: usize,
    ) -> (Query, SchemaInfo, FeedbackCues, Vec<RepairCandidate>) {
        let sql = ORIGINALS[t]
            .replace("{n}", &n.to_string())
            .replace("{m}", &m.to_string())
            .replace("{k}", &k.to_string())
            .replace("{y}", &(2020 + m % 6).to_string())
            .replace("{z}", &(2020 + n % 6).to_string());
        let q = parse_query(&sql).unwrap();
        let s = schema();
        let feedback = FEEDBACK[f];
        let cues = FeedbackCues::extract(feedback, &s);
        let options = LocateOptions {
            feedback: Some(feedback),
            highlight: None,
        };
        let mut pool = enumerate_repairs(&q, &s, &locate_faults(&q, &s, options), &cues);
        if stride > 0 {
            let copy = |c: &RepairCandidate| RepairCandidate {
                label: "copy",
                ..c.clone()
            };
            let mut repeated = Vec::new();
            for (i, cand) in pool.iter().enumerate() {
                repeated.push(cand.clone());
                if i % stride == 0 {
                    repeated.push(copy(cand));
                }
            }
            repeated.extend(pool.iter().rev().step_by(stride).map(copy));
            pool = repeated;
        }
        (q, s, cues, pool)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// `prune_against` equals the three-canonicalization reference on
        /// enumerated repair candidates — pools that repeat candidates
        /// included: round one against the original, then — as the
        /// search does — one expansion pool per survivor, each pruned
        /// against the same once-built base.
        #[test]
        fn prune_against_matches_the_reference(
            t in 0usize..8,
            f in 0usize..8,
            n in 0i64..60,
            m in 0i64..60,
            k in 1i64..6,
            stride in 0usize..4,
        ) {
            let (q, s, cues, pool) = round_one(t, f, (n, m, k), stride);
            let base = PruneBase::new(&q);
            let fast = prune_against(&base, pool.clone(), &s);
            assert_prunes_alike(&fast, &prune_reference(&q, pool, &s), &s);
            for member in fast.kept.iter().take(4) {
                let member = &member.cand.query;
                let sites = locate_faults(member, &s, LocateOptions::default());
                let mut expansions = enumerate_repairs(member, &s, &sites, &cues);
                if stride > 0 {
                    let again: Vec<RepairCandidate> =
                        expansions.iter().step_by(stride).cloned().collect();
                    expansions.extend(again);
                }
                let fast = prune_against(&base, expansions.clone(), &s);
                assert_prunes_alike(&fast, &prune_reference(&q, expansions, &s), &s);
            }
        }

        /// Localizing a survivor from the diagnostics pruning kept for it
        /// equals localizing it afresh.
        #[test]
        fn survivors_localize_alike_from_their_pruning_diagnostics(
            t in 0usize..8,
            f in 0usize..8,
            n in 0i64..60,
            m in 0i64..60,
            k in 1i64..6,
        ) {
            let (q, s, cues, pool) = round_one(t, f, (n, m, k), 0);
            let outcome = prune_against(&PruneBase::new(&q), pool, &s);
            for kept in &outcome.kept {
                let member = &kept.cand.query;
                let diagnostics = kept.facts.diagnostics(member, &s);
                assert_eq!(
                    locate_faults_with_diagnostics(member, &s, diagnostics, Some(&cues), None),
                    locate_faults_with_diagnostics(
                        member,
                        &s,
                        &check_query(member, &s),
                        Some(&cues),
                        None
                    ),
                    "{}",
                    print_query(member)
                );
            }
        }
    }
}
