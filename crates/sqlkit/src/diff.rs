//! Clause-level structural diff between two queries.
//!
//! `diff_queries(predicted, gold)` computes the list of [`EditOp`]s that
//! would transform the predicted query into the gold query. The diff is
//! the substrate for two parts of the reproduction:
//!
//! - the **simulated user** (`fisql-feedback`) picks one visible edit
//!   per round and verbalizes it as natural-language feedback, mirroring
//!   how the paper's annotators described one correction at a time;
//! - the paper's error analysis ("SQL queries with multiple errors …
//!   needing multiple feedback rounds") falls out of `|diff| > 1`.
//!
//! Every [`EditOp`] carries its [`OpClass`] — the paper's Add / Remove /
//! Edit feedback taxonomy (Table 1) plus a `Rewrite` class for predictions
//! too far from gold to describe as a single clause operation.

use crate::ast::*;
use crate::normalize::normalize_query;
use crate::printer::print_expr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's feedback-operation taxonomy (§3.3, Table 1), extended with
/// `Rewrite` for whole-query restructurings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Feedback suggesting the addition of a SQL operation.
    Add,
    /// Feedback suggesting the removal of a SQL operation.
    Remove,
    /// Feedback updating arguments of an existing SQL operation.
    Edit,
    /// The query must be restructured wholesale.
    Rewrite,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpClass::Add => "Add",
            OpClass::Remove => "Remove",
            OpClass::Edit => "Edit",
            OpClass::Rewrite => "Rewrite",
        })
    }
}

/// One clause-level transformation of a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EditOp {
    /// Add a projection item.
    AddSelectItem {
        /// The item to add.
        item: SelectItem,
    },
    /// Remove the projection item at `index`.
    RemoveSelectItem {
        /// Index in the predicted SELECT list.
        index: usize,
        /// The removed item (for verbalization).
        item: SelectItem,
    },
    /// Replace the projection item at `index`.
    ReplaceSelectItem {
        /// Index in the predicted SELECT list.
        index: usize,
        /// Existing item.
        from: SelectItem,
        /// Replacement.
        to: SelectItem,
    },
    /// Toggle `SELECT DISTINCT`.
    SetDistinct {
        /// Target value.
        distinct: bool,
    },
    /// Replace a referenced table (base or join) by another, rewriting
    /// qualified column references accordingly.
    ReplaceTable {
        /// Table used in the prediction.
        from: String,
        /// Table required by gold.
        to: String,
    },
    /// Add a join step.
    AddJoin {
        /// The join to append.
        join: Join,
    },
    /// Remove the join at `index`.
    RemoveJoin {
        /// Index into the predicted join chain.
        index: usize,
        /// The removed join (for verbalization).
        join: Join,
    },
    /// Add a WHERE conjunct.
    AddPredicate {
        /// The predicate to conjoin.
        pred: Expr,
    },
    /// Remove the WHERE conjunct at `index`.
    RemovePredicate {
        /// Conjunct index in the predicted WHERE.
        index: usize,
        /// The removed conjunct (for verbalization).
        pred: Expr,
    },
    /// Replace the WHERE conjunct at `index`.
    ReplacePredicate {
        /// Conjunct index in the predicted WHERE.
        index: usize,
        /// Existing conjunct.
        from: Expr,
        /// Replacement.
        to: Expr,
    },
    /// Replace the GROUP BY key list.
    SetGroupBy {
        /// Existing keys.
        from: Vec<Expr>,
        /// Target keys.
        to: Vec<Expr>,
    },
    /// Replace the HAVING clause.
    SetHaving {
        /// Existing clause.
        from: Option<Expr>,
        /// Target clause.
        to: Option<Expr>,
    },
    /// Replace the ORDER BY list.
    SetOrderBy {
        /// Existing ordering.
        from: Vec<OrderItem>,
        /// Target ordering.
        to: Vec<OrderItem>,
    },
    /// Replace the LIMIT clause.
    SetLimit {
        /// Existing limit.
        from: Option<LimitClause>,
        /// Target limit.
        to: Option<LimitClause>,
    },
    /// The prediction is structurally too far from gold; replace it.
    ReplaceQuery {
        /// The gold query.
        to: Box<Query>,
    },
}

impl EditOp {
    /// The paper's feedback class for this operation.
    pub fn class(&self) -> OpClass {
        match self {
            EditOp::AddSelectItem { .. } | EditOp::AddJoin { .. } | EditOp::AddPredicate { .. } => {
                OpClass::Add
            }
            EditOp::RemoveSelectItem { .. }
            | EditOp::RemoveJoin { .. }
            | EditOp::RemovePredicate { .. } => OpClass::Remove,
            EditOp::SetDistinct { .. }
            | EditOp::ReplaceSelectItem { .. }
            | EditOp::ReplaceTable { .. }
            | EditOp::ReplacePredicate { .. } => OpClass::Edit,
            EditOp::SetGroupBy { from, to } => add_remove_edit(from.is_empty(), to.is_empty()),
            EditOp::SetHaving { from, to } => add_remove_edit(from.is_none(), to.is_none()),
            EditOp::SetOrderBy { from, to } => add_remove_edit(from.is_empty(), to.is_empty()),
            EditOp::SetLimit { from, to } => add_remove_edit(from.is_none(), to.is_none()),
            EditOp::ReplaceQuery { .. } => OpClass::Rewrite,
        }
    }

    /// The clause this operation touches, for highlight grounding.
    pub fn clause(&self) -> ClausePath {
        match self {
            EditOp::AddSelectItem { .. } => ClausePath::SelectList,
            EditOp::RemoveSelectItem { index, .. } | EditOp::ReplaceSelectItem { index, .. } => {
                ClausePath::SelectItem(*index)
            }
            EditOp::SetDistinct { .. } => ClausePath::SelectList,
            EditOp::ReplaceTable { .. } | EditOp::AddJoin { .. } => ClausePath::From,
            EditOp::RemoveJoin { index, .. } => ClausePath::Join(*index),
            EditOp::AddPredicate { .. } => ClausePath::Where,
            EditOp::RemovePredicate { index, .. } | EditOp::ReplacePredicate { index, .. } => {
                ClausePath::WherePredicate(*index)
            }
            EditOp::SetGroupBy { .. } => ClausePath::GroupBy,
            EditOp::SetHaving { .. } => ClausePath::Having,
            EditOp::SetOrderBy { .. } => ClausePath::OrderBy,
            EditOp::SetLimit { .. } => ClausePath::Limit,
            EditOp::ReplaceQuery { .. } => ClausePath::SelectList,
        }
    }

    /// Short human-readable description (used in logs and error analysis).
    pub fn describe(&self) -> String {
        match self {
            EditOp::AddSelectItem { item } => format!("add {} to SELECT", item_text(item)),
            EditOp::RemoveSelectItem { item, .. } => {
                format!("remove {} from SELECT", item_text(item))
            }
            EditOp::ReplaceSelectItem { from, to, .. } => {
                format!(
                    "replace {} with {} in SELECT",
                    item_text(from),
                    item_text(to)
                )
            }
            EditOp::SetDistinct { distinct } => {
                if *distinct {
                    "add DISTINCT".to_string()
                } else {
                    "drop DISTINCT".to_string()
                }
            }
            EditOp::ReplaceTable { from, to } => format!("use table {to} instead of {from}"),
            EditOp::AddJoin { join } => {
                format!("add join on {}", join.factor.binding_name())
            }
            EditOp::RemoveJoin { join, .. } => {
                format!("remove join on {}", join.factor.binding_name())
            }
            EditOp::AddPredicate { pred } => format!("add condition {}", print_expr(pred)),
            EditOp::RemovePredicate { pred, .. } => {
                format!("remove condition {}", print_expr(pred))
            }
            EditOp::ReplacePredicate { from, to, .. } => {
                format!("change {} to {}", print_expr(from), print_expr(to))
            }
            EditOp::SetGroupBy { to, .. } => {
                if to.is_empty() {
                    "remove GROUP BY".to_string()
                } else {
                    format!(
                        "group by {}",
                        to.iter().map(print_expr).collect::<Vec<_>>().join(", ")
                    )
                }
            }
            EditOp::SetHaving { to, .. } => match to {
                Some(h) => format!("having {}", print_expr(h)),
                None => "remove HAVING".to_string(),
            },
            EditOp::SetOrderBy { to, .. } => {
                if to.is_empty() {
                    "remove ORDER BY".to_string()
                } else {
                    format!(
                        "order by {}",
                        to.iter()
                            .map(|o| format!(
                                "{}{}",
                                print_expr(&o.expr),
                                if o.desc { " DESC" } else { "" }
                            ))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            EditOp::SetLimit { to, .. } => match to {
                Some(l) => format!("limit to {} rows", l.count),
                None => "remove LIMIT".to_string(),
            },
            EditOp::ReplaceQuery { .. } => "rewrite the query".to_string(),
        }
    }
}

/// The distinct [`OpClass`]es realized by an edit list, in first-seen
/// order. Empty iff the list is empty (the candidate is a no-op) — the
/// conformance gate treats that as its own disagreement cause.
pub fn realized_classes(edits: &[EditOp]) -> Vec<OpClass> {
    let mut classes = Vec::new();
    for e in edits {
        let c = e.class();
        if !classes.contains(&c) {
            classes.push(c);
        }
    }
    classes
}

/// Whether two clause paths refer to the same top-level clause family:
/// `WherePredicate(i)` counts as WHERE, `SelectItem(i)` as the SELECT
/// list, `Join(i)` as FROM. Used to ground a user highlight (resolved to
/// a clause of the *previous* query) against the clauses a candidate's
/// realized edits touched.
pub fn same_clause_family(a: &ClausePath, b: &ClausePath) -> bool {
    fn family(p: &ClausePath) -> u8 {
        match p {
            ClausePath::SelectItem(_) | ClausePath::SelectList => 0,
            ClausePath::From | ClausePath::Join(_) => 1,
            ClausePath::Where | ClausePath::WherePredicate(_) => 2,
            ClausePath::GroupBy => 3,
            ClausePath::Having => 4,
            ClausePath::OrderBy => 5,
            ClausePath::Limit => 6,
            ClausePath::Compound(_) => 7,
        }
    }
    family(a) == family(b)
}

fn add_remove_edit(from_absent: bool, to_absent: bool) -> OpClass {
    match (from_absent, to_absent) {
        (true, false) => OpClass::Add,
        (false, true) => OpClass::Remove,
        _ => OpClass::Edit,
    }
}

fn item_text(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::QualifiedWildcard(t) => format!("{t}.*"),
        SelectItem::Expr { expr, .. } => print_expr(expr),
    }
}

/// Computes the clause-level edits transforming `predicted` into `gold`.
///
/// Returns an empty vector iff the two queries are structurally equal
/// (modulo normalization). Returns a single [`EditOp::ReplaceQuery`] when
/// the queries differ in compound (set-op) structure — clause-level diffs
/// across different shapes are not meaningful.
pub fn diff_queries(predicted: &Query, gold: &Query) -> Vec<EditOp> {
    let p = normalize_query(predicted);
    let g = normalize_query(gold);
    if p == g {
        return Vec::new();
    }
    // Different compound shape → whole-query rewrite.
    if p.compound.len() != g.compound.len()
        || p.compound
            .iter()
            .zip(&g.compound)
            .any(|((op_a, _), (op_b, _))| op_a != op_b)
    {
        return vec![EditOp::ReplaceQuery {
            to: Box::new(gold.clone()),
        }];
    }
    // A FROM clause binding the same table twice without aliases (a
    // degenerate self-join, typically a hallucinated prediction) cannot be
    // described by name-based table edits — fall back to a rewrite.
    let dup = |core: &SelectCore| {
        let mut names: Vec<String> = core
            .from
            .iter()
            .flat_map(|f| f.table_names())
            .map(|n| n.to_lowercase())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        names.len() != before
    };
    if (dup(&p.core) || dup(&g.core)) && from_tables(&p.core) != from_tables(&g.core) {
        return vec![EditOp::ReplaceQuery {
            to: Box::new(gold.clone()),
        }];
    }
    let mut edits = Vec::new();
    // Clause-level diffs are computed on the first core only; compound
    // queries with differing continuation cores fall back to a rewrite.
    diff_cores(&p.core, &g.core, &mut edits);
    for ((_, pc), (_, gc)) in p.compound.iter().zip(&g.compound) {
        if pc != gc {
            return vec![EditOp::ReplaceQuery {
                to: Box::new(gold.clone()),
            }];
        }
    }
    // ORDER BY / LIMIT.
    if p.order_by != g.order_by {
        edits.push(EditOp::SetOrderBy {
            from: p.order_by.clone(),
            to: g.order_by.clone(),
        });
    }
    if p.limit != g.limit {
        edits.push(EditOp::SetLimit {
            from: p.limit,
            to: g.limit,
        });
    }
    if edits.is_empty() {
        // Normalized forms differ but no clause-level delta was detected —
        // conservative fallback.
        edits.push(EditOp::ReplaceQuery {
            to: Box::new(gold.clone()),
        });
    }
    edits
}

/// Sorted lower-cased FROM table multiset of a core.
fn from_tables(core: &SelectCore) -> Vec<String> {
    let mut names: Vec<String> = core
        .from
        .iter()
        .flat_map(|f| f.table_names())
        .map(|n| n.to_lowercase())
        .collect();
    names.sort();
    names
}

fn diff_cores(p: &SelectCore, g: &SelectCore, edits: &mut Vec<EditOp>) {
    if p.distinct != g.distinct {
        edits.push(EditOp::SetDistinct {
            distinct: g.distinct,
        });
    }
    diff_select_items(p, g, edits);
    diff_from(p, g, edits);
    diff_where(p, g, edits);
    if exprs_differ(&p.group_by, &g.group_by) {
        edits.push(EditOp::SetGroupBy {
            from: p.group_by.clone(),
            to: g.group_by.clone(),
        });
    }
    if p.having != g.having {
        edits.push(EditOp::SetHaving {
            from: p.having.clone(),
            to: g.having.clone(),
        });
    }
}

fn exprs_differ(a: &[Expr], b: &[Expr]) -> bool {
    a != b
}

fn diff_select_items(p: &SelectCore, g: &SelectCore, edits: &mut Vec<EditOp>) {
    // Compare by expression text, ignoring aliases (aliases do not affect
    // execution results). Matching is positional-first: output column
    // *order* is part of the execution result, so a cross-position text
    // match must not be treated as agreement (it would silently reorder
    // the projection).
    let ptexts: Vec<String> = p.items.iter().map(item_text).collect();
    let gtexts: Vec<String> = g.items.iter().map(item_text).collect();
    let positional = ptexts
        .iter()
        .zip(gtexts.iter())
        .take_while(|(pt, gt)| pt == gt)
        .count();
    let unmatched_p: Vec<usize> = (positional..p.items.len()).collect();
    let unmatched_g: Vec<usize> = (positional..g.items.len()).collect();
    // Pair leftovers positionally as replacements; surplus becomes
    // add/remove.
    let pairs = unmatched_p.len().min(unmatched_g.len());
    for k in 0..pairs {
        let i = unmatched_p[k];
        let j = unmatched_g[k];
        if ptexts[i] == gtexts[j] {
            continue;
        }
        edits.push(EditOp::ReplaceSelectItem {
            index: i,
            from: p.items[i].clone(),
            to: g.items[j].clone(),
        });
    }
    for &i in unmatched_p.iter().skip(pairs) {
        edits.push(EditOp::RemoveSelectItem {
            index: i,
            item: p.items[i].clone(),
        });
    }
    for &j in unmatched_g.iter().skip(pairs) {
        edits.push(EditOp::AddSelectItem {
            item: g.items[j].clone(),
        });
    }
}

fn diff_from(p: &SelectCore, g: &SelectCore, edits: &mut Vec<EditOp>) {
    let (Some(pf), Some(gf)) = (&p.from, &g.from) else {
        if p.from != g.from {
            // FROM appearing/disappearing entirely is a restructuring; the
            // generator never produces it, but handle it defensively.
            if let Some(gf) = &g.from {
                edits.push(EditOp::ReplaceTable {
                    from: String::new(),
                    to: gf.base.binding_name().to_string(),
                });
            }
        }
        return;
    };
    let p_tables: Vec<&str> = pf.table_names();
    let g_tables: Vec<&str> = gf.table_names();
    // Tables in prediction but not gold / vice versa.
    let extra: Vec<&str> = p_tables
        .iter()
        .filter(|t| !g_tables.iter().any(|u| u.eq_ignore_ascii_case(t)))
        .copied()
        .collect();
    let missing: Vec<&str> = g_tables
        .iter()
        .filter(|t| !p_tables.iter().any(|u| u.eq_ignore_ascii_case(t)))
        .copied()
        .collect();
    let pairs = extra.len().min(missing.len());
    for k in 0..pairs {
        edits.push(EditOp::ReplaceTable {
            from: extra[k].to_string(),
            to: missing[k].to_string(),
        });
    }
    for t in extra.iter().skip(pairs) {
        if let Some(idx) = pf.joins.iter().position(|j| match &j.factor {
            TableFactor::Table { name, .. } => name.eq_ignore_ascii_case(t),
            TableFactor::Derived { .. } => false,
        }) {
            edits.push(EditOp::RemoveJoin {
                index: idx,
                join: pf.joins[idx].clone(),
            });
        }
    }
    for t in missing.iter().skip(pairs) {
        if let Some(join) = gf.joins.iter().find(|j| match &j.factor {
            TableFactor::Table { name, .. } => name.eq_ignore_ascii_case(t),
            TableFactor::Derived { .. } => false,
        }) {
            edits.push(EditOp::AddJoin { join: join.clone() });
        }
    }
}

fn diff_where(p: &SelectCore, g: &SelectCore, edits: &mut Vec<EditOp>) {
    let p_conj: Vec<Expr> = p
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    let g_conj: Vec<Expr> = g
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    let mut matched_g = vec![false; g_conj.len()];
    let mut unmatched_p: Vec<usize> = Vec::new();
    for (i, pc) in p_conj.iter().enumerate() {
        if let Some(j) = g_conj
            .iter()
            .enumerate()
            .position(|(j, gc)| !matched_g[j] && gc == pc)
        {
            matched_g[j] = true;
        } else {
            unmatched_p.push(i);
        }
    }
    let unmatched_g: Vec<usize> = (0..g_conj.len()).filter(|&j| !matched_g[j]).collect();
    // Pair by similarity: prefer predicates mentioning the same column.
    let mut remaining_g: Vec<usize> = unmatched_g.clone();
    let mut leftovers_p: Vec<usize> = Vec::new();
    for &i in &unmatched_p {
        let p_cols: Vec<String> = p_conj[i]
            .columns()
            .iter()
            .map(|c| c.column.clone())
            .collect();
        let best = remaining_g.iter().position(|&j| {
            g_conj[j]
                .columns()
                .iter()
                .any(|c| p_cols.iter().any(|pc| pc.eq_ignore_ascii_case(&c.column)))
        });
        match best {
            Some(pos) => {
                let j = remaining_g.remove(pos);
                edits.push(EditOp::ReplacePredicate {
                    index: i,
                    from: p_conj[i].clone(),
                    to: g_conj[j].clone(),
                });
            }
            None => leftovers_p.push(i),
        }
    }
    // Positional pairing for whatever is left.
    let pairs = leftovers_p.len().min(remaining_g.len());
    for k in 0..pairs {
        let i = leftovers_p[k];
        let j = remaining_g[k];
        edits.push(EditOp::ReplacePredicate {
            index: i,
            from: p_conj[i].clone(),
            to: g_conj[j].clone(),
        });
    }
    for &i in leftovers_p.iter().skip(pairs) {
        edits.push(EditOp::RemovePredicate {
            index: i,
            pred: p_conj[i].clone(),
        });
    }
    for &j in remaining_g.iter().skip(pairs) {
        edits.push(EditOp::AddPredicate {
            pred: g_conj[j].clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn diff(p: &str, g: &str) -> Vec<EditOp> {
        diff_queries(&parse_query(p).unwrap(), &parse_query(g).unwrap())
    }

    #[test]
    fn equal_queries_have_empty_diff() {
        assert!(diff("SELECT a FROM t", "SELECT a FROM t").is_empty());
        assert!(diff(
            "SELECT a FROM t WHERE x = 1 AND y = 2",
            "SELECT a FROM t WHERE y = 2 AND x = 1"
        )
        .is_empty());
    }

    #[test]
    fn detects_literal_edit() {
        let d = diff(
            "SELECT COUNT(*) FROM s WHERE y >= '2023-01-01'",
            "SELECT COUNT(*) FROM s WHERE y >= '2024-01-01'",
        );
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], EditOp::ReplacePredicate { .. }));
        assert_eq!(d[0].class(), OpClass::Edit);
    }

    #[test]
    fn detects_wrong_column() {
        let d = diff("SELECT name FROM singer", "SELECT song_name FROM singer");
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], EditOp::ReplaceSelectItem { .. }));
        assert_eq!(d[0].class(), OpClass::Edit);
    }

    #[test]
    fn detects_missing_order_by_as_add() {
        let d = diff("SELECT name FROM t", "SELECT name FROM t ORDER BY name ASC");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class(), OpClass::Add);
        assert!(matches!(d[0], EditOp::SetOrderBy { .. }));
    }

    #[test]
    fn detects_extra_select_item_as_remove() {
        let d = diff("SELECT name, descr FROM t", "SELECT name FROM t");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class(), OpClass::Remove);
    }

    #[test]
    fn detects_missing_predicate_as_add() {
        let d = diff("SELECT a FROM t", "SELECT a FROM t WHERE x = 1");
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], EditOp::AddPredicate { .. }));
        assert_eq!(d[0].class(), OpClass::Add);
    }

    #[test]
    fn detects_table_replacement() {
        let d = diff("SELECT a FROM t1", "SELECT a FROM t2");
        assert_eq!(d.len(), 1);
        assert!(matches!(&d[0], EditOp::ReplaceTable { from, to } if from == "t1" && to == "t2"));
    }

    #[test]
    fn detects_missing_join() {
        let d = diff(
            "SELECT a.x FROM a",
            "SELECT a.x FROM a JOIN b ON a.id = b.aid",
        );
        assert!(d.iter().any(|e| matches!(e, EditOp::AddJoin { .. })));
    }

    #[test]
    fn detects_extra_join() {
        let d = diff(
            "SELECT a.x FROM a JOIN b ON a.id = b.aid",
            "SELECT a.x FROM a",
        );
        assert!(d.iter().any(|e| matches!(e, EditOp::RemoveJoin { .. })));
    }

    #[test]
    fn predicate_pairing_prefers_same_column() {
        let d = diff(
            "SELECT a FROM t WHERE age > 20 AND city = 'NY'",
            "SELECT a FROM t WHERE age > 30 AND city = 'NY'",
        );
        assert_eq!(d.len(), 1);
        match &d[0] {
            EditOp::ReplacePredicate { from, to, .. } => {
                assert!(print_expr(from).contains("20"));
                assert!(print_expr(to).contains("30"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_errors_yield_multiple_edits() {
        let d = diff(
            "SELECT name FROM t WHERE y = 2023",
            "SELECT name FROM t WHERE y = 2024 ORDER BY name ASC",
        );
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn set_op_shape_change_is_rewrite() {
        let d = diff("SELECT a FROM t", "SELECT a FROM t UNION SELECT b FROM s");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class(), OpClass::Rewrite);
    }

    #[test]
    fn group_by_added() {
        let d = diff(
            "SELECT city, COUNT(*) FROM t GROUP BY city",
            "SELECT city, COUNT(*) FROM t GROUP BY city HAVING COUNT(*) > 2",
        );
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], EditOp::SetHaving { .. }));
        assert_eq!(d[0].class(), OpClass::Add);
    }

    #[test]
    fn limit_changed_is_edit() {
        let d = diff(
            "SELECT a FROM t ORDER BY a ASC LIMIT 5",
            "SELECT a FROM t ORDER BY a ASC LIMIT 1",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class(), OpClass::Edit);
    }

    #[test]
    fn distinct_toggle() {
        let d = diff("SELECT a FROM t", "SELECT DISTINCT a FROM t");
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], EditOp::SetDistinct { distinct: true }));
    }

    #[test]
    fn describe_is_informative() {
        let d = diff(
            "SELECT COUNT(*) FROM s WHERE y = 2023",
            "SELECT COUNT(*) FROM s WHERE y = 2024",
        );
        let text = d[0].describe();
        assert!(text.contains("2023") && text.contains("2024"), "{text}");
    }
}
