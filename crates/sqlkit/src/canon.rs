//! Canonical normal form and semantic fingerprints for queries.
//!
//! [`canonicalize`] rewrites a [`Query`] to a canonical representative of
//! its semantic-equivalence class using a bounded rewrite-to-fixpoint
//! loop on top of [`normalize_query`]. Every rewrite is result-preserving
//! under the engine's three-valued, total-ordered evaluation semantics:
//!
//! - constant folding and boolean simplification (via [`flow::fold_expr`],
//!   already applied by normalize, re-applied after structural rewrites);
//!   literal tautologies such as `1 = 1` fold to `TRUE` there, so no
//!   rewrite below needs to special-case them;
//! - `NOT` push-down: De Morgan over AND/OR, comparison complementation
//!   (`NOT (a < b)` → `a >= b`, sound because comparisons use a total
//!   value order and NULL operands yield NULL on both sides), flipping
//!   the `negated` field of IN/BETWEEN/LIKE/IS NULL/EXISTS, and
//!   double-negation elimination on boolean-shaped operands;
//! - flattening AND/OR chains into sorted operand sets (associative and
//!   commutative in Kleene logic; mirrors normalize's top-level conjunct
//!   sort);
//! - comparison orientation (literal on the right, otherwise smaller
//!   printed operand on the left via [`BinOp::flipped`]) and commutative
//!   operand ordering for `+`/`*` (wrapping integer and IEEE float
//!   addition/multiplication are commutative; the engine has no string
//!   concatenation, and operand evaluation is unconditional on both
//!   sides, so no error/short-circuit behaviour can differ);
//! - redundant-conjunct absorption: [`flow::analyze_conjunction`] reports
//!   `(redundant, implied_by)` pairs whose constraints share one key
//!   expression, so when the key is non-NULL implication holds and when
//!   it is NULL both conjuncts are NULL — dropping the redundant conjunct
//!   preserves the 3VL value of the conjunction row-by-row;
//! - guarded alias erasure: select-item aliases are dropped when no
//!   ORDER BY item resolves through them, and table aliases are renamed
//!   back to their table names when the query has no compound and no
//!   subqueries anywhere (so no derived scopes or correlation can observe
//!   the binding names) and the erased names stay pairwise distinct.
//!
//! [`canon_fingerprint`] hashes the canonical printed form with FNV-1a,
//! and [`canonically_equivalent`] subsumes both
//! [`structurally_equal`](crate::structurally_equal) and
//! [`provably_equivalent`](crate::provably_equivalent): canonical-form
//! equality extends structural equality (canonicalization starts from
//! normalize), and the prover is retained as a fallback for the
//! both-provably-empty case that no rewrite can witness.
//!
//! The oracle may miss equivalences; it must never invent them. The
//! soundness contract — equal fingerprints imply identical engine results
//! on any database — is fuzzed in `tests/property.rs`
//! (`canon_fingerprint_is_sound`).

use crate::ast::{BinOp, Expr, Query, SelectCore, SelectItem, TableFactor, UnaryOp};
use crate::flow;
use crate::hash::fnv64;
use crate::normalize::normalize_query;
use crate::printer::{print_expr, print_query};
use std::collections::{HashMap, HashSet};

/// Upper bound on rewrite passes. Each pass strictly shrinks a measure
/// (NOT depth, unsorted chains, redundant conjuncts, live aliases) so
/// real inputs converge in 2–3 passes; the bound is a safety net that
/// keeps the function total on adversarial inputs.
const MAX_PASSES: usize = 8;

/// Rewrite `query` to the canonical representative of its equivalence
/// class. Deterministic, total, and idempotent:
/// `canonicalize(&canonicalize(q)) == canonicalize(q)`.
pub fn canonicalize(query: &Query) -> Query {
    let mut q = normalize_query(query);
    for _ in 0..MAX_PASSES {
        let mut next = q.clone();
        canon_query(&mut next);
        erase_aliases(&mut next);
        // Re-normalize so folding opportunities exposed by the rewrites
        // (and the top-level conjunct sort) are reapplied before testing
        // for the fixpoint.
        next = normalize_query(&next);
        if next == q {
            break;
        }
        q = next;
    }
    q
}

/// Stable 64-bit semantic fingerprint: FNV-1a over the canonical printed
/// form. Equal fingerprints imply (modulo 64-bit collisions, which the
/// soundness proptest bounds empirically) identical engine results;
/// unequal fingerprints imply nothing.
pub fn canon_fingerprint(query: &Query) -> u64 {
    fnv64(print_query(&canonicalize(query)).as_bytes())
}

/// Semantic equivalence check subsuming `structurally_equal` and
/// `provably_equivalent`: canonical forms are compared first, and the
/// abstract-interpretation prover covers the both-provably-empty case
/// that rewriting cannot witness.
pub fn canonically_equivalent(a: &Query, b: &Query) -> bool {
    canonicalize(a) == canonicalize(b) || flow::provably_equivalent(a, b)
}

// ---------------------------------------------------------------------------
// Rewrite pass
// ---------------------------------------------------------------------------

fn canon_query(q: &mut Query) {
    for core in q.cores_mut() {
        canon_core(core);
    }
    for item in &mut q.order_by {
        canon_expr(&mut item.expr);
    }
}

fn canon_core(core: &mut SelectCore) {
    for item in &mut core.items {
        if let SelectItem::Expr { expr, .. } = item {
            canon_expr(expr);
        }
    }
    if let Some(from) = &mut core.from {
        canon_factor(&mut from.base);
        for join in &mut from.joins {
            canon_factor(&mut join.factor);
            if let Some(c) = &mut join.constraint {
                canon_expr(c);
            }
        }
    }
    if let Some(w) = &mut core.where_clause {
        canon_expr(w);
    }
    absorb_redundant(&mut core.where_clause);
    for g in &mut core.group_by {
        canon_expr(g);
    }
    if let Some(h) = &mut core.having {
        canon_expr(h);
    }
    absorb_redundant(&mut core.having);
}

fn canon_factor(factor: &mut TableFactor) {
    if let TableFactor::Derived { subquery, .. } = factor {
        canon_query(subquery);
    }
}

/// Canonicalize one expression tree bottom-up: children first (including
/// subquery bodies, which `Expr::walk_mut` deliberately skips), then a
/// local rewrite loop at this node. Structural rewrites (De Morgan)
/// produce children that need rewriting themselves, so the loop
/// re-descends after each hit; the NOT-measure strictly decreases, and a
/// node-count bound guards totality.
fn canon_expr(e: &mut Expr) {
    let mut fuel = 64usize;
    loop {
        canon_children(e);
        match rewrite_node(e) {
            Some(next) => *e = next,
            None => break,
        }
        fuel -= 1;
        if fuel == 0 {
            break;
        }
    }
}

fn canon_children(e: &mut Expr) {
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
        Expr::Unary { expr, .. } => canon_expr(expr),
        Expr::Binary { left, right, .. } => {
            canon_expr(left);
            canon_expr(right);
        }
        Expr::Call { args, .. } => {
            for a in args {
                canon_expr(a);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(op) = operand {
                canon_expr(op);
            }
            for (w, t) in branches {
                canon_expr(w);
                canon_expr(t);
            }
            if let Some(el) = else_branch {
                canon_expr(el);
            }
        }
        Expr::InList { expr, list, .. } => {
            canon_expr(expr);
            for v in list {
                canon_expr(v);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            canon_expr(expr);
            canon_query(subquery);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            canon_expr(expr);
            canon_expr(low);
            canon_expr(high);
        }
        Expr::Like { expr, pattern, .. } => {
            canon_expr(expr);
            canon_expr(pattern);
        }
        Expr::IsNull { expr, .. } => canon_expr(expr),
        Expr::Exists { subquery, .. } => canon_query(subquery),
        Expr::Subquery(subquery) => canon_query(subquery),
    }
}

/// One local rewrite step at `e`; `Some` means "changed, go again".
fn rewrite_node(e: &Expr) -> Option<Expr> {
    if let Some(folded) = flow::fold_expr(e) {
        return Some(folded);
    }
    match e {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => rewrite_not(expr),
        Expr::Binary { left, op, right } => match op {
            // Flatten + sort associative-commutative boolean chains.
            // Sound in Kleene logic; matches normalize's top-level
            // conjunct sort, extended to nested chains and disjunctions.
            BinOp::And | BinOp::Or => sort_chain(e, *op),
            // Orient comparisons: normalize already moves literals to
            // the right; for two non-literal operands pick the smaller
            // printed form as the left operand. `a < b` and `b > a`
            // evaluate identically under the engine's total value order.
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                if !matches!(**left, Expr::Literal(_))
                    && !matches!(**right, Expr::Literal(_))
                    && print_expr(right) < print_expr(left)
                {
                    Some(Expr::Binary {
                        left: right.clone(),
                        op: op.flipped(),
                        right: left.clone(),
                    })
                } else {
                    None
                }
            }
            // `+` and `*` are commutative for wrapping integers, IEEE
            // floats, and the NULL-propagating mixed cases; both
            // operands are always evaluated, so swapping is observation-
            // free. No re-association (float `+` is not associative).
            BinOp::Add | BinOp::Mul => {
                if print_expr(right) < print_expr(left) {
                    Some(Expr::Binary {
                        left: right.clone(),
                        op: *op,
                        right: left.clone(),
                    })
                } else {
                    None
                }
            }
            _ => None,
        },
        _ => None,
    }
}

/// Push `NOT inner` downward. Every arm preserves the three-valued
/// result: the engine's `NOT` maps TRUE→FALSE, FALSE→TRUE, NULL→NULL,
/// and each rewritten form computes exactly that complement.
fn rewrite_not(inner: &Expr) -> Option<Expr> {
    match inner {
        // NOT NOT x → x, only when x itself evaluates to TRUE/FALSE/NULL
        // (`NOT NOT 5` is `TRUE` via to_bool, not `5`).
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } if flow::is_boolean_shaped(expr) => Some((**expr).clone()),
        Expr::Binary { left, op, right } => match op {
            // De Morgan; associativity/commutativity of Kleene AND/OR
            // and the engine's symmetric short-circuit evaluation keep
            // both value and evaluation pattern identical.
            BinOp::And => Some(Expr::Binary {
                left: Box::new(not(left)),
                op: BinOp::Or,
                right: Box::new(not(right)),
            }),
            BinOp::Or => Some(Expr::Binary {
                left: Box::new(not(left)),
                op: BinOp::And,
                right: Box::new(not(right)),
            }),
            _ => op.negated().map(|neg| Expr::Binary {
                left: left.clone(),
                op: neg,
                right: right.clone(),
            }),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Some(Expr::InList {
            expr: expr.clone(),
            list: list.clone(),
            negated: !negated,
        }),
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Some(Expr::InSubquery {
            expr: expr.clone(),
            subquery: subquery.clone(),
            negated: !negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Some(Expr::Between {
            expr: expr.clone(),
            low: low.clone(),
            high: high.clone(),
            negated: !negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Some(Expr::Like {
            expr: expr.clone(),
            pattern: pattern.clone(),
            negated: !negated,
        }),
        Expr::IsNull { expr, negated } => Some(Expr::IsNull {
            expr: expr.clone(),
            negated: !negated,
        }),
        Expr::Exists { subquery, negated } => Some(Expr::Exists {
            subquery: subquery.clone(),
            negated: !negated,
        }),
        _ => None,
    }
}

fn not(e: &Expr) -> Expr {
    Expr::Unary {
        op: UnaryOp::Not,
        expr: Box::new(e.clone()),
    }
}

/// Flatten the maximal same-operator chain rooted at `e`, sort the
/// operands by printed form, and rebuild left-associatively. Returns
/// `None` when already in sorted left-associative form (the fixpoint).
fn sort_chain(e: &Expr, op: BinOp) -> Option<Expr> {
    let mut operands = Vec::new();
    flatten_chain(e, op, &mut operands);
    let mut sorted: Vec<Expr> = operands.iter().map(|x| (*x).clone()).collect();
    sorted.sort_by_key(print_expr);
    let rebuilt = sorted
        .into_iter()
        .reduce(|acc, next| Expr::Binary {
            left: Box::new(acc),
            op,
            right: Box::new(next),
        })
        .expect("chain has at least two operands");
    if rebuilt == *e {
        None
    } else {
        Some(rebuilt)
    }
}

fn flatten_chain<'a>(e: &'a Expr, op: BinOp, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            left,
            op: node_op,
            right,
        } if *node_op == op => {
            flatten_chain(left, op, out);
            flatten_chain(right, op, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------------
// Redundant-conjunct absorption
// ---------------------------------------------------------------------------

/// Drop conjuncts that `flow::analyze_conjunction` proves implied by a
/// surviving sibling. A `(redundant, implied_by)` pair shares one key
/// expression, so for any row the key is either non-NULL (implication
/// makes the redundant conjunct's truth a consequence of the survivor's)
/// or NULL (both conjuncts are NULL); either way `AND`-ing the redundant
/// conjunct cannot change the conjunction's 3VL value while the
/// implying conjunct remains. A conjunct is dropped only when its
/// implier has not itself been dropped — and if the implier is dropped
/// later by a further pair, implication on a shared key is transitive,
/// so the final survivor still covers it.
fn absorb_redundant(clause: &mut Option<Expr>) {
    let Some(e) = clause else { return };
    let conjs: Vec<Expr> = e.conjuncts().into_iter().cloned().collect();
    if conjs.len() < 2 {
        return;
    }
    let refs: Vec<&Expr> = conjs.iter().collect();
    let facts = flow::analyze_conjunction(&refs);
    if facts.redundant.is_empty() {
        return;
    }
    let mut dropped: HashSet<usize> = HashSet::new();
    for (redundant, implied_by) in &facts.redundant {
        if redundant != implied_by && !dropped.contains(implied_by) {
            dropped.insert(*redundant);
        }
    }
    if dropped.is_empty() {
        return;
    }
    let kept: Vec<Expr> = conjs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, c)| c)
        .collect();
    *clause = Expr::conjoin(kept);
}

// ---------------------------------------------------------------------------
// Alias erasure
// ---------------------------------------------------------------------------

/// Erase aliases that cannot be observed.
///
/// Select-item aliases only affect output labels — which no result
/// comparison reads — except when an ORDER BY item names the alias as a
/// bare column (the engine resolves select aliases there), so those are
/// kept. Table aliases are renamed back to their table names only when
/// the query is compound-free and subquery-free (no derived scope can
/// shadow and no correlated reference can escape) and the post-erasure
/// binding names stay pairwise distinct case-insensitively; qualified
/// column references are rewritten through the rename map in one
/// simultaneous pass.
fn erase_aliases(q: &mut Query) {
    if !q.compound.is_empty() {
        return;
    }
    erase_select_aliases(q);
    if query_has_subquery(q) {
        return;
    }
    erase_table_aliases(q);
}

fn erase_select_aliases(q: &mut Query) {
    let order_names: HashSet<String> = q
        .order_by
        .iter()
        .filter_map(|item| match &item.expr {
            Expr::Column(c) if c.table.is_none() => Some(c.column.clone()),
            _ => None,
        })
        .collect();
    for item in &mut q.core.items {
        if let SelectItem::Expr {
            alias: alias @ Some(_),
            ..
        } = item
        {
            let referenced = alias.as_deref().is_some_and(|a| order_names.contains(a));
            if !referenced {
                *alias = None;
            }
        }
    }
}

fn erase_table_aliases(q: &mut Query) {
    let Some(from) = &q.core.from else { return };
    // Build the simultaneous rename map alias → table name.
    let mut rename: HashMap<String, String> = HashMap::new();
    let mut final_names: Vec<String> = Vec::new();
    for factor in from.factors() {
        match factor {
            TableFactor::Table { name, alias } => {
                if let Some(a) = alias {
                    if a != name {
                        rename.insert(a.clone(), name.clone());
                    }
                }
                final_names.push(name.clone());
            }
            TableFactor::Derived { .. } => return,
        }
    }
    if rename.is_empty() {
        return;
    }
    // Post-erasure binding names must stay pairwise distinct (the engine
    // rejects duplicate bindings, and references would turn ambiguous).
    let mut seen: HashSet<String> = HashSet::new();
    for name in &final_names {
        if !seen.insert(name.to_lowercase()) {
            return;
        }
    }
    let rewrite = |e: &mut Expr| {
        e.walk_mut(&mut |node| {
            if let Expr::Column(c) = node {
                if let Some(t) = &c.table {
                    if let Some(real) = rename.get(t) {
                        c.table = Some(real.clone());
                    }
                }
            }
        });
    };
    let core = &mut q.core;
    for item in &mut core.items {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite(expr);
        }
    }
    if let Some(from) = &mut core.from {
        strip_table_alias(&mut from.base);
        for join in &mut from.joins {
            strip_table_alias(&mut join.factor);
            if let Some(c) = &mut join.constraint {
                rewrite(c);
            }
        }
    }
    if let Some(w) = &mut core.where_clause {
        rewrite(w);
    }
    for g in &mut core.group_by {
        rewrite(g);
    }
    if let Some(h) = &mut core.having {
        rewrite(h);
    }
    for item in &mut q.order_by {
        rewrite(&mut item.expr);
    }
    // Qualified wildcards (`a.*`) also resolve through binding names.
    for item in &mut core.items {
        if let SelectItem::QualifiedWildcard(t) = item {
            if let Some(real) = rename.get(t) {
                *t = real.clone();
            }
        }
    }
}

fn strip_table_alias(factor: &mut TableFactor) {
    if let TableFactor::Table { alias, .. } = factor {
        *alias = None;
    }
}

fn query_has_subquery(q: &Query) -> bool {
    q.cores().any(core_has_subquery) || q.order_by.iter().any(|i| expr_has_subquery(&i.expr))
}

fn core_has_subquery(core: &SelectCore) -> bool {
    let in_items = core.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr_has_subquery(expr),
        _ => false,
    });
    let in_from = core.from.as_ref().is_some_and(|from| {
        from.factors()
            .any(|f| matches!(f, TableFactor::Derived { .. }))
            || from
                .joins
                .iter()
                .any(|j| j.constraint.as_ref().is_some_and(expr_has_subquery))
    });
    in_items
        || in_from
        || core.where_clause.as_ref().is_some_and(expr_has_subquery)
        || core.group_by.iter().any(expr_has_subquery)
        || core.having.as_ref().is_some_and(expr_has_subquery)
}

fn expr_has_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |node| {
        if matches!(
            node,
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Subquery(_)
        ) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn canon_sql(sql: &str) -> String {
        print_query(&canonicalize(&parse_query(sql).unwrap()))
    }

    fn equivalent(a: &str, b: &str) -> bool {
        canonically_equivalent(&parse_query(a).unwrap(), &parse_query(b).unwrap())
    }

    #[test]
    fn de_morgan_and_comparison_negation() {
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT (a < 1 AND b = 2)",
            "SELECT a FROM t WHERE a >= 1 OR b != 2",
        ));
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT (a = 1 OR b > 2)",
            "SELECT a FROM t WHERE a != 1 AND b <= 2",
        ));
    }

    #[test]
    fn double_negation_needs_boolean_shape() {
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT NOT (a = 1)",
            "SELECT a FROM t WHERE a = 1",
        ));
        // NOT NOT a is to_bool(a), not a — must NOT collapse to `a`.
        let q = parse_query("SELECT a FROM t WHERE NOT NOT a").unwrap();
        let c = canonicalize(&q);
        assert!(print_query(&c).contains("NOT"), "kept: {}", print_query(&c));
    }

    #[test]
    fn negated_field_flips() {
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT (a IN (1, 2))",
            "SELECT a FROM t WHERE a NOT IN (2, 1)",
        ));
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT (a IS NULL)",
            "SELECT a FROM t WHERE a IS NOT NULL",
        ));
        assert!(equivalent(
            "SELECT a FROM t WHERE NOT (a BETWEEN 1 AND 3)",
            "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 3",
        ));
    }

    #[test]
    fn disjunct_and_operand_ordering() {
        assert!(equivalent(
            "SELECT a FROM t WHERE b = 2 OR a = 1",
            "SELECT a FROM t WHERE a = 1 OR b = 2",
        ));
        assert!(equivalent("SELECT b + a FROM t", "SELECT a + b FROM t",));
        assert!(equivalent("SELECT b * a FROM t", "SELECT a * b FROM t",));
        // Subtraction is not commutative.
        assert!(!equivalent("SELECT b - a FROM t", "SELECT a - b FROM t"));
    }

    #[test]
    fn comparison_orientation_between_columns() {
        assert!(equivalent(
            "SELECT a FROM t WHERE b > a",
            "SELECT a FROM t WHERE a < b",
        ));
        assert!(equivalent(
            "SELECT a FROM t WHERE b >= a",
            "SELECT a FROM t WHERE a <= b",
        ));
    }

    #[test]
    fn redundant_conjunct_absorption() {
        assert!(equivalent(
            "SELECT a FROM t WHERE a > 1 AND a > 0",
            "SELECT a FROM t WHERE a > 1",
        ));
        assert!(equivalent(
            "SELECT a FROM t WHERE a = 5 AND a > 0 AND a < 10",
            "SELECT a FROM t WHERE a = 5",
        ));
        // Non-redundant conjuncts survive.
        assert!(!equivalent(
            "SELECT a FROM t WHERE a > 1 AND b > 0",
            "SELECT a FROM t WHERE a > 1",
        ));
    }

    #[test]
    fn alias_erasure() {
        assert!(equivalent(
            "SELECT x.a FROM t AS x WHERE x.b = 1",
            "SELECT t.a FROM t WHERE t.b = 1",
        ));
        assert!(equivalent("SELECT a AS z FROM t", "SELECT a FROM t",));
        // Alias referenced by ORDER BY must survive.
        let c = canon_sql("SELECT a AS z FROM t ORDER BY z");
        assert!(c.contains("AS z"), "kept alias: {c}");
        // Self-join aliases: renaming would collide, so both stay.
        let c = canon_sql("SELECT x.a FROM t AS x JOIN t AS y ON x.a = y.a");
        assert!(c.contains("AS"), "kept aliases: {c}");
    }

    #[test]
    fn alias_erasure_skips_subqueries() {
        // Correlated scopes could be captured by renames; guarded out.
        let sql = "SELECT x.a FROM t AS x WHERE EXISTS (SELECT 1 FROM s WHERE s.b = x.a)";
        let c = canon_sql(sql);
        assert!(c.contains("AS x"), "kept alias: {c}");
    }

    #[test]
    fn swapped_alias_pair_renames_simultaneously() {
        // FROM a AS b JOIN b AS c: the map {b→a, c→b} must apply in one
        // pass so the original `b.x` (alias of table a) does not get
        // re-renamed through the second entry.
        assert!(equivalent(
            "SELECT b.x, c.y FROM a AS b JOIN c ON b.x = c.y",
            "SELECT a.x, c.y FROM a JOIN c ON a.x = c.y",
        ));
    }

    #[test]
    fn fingerprint_matches_equivalence() {
        let a = parse_query("SELECT a FROM t WHERE NOT (a < 1 AND b = 2)").unwrap();
        let b = parse_query("SELECT a FROM t WHERE b != 2 OR a >= 1").unwrap();
        assert_eq!(canon_fingerprint(&a), canon_fingerprint(&b));
        let c = parse_query("SELECT a FROM t WHERE b != 2 OR a > 1").unwrap();
        assert_ne!(canon_fingerprint(&a), canon_fingerprint(&c));
    }

    #[test]
    fn canonicalize_is_idempotent_on_samples() {
        for sql in [
            "SELECT a FROM t WHERE NOT (a < 1 AND NOT (b = 2 OR c IS NULL))",
            "SELECT x.a AS q FROM t AS x WHERE x.b > 1 AND x.b > 0 ORDER BY q",
            "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 AND COUNT(*) > 0",
            "SELECT a FROM t WHERE a IN (3, 1, 2) OR NOT (b >= 4)",
        ] {
            let q = parse_query(sql).unwrap();
            let once = canonicalize(&q);
            let twice = canonicalize(&once);
            assert_eq!(once, twice, "not idempotent for {sql}");
        }
    }

    #[test]
    fn subsumes_structural_and_provable_equivalence() {
        let pairs = [
            ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE 1 = a"),
            (
                "SELECT a FROM t WHERE a > 1 AND a < 0",
                "SELECT a FROM t WHERE FALSE",
            ),
        ];
        for (x, y) in pairs {
            let qx = parse_query(x).unwrap();
            let qy = parse_query(y).unwrap();
            if crate::normalize::structurally_equal(&qx, &qy) || flow::provably_equivalent(&qx, &qy)
            {
                assert!(canonically_equivalent(&qx, &qy), "{x} vs {y}");
            }
        }
    }
}
