//! Abstract interpretation over [`Query`] ASTs.
//!
//! A small dataflow pass computing per-core facts that downstream layers
//! consume without touching the engine:
//!
//! - a **constant domain** mirroring the engine's literal semantics
//!   exactly ([`literal_cmp`], [`const_eval_binary`]) — the basis of the
//!   constant folding [`crate::normalize`] applies;
//! - an **interval domain** over predicate conjuncts
//!   ([`analyze_conjunction`]) proving contradictions, tautologies, and
//!   redundancies — the basis of the `contradictory-predicate` family of
//!   lints in [`crate::check`];
//! - **cardinality bounds** ([`query_bounds`], [`provably_empty`])
//!   through WHERE/HAVING/set-ops/LIMIT;
//! - **column provenance and nullability** ([`output_facts`]) traced
//!   through derived tables and set operations;
//! - a conservative **equivalence oracle** ([`provably_equivalent`]) the
//!   evaluation runner uses to skip engine executions.
//!
//! # Soundness contract
//!
//! Every rule here under-approximates the engine: a fact is only reported
//! when it holds for *all* databases. Comparisons mirror the engine's
//! total value order (NULLs excluded — any comparison with NULL is never
//! satisfied), arithmetic mirrors its wrapping/NULL-propagating rules,
//! and anything not provable is `Unknown`. The oracle-soundness property
//! test in the workspace root (`tests/property.rs`) executes
//! provably-equivalent pairs against generated databases and asserts
//! their results match.

use crate::ast::*;
use crate::normalize::normalize_query;
use crate::printer::print_expr;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Constant domain: the engine's literal semantics, reimplemented
// ---------------------------------------------------------------------------

/// Class rank of a literal in the engine's total value order:
/// null < bool < numeric < text.
fn class(l: &Literal) -> u8 {
    match l {
        Literal::Null => 0,
        Literal::Bool(_) => 1,
        Literal::Number(_) | Literal::Float(_) => 2,
        Literal::String(_) => 3,
    }
}

fn as_f64(l: &Literal) -> Option<f64> {
    match l {
        Literal::Number(n) => Some(*n as f64),
        Literal::Float(x) => Some(*x),
        _ => None,
    }
}

/// Three-valued comparison of two literals, exactly as the engine
/// compares values: `None` when either side is NULL, otherwise the total
/// order (class rank, then value; Int/Float compare numerically; NaN
/// sorts after everything and equals itself).
pub fn literal_cmp(a: &Literal, b: &Literal) -> Option<Ordering> {
    if matches!(a, Literal::Null) || matches!(b, Literal::Null) {
        return None;
    }
    Some(match (a, b) {
        (Literal::Number(x), Literal::Number(y)) => x.cmp(y),
        (Literal::String(x), Literal::String(y)) => x.cmp(y),
        (Literal::Bool(x), Literal::Bool(y)) => x.cmp(y),
        _ if class(a) == 2 && class(b) == 2 => {
            let x = as_f64(a).expect("numeric");
            let y = as_f64(b).expect("numeric");
            x.partial_cmp(&y).unwrap_or(match (x.is_nan(), y.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                _ => Ordering::Less,
            })
        }
        _ => class(a).cmp(&class(b)),
    })
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => false,
    }
}

/// Evaluates `a op b` over two literals exactly as the engine would at
/// runtime, or `None` when folding would be unsound or unrepresentable:
///
/// - comparisons with a NULL operand (the engine yields NULL);
/// - division/modulo by zero (NULL at runtime);
/// - float results that are not finite or ≥ 1e15 in magnitude (the
///   printer's integral-float form `{x:.1}` only covers that range, so
///   larger results would not survive a print/parse round-trip);
/// - arithmetic over non-numeric operands (NULL at runtime).
///
/// Integer arithmetic wraps, like the engine's.
pub fn const_eval_binary(op: BinOp, a: &Literal, b: &Literal) -> Option<Literal> {
    use BinOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            literal_cmp(a, b).map(|ord| Literal::Bool(cmp_matches(op, ord)))
        }
        Add | Sub | Mul | Div | Mod => match (a, b) {
            (Literal::Number(x), Literal::Number(y)) => match op {
                Add => Some(Literal::Number(x.wrapping_add(*y))),
                Sub => Some(Literal::Number(x.wrapping_sub(*y))),
                Mul => Some(Literal::Number(x.wrapping_mul(*y))),
                Div if *y != 0 => Some(Literal::Number(x.wrapping_div(*y))),
                Mod if *y != 0 => Some(Literal::Number(x.wrapping_rem(*y))),
                _ => None,
            },
            _ => {
                let x = as_f64(a)?;
                let y = as_f64(b)?;
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div | Mod if y == 0.0 => return None,
                    Div => x / y,
                    Mod => x % y,
                    _ => unreachable!("arith ops only"),
                };
                (r.is_finite() && r.abs() < 1e15).then_some(Literal::Float(r))
            }
        },
        And | Or => None,
    }
}

/// Whether `e` always evaluates to a boolean or NULL (so `e AND TRUE`
/// evaluates to exactly `e`, and the AND/OR identity folds are
/// value-preserving, not merely truthiness-preserving).
pub fn is_boolean_shaped(e: &Expr) -> bool {
    match e {
        Expr::Literal(Literal::Bool(_)) => true,
        Expr::Binary { op, .. } => op.is_comparison() || matches!(op, BinOp::And | BinOp::Or),
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => true,
        Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Between { .. }
        | Expr::Like { .. }
        | Expr::IsNull { .. }
        | Expr::Exists { .. } => true,
        _ => false,
    }
}

/// One local constant-folding step (children are assumed already folded);
/// `None` when nothing applies. Used bottom-up by
/// [`crate::normalize::normalize_query`]; every rule mirrors the engine:
///
/// - literal ⊕ literal via [`const_eval_binary`];
/// - `NOT TRUE` / `NOT FALSE`;
/// - 3VL-safe AND/OR absorption: `FALSE AND x → FALSE` and
///   `TRUE OR x → TRUE` (the engine short-circuits left-to-right, so `x`
///   is never evaluated), and the identities `TRUE AND x → x`,
///   `FALSE OR x → x`, `x AND TRUE → x`, `x OR FALSE → x` for
///   boolean-shaped `x` (see [`is_boolean_shaped`]).
///
/// NULL-literal operands never fold: `NULL AND x` can be FALSE or NULL
/// depending on `x`, and `x = NULL` folding is left to the predicate
/// domain (it is *never satisfied*, which is a lint, not a rewrite).
pub fn fold_expr(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match &**expr {
            Expr::Literal(Literal::Bool(b)) => Some(Expr::Literal(Literal::Bool(!b))),
            _ => None,
        },
        Expr::Binary { left, op, right } => {
            if let (Expr::Literal(a), Expr::Literal(b)) = (&**left, &**right) {
                if let Some(folded) = const_eval_binary(*op, a, b) {
                    return Some(Expr::Literal(folded));
                }
            }
            let lit = |e: &Expr| match e {
                Expr::Literal(Literal::Bool(b)) => Some(*b),
                _ => None,
            };
            match op {
                BinOp::And => match (lit(left), lit(right)) {
                    (Some(false), _) => Some(Expr::Literal(Literal::Bool(false))),
                    (Some(true), _) if is_boolean_shaped(right) => Some((**right).clone()),
                    (_, Some(true)) if is_boolean_shaped(left) => Some((**left).clone()),
                    _ => None,
                },
                BinOp::Or => match (lit(left), lit(right)) {
                    (Some(true), _) => Some(Expr::Literal(Literal::Bool(true))),
                    (Some(false), _) if is_boolean_shaped(right) => Some((**right).clone()),
                    (_, Some(false)) if is_boolean_shaped(left) => Some((**left).clone()),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Predicate domain: per-conjunct truth + interval reasoning
// ---------------------------------------------------------------------------

/// What the constant domain proves about one conjunct viewed as a filter
/// (a conjunct "holds" on a row when it evaluates truthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctTruth {
    /// No row can satisfy it.
    NeverTrue,
    /// Every row satisfies it.
    AlwaysTrue,
    /// Every row whose operands are non-NULL satisfies it.
    TautologyUnlessNull,
    /// Nothing provable.
    Unknown,
}

/// Whether an expression's value depends only on the current row/group
/// (no subqueries), so evaluating it twice yields the same value.
fn deterministic(e: &Expr) -> bool {
    let mut pure = true;
    e.walk(&mut |node| {
        if matches!(
            node,
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Subquery(_)
        ) {
            pure = false;
        }
    });
    pure
}

/// Classifies a single conjunct. Sound w.r.t. engine evaluation:
/// `NeverTrue` means *no* row is kept, `AlwaysTrue` means *every* row is
/// kept, `TautologyUnlessNull` keeps every row with non-NULL operands.
pub fn conjunct_truth(e: &Expr) -> ConjunctTruth {
    match e {
        // The engine's `to_bool`: text is falsy, NULL is never truthy.
        Expr::Literal(l) => match l {
            Literal::Bool(true) => ConjunctTruth::AlwaysTrue,
            Literal::Number(n) if *n != 0 => ConjunctTruth::AlwaysTrue,
            Literal::Float(x) if *x != 0.0 => ConjunctTruth::AlwaysTrue,
            _ => ConjunctTruth::NeverTrue,
        },
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Any comparison against a NULL literal yields NULL: never true.
            if matches!(**left, Expr::Literal(Literal::Null))
                || matches!(**right, Expr::Literal(Literal::Null))
            {
                return ConjunctTruth::NeverTrue;
            }
            // `x op x` for deterministic x: the two sides evaluate to the
            // same value, so the comparison is Equal (or NULL).
            if deterministic(e) && print_expr(left) == print_expr(right) {
                return match op {
                    BinOp::Eq | BinOp::LtEq | BinOp::GtEq => ConjunctTruth::TautologyUnlessNull,
                    BinOp::NotEq | BinOp::Lt | BinOp::Gt => ConjunctTruth::NeverTrue,
                    _ => ConjunctTruth::Unknown,
                };
            }
            ConjunctTruth::Unknown
        }
        Expr::Between {
            low, high, negated, ..
        } => {
            // Literal bounds with low > high: the range is empty for every
            // non-NULL operand (NULL operands yield NULL either way).
            if let (Expr::Literal(lo), Expr::Literal(hi)) = (&**low, &**high) {
                if literal_cmp(lo, hi) == Some(Ordering::Greater) {
                    return if *negated {
                        ConjunctTruth::TautologyUnlessNull
                    } else {
                        ConjunctTruth::NeverTrue
                    };
                }
            }
            ConjunctTruth::Unknown
        }
        _ => ConjunctTruth::Unknown,
    }
}

/// A per-key constraint extracted from a conjunct: `key op literal` or
/// `key IN (literals)`. Keys are rendered left-hand expressions, so
/// `LENGTH(name) > 5` and aggregate HAVING constraints participate too.
#[derive(Debug, Clone, PartialEq)]
enum Constraint {
    /// `key <op> lit` with a non-NULL literal and a comparison operator.
    Cmp(BinOp, Literal),
    /// `key IN (…)` over a class-homogeneous non-NULL literal list (the
    /// engine's IN uses `sql_eq`, which goes unknown across classes —
    /// homogeneity keeps the membership test exact).
    In(Vec<Literal>),
}

fn key_constraint(e: &Expr) -> Option<(String, Constraint)> {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => match &**right {
            Expr::Literal(l) if !matches!(l, Literal::Null) && deterministic(left) => {
                Some((print_expr(left), Constraint::Cmp(*op, l.clone())))
            }
            _ => None,
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } if deterministic(expr) => {
            let mut lits = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    Expr::Literal(l) if !matches!(l, Literal::Null) => lits.push(l.clone()),
                    _ => return None,
                }
            }
            let first_class = class(lits.first()?);
            if lits.iter().any(|l| class(l) != first_class) {
                return None;
            }
            Some((print_expr(expr), Constraint::In(lits)))
        }
        _ => None,
    }
}

/// Whether the non-NULL value `v` satisfies `c` under engine semantics.
fn satisfies(v: &Literal, c: &Constraint) -> bool {
    match c {
        Constraint::Cmp(op, a) => literal_cmp(v, a).is_some_and(|ord| cmp_matches(*op, ord)),
        // IN membership uses `sql_eq`: unknown across class boundaries
        // (never satisfied), exact within a class.
        Constraint::In(lits) => lits
            .iter()
            .any(|m| class(v) == class(m) && literal_cmp(v, m) == Some(Ordering::Equal)),
    }
}

/// Interval view of a comparison constraint over the literal total order;
/// `None` for `!=` (a punctured line, handled separately).
struct Iv<'a> {
    lo: Option<(&'a Literal, bool)>, // (bound, strict)
    hi: Option<(&'a Literal, bool)>,
}

fn iv(op: BinOp, a: &Literal) -> Option<Iv<'_>> {
    match op {
        BinOp::Eq => Some(Iv {
            lo: Some((a, false)),
            hi: Some((a, false)),
        }),
        BinOp::Lt => Some(Iv {
            lo: None,
            hi: Some((a, true)),
        }),
        BinOp::LtEq => Some(Iv {
            lo: None,
            hi: Some((a, false)),
        }),
        BinOp::Gt => Some(Iv {
            lo: Some((a, true)),
            hi: None,
        }),
        BinOp::GtEq => Some(Iv {
            lo: Some((a, false)),
            hi: None,
        }),
        _ => None,
    }
}

/// Whether the intersection of two intervals is empty.
fn iv_disjoint(a: &Iv<'_>, b: &Iv<'_>) -> bool {
    let lo = match (a.lo, b.lo) {
        (Some((la, sa)), Some((lb, sb))) => match literal_cmp(la, lb).expect("non-null bounds") {
            Ordering::Greater => Some((la, sa)),
            Ordering::Less => Some((lb, sb)),
            Ordering::Equal => Some((la, sa || sb)),
        },
        (x, None) | (None, x) => x,
    };
    let hi = match (a.hi, b.hi) {
        (Some((ha, sa)), Some((hb, sb))) => match literal_cmp(ha, hb).expect("non-null bounds") {
            Ordering::Less => Some((ha, sa)),
            Ordering::Greater => Some((hb, sb)),
            Ordering::Equal => Some((ha, sa || sb)),
        },
        (x, None) | (None, x) => x,
    };
    match (lo, hi) {
        (Some((l, ls)), Some((h, hs))) => match literal_cmp(l, h).expect("non-null bounds") {
            Ordering::Greater => true,
            Ordering::Equal => ls || hs,
            Ordering::Less => false,
        },
        _ => false,
    }
}

/// Whether interval `a` is contained in interval `b`.
fn iv_subset(a: &Iv<'_>, b: &Iv<'_>) -> bool {
    let lo_ok = match (a.lo, b.lo) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some((la, sa)), Some((lb, sb))) => match literal_cmp(la, lb).expect("non-null bounds") {
            Ordering::Greater => true,
            Ordering::Equal => sa || !sb,
            Ordering::Less => false,
        },
    };
    let hi_ok = match (a.hi, b.hi) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some((ha, sa)), Some((hb, sb))) => match literal_cmp(ha, hb).expect("non-null bounds") {
            Ordering::Less => true,
            Ordering::Equal => sa || !sb,
            Ordering::Greater => false,
        },
    };
    lo_ok && hi_ok
}

/// `c1 ∧ c2` is unsatisfiable by any non-NULL value.
fn pair_unsat(c1: &Constraint, c2: &Constraint) -> bool {
    match (c1, c2) {
        (Constraint::In(s), other) => !s.iter().any(|m| satisfies(m, other)),
        (other, Constraint::In(s)) => !s.iter().any(|m| satisfies(m, other)),
        (Constraint::Cmp(BinOp::NotEq, a), Constraint::Cmp(BinOp::Eq, b))
        | (Constraint::Cmp(BinOp::Eq, a), Constraint::Cmp(BinOp::NotEq, b)) => {
            literal_cmp(a, b) == Some(Ordering::Equal)
        }
        (Constraint::Cmp(op1, a), Constraint::Cmp(op2, b)) => {
            match (iv(*op1, a), iv(*op2, b)) {
                (Some(i1), Some(i2)) => iv_disjoint(&i1, &i2),
                _ => false, // a != constraint never empties an interval pairwise
            }
        }
    }
}

/// Every non-NULL value satisfying `c1` also satisfies `c2`.
fn implies(c1: &Constraint, c2: &Constraint) -> bool {
    if c1 == c2 {
        return true;
    }
    match (c1, c2) {
        (Constraint::Cmp(BinOp::Eq, a), other) => satisfies(a, other),
        (Constraint::In(s), other) => s.iter().all(|m| satisfies(m, other)),
        (Constraint::Cmp(op1, a), Constraint::Cmp(BinOp::NotEq, b)) => {
            // An interval that excludes b implies `!= b`.
            match iv(*op1, a) {
                Some(i1) => iv_disjoint(
                    &i1,
                    &Iv {
                        lo: Some((b, false)),
                        hi: Some((b, false)),
                    },
                ),
                None => false,
            }
        }
        (Constraint::Cmp(op1, a), Constraint::Cmp(op2, b)) => match (iv(*op1, a), iv(*op2, b)) {
            (Some(i1), Some(i2)) => iv_subset(&i1, &i2),
            _ => false,
        },
        (Constraint::Cmp(..), Constraint::In(_)) => false,
    }
}

/// Findings of the constant/interval domain over one conjunction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredicateFacts {
    /// Conjunct indices no row can satisfy.
    pub never_true: Vec<usize>,
    /// Conjunct indices satisfied by every row (or every row with
    /// non-NULL operands — the lint message carries the caveat).
    pub tautological: Vec<usize>,
    /// Pairs `(i, j)`, `i < j`: the two conjuncts cannot hold together.
    pub contradictions: Vec<(usize, usize)>,
    /// Pairs `(redundant, implied_by)`: the first conjunct filters
    /// nothing the second does not already filter.
    pub redundant: Vec<(usize, usize)>,
}

impl PredicateFacts {
    /// Whether the whole conjunction is provably unsatisfiable.
    pub fn unsatisfiable(&self) -> bool {
        !self.never_true.is_empty() || !self.contradictions.is_empty()
    }

    /// Whether nothing was provable at all.
    pub fn is_empty(&self) -> bool {
        self.never_true.is_empty()
            && self.tautological.is_empty()
            && self.contradictions.is_empty()
            && self.redundant.is_empty()
    }
}

/// Runs the predicate domain over the conjuncts of one filter.
///
/// Per-conjunct truth (constants, NULL comparisons, `x op x`, empty
/// BETWEEN ranges) feeds `never_true`/`tautological`; pairwise interval
/// reasoning over `key op literal` / `key IN (…)` constraints on the same
/// key feeds `contradictions` and `redundant`.
pub fn analyze_conjunction(conjuncts: &[&Expr]) -> PredicateFacts {
    let mut facts = PredicateFacts::default();
    for (i, c) in conjuncts.iter().enumerate() {
        match conjunct_truth(c) {
            ConjunctTruth::NeverTrue => facts.never_true.push(i),
            ConjunctTruth::AlwaysTrue | ConjunctTruth::TautologyUnlessNull => {
                facts.tautological.push(i);
            }
            ConjunctTruth::Unknown => {}
        }
    }
    let keyed: Vec<(usize, String, Constraint)> = conjuncts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| key_constraint(c).map(|(k, con)| (i, k, con)))
        .collect();
    for (a, (i, ka, ca)) in keyed.iter().enumerate() {
        for (j, kb, cb) in keyed.iter().skip(a + 1) {
            if ka != kb {
                continue;
            }
            if pair_unsat(ca, cb) {
                facts.contradictions.push((*i, *j));
            } else if implies(ca, cb) {
                facts.redundant.push((*j, *i));
            } else if implies(cb, ca) {
                facts.redundant.push((*i, *j));
            }
        }
    }
    facts
}

// ---------------------------------------------------------------------------
// Cardinality bounds
// ---------------------------------------------------------------------------

/// Lower/upper bounds on the number of rows a query can return;
/// `max == None` means unbounded. `max == Some(0)` is "provably empty".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardBounds {
    /// Guaranteed minimum row count.
    pub min: u64,
    /// Guaranteed maximum row count, when one is provable.
    pub max: Option<u64>,
}

impl CardBounds {
    fn unbounded() -> CardBounds {
        CardBounds { min: 0, max: None }
    }

    fn exactly(n: u64) -> CardBounds {
        CardBounds {
            min: n,
            max: Some(n),
        }
    }
}

fn filter_unsat(filter: Option<&Expr>) -> bool {
    filter.is_some_and(|f| analyze_conjunction(&f.conjuncts()).unsatisfiable())
}

/// Row-count bounds for one select core (before trailing ORDER BY/LIMIT).
pub fn core_bounds(core: &SelectCore) -> CardBounds {
    let aggregated = !core.group_by.is_empty()
        || core
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || core.having.as_ref().is_some_and(Expr::contains_aggregate);
    let where_unsat = filter_unsat(core.where_clause.as_ref());
    let having_unsat = filter_unsat(core.having.as_ref());

    if core.from.is_none() {
        // `SELECT 1`: one constant row; be conservative about filters.
        return if core.where_clause.is_some() || core.having.is_some() {
            CardBounds {
                min: 0,
                max: Some(1),
            }
        } else {
            CardBounds::exactly(1)
        };
    }
    if aggregated && core.group_by.is_empty() {
        // Single-group aggregation yields exactly one row even over an
        // empty input (`SELECT COUNT(*) … WHERE FALSE` is one row of 0);
        // only HAVING can drop it.
        return if having_unsat {
            CardBounds::exactly(0)
        } else if core.having.is_some() {
            CardBounds {
                min: 0,
                max: Some(1),
            }
        } else {
            CardBounds::exactly(1)
        };
    }
    // Row mode ignores HAVING entirely; grouped mode filters groups by it.
    let unsat = where_unsat || (!core.group_by.is_empty() && having_unsat);
    if unsat {
        CardBounds::exactly(0)
    } else {
        CardBounds::unbounded()
    }
}

/// Row-count bounds for a whole query (cores, set operations, LIMIT).
pub fn query_bounds(q: &Query) -> CardBounds {
    let mut b = core_bounds(&q.core);
    for (op, core) in &q.compound {
        let c = core_bounds(core);
        let sum = |x: Option<u64>, y: Option<u64>| Some(x?.saturating_add(y?));
        b = match op {
            SetOp::UnionAll => CardBounds {
                min: b.min.saturating_add(c.min),
                max: sum(b.max, c.max),
            },
            SetOp::Union => CardBounds {
                min: u64::from(b.min > 0 || c.min > 0),
                max: sum(b.max, c.max),
            },
            SetOp::Intersect => CardBounds {
                min: 0,
                max: match (b.max, c.max) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, None) | (None, x) => x,
                },
            },
            SetOp::Except => CardBounds { min: 0, max: b.max },
        };
    }
    if let Some(limit) = &q.limit {
        b.max = Some(b.max.map_or(limit.count, |m| m.min(limit.count)));
        b.min = b.min.min(limit.count);
        if limit.offset.unwrap_or(0) > 0 {
            b.min = 0;
        }
    }
    b
}

/// Whether the query provably returns zero rows on every database.
pub fn provably_empty(q: &Query) -> bool {
    query_bounds(q).max == Some(0)
}

// ---------------------------------------------------------------------------
// Column provenance + nullability
// ---------------------------------------------------------------------------

/// Where one output column of a query comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// Traces to a base-table column reference (through derived tables
    /// where the projection is by-name traceable).
    Column(ColumnRef),
    /// A computed expression (arithmetic, aggregate, function, …).
    Computed,
    /// A `*`-style item whose expansion needs a schema.
    Wildcard,
}

/// Per-output-column facts: provenance and provable non-nullability.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputFacts {
    /// One entry per SELECT item of the first core.
    pub provenance: Vec<Provenance>,
    /// `true` where the column provably never carries NULL (for every
    /// core of a compound query).
    pub never_null: Vec<bool>,
}

/// Whether an expression provably never evaluates to NULL.
fn never_null(e: &Expr) -> bool {
    match e {
        Expr::Literal(l) => !matches!(l, Literal::Null),
        // COUNT is the one aggregate that is total; IS NULL and EXISTS
        // always produce a boolean.
        Expr::Call {
            func: Func::Count, ..
        } => true,
        Expr::IsNull { .. } | Expr::Exists { .. } => true,
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => never_null(expr),
        _ => false,
    }
}

fn item_provenance(item: &SelectItem, core: &SelectCore) -> Provenance {
    match item {
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => Provenance::Wildcard,
        SelectItem::Expr { expr, .. } => match expr {
            Expr::Column(c) => {
                // Trace through a derived table when the qualifier names
                // one and the inner projection exposes the column by name.
                if let (Some(q), Some(from)) = (&c.table, &core.from) {
                    for f in from.factors() {
                        if let TableFactor::Derived { subquery, alias } = f {
                            if alias.eq_ignore_ascii_case(q) {
                                return derived_provenance(subquery, &c.column);
                            }
                        }
                    }
                }
                Provenance::Column(c.clone())
            }
            _ => Provenance::Computed,
        },
    }
}

fn derived_provenance(sub: &Query, name: &str) -> Provenance {
    for item in &sub.core.items {
        if let SelectItem::Expr { expr, alias } = item {
            let exposed = alias.clone().or_else(|| match expr {
                Expr::Column(c) => Some(c.column.clone()),
                _ => None,
            });
            if exposed.is_some_and(|n| n.eq_ignore_ascii_case(name)) {
                return match expr {
                    Expr::Column(c) => Provenance::Column(c.clone()),
                    _ => Provenance::Computed,
                };
            }
        }
    }
    Provenance::Computed
}

/// Computes per-output provenance and nullability. `None` when the cores
/// disagree on arity or contain wildcard items (arity needs a schema).
pub fn output_facts(q: &Query) -> Option<OutputFacts> {
    let arity = output_arity(q)?;
    let provenance: Vec<Provenance> = q
        .core
        .items
        .iter()
        .map(|i| item_provenance(i, &q.core))
        .collect();
    let mut nn = vec![true; arity];
    for core in q.cores() {
        for (slot, item) in core.items.iter().enumerate() {
            let ok = matches!(item, SelectItem::Expr { expr, .. } if never_null(expr));
            nn[slot] &= ok;
        }
    }
    Some(OutputFacts {
        provenance,
        never_null: nn,
    })
}

/// The number of output columns, when derivable without a schema: every
/// core must be wildcard-free and agree on arity.
pub fn output_arity(q: &Query) -> Option<usize> {
    let mut arity = None;
    for core in q.cores() {
        if core
            .items
            .iter()
            .any(|i| !matches!(i, SelectItem::Expr { .. }))
        {
            return None;
        }
        match arity {
            None => arity = Some(core.items.len()),
            Some(a) if a == core.items.len() => {}
            Some(_) => return None,
        }
    }
    arity
}

/// The output arity of `q` when its normalized form is provably empty:
/// two queries with equal `Some` values are [`provably_equivalent`]
/// through its both-empty path.
pub fn empty_arity(q: &Query) -> Option<usize> {
    let normalized = normalize_query(q);
    output_arity(&normalized).filter(|_| provably_empty(&normalized))
}

// ---------------------------------------------------------------------------
// Equivalence oracle
// ---------------------------------------------------------------------------

/// Conservative equivalence: `true` only when the two queries provably
/// produce identical results on **every** database.
///
/// Two paths prove it:
/// 1. the queries normalize (with constant folding) to the same AST —
///    execution-identical by construction;
/// 2. both are [`provably_empty`] with equal, known output arity — two
///    empty result sets of the same width compare equal under the
///    execution-match metric (column labels are ignored).
///
/// The runner additionally restricts path 2 to analyzer-clean queries so
/// a provably-empty-but-erroring candidate can never borrow a clean
/// query's verdict. Soundness is property-tested against the engine in
/// `tests/property.rs`.
pub fn provably_equivalent(a: &Query, b: &Query) -> bool {
    let na = normalize_query(a);
    let nb = normalize_query(b);
    if na == nb {
        return true;
    }
    match (output_arity(&na), output_arity(&nb)) {
        (Some(x), Some(y)) if x == y => provably_empty(&na) && provably_empty(&nb),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn q(sql: &str) -> Query {
        parse_query(sql).unwrap()
    }

    fn where_facts(sql: &str) -> PredicateFacts {
        let query = q(sql);
        let w = query.core.where_clause.as_ref().unwrap();
        analyze_conjunction(&w.conjuncts())
    }

    #[test]
    fn literal_cmp_mirrors_engine_total_order() {
        use Literal::*;
        assert_eq!(literal_cmp(&Number(1), &Number(2)), Some(Ordering::Less));
        assert_eq!(literal_cmp(&Number(2), &Float(2.0)), Some(Ordering::Equal));
        // Class ranking: bool < numeric < text.
        assert_eq!(literal_cmp(&Bool(true), &Number(0)), Some(Ordering::Less));
        assert_eq!(
            literal_cmp(&Number(999), &String("a".into())),
            Some(Ordering::Less)
        );
        assert_eq!(literal_cmp(&Null, &Number(1)), None);
        assert_eq!(literal_cmp(&Number(1), &Null), None);
    }

    #[test]
    fn const_eval_folds_safely() {
        use BinOp::*;
        use Literal::*;
        assert_eq!(
            const_eval_binary(Add, &Number(2), &Number(3)),
            Some(Number(5))
        );
        assert_eq!(
            const_eval_binary(Mul, &Number(i64::MAX), &Number(2)),
            Some(Number(i64::MAX.wrapping_mul(2)))
        );
        assert_eq!(const_eval_binary(Div, &Number(7), &Number(0)), None);
        assert_eq!(const_eval_binary(Div, &Float(1.0), &Float(0.0)), None);
        assert_eq!(
            const_eval_binary(Eq, &Number(1), &Number(1)),
            Some(Bool(true))
        );
        assert_eq!(
            const_eval_binary(Lt, &Number(5), &String("a".into())),
            Some(Bool(true))
        );
        assert_eq!(const_eval_binary(Eq, &Null, &Number(1)), None);
        assert_eq!(
            const_eval_binary(Add, &String("a".into()), &Number(1)),
            None
        );
    }

    #[test]
    fn conjunct_truth_classification() {
        let w = |sql: &str| {
            let query = q(&format!("SELECT a FROM t WHERE {sql}"));
            let e = query.core.where_clause.clone().unwrap();
            conjunct_truth(&e)
        };
        assert_eq!(w("TRUE"), ConjunctTruth::AlwaysTrue);
        assert_eq!(w("FALSE"), ConjunctTruth::NeverTrue);
        assert_eq!(w("'yes'"), ConjunctTruth::NeverTrue); // text is falsy
        assert_eq!(w("a = NULL"), ConjunctTruth::NeverTrue);
        assert_eq!(w("a != a"), ConjunctTruth::NeverTrue);
        assert_eq!(w("a <= a"), ConjunctTruth::TautologyUnlessNull);
        assert_eq!(w("a BETWEEN 5 AND 1"), ConjunctTruth::NeverTrue);
        assert_eq!(
            w("a NOT BETWEEN 5 AND 1"),
            ConjunctTruth::TautologyUnlessNull
        );
        assert_eq!(w("a > 1"), ConjunctTruth::Unknown);
    }

    #[test]
    fn interval_domain_finds_contradictions() {
        let f = where_facts("SELECT a FROM t WHERE a > 5 AND a < 3");
        assert_eq!(f.contradictions, vec![(0, 1)]);
        assert!(f.unsatisfiable());

        let f = where_facts("SELECT a FROM t WHERE a = 1 AND a = 2");
        assert!(f.unsatisfiable());

        let f = where_facts("SELECT a FROM t WHERE a = 1 AND a != 1");
        assert!(f.unsatisfiable());

        let f = where_facts("SELECT a FROM t WHERE a IN (1, 2) AND a > 7");
        assert!(f.unsatisfiable());

        // Satisfiable combinations stay silent.
        let f = where_facts("SELECT a FROM t WHERE a > 3 AND a < 5");
        assert!(!f.unsatisfiable());
        // Different keys never interact.
        let f = where_facts("SELECT a FROM t WHERE a > 5 AND b < 3");
        assert!(f.is_empty());
    }

    #[test]
    fn interval_domain_finds_redundancy() {
        let f = where_facts("SELECT a FROM t WHERE a > 5 AND a > 3");
        // `a > 3` (whichever index it lands on after parsing) is implied.
        assert_eq!(f.redundant.len(), 1);
        let (red, by) = f.redundant[0];
        assert_ne!(red, by);

        let f = where_facts("SELECT a FROM t WHERE a = 5 AND a >= 5");
        assert_eq!(f.redundant.len(), 1);

        let f = where_facts("SELECT a FROM t WHERE a > 5 AND a != 3");
        assert_eq!(f.redundant.len(), 1);

        let f = where_facts("SELECT a FROM t WHERE a = 1 AND a = 1");
        assert_eq!(f.redundant.len(), 1); // duplicate conjunct

        let f = where_facts("SELECT a FROM t WHERE a > 3 AND a < 5");
        assert!(f.redundant.is_empty());
    }

    #[test]
    fn bounds_and_provable_emptiness() {
        assert!(provably_empty(&q("SELECT a FROM t WHERE a > 5 AND a < 3")));
        assert!(provably_empty(&q("SELECT a FROM t WHERE FALSE")));
        assert!(provably_empty(&q("SELECT a FROM t LIMIT 0")));
        assert!(provably_empty(&q(
            "SELECT a FROM t WHERE FALSE INTERSECT SELECT b FROM s"
        )));
        // Single-group aggregation returns one row even over no input.
        assert!(!provably_empty(&q("SELECT COUNT(*) FROM t WHERE FALSE")));
        assert_eq!(
            query_bounds(&q("SELECT COUNT(*) FROM t WHERE FALSE")),
            CardBounds::exactly(1)
        );
        // …unless grouped.
        assert!(provably_empty(&q(
            "SELECT COUNT(*) FROM t WHERE FALSE GROUP BY a"
        )));
        // Row mode ignores HAVING (not parseable without GROUP BY, so
        // constructed directly).
        let mut row_having = q("SELECT a FROM t");
        row_having.core.having = Some(Expr::Literal(Literal::Bool(false)));
        assert!(!provably_empty(&row_having));
        assert!(!provably_empty(&q("SELECT a FROM t WHERE a > 3")));
        // UNION of empty and unknown is unknown.
        assert!(!provably_empty(&q(
            "SELECT a FROM t WHERE FALSE UNION SELECT b FROM s"
        )));
    }

    #[test]
    fn output_facts_trace_provenance_and_nullability() {
        let facts = output_facts(&q(
            "SELECT name, COUNT(*), age + 1 FROM singer GROUP BY name",
        ))
        .unwrap();
        assert_eq!(
            facts.provenance[0],
            Provenance::Column(ColumnRef::bare("name"))
        );
        assert_eq!(facts.provenance[1], Provenance::Computed);
        assert_eq!(facts.provenance[2], Provenance::Computed);
        assert_eq!(facts.never_null, vec![false, true, false]);

        // Through a derived table, by name.
        let facts = output_facts(&q(
            "SELECT d.x FROM (SELECT a AS x FROM t) AS d WHERE d.x > 1",
        ))
        .unwrap();
        assert_eq!(
            facts.provenance[0],
            Provenance::Column(ColumnRef::bare("a"))
        );

        assert!(output_facts(&q("SELECT * FROM t")).is_none());
        assert_eq!(output_arity(&q("SELECT a, b FROM t")), Some(2));
        assert_eq!(output_arity(&q("SELECT * FROM t")), None);
    }

    #[test]
    fn equivalence_oracle_paths() {
        // Path 1: normalization equality (conjunct order).
        assert!(provably_equivalent(
            &q("SELECT a FROM t WHERE a = 1 AND b = 2"),
            &q("SELECT a FROM t WHERE b = 2 AND a = 1")
        ));
        // Path 1 via folding: `1 = 1` folds away differences.
        assert!(provably_equivalent(
            &q("SELECT a FROM t WHERE a > 1 + 1"),
            &q("SELECT a FROM t WHERE a > 2")
        ));
        // Path 2: both provably empty with equal arity.
        assert!(provably_equivalent(
            &q("SELECT a FROM t WHERE a > 5 AND a < 3"),
            &q("SELECT b FROM s WHERE FALSE")
        ));
        // Different arity: not equivalent even when both are empty.
        assert!(!provably_equivalent(
            &q("SELECT a FROM t WHERE FALSE"),
            &q("SELECT a, b FROM t WHERE FALSE")
        ));
        // Genuinely different queries.
        assert!(!provably_equivalent(
            &q("SELECT a FROM t WHERE a = 1"),
            &q("SELECT a FROM t WHERE a = 2")
        ));
    }

    #[test]
    fn fold_expr_rules() {
        let e = |sql: &str| {
            q(&format!("SELECT a FROM t WHERE {sql}"))
                .core
                .where_clause
                .unwrap()
        };
        // FALSE AND x short-circuits regardless of x's shape.
        assert_eq!(
            fold_expr(&e("FALSE AND a + 1")),
            Some(Expr::Literal(Literal::Bool(false)))
        );
        assert_eq!(
            fold_expr(&e("TRUE OR a + 1")),
            Some(Expr::Literal(Literal::Bool(true)))
        );
        // Identity folds require boolean shape: `a + 1` keeps its value.
        assert_eq!(fold_expr(&e("a + 1 AND TRUE")), None);
        assert_eq!(fold_expr(&e("a > 1 AND TRUE")), Some(e("a > 1")));
        assert_eq!(fold_expr(&e("a > 1 OR FALSE")), Some(e("a > 1")));
        // NULL operands never fold.
        assert_eq!(fold_expr(&e("NULL AND a > 1")), None);
        assert_eq!(
            fold_expr(&e("NOT TRUE")),
            Some(Expr::Literal(Literal::Bool(false)))
        );
        assert_eq!(fold_expr(&e("NOT NULL")), None);
    }
}
