//! Abstract syntax tree for the SQL subset FISQL manipulates.
//!
//! The subset is the SELECT-statement language of the SPIDER benchmark:
//! joins, aggregation with GROUP BY/HAVING, ORDER BY/LIMIT, nested
//! subqueries (scalar, `IN`, `EXISTS`), set operations, and the usual
//! scalar expression zoo. FISQL's feedback edits are *clause-level*
//! operations over this tree (see [`crate::edit`]), and highlight
//! grounding maps rendered-text spans back to [`ClausePath`]s.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a column, optionally qualified by a table name or alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Qualifier (`t` in `t.c`), if present.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{}.{}", t, self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Integer literal.
    Number(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal.
    String(String),
    /// Boolean literal.
    Bool(bool),
    /// SQL NULL.
    Null,
}

/// Consistent with `PartialEq`: equal literals hash alike (`0.0` and
/// `-0.0` are equal, so floats hash through a zero-normalized bit
/// pattern), which makes whole queries hashable for duplicate detection.
impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Literal::Number(n) => n.hash(state),
            Literal::Float(x) => (if *x == 0.0 { 0.0f64 } else { *x }).to_bits().hash(state),
            Literal::String(s) => s.hash(state),
            Literal::Bool(b) => b.hash(state),
            Literal::Null => {}
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(n) => write!(f, "{n}"),
            Literal::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// Binary operators, both scalar and logical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// Whether the operator compares values (yields a boolean).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Binding power for the printer/parser; higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`), identity
    /// for everything else.
    pub fn flipped(&self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => *other,
        }
    }

    /// The logical complement of a comparison (`NOT (a < b)` ⇔ `a >= b`
    /// under the engine's total value order, with NULL operands yielding
    /// NULL on both sides). `None` for non-comparison operators, which
    /// have no operator-level complement.
    pub fn negated(&self) -> Option<BinOp> {
        match self {
            BinOp::Eq => Some(BinOp::NotEq),
            BinOp::NotEq => Some(BinOp::Eq),
            BinOp::Lt => Some(BinOp::GtEq),
            BinOp::LtEq => Some(BinOp::Gt),
            BinOp::Gt => Some(BinOp::LtEq),
            BinOp::GtEq => Some(BinOp::Lt),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Built-in functions, including the five SQL aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Func {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Abs,
    Lower,
    Upper,
    Length,
    Round,
    Coalesce,
    Substr,
}

impl Func {
    /// Whether the function is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        matches!(
            self,
            Func::Count | Func::Sum | Func::Avg | Func::Min | Func::Max
        )
    }

    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Func::Count => "COUNT",
            Func::Sum => "SUM",
            Func::Avg => "AVG",
            Func::Min => "MIN",
            Func::Max => "MAX",
            Func::Abs => "ABS",
            Func::Lower => "LOWER",
            Func::Upper => "UPPER",
            Func::Length => "LENGTH",
            Func::Round => "ROUND",
            Func::Coalesce => "COALESCE",
            Func::Substr => "SUBSTR",
        }
    }

    /// Case-insensitive lookup.
    pub fn from_name(name: &str) -> Option<Func> {
        let f = match name.to_ascii_uppercase().as_str() {
            "COUNT" => Func::Count,
            "SUM" => Func::Sum,
            "AVG" => Func::Avg,
            "MIN" => Func::Min,
            "MAX" => Func::Max,
            "ABS" => Func::Abs,
            "LOWER" => Func::Lower,
            "UPPER" => Func::Upper,
            "LENGTH" => Func::Length,
            "ROUND" => Func::Round,
            "COALESCE" => Func::Coalesce,
            "SUBSTR" | "SUBSTRING" => Func::Substr,
            _ => return None,
        };
        Some(f)
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A scalar (or boolean) expression.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// `*` — valid only as `COUNT(*)` argument.
    Wildcard,
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call, possibly aggregate, possibly `DISTINCT`-qualified.
    Call {
        /// Which function.
        func: Func,
        /// `COUNT(DISTINCT x)` style.
        distinct: bool,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        /// Optional `CASE <operand> WHEN ...` operand.
        operand: Option<Box<Expr>>,
        /// `(when, then)` arms.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` arm.
        else_branch: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (e1, e2, ...)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// Subquery producing candidates.
        subquery: Box<Query>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`
    Exists {
        /// Subquery tested for row existence.
        subquery: Box<Query>,
        /// `NOT EXISTS`.
        negated: bool,
    },
    /// Scalar subquery.
    Subquery(Box<Query>),
}

impl Expr {
    /// Shorthand for a column reference expression.
    pub fn col(column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(column))
    }

    /// Shorthand for a qualified column reference expression.
    pub fn qcol(table: impl Into<String>, column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, column))
    }

    /// Shorthand for an integer literal.
    pub fn num(n: i64) -> Expr {
        Expr::Literal(Literal::Number(n))
    }

    /// Shorthand for a string literal.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(s.into()))
    }

    /// Shorthand for a binary expression.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self AND other` (the identity when chaining onto an empty WHERE is
    /// handled by callers).
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(self, BinOp::Or, other)
    }

    /// An aggregate or scalar function call.
    pub fn call(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Call {
            func,
            distinct: false,
            args,
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Expr {
        Expr::call(Func::Count, vec![Expr::Wildcard])
    }

    /// Whether this expression (transitively, not descending into
    /// subqueries) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Call { func, .. } = e {
                if func.is_aggregate() {
                    found = true;
                }
            }
        });
        found
    }

    /// Pre-order walk over this expression's own nodes. Does **not**
    /// descend into subqueries (their expressions belong to an inner
    /// scope).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Exists { .. } => {}
            Expr::Subquery(_) => {}
        }
    }

    /// Mutable pre-order walk, same traversal contract as [`Expr::walk`].
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.walk_mut(f),
            Expr::Binary { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    op.walk_mut(f);
                }
                for (w, t) in branches {
                    w.walk_mut(f);
                    t.walk_mut(f);
                }
                if let Some(e) = else_branch {
                    e.walk_mut(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                for e in list {
                    e.walk_mut(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk_mut(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk_mut(f);
                low.walk_mut(f);
                high.walk_mut(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk_mut(f);
                pattern.walk_mut(f);
            }
            Expr::IsNull { expr, .. } => expr.walk_mut(f),
            Expr::Exists { .. } => {}
            Expr::Subquery(_) => {}
        }
    }

    /// Collects every column referenced in this expression (own scope).
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut refs = Vec::new();
        self.collect_columns(&mut refs);
        refs
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    op.collect_columns(out);
                }
                for (w, t) in branches {
                    w.collect_columns(out);
                    t.collect_columns(out);
                }
                if let Some(e) = else_branch {
                    e.collect_columns(out);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::InSubquery { expr, .. } => expr.collect_columns(out),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::Exists { .. } | Expr::Subquery(_) => {}
        }
    }

    /// Splits a conjunction tree into its conjuncts: `a AND b AND c` →
    /// `[a, b, c]`. A non-AND expression yields itself.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn go<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } = e
            {
                go(left, out);
                go(right, out);
            } else {
                out.push(e);
            }
        }
        go(self, &mut out);
        out
    }

    /// Rebuilds a conjunction from parts; `None` when `parts` is empty.
    pub fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
        let mut iter = parts.into_iter();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, e| acc.and(e)))
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression, optionally aliased.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if present.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Unaliased expression item.
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }

    /// Aliased expression item.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

/// A table or derived table in FROM.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum TableFactor {
    /// A named table, optionally aliased.
    Table {
        /// Table name.
        name: String,
        /// `AS alias`, if present.
        alias: Option<String>,
    },
    /// A parenthesised subquery with a mandatory alias.
    Derived {
        /// The subquery.
        subquery: Box<Query>,
        /// Alias naming the derived relation.
        alias: String,
    },
}

impl TableFactor {
    /// A named table without alias.
    pub fn table(name: impl Into<String>) -> Self {
        TableFactor::Table {
            name: name.into(),
            alias: None,
        }
    }

    /// A named table with alias.
    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableFactor::Table {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name this factor binds in the enclosing scope (alias if set,
    /// otherwise the table name; derived tables always use their alias).
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Cross,
}

impl JoinKind {
    /// SQL spelling of the join keyword sequence.
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// One join step in a FROM clause.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Join {
    /// Join flavour.
    pub kind: JoinKind,
    /// The joined factor.
    pub factor: TableFactor,
    /// `ON` condition; `None` for CROSS JOIN.
    pub constraint: Option<Expr>,
}

/// The FROM clause: a base factor plus a chain of joins.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct FromClause {
    /// Leftmost relation.
    pub base: TableFactor,
    /// Joins applied left-to-right.
    pub joins: Vec<Join>,
}

impl FromClause {
    /// Single-table FROM.
    pub fn table(name: impl Into<String>) -> Self {
        FromClause {
            base: TableFactor::table(name),
            joins: Vec::new(),
        }
    }

    /// All factors, base first.
    pub fn factors(&self) -> impl Iterator<Item = &TableFactor> {
        std::iter::once(&self.base).chain(self.joins.iter().map(|j| &j.factor))
    }

    /// Names of every table mentioned (ignores derived tables).
    pub fn table_names(&self) -> Vec<&str> {
        self.factors()
            .filter_map(|f| match f {
                TableFactor::Table { name, .. } => Some(name.as_str()),
                TableFactor::Derived { .. } => None,
            })
            .collect()
    }
}

/// An ORDER BY element.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct OrderItem {
    /// Sort key.
    pub expr: Expr,
    /// Descending if true; ascending otherwise.
    pub desc: bool,
}

impl OrderItem {
    /// Ascending sort on `expr`.
    pub fn asc(expr: Expr) -> Self {
        OrderItem { expr, desc: false }
    }

    /// Descending sort on `expr`.
    pub fn desc(expr: Expr) -> Self {
        OrderItem { expr, desc: true }
    }
}

/// LIMIT/OFFSET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LimitClause {
    /// Maximum number of rows.
    pub count: u64,
    /// Rows to skip first.
    pub offset: Option<u64>,
}

impl LimitClause {
    /// `LIMIT count`.
    pub fn new(count: u64) -> Self {
        LimitClause {
            count,
            offset: None,
        }
    }
}

/// Set operators combining SELECT cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SetOp {
    Union,
    UnionAll,
    Intersect,
    Except,
}

impl SetOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SetOp::Union => "UNION",
            SetOp::UnionAll => "UNION ALL",
            SetOp::Intersect => "INTERSECT",
            SetOp::Except => "EXCEPT",
        }
    }
}

/// The core of a SELECT (no set ops, no trailing ORDER BY/LIMIT).
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct SelectCore {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause. `None` permits `SELECT 1` style constant queries.
    pub from: Option<FromClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

impl SelectCore {
    /// `SELECT <items> FROM <table>` skeleton.
    pub fn new(items: Vec<SelectItem>, from: FromClause) -> Self {
        SelectCore {
            distinct: false,
            items,
            from: Some(from),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// A complete query: a select core, an optional chain of set operations,
/// and trailing ORDER BY/LIMIT applying to the whole compound.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// First (or only) SELECT core.
    pub core: SelectCore,
    /// `(op, core)` continuation chain, applied left-associatively.
    pub compound: Vec<(SetOp, SelectCore)>,
    /// Final ordering.
    pub order_by: Vec<OrderItem>,
    /// Final LIMIT/OFFSET.
    pub limit: Option<LimitClause>,
}

impl Query {
    /// A query from a bare core.
    pub fn from_core(core: SelectCore) -> Self {
        Query {
            core,
            compound: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// `SELECT <items> FROM <table>` convenience.
    pub fn select(items: Vec<SelectItem>, from: FromClause) -> Self {
        Query::from_core(SelectCore::new(items, from))
    }

    /// Every core in order (the base plus compound continuations).
    pub fn cores(&self) -> impl Iterator<Item = &SelectCore> {
        std::iter::once(&self.core).chain(self.compound.iter().map(|(_, c)| c))
    }

    /// Mutable access to every core.
    pub fn cores_mut(&mut self) -> impl Iterator<Item = &mut SelectCore> {
        std::iter::once(&mut self.core).chain(self.compound.iter_mut().map(|(_, c)| c))
    }

    /// Whether this is a plain single-core query.
    pub fn is_simple(&self) -> bool {
        self.compound.is_empty()
    }

    /// Names of all tables referenced anywhere in the query, including
    /// subqueries, deduplicated, in first-appearance order.
    pub fn all_table_names(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        fn add(out: &mut Vec<String>, name: &str) {
            if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                out.push(name.to_string());
            }
        }
        fn walk_query(q: &Query, out: &mut Vec<String>) {
            for core in q.cores() {
                if let Some(from) = &core.from {
                    for f in from.factors() {
                        match f {
                            TableFactor::Table { name, .. } => add(out, name),
                            TableFactor::Derived { subquery, .. } => walk_query(subquery, out),
                        }
                    }
                }
                let mut exprs: Vec<&Expr> = Vec::new();
                for item in &core.items {
                    if let SelectItem::Expr { expr, .. } = item {
                        exprs.push(expr);
                    }
                }
                if let Some(w) = &core.where_clause {
                    exprs.push(w);
                }
                exprs.extend(core.group_by.iter());
                if let Some(h) = &core.having {
                    exprs.push(h);
                }
                for e in exprs {
                    e.walk(&mut |node| match node {
                        Expr::InSubquery { subquery, .. }
                        | Expr::Exists { subquery, .. }
                        | Expr::Subquery(subquery) => walk_query(subquery, out),
                        _ => {}
                    });
                }
            }
        }
        walk_query(self, &mut out);
        out
    }
}

/// A path identifying one clause of a query, used for highlight grounding
/// and clause-level edits. Paths address the *outer* query; `Subquery`
/// recursion is represented by nesting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClausePath {
    /// The i-th item of the SELECT list.
    SelectItem(usize),
    /// The whole SELECT list.
    SelectList,
    /// The FROM clause including joins.
    From,
    /// The i-th join of the FROM clause.
    Join(usize),
    /// The WHERE clause.
    Where,
    /// The i-th conjunct of the WHERE clause.
    WherePredicate(usize),
    /// The GROUP BY clause.
    GroupBy,
    /// The HAVING clause.
    Having,
    /// The ORDER BY clause.
    OrderBy,
    /// The LIMIT clause.
    Limit,
    /// The i-th compound (set-op) arm.
    Compound(usize),
}

impl fmt::Display for ClausePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClausePath::SelectItem(i) => write!(f, "select-item[{i}]"),
            ClausePath::SelectList => f.write_str("select-list"),
            ClausePath::From => f.write_str("from"),
            ClausePath::Join(i) => write!(f, "join[{i}]"),
            ClausePath::Where => f.write_str("where"),
            ClausePath::WherePredicate(i) => write!(f, "where-predicate[{i}]"),
            ClausePath::GroupBy => f.write_str("group-by"),
            ClausePath::Having => f.write_str("having"),
            ClausePath::OrderBy => f.write_str("order-by"),
            ClausePath::Limit => f.write_str("limit"),
            ClausePath::Compound(i) => write!(f, "compound[{i}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        let mut core = SelectCore::new(
            vec![
                SelectItem::expr(Expr::col("name")),
                SelectItem::expr(Expr::count_star()),
            ],
            FromClause::table("singer"),
        );
        core.where_clause = Some(Expr::binary(Expr::col("age"), BinOp::Gt, Expr::num(30)));
        core.group_by = vec![Expr::col("name")];
        let mut q = Query::from_core(core);
        q.order_by.push(OrderItem::desc(Expr::count_star()));
        q.limit = Some(LimitClause::new(5));
        q
    }

    #[test]
    fn conjuncts_flatten_and_tree() {
        let e = Expr::col("a")
            .and(Expr::col("b"))
            .and(Expr::col("c").or(Expr::col("d")));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &Expr::col("a"));
        assert!(matches!(parts[2], Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn conjoin_roundtrips() {
        let parts = vec![Expr::col("a"), Expr::col("b"), Expr::col("c")];
        let joined = Expr::conjoin(parts).unwrap();
        assert_eq!(joined.conjuncts().len(), 3);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let e = Expr::binary(
            Expr::call(Func::Sum, vec![Expr::col("x")]),
            BinOp::Gt,
            Expr::num(10),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn aggregate_detection_skips_subqueries() {
        // An aggregate inside a subquery belongs to the inner scope.
        let sub = Query::select(
            vec![SelectItem::expr(Expr::count_star())],
            FromClause::table("t"),
        );
        let e = Expr::InSubquery {
            expr: Box::new(Expr::col("x")),
            subquery: Box::new(sub),
            negated: false,
        };
        assert!(!e.contains_aggregate());
    }

    #[test]
    fn columns_collects_in_order() {
        let e = Expr::binary(Expr::col("a"), BinOp::Add, Expr::qcol("t", "b"));
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].column, "a");
        assert_eq!(cols[1].table.as_deref(), Some("t"));
    }

    #[test]
    fn all_table_names_descends_into_subqueries() {
        let sub = Query::select(
            vec![SelectItem::expr(Expr::col("id"))],
            FromClause::table("concert"),
        );
        let mut q = sample_query();
        q.core.where_clause = Some(Expr::InSubquery {
            expr: Box::new(Expr::col("id")),
            subquery: Box::new(sub),
            negated: false,
        });
        let names = q.all_table_names();
        assert_eq!(names, vec!["singer".to_string(), "concert".to_string()]);
    }

    #[test]
    fn binding_name_prefers_alias() {
        assert_eq!(TableFactor::table("t").binding_name(), "t");
        assert_eq!(TableFactor::aliased("t", "x").binding_name(), "x");
    }

    #[test]
    fn binop_flip_is_involutive_for_comparisons() {
        for op in [BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq, BinOp::Eq] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn literal_display_escapes_quotes() {
        assert_eq!(Literal::String("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }
}
