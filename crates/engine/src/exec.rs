//! Volcano-style query execution over in-memory tables.
//!
//! The executor follows SQLite's (lenient) semantics where they matter to
//! the SPIDER benchmark, because the official SPIDER evaluator executes
//! against SQLite:
//!
//! - integer division truncates; division by zero yields NULL;
//! - `LIKE` is ASCII case-insensitive;
//! - scalar subqueries take the first row, NULL when empty;
//! - bare columns in aggregate queries evaluate on the group's first row;
//! - comparisons across type classes follow the type ordering
//!   (bool < numeric < text) instead of raising.
//!
//! Joins use a hash-join fast path when the ON constraint is a simple
//! column equality, falling back to a nested loop otherwise.

use crate::error::{ExecError, ExecResult};
use crate::result::{row_key, ResultSet};
use crate::schema::Database;
use crate::value::Value;
use fisql_sqlkit::ast::*;
use fisql_sqlkit::print_expr;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

/// Resource budgets for one statement execution — guard rails for
/// running model-generated SQL inside an interactive loop, where a
/// runaway cross join must not hang the session.
///
/// `max_rows` bounds the rows *materialized* across the whole statement
/// (scans, join outputs, projections — intermediate results count, not
/// just the final result). `deadline_ms` bounds wall-clock time, checked
/// at every materialization step and periodically inside join loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum rows materialized; `None` = unbounded.
    pub max_rows: Option<u64>,
    /// Wall-clock deadline in milliseconds; `None` = unbounded.
    pub deadline_ms: Option<u64>,
}

impl ExecLimits {
    /// No budgets — the behaviour of plain [`execute`].
    pub const UNLIMITED: ExecLimits = ExecLimits {
        max_rows: None,
        deadline_ms: None,
    };

    /// The default guard for interactive use: generous enough for every
    /// benchmark query, tight enough to stop a runaway cross join.
    pub fn interactive() -> ExecLimits {
        ExecLimits {
            max_rows: Some(1_000_000),
            deadline_ms: Some(2_000),
        }
    }
}

thread_local! {
    /// This thread's execution pulse (see [`set_exec_pulse`]).
    static EXEC_PULSE: RefCell<Option<Box<dyn Fn() -> bool>>> = const { RefCell::new(None) };
}

/// Installs (or, with `None`, clears) this thread's *execution pulse* —
/// an external cancellation callback polled during the executor's
/// strided budget checks. When the pulse returns `true`, the in-flight
/// statement aborts with a `"watchdog"` [`ExecError::BudgetExceeded`].
///
/// The evaluation runner's stall watchdog uses this to cut short engine
/// executions of cases that have exhausted their per-case deadline,
/// independently of any per-statement [`ExecLimits`] (in particular, it
/// fires even for statements running with `deadline_ms: None`).
pub fn set_exec_pulse(pulse: Option<Box<dyn Fn() -> bool>>) {
    EXEC_PULSE.with(|p| *p.borrow_mut() = pulse);
}

/// Polls this thread's execution pulse, if one is installed.
fn pulse_expired() -> bool {
    EXEC_PULSE.with(|p| p.borrow().as_ref().is_some_and(|pulse| pulse()))
}

/// Executes `query` against `db`.
pub fn execute(db: &Database, query: &Query) -> ExecResult<ResultSet> {
    execute_with_limits(db, query, ExecLimits::UNLIMITED)
}

/// Executes `query` against `db` under the given resource budgets,
/// failing with [`ExecError::BudgetExceeded`] when one trips.
pub fn execute_with_limits(
    db: &Database,
    query: &Query,
    limits: ExecLimits,
) -> ExecResult<ResultSet> {
    Executor {
        db,
        subquery_cache: RefCell::new(HashMap::new()),
        limits,
        rows_charged: Cell::new(0),
        started: Instant::now(),
    }
    .query(query, None)
}

/// Parses and executes SQL text in one step.
pub fn execute_sql(db: &Database, sql: &str) -> Result<ResultSet, String> {
    let q = fisql_sqlkit::parse_query(sql).map_err(|e| e.to_string())?;
    execute(db, &q).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Internal representation
// ---------------------------------------------------------------------------

/// One named relation bound in a FROM clause.
#[derive(Debug, Clone)]
struct Binding {
    /// Binding name (alias or table name).
    name: String,
    /// Column names, in storage order.
    columns: Vec<String>,
    /// Offset of this binding's first column in the combined row.
    offset: usize,
}

/// A materialized intermediate relation.
#[derive(Debug, Clone)]
struct Relation {
    bindings: Vec<Binding>,
    width: usize,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    fn resolve(&self, col: &ColumnRef) -> ExecResult<Option<usize>> {
        match &col.table {
            Some(t) => {
                let Some(b) = self
                    .bindings
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(t))
                else {
                    return Ok(None);
                };
                match b
                    .columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&col.column))
                {
                    Some(i) => Ok(Some(b.offset + i)),
                    None => Ok(None),
                }
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(i) = b
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(&col.column))
                    {
                        if found.is_some() {
                            return Err(ExecError::AmbiguousColumn {
                                name: col.column.clone(),
                            });
                        }
                        found = Some(b.offset + i);
                    }
                }
                Ok(found)
            }
        }
    }
}

/// Evaluation scope: a row within a relation, chained to any outer scopes
/// for correlated subqueries.
#[derive(Clone, Copy)]
struct Scope<'a> {
    rel: &'a Relation,
    row: &'a [Value],
    outer: Option<&'a Scope<'a>>,
}

impl Scope<'_> {
    fn lookup(&self, col: &ColumnRef) -> ExecResult<Value> {
        if let Some(idx) = self.rel.resolve(col)? {
            return Ok(self.row[idx].clone());
        }
        match self.outer {
            Some(outer) => outer.lookup(col),
            None => Err(ExecError::UnknownColumn {
                name: col.to_string(),
            }),
        }
    }
}

/// Group scope: a set of rows sharing GROUP BY keys.
struct GroupScope<'a> {
    rel: &'a Relation,
    rows: &'a [&'a Vec<Value>],
    outer: Option<&'a Scope<'a>>,
}

struct Executor<'a> {
    db: &'a Database,
    /// Memoized results of *uncorrelated* subqueries, keyed by rendered
    /// text, for the lifetime of one statement execution. Without this,
    /// `WHERE age = (SELECT MIN(age) FROM singer)` re-runs the inner
    /// query once per outer row.
    subquery_cache: RefCell<HashMap<String, Rc<ResultSet>>>,
    /// Resource budgets for this statement.
    limits: ExecLimits,
    /// Rows materialized so far (statement-wide, across subqueries).
    rows_charged: Cell<u64>,
    /// When the statement started, for the wall-clock deadline.
    started: Instant,
}

impl Executor<'_> {
    /// Charges `n` materialized rows against the budgets. The row check
    /// runs on every charge; the (costlier) clock read runs only when
    /// the running total crosses a 1024-row boundary, so per-row charges
    /// in join loops stay cheap.
    fn charge_rows(&self, n: usize) -> ExecResult<()> {
        let before = self.rows_charged.get();
        let total = before.saturating_add(n as u64);
        self.rows_charged.set(total);
        if let Some(limit) = self.limits.max_rows {
            if total > limit {
                return Err(ExecError::BudgetExceeded {
                    resource: "rows",
                    limit,
                });
            }
        }
        if total >> 10 != before >> 10 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Checks the wall-clock deadline and the thread's execution pulse
    /// (called at materialization points and periodically inside join
    /// loops). The pulse check runs even when `deadline_ms` is `None`,
    /// so an external watchdog can cancel otherwise-unbounded
    /// statements.
    fn check_deadline(&self) -> ExecResult<()> {
        if let Some(limit) = self.limits.deadline_ms {
            if self.started.elapsed().as_millis() as u64 > limit {
                return Err(ExecError::BudgetExceeded {
                    resource: "time",
                    limit,
                });
            }
        }
        if pulse_expired() {
            return Err(ExecError::BudgetExceeded {
                resource: "watchdog",
                limit: 0,
            });
        }
        Ok(())
    }
    // -- query / set-op level ------------------------------------------------

    fn query(&self, q: &Query, outer: Option<&Scope<'_>>) -> ExecResult<ResultSet> {
        if q.compound.is_empty() {
            return self.core_full(&q.core, &q.order_by, q.limit, outer);
        }
        let mut acc = self.core_full(&q.core, &[], None, outer)?;
        for (op, core) in &q.compound {
            let rhs = self.core_full(core, &[], None, outer)?;
            acc = combine(acc, rhs, *op)?;
        }
        if !q.order_by.is_empty() {
            apply_output_order(&mut acc, &q.order_by)?;
            acc.ordered = true;
        }
        apply_limit(&mut acc, q.limit);
        Ok(acc)
    }

    /// Executes one select core, applying the (possibly empty) trailing
    /// ORDER BY/LIMIT in the pre-projection scope so sort keys may
    /// reference non-projected columns.
    fn core_full(
        &self,
        core: &SelectCore,
        order_by: &[OrderItem],
        limit: Option<LimitClause>,
        outer: Option<&Scope<'_>>,
    ) -> ExecResult<ResultSet> {
        let rel = match &core.from {
            Some(from) => self.from_clause(from, outer)?,
            None => Relation {
                bindings: Vec::new(),
                width: 0,
                rows: vec![vec![]],
            },
        };

        // WHERE filter.
        let mut kept: Vec<&Vec<Value>> = Vec::with_capacity(rel.rows.len());
        if let Some(w) = &core.where_clause {
            if w.contains_aggregate() {
                return Err(ExecError::TypeError {
                    message: "aggregate function in WHERE clause".into(),
                });
            }
            for row in &rel.rows {
                let scope = Scope {
                    rel: &rel,
                    row,
                    outer,
                };
                if truthy(&self.eval(&scope, w)?) {
                    kept.push(row);
                }
            }
        } else {
            kept.extend(rel.rows.iter());
        }

        let aggregate_mode = !core.group_by.is_empty()
            || core.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || core
                .having
                .as_ref()
                .is_some_and(|h| h.contains_aggregate() || !core.group_by.is_empty());

        let (columns, mut produced) = if aggregate_mode {
            self.project_groups(core, &rel, &kept, order_by, outer)?
        } else {
            self.project_rows(core, &rel, &kept, order_by, outer)?
        };

        // DISTINCT before ORDER BY (keys ride along with their rows).
        if core.distinct {
            let mut seen: HashSet<String> = HashSet::with_capacity(produced.len());
            produced.retain(|(row, _)| seen.insert(row_key(row)));
        }

        // Sort by the precomputed keys.
        if !order_by.is_empty() {
            let descs: Vec<bool> = order_by.iter().map(|o| o.desc).collect();
            produced.sort_by(|(_, ka), (_, kb)| {
                for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                    let ord = a.total_cmp(b);
                    let ord = if descs[i] { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }

        let mut rs = ResultSet {
            columns,
            rows: produced.into_iter().map(|(r, _)| r).collect(),
            ordered: !order_by.is_empty(),
        };
        apply_limit(&mut rs, limit);
        Ok(rs)
    }

    // -- FROM clause ---------------------------------------------------------

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&self, from: &FromClause, outer: Option<&Scope<'_>>) -> ExecResult<Relation> {
        let mut rel = self.factor(&from.base, outer)?;
        for join in &from.joins {
            let right = self.factor(&join.factor, outer)?;
            // Reject duplicate binding names.
            for b in &right.bindings {
                if rel
                    .bindings
                    .iter()
                    .any(|x| x.name.eq_ignore_ascii_case(&b.name))
                {
                    return Err(ExecError::DuplicateBinding {
                        name: b.name.clone(),
                    });
                }
            }
            rel = self.join(rel, right, join, outer)?;
        }
        Ok(rel)
    }

    fn factor(&self, f: &TableFactor, outer: Option<&Scope<'_>>) -> ExecResult<Relation> {
        match f {
            TableFactor::Table { name, alias } => {
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| ExecError::UnknownTable { name: name.clone() })?;
                self.charge_rows(table.rows.len())?;
                Ok(Relation {
                    bindings: vec![Binding {
                        name: alias.clone().unwrap_or_else(|| table.name.clone()),
                        columns: table.columns.iter().map(|c| c.name.clone()).collect(),
                        offset: 0,
                    }],
                    width: table.columns.len(),
                    rows: table.rows.clone(),
                })
            }
            TableFactor::Derived { subquery, alias } => {
                let rs = self.query(subquery, outer)?;
                self.charge_rows(rs.rows.len())?;
                Ok(Relation {
                    bindings: vec![Binding {
                        name: alias.clone(),
                        columns: rs.columns.clone(),
                        offset: 0,
                    }],
                    width: rs.columns.len(),
                    rows: rs.rows,
                })
            }
        }
    }

    fn join(
        &self,
        left: Relation,
        right: Relation,
        join: &Join,
        outer: Option<&Scope<'_>>,
    ) -> ExecResult<Relation> {
        let mut bindings = left.bindings.clone();
        for b in &right.bindings {
            bindings.push(Binding {
                name: b.name.clone(),
                columns: b.columns.clone(),
                offset: b.offset + left.width,
            });
        }
        let combined = Relation {
            bindings,
            width: left.width + right.width,
            rows: Vec::new(),
        };

        // Hash-join fast path: `ON a.x = b.y` with one side resolving in
        // `left` and the other in `right`.
        let hash_cols = match (&join.kind, &join.constraint) {
            (JoinKind::Inner | JoinKind::Left | JoinKind::Right, Some(on)) => {
                equi_join_columns(on, &left, &right)
            }
            _ => None,
        };

        let mut rows: Vec<Vec<Value>> = Vec::new();
        match hash_cols {
            Some((li, ri)) => {
                let mut index: HashMap<String, Vec<usize>> =
                    HashMap::with_capacity(right.rows.len());
                for (j, r) in right.rows.iter().enumerate() {
                    if !r[ri].is_null() {
                        index
                            .entry(row_key(std::slice::from_ref(&r[ri])))
                            .or_default()
                            .push(j);
                    }
                }
                let mut right_matched = vec![false; right.rows.len()];
                for l in &left.rows {
                    let mut matched = false;
                    if !l[li].is_null() {
                        if let Some(js) = index.get(&row_key(std::slice::from_ref(&l[li]))) {
                            for &j in js {
                                let mut row = l.clone();
                                row.extend(right.rows[j].iter().cloned());
                                self.charge_rows(1)?;
                                rows.push(row);
                                matched = true;
                                right_matched[j] = true;
                            }
                        }
                    }
                    if !matched && join.kind == JoinKind::Left {
                        let mut row = l.clone();
                        row.extend(std::iter::repeat_n(Value::Null, right.width));
                        self.charge_rows(1)?;
                        rows.push(row);
                    }
                }
                if join.kind == JoinKind::Right {
                    for (j, m) in right_matched.iter().enumerate() {
                        if !m {
                            let mut row: Vec<Value> =
                                std::iter::repeat_n(Value::Null, left.width).collect();
                            row.extend(right.rows[j].iter().cloned());
                            self.charge_rows(1)?;
                            rows.push(row);
                        }
                    }
                }
            }
            None => {
                // Nested loop. A highly selective constraint can spin
                // here for a long time without materializing anything,
                // so the deadline is also checked per outer row.
                let mut right_matched = vec![false; right.rows.len()];
                for l in &left.rows {
                    self.check_deadline()?;
                    let mut matched = false;
                    for (j, r) in right.rows.iter().enumerate() {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        let keep = match &join.constraint {
                            Some(on) => {
                                let scope = Scope {
                                    rel: &combined,
                                    row: &row,
                                    outer,
                                };
                                truthy(&self.eval(&scope, on)?)
                            }
                            None => true,
                        };
                        if keep {
                            self.charge_rows(1)?;
                            rows.push(row);
                            matched = true;
                            right_matched[j] = true;
                        }
                    }
                    if !matched && join.kind == JoinKind::Left {
                        let mut row = l.clone();
                        row.extend(std::iter::repeat_n(Value::Null, right.width));
                        self.charge_rows(1)?;
                        rows.push(row);
                    }
                }
                if join.kind == JoinKind::Right {
                    for (j, m) in right_matched.iter().enumerate() {
                        if !m {
                            let mut row: Vec<Value> =
                                std::iter::repeat_n(Value::Null, left.width).collect();
                            row.extend(right.rows[j].iter().cloned());
                            self.charge_rows(1)?;
                            rows.push(row);
                        }
                    }
                }
            }
        }
        Ok(Relation { rows, ..combined })
    }

    // -- projection ----------------------------------------------------------

    /// Row-mode projection: one output row per input row, plus sort keys.
    #[allow(clippy::type_complexity)]
    fn project_rows(
        &self,
        core: &SelectCore,
        rel: &Relation,
        kept: &[&Vec<Value>],
        order_by: &[OrderItem],
        outer: Option<&Scope<'_>>,
    ) -> ExecResult<(Vec<String>, Vec<(Vec<Value>, Vec<Value>)>)> {
        let plan = self.projection_plan(core, rel)?;
        let mut out = Vec::with_capacity(kept.len());
        for row in kept {
            let scope = Scope { rel, row, outer };
            let mut values = Vec::with_capacity(plan.outputs.len());
            for output in &plan.outputs {
                match output {
                    Output::Column(idx) => values.push(row[*idx].clone()),
                    Output::Expr(e) => values.push(self.eval(&scope, e)?),
                }
            }
            let keys = self.order_keys(order_by, &plan, &values, |e| self.eval(&scope, e))?;
            out.push((values, keys));
        }
        Ok((plan.names, out))
    }

    /// Aggregate-mode projection: group rows, filter by HAVING, project
    /// one row per group.
    #[allow(clippy::type_complexity)]
    fn project_groups(
        &self,
        core: &SelectCore,
        rel: &Relation,
        kept: &[&Vec<Value>],
        order_by: &[OrderItem],
        outer: Option<&Scope<'_>>,
    ) -> ExecResult<(Vec<String>, Vec<(Vec<Value>, Vec<Value>)>)> {
        let plan = self.projection_plan(core, rel)?;
        // Group rows by GROUP BY key values.
        let mut groups: Vec<Vec<&Vec<Value>>> = Vec::new();
        if core.group_by.is_empty() {
            groups.push(kept.to_vec());
        } else {
            let mut index: HashMap<String, usize> = HashMap::new();
            for row in kept {
                let scope = Scope { rel, row, outer };
                let mut key_vals = Vec::with_capacity(core.group_by.len());
                for g in &core.group_by {
                    key_vals.push(self.eval(&scope, g)?);
                }
                let key = row_key(&key_vals);
                match index.get(&key) {
                    Some(&gi) => groups[gi].push(row),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![row]);
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(groups.len());
        for group in &groups {
            let gscope = GroupScope {
                rel,
                rows: group,
                outer,
            };
            if let Some(h) = &core.having {
                if !truthy(&self.eval_group(&gscope, h)?) {
                    continue;
                }
            }
            let mut values = Vec::with_capacity(plan.outputs.len());
            for output in &plan.outputs {
                match output {
                    Output::Column(idx) => {
                        values.push(match group.first() {
                            Some(row) => row[*idx].clone(),
                            None => Value::Null,
                        });
                    }
                    Output::Expr(e) => values.push(self.eval_group(&gscope, e)?),
                }
            }
            let keys =
                self.order_keys(order_by, &plan, &values, |e| self.eval_group(&gscope, e))?;
            out.push((values, keys));
        }
        Ok((plan.names, out))
    }

    /// Computes sort keys for one output unit. Keys resolve, in priority
    /// order: positional references (`ORDER BY 1`), select-list aliases or
    /// output names, then arbitrary expressions in the source scope.
    fn order_keys(
        &self,
        order_by: &[OrderItem],
        plan: &ProjectionPlan,
        values: &[Value],
        mut eval: impl FnMut(&Expr) -> ExecResult<Value>,
    ) -> ExecResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            // Positional.
            if let Expr::Literal(Literal::Number(n)) = &item.expr {
                let idx = *n as usize;
                if idx >= 1 && idx <= values.len() {
                    keys.push(values[idx - 1].clone());
                    continue;
                }
            }
            // Alias / output-name / identical-expression reference.
            if let Some(i) = plan.output_position(&item.expr) {
                keys.push(values[i].clone());
                continue;
            }
            keys.push(eval(&item.expr)?);
        }
        Ok(keys)
    }

    fn projection_plan(&self, core: &SelectCore, rel: &Relation) -> ExecResult<ProjectionPlan> {
        let mut names = Vec::new();
        let mut outputs = Vec::new();
        let mut exprs: Vec<Option<Expr>> = Vec::new();
        for item in &core.items {
            match item {
                SelectItem::Wildcard => {
                    if rel.bindings.is_empty() {
                        return Err(ExecError::MisplacedWildcard);
                    }
                    for b in &rel.bindings {
                        for (i, c) in b.columns.iter().enumerate() {
                            names.push(c.clone());
                            outputs.push(Output::Column(b.offset + i));
                            exprs.push(Some(Expr::qcol(b.name.clone(), c.clone())));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let b = rel
                        .bindings
                        .iter()
                        .find(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| ExecError::UnknownTable { name: t.clone() })?;
                    for (i, c) in b.columns.iter().enumerate() {
                        names.push(c.clone());
                        outputs.push(Output::Column(b.offset + i));
                        exprs.push(Some(Expr::qcol(b.name.clone(), c.clone())));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    names.push(name);
                    outputs.push(Output::Expr(expr.clone()));
                    exprs.push(Some(expr.clone()));
                }
            }
        }
        Ok(ProjectionPlan {
            names,
            outputs,
            exprs,
            aliases: core
                .items
                .iter()
                .map(|i| match i {
                    SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                    _ => None,
                })
                .collect(),
        })
    }

    /// Executes a subquery, memoizing uncorrelated ones.
    ///
    /// The subquery is first attempted *without* the enclosing scope; if
    /// it only fails with an unknown column, it must be correlated, so it
    /// re-runs with the scope chained (and is not cached).
    fn subquery(&self, q: &Query, scope: &Scope<'_>) -> ExecResult<Rc<ResultSet>> {
        let key = fisql_sqlkit::print_query(q);
        if let Some(hit) = self.subquery_cache.borrow().get(&key) {
            return Ok(Rc::clone(hit));
        }
        match self.query(q, None) {
            Ok(rs) => {
                let rc = Rc::new(rs);
                self.subquery_cache.borrow_mut().insert(key, Rc::clone(&rc));
                Ok(rc)
            }
            Err(ExecError::UnknownColumn { .. }) => {
                // Correlated: evaluate in the enclosing scope, per row.
                self.query(q, Some(scope)).map(Rc::new)
            }
            Err(other) => Err(other),
        }
    }

    // -- expression evaluation (row scope) ------------------------------------

    fn eval(&self, scope: &Scope<'_>, e: &Expr) -> ExecResult<Value> {
        match e {
            Expr::Column(c) => scope.lookup(c),
            Expr::Literal(l) => Ok(literal_value(l)),
            Expr::Wildcard => Err(ExecError::MisplacedWildcard),
            Expr::Unary { op, expr } => {
                let v = self.eval(scope, expr)?;
                Ok(match op {
                    UnaryOp::Neg => match v {
                        Value::Null => Value::Null,
                        Value::Int(n) => Value::Int(-n),
                        Value::Float(x) => Value::Float(-x),
                        _ => Value::Null,
                    },
                    UnaryOp::Not => match to_bool(&v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    },
                })
            }
            Expr::Binary { left, op, right } => self.eval_binary(scope, left, *op, right),
            Expr::Call {
                func,
                distinct,
                args,
            } => {
                if func.is_aggregate() {
                    return Err(ExecError::TypeError {
                        message: format!("aggregate {func} not allowed in row context"),
                    });
                }
                let _ = distinct;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(scope, a)?);
                }
                scalar_function(*func, &vals)
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op_val = match operand {
                    Some(op) => Some(self.eval(scope, op)?),
                    None => None,
                };
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(v) => {
                            let w = self.eval(scope, when)?;
                            v.sql_eq(&w) == Some(true)
                        }
                        None => truthy(&self.eval(scope, when)?),
                    };
                    if hit {
                        return self.eval(scope, then);
                    }
                }
                match else_branch {
                    Some(e) => self.eval(scope, e),
                    None => Ok(Value::Null),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval(scope, expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = self.eval(scope, item)?;
                    match v.sql_eq(&w) {
                        Some(true) => {
                            return Ok(Value::Bool(!negated));
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let v = self.eval(scope, expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let rs = self.subquery(subquery, scope)?;
                if rs.columns.len() != 1 {
                    return Err(ExecError::SubqueryArity {
                        columns: rs.columns.len(),
                    });
                }
                let mut saw_null = false;
                for row in &rs.rows {
                    match v.sql_eq(&row[0]) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval(scope, expr)?;
                let lo = self.eval(scope, low)?;
                let hi = self.eval(scope, high)?;
                let ge = cmp3(&v, &lo).map(|o| o != Ordering::Less);
                let le = cmp3(&v, &hi).map(|o| o != Ordering::Greater);
                Ok(match and3(ge, le) {
                    Some(b) => Value::Bool(b != *negated),
                    None => Value::Null,
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(scope, expr)?;
                let p = self.eval(scope, pattern)?;
                match (&v, &p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(pat)) => {
                        Ok(Value::Bool(like_match(s, pat) != *negated))
                    }
                    _ => Ok(Value::Bool(*negated)),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(scope, expr)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Exists { subquery, negated } => {
                let rs = self.subquery(subquery, scope)?;
                Ok(Value::Bool(rs.rows.is_empty() == *negated))
            }
            Expr::Subquery(q) => {
                let rs = self.subquery(q, scope)?;
                if rs.columns.len() != 1 {
                    return Err(ExecError::SubqueryArity {
                        columns: rs.columns.len(),
                    });
                }
                Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
            }
        }
    }

    fn eval_binary(
        &self,
        scope: &Scope<'_>,
        left: &Expr,
        op: BinOp,
        right: &Expr,
    ) -> ExecResult<Value> {
        match op {
            BinOp::And => {
                let l = to_bool(&self.eval(scope, left)?);
                if l == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let r = to_bool(&self.eval(scope, right)?);
                Ok(match and3(l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                })
            }
            BinOp::Or => {
                let l = to_bool(&self.eval(scope, left)?);
                if l == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let r = to_bool(&self.eval(scope, right)?);
                Ok(match or3(l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                })
            }
            _ => {
                let l = self.eval(scope, left)?;
                let r = self.eval(scope, right)?;
                if op.is_comparison() {
                    return Ok(match cmp3(&l, &r) {
                        None => Value::Null,
                        Some(ord) => Value::Bool(match op {
                            BinOp::Eq => ord == Ordering::Equal,
                            BinOp::NotEq => ord != Ordering::Equal,
                            BinOp::Lt => ord == Ordering::Less,
                            BinOp::LtEq => ord != Ordering::Greater,
                            BinOp::Gt => ord == Ordering::Greater,
                            BinOp::GtEq => ord != Ordering::Less,
                            _ => unreachable!("comparison op"),
                        }),
                    });
                }
                Ok(arith(l, op, r))
            }
        }
    }

    // -- expression evaluation (group scope) ----------------------------------

    fn eval_group(&self, g: &GroupScope<'_>, e: &Expr) -> ExecResult<Value> {
        match e {
            Expr::Call {
                func,
                distinct,
                args,
            } if func.is_aggregate() => self.eval_aggregate(g, *func, *distinct, args),
            Expr::Column(_) => self.eval_on_first_row(g, e),
            Expr::Literal(l) => Ok(literal_value(l)),
            Expr::Unary { op, expr } => {
                let v = self.eval_group(g, expr)?;
                match op {
                    UnaryOp::Neg => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Int(n) => Value::Int(-n),
                        Value::Float(x) => Value::Float(-x),
                        _ => Value::Null,
                    }),
                    UnaryOp::Not => Ok(match to_bool(&v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    }),
                }
            }
            Expr::Binary { left, op, right } => match op {
                BinOp::And | BinOp::Or => {
                    let l = to_bool(&self.eval_group(g, left)?);
                    let r = to_bool(&self.eval_group(g, right)?);
                    let out = if *op == BinOp::And {
                        and3(l, r)
                    } else {
                        or3(l, r)
                    };
                    Ok(match out {
                        Some(b) => Value::Bool(b),
                        None => Value::Null,
                    })
                }
                _ => {
                    let l = self.eval_group(g, left)?;
                    let r = self.eval_group(g, right)?;
                    if op.is_comparison() {
                        return Ok(match cmp3(&l, &r) {
                            None => Value::Null,
                            Some(ord) => Value::Bool(match op {
                                BinOp::Eq => ord == Ordering::Equal,
                                BinOp::NotEq => ord != Ordering::Equal,
                                BinOp::Lt => ord == Ordering::Less,
                                BinOp::LtEq => ord != Ordering::Greater,
                                BinOp::Gt => ord == Ordering::Greater,
                                BinOp::GtEq => ord != Ordering::Less,
                                _ => unreachable!("comparison op"),
                            }),
                        });
                    }
                    Ok(arith(l, *op, r))
                }
            },
            Expr::Call { func, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_group(g, a)?);
                }
                scalar_function(*func, &vals)
            }
            // Everything else (CASE, IN, LIKE, subqueries, ...) evaluates
            // on the group's representative row, SQLite-style.
            _ => self.eval_on_first_row(g, e),
        }
    }

    fn eval_on_first_row(&self, g: &GroupScope<'_>, e: &Expr) -> ExecResult<Value> {
        match g.rows.first() {
            Some(row) => {
                let scope = Scope {
                    rel: g.rel,
                    row,
                    outer: g.outer,
                };
                self.eval(&scope, e)
            }
            None => {
                // Empty group (global aggregate over zero rows): bare
                // columns are NULL.
                match e {
                    Expr::Literal(l) => Ok(literal_value(l)),
                    _ => Ok(Value::Null),
                }
            }
        }
    }

    fn eval_aggregate(
        &self,
        g: &GroupScope<'_>,
        func: Func,
        distinct: bool,
        args: &[Expr],
    ) -> ExecResult<Value> {
        // Reject nested aggregates inside the argument.
        if args.iter().any(|a| a.contains_aggregate()) {
            return Err(ExecError::NestedAggregate);
        }
        // COUNT(*) special case.
        if func == Func::Count && matches!(args.first(), Some(Expr::Wildcard)) {
            return Ok(Value::Int(g.rows.len() as i64));
        }
        let arg = args.first().ok_or(ExecError::FunctionArity {
            func: func.as_str(),
            given: 0,
        })?;
        if matches!(arg, Expr::Wildcard) && func != Func::Count {
            return Err(ExecError::MisplacedWildcard);
        }
        let mut vals: Vec<Value> = Vec::with_capacity(g.rows.len());
        for row in g.rows {
            let scope = Scope {
                rel: g.rel,
                row,
                outer: g.outer,
            };
            let v = self.eval(&scope, arg)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let mut seen: HashSet<String> = HashSet::with_capacity(vals.len());
            vals.retain(|v| seen.insert(row_key(std::slice::from_ref(v))));
        }
        Ok(match func {
            Func::Count => Value::Int(vals.len() as i64),
            Func::Sum => {
                if vals.is_empty() {
                    Value::Null
                } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    Value::Int(vals.iter().filter_map(|v| v.as_f64()).sum::<f64>() as i64)
                } else {
                    Value::Float(vals.iter().filter_map(|v| v.as_f64()).sum())
                }
            }
            Func::Avg => {
                let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            Func::Min => vals
                .iter()
                .min_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null),
            Func::Max => vals
                .iter()
                .max_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null),
            _ => unreachable!("non-aggregate filtered above"),
        })
    }
}

// ---------------------------------------------------------------------------
// Projection plan
// ---------------------------------------------------------------------------

enum Output {
    /// Direct column copy (wildcard expansion).
    Column(usize),
    /// Computed expression.
    Expr(Expr),
}

struct ProjectionPlan {
    names: Vec<String>,
    outputs: Vec<Output>,
    /// Source expression per output, for ORDER BY matching.
    exprs: Vec<Option<Expr>>,
    /// Alias per original select item (pre-expansion); used only for
    /// alias-reference resolution.
    aliases: Vec<Option<String>>,
}

impl ProjectionPlan {
    /// Resolves an ORDER BY expression against the projection: by alias,
    /// by output name, or by structural identity with a projected
    /// expression.
    fn output_position(&self, e: &Expr) -> Option<usize> {
        if let Expr::Column(ColumnRef {
            table: None,
            column,
        }) = e
        {
            // Alias match takes priority.
            if let Some(i) = self
                .aliases
                .iter()
                .position(|a| a.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(column)))
            {
                // Aliases map 1:1 to outputs only when no wildcard
                // expansion happened; guard by bounds.
                if i < self.outputs.len() && self.names[i].eq_ignore_ascii_case(column) {
                    return Some(i);
                }
            }
        }
        // Structural identity with a projected expression.
        self.exprs.iter().position(|pe| pe.as_ref() == Some(e))
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.clone(),
        other => print_expr(other),
    }
}

// ---------------------------------------------------------------------------
// Set operations / output ordering
// ---------------------------------------------------------------------------

fn combine(left: ResultSet, right: ResultSet, op: SetOp) -> ExecResult<ResultSet> {
    if left.columns.len() != right.columns.len() {
        return Err(ExecError::SetOpArity {
            left: left.columns.len(),
            right: right.columns.len(),
        });
    }
    let columns = left.columns.clone();
    let rows = match op {
        SetOp::UnionAll => {
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows
        }
        SetOp::Union => {
            let mut seen: HashSet<String> = HashSet::new();
            let mut rows = Vec::new();
            for r in left.rows.into_iter().chain(right.rows) {
                if seen.insert(row_key(&r)) {
                    rows.push(r);
                }
            }
            rows
        }
        SetOp::Intersect => {
            let right_keys: HashSet<String> = right.rows.iter().map(|r| row_key(r)).collect();
            let mut seen: HashSet<String> = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
        SetOp::Except => {
            let right_keys: HashSet<String> = right.rows.iter().map(|r| row_key(r)).collect();
            let mut seen: HashSet<String> = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    !right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
    };
    Ok(ResultSet {
        columns,
        rows,
        ordered: false,
    })
}

/// ORDER BY after a set operation: keys must reference output columns by
/// name or position.
fn apply_output_order(rs: &mut ResultSet, order_by: &[OrderItem]) -> ExecResult<()> {
    let mut key_indices = Vec::with_capacity(order_by.len());
    for item in order_by {
        let idx = match &item.expr {
            Expr::Literal(Literal::Number(n)) if *n >= 1 && (*n as usize) <= rs.columns.len() => {
                (*n as usize) - 1
            }
            Expr::Column(ColumnRef {
                table: None,
                column,
            }) => rs
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(column))
                .ok_or_else(|| ExecError::UnknownColumn {
                    name: column.clone(),
                })?,
            other => {
                return Err(ExecError::TypeError {
                    message: format!(
                        "ORDER BY after a set operation must reference output columns, got {}",
                        print_expr(other)
                    ),
                })
            }
        };
        key_indices.push((idx, item.desc));
    }
    rs.rows.sort_by(|a, b| {
        for (idx, desc) in &key_indices {
            let ord = a[*idx].total_cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(())
}

fn apply_limit(rs: &mut ResultSet, limit: Option<LimitClause>) {
    if let Some(l) = limit {
        let offset = l.offset.unwrap_or(0) as usize;
        if offset >= rs.rows.len() {
            rs.rows.clear();
        } else {
            rs.rows.drain(..offset);
            rs.rows.truncate(l.count as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Number(n) => Value::Int(*n),
        Literal::Float(x) => Value::Float(*x),
        Literal::String(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// SQL truthiness: NULL and false are not truthy; nonzero numbers are.
fn truthy(v: &Value) -> bool {
    to_bool(v) == Some(true)
}

fn to_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(n) => Some(*n != 0),
        Value::Float(x) => Some(*x != 0.0),
        Value::Text(_) => Some(false),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued comparison: NULL operands → None; otherwise total order
/// (SQLite type ordering across classes).
fn cmp3(a: &Value, b: &Value) -> Option<Ordering> {
    if a.is_null() || b.is_null() {
        return None;
    }
    Some(a.total_cmp(b))
}

fn arith(l: Value, op: BinOp, r: Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Integer fast path (with SQLite truncating division).
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        return match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_rem(*b))
                }
            }
            _ => Value::Null,
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinOp::Add => Value::Float(a + b),
            BinOp::Sub => Value::Float(a - b),
            BinOp::Mul => Value::Float(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
            BinOp::Mod => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a % b)
                }
            }
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

fn scalar_function(func: Func, args: &[Value]) -> ExecResult<Value> {
    let arity_err = |n: usize| ExecError::FunctionArity {
        func: func.as_str(),
        given: n,
    };
    match func {
        Func::Abs => {
            let v = args.first().ok_or_else(|| arity_err(0))?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Int(n) => Value::Int(n.wrapping_abs()),
                Value::Float(x) => Value::Float(x.abs()),
                _ => Value::Null,
            })
        }
        Func::Lower | Func::Upper => {
            let v = args.first().ok_or_else(|| arity_err(0))?;
            Ok(match v {
                Value::Text(s) => Value::Text(if func == Func::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }),
                Value::Null => Value::Null,
                other => other.clone(),
            })
        }
        Func::Length => {
            let v = args.first().ok_or_else(|| arity_err(0))?;
            Ok(match v {
                Value::Text(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Null,
                other => Value::Int(other.render().len() as i64),
            })
        }
        Func::Round => {
            let v = args.first().ok_or_else(|| arity_err(0))?;
            let digits = match args.get(1) {
                Some(Value::Int(d)) => *d,
                Some(Value::Null) | None => 0,
                Some(_) => 0,
            };
            Ok(match v.as_f64() {
                Some(x) => {
                    let scale = 10f64.powi(digits as i32);
                    Value::Float((x * scale).round() / scale)
                }
                None => Value::Null,
            })
        }
        Func::Coalesce => {
            for v in args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        Func::Substr => {
            if args.len() < 2 {
                return Err(arity_err(args.len()));
            }
            let (s, start) = (&args[0], &args[1]);
            let (Value::Text(s), Value::Int(start)) = (s, start) else {
                return Ok(Value::Null);
            };
            let chars: Vec<char> = s.chars().collect();
            // SQL SUBSTR is 1-based; negative start counts from the end.
            let begin = match (*start).cmp(&0) {
                std::cmp::Ordering::Greater => (*start as usize).saturating_sub(1),
                std::cmp::Ordering::Less => {
                    chars.len().saturating_sub(start.unsigned_abs() as usize)
                }
                std::cmp::Ordering::Equal => 0,
            };
            let len = match args.get(2) {
                Some(Value::Int(n)) if *n >= 0 => *n as usize,
                Some(Value::Int(_)) => 0,
                _ => chars.len(),
            };
            Ok(Value::Text(
                chars.iter().skip(begin).take(len).collect::<String>(),
            ))
        }
        // Aggregates are handled in group scope.
        Func::Count | Func::Sum | Func::Avg | Func::Min | Func::Max => Err(ExecError::TypeError {
            message: format!("aggregate {func} not allowed in row context"),
        }),
    }
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive (SQLite default).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Collapse consecutive %.
                let p = &p[1..];
                if p.is_empty() {
                    return true;
                }
                (0..=s.len()).any(|i| rec(&s[i..], p))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => !s.is_empty() && s[0].eq_ignore_ascii_case(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

/// Detects `ON left.col = right.col` style constraints and returns the two
/// column offsets (left-relative, right-relative).
fn equi_join_columns(on: &Expr, left: &Relation, right: &Relation) -> Option<(usize, usize)> {
    let Expr::Binary {
        left: a,
        op: BinOp::Eq,
        right: b,
    } = on
    else {
        return None;
    };
    let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) else {
        return None;
    };
    let la = left.resolve(ca).ok().flatten();
    let rb = right.resolve(cb).ok().flatten();
    if let (Some(li), Some(ri)) = (la, rb) {
        return Some((li, ri));
    }
    let lb = left.resolve(cb).ok().flatten();
    let ra = right.resolve(ca).ok().flatten();
    if let (Some(li), Some(ri)) = (lb, ra) {
        return Some((li, ri));
    }
    None
}
