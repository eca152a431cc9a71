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
//!
//! Execution reads the database in place. A base-table scan borrows the
//! table's rows; only joins, derived tables and results own rows. A
//! nested-loop join tests its constraint on the row pair and builds only
//! the rows it keeps. Per select core, each column reference resolves to
//! a (scope depth, index) slot on its first evaluation; per statement,
//! each subquery node is memoized by address — its result when
//! uncorrelated, or the finding that it is correlated.

use crate::error::{ExecError, ExecResult};
use crate::result::{row_key_into, ResultSet};
use crate::schema::{Column, Database};
use crate::value::Value;
use fisql_sqlkit::ast::*;
use fisql_sqlkit::print_expr;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
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
        subqueries: RefCell::new(HashMap::new()),
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

/// Column names of one binding: a base table's columns, read in place,
/// or a derived table's output labels.
enum Columns<'a> {
    Table(&'a [Column]),
    Derived(Vec<String>),
}

impl Columns<'_> {
    fn len(&self) -> usize {
        match self {
            Columns::Table(cols) => cols.len(),
            Columns::Derived(names) => names.len(),
        }
    }

    fn name(&self, i: usize) -> &str {
        match self {
            Columns::Table(cols) => &cols[i].name,
            Columns::Derived(names) => &names[i],
        }
    }

    /// The first column named `name`, case-insensitively.
    fn position(&self, name: &str) -> Option<usize> {
        (0..self.len()).find(|&i| self.name(i).eq_ignore_ascii_case(name))
    }
}

/// One named relation bound in a FROM clause.
struct Binding<'a> {
    /// Binding name (alias or table name).
    name: &'a str,
    /// Column names, in storage order.
    columns: Columns<'a>,
    /// Offset of this binding's first column in the combined row.
    offset: usize,
}

/// An intermediate relation. A base-table scan borrows the table's rows
/// in place; joins, derived tables and the FROM-less row own theirs.
struct Relation<'a> {
    bindings: Vec<Binding<'a>>,
    width: usize,
    rows: Cow<'a, [Vec<Value>]>,
}

impl Relation<'_> {
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
                Ok(b.columns.position(&col.column).map(|i| b.offset + i))
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(i) = b.columns.position(&col.column) {
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

/// One row of a relation: a stored row, or (while a nested-loop join
/// tests its constraint) a left row and a right row read as their
/// concatenation without building it.
#[derive(Clone, Copy)]
struct Row<'a> {
    left: &'a [Value],
    right: &'a [Value],
}

impl<'a> Row<'a> {
    fn one(row: &'a [Value]) -> Row<'a> {
        Row {
            left: row,
            right: &[],
        }
    }

    fn get(&self, i: usize) -> &'a Value {
        match self.left.get(i) {
            Some(v) => v,
            None => &self.right[i - self.left.len()],
        }
    }
}

/// The column slots of one select-core execution: each column reference
/// node evaluated so far, keyed by its address, with the scope depth and
/// row index it resolved to. A node is resolved on its first evaluation,
/// so a clause that never runs (a WHERE over zero rows) never resolves
/// its columns, and never reports them unknown.
///
/// Addresses are stable and unique because every evaluated expression
/// is borrowed from the statement for the executor's lifetime (`eval`
/// takes `&'a Expr`), and each node of a core is evaluated against one
/// relation and one scope chain per execution of that core.
#[derive(Default)]
struct Slots(RefCell<Vec<(usize, usize, usize)>>);

/// Evaluation scope: a row within a relation, chained to any outer scopes
/// for correlated subqueries.
#[derive(Clone, Copy)]
struct Scope<'a> {
    rel: &'a Relation<'a>,
    row: Row<'a>,
    outer: Option<&'a Scope<'a>>,
    slots: &'a Slots,
}

impl<'s> Scope<'s> {
    /// The value `col` names, borrowed from the row of the scope that
    /// binds it.
    fn value(&self, col: &ColumnRef) -> ExecResult<&'s Value> {
        let node = std::ptr::from_ref(col) as usize;
        let hit = self.slots.0.borrow().iter().find(|s| s.0 == node).copied();
        let (depth, idx) = match hit {
            Some((_, depth, idx)) => (depth, idx),
            None => {
                let (depth, idx) = self.resolve(col)?;
                self.slots.0.borrow_mut().push((node, depth, idx));
                (depth, idx)
            }
        };
        let mut row = self.row;
        let mut outer = self.outer;
        for _ in 0..depth {
            let scope = outer.expect("a resolved depth lies on the scope chain");
            row = scope.row;
            outer = scope.outer;
        }
        Ok(row.get(idx))
    }

    /// The (depth, index) `col` names: the innermost scope whose relation
    /// binds it, outward.
    fn resolve(&self, col: &ColumnRef) -> ExecResult<(usize, usize)> {
        let mut scope = self;
        let mut depth = 0;
        loop {
            if let Some(idx) = scope.rel.resolve(col)? {
                return Ok((depth, idx));
            }
            match scope.outer {
                Some(outer) => {
                    scope = outer;
                    depth += 1;
                }
                None => {
                    return Err(ExecError::UnknownColumn {
                        name: col.to_string(),
                    })
                }
            }
        }
    }
}

/// Group scope: a set of rows sharing GROUP BY keys.
struct GroupScope<'a> {
    rel: &'a Relation<'a>,
    rows: &'a [&'a [Value]],
    outer: Option<&'a Scope<'a>>,
    slots: &'a Slots,
}

impl<'a> GroupScope<'a> {
    fn scope(&self, row: &'a [Value]) -> Scope<'a> {
        Scope {
            rel: self.rel,
            row: Row::one(row),
            outer: self.outer,
            slots: self.slots,
        }
    }
}

/// One subquery node's memo entry ([`Executor::subquery`]).
enum Subquery {
    /// Uncorrelated: its one result.
    Result(Rc<ResultSet>),
    /// Correlated: it runs in the enclosing scope on every row.
    Correlated,
}

struct Executor<'a> {
    db: &'a Database,
    /// Per subquery node, keyed by its address, for the lifetime of one
    /// statement execution: the result of an *uncorrelated* subquery, or
    /// the finding that it is correlated. Without this,
    /// `WHERE age = (SELECT MIN(age) FROM singer)` re-runs the inner
    /// query once per outer row.
    subqueries: RefCell<HashMap<usize, Subquery>>,
    /// Resource budgets for this statement.
    limits: ExecLimits,
    /// Rows materialized so far (statement-wide, across subqueries).
    rows_charged: Cell<u64>,
    /// When the statement started, for the wall-clock deadline.
    started: Instant,
}

impl<'a> Executor<'a> {
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

    fn query(&self, q: &'a Query, outer: Option<&Scope<'_>>) -> ExecResult<ResultSet> {
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
        core: &'a SelectCore,
        order_by: &'a [OrderItem],
        limit: Option<LimitClause>,
        outer: Option<&Scope<'_>>,
    ) -> ExecResult<ResultSet> {
        let slots = Slots::default();
        let rel = match &core.from {
            Some(from) => self.from_clause(from, outer, &slots)?,
            None => Relation {
                bindings: Vec::new(),
                width: 0,
                rows: Cow::Owned(vec![vec![]]),
            },
        };

        // WHERE filter.
        let mut kept: Vec<&[Value]> = Vec::with_capacity(rel.rows.len());
        if let Some(w) = &core.where_clause {
            if w.contains_aggregate() {
                return Err(ExecError::TypeError {
                    message: "aggregate function in WHERE clause".into(),
                });
            }
            for row in rel.rows.iter() {
                let scope = Scope {
                    rel: &rel,
                    row: Row::one(row),
                    outer,
                    slots: &slots,
                };
                if truthy(&self.eval(&scope, w)?) {
                    kept.push(row);
                }
            }
        } else {
            kept.extend(rel.rows.iter().map(Vec::as_slice));
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

        let plan = projection_plan(core, &rel)?;
        let mut produced = if aggregate_mode {
            self.project_groups(core, &plan, &rel, &kept, order_by, outer, &slots)?
        } else {
            self.project_rows(&plan, &rel, &kept, order_by, outer, &slots)?
        };

        // DISTINCT before ORDER BY (keys ride along with their rows).
        if core.distinct {
            let mut seen = KeySet::with_capacity(produced.len());
            produced.retain(|(row, _)| seen.insert(row));
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
            columns: plan.names,
            rows: produced.into_iter().map(|(r, _)| r).collect(),
            ordered: !order_by.is_empty(),
        };
        apply_limit(&mut rs, limit);
        Ok(rs)
    }

    // -- FROM clause ---------------------------------------------------------

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(
        &self,
        from: &'a FromClause,
        outer: Option<&Scope<'_>>,
        slots: &Slots,
    ) -> ExecResult<Relation<'a>> {
        let mut rel = self.factor(&from.base, outer)?;
        for join in &from.joins {
            let right = self.factor(&join.factor, outer)?;
            // Reject duplicate binding names.
            for b in &right.bindings {
                if rel
                    .bindings
                    .iter()
                    .any(|x| x.name.eq_ignore_ascii_case(b.name))
                {
                    return Err(ExecError::DuplicateBinding {
                        name: b.name.to_string(),
                    });
                }
            }
            rel = self.join(rel, right, join, outer, slots)?;
        }
        Ok(rel)
    }

    fn factor(&self, f: &'a TableFactor, outer: Option<&Scope<'_>>) -> ExecResult<Relation<'a>> {
        match f {
            TableFactor::Table { name, alias } => {
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| ExecError::UnknownTable { name: name.clone() })?;
                self.charge_rows(table.rows.len())?;
                Ok(Relation {
                    bindings: vec![Binding {
                        name: alias.as_deref().unwrap_or(&table.name),
                        columns: Columns::Table(&table.columns),
                        offset: 0,
                    }],
                    width: table.columns.len(),
                    rows: Cow::Borrowed(&table.rows),
                })
            }
            TableFactor::Derived { subquery, alias } => {
                let rs = self.query(subquery, outer)?;
                self.charge_rows(rs.rows.len())?;
                Ok(Relation {
                    width: rs.columns.len(),
                    bindings: vec![Binding {
                        name: alias,
                        columns: Columns::Derived(rs.columns),
                        offset: 0,
                    }],
                    rows: Cow::Owned(rs.rows),
                })
            }
        }
    }

    fn join(
        &self,
        left: Relation<'a>,
        right: Relation<'a>,
        join: &Join,
        outer: Option<&Scope<'_>>,
        slots: &Slots,
    ) -> ExecResult<Relation<'a>> {
        // Hash-join fast path: `ON a.x = b.y` with one side resolving in
        // `left` and the other in `right`.
        let hash_cols = match (&join.kind, &join.constraint) {
            (JoinKind::Inner | JoinKind::Left | JoinKind::Right, Some(on)) => {
                equi_join_columns(on, &left, &right)
            }
            _ => None,
        };

        let (lw, rw) = (left.width, right.width);
        let mut bindings = left.bindings;
        bindings.extend(right.bindings.into_iter().map(|b| Binding {
            offset: b.offset + lw,
            ..b
        }));
        let mut combined = Relation {
            bindings,
            width: lw + rw,
            rows: Cow::Owned(Vec::new()),
        };
        let (left, right) = (left.rows, right.rows);
        let joined = |l: &[Value], r: &[Value]| {
            let mut row = Vec::with_capacity(lw + rw);
            row.extend_from_slice(l);
            row.extend_from_slice(r);
            row
        };
        let nulls = |n: usize| std::iter::repeat_n(Value::Null, n);

        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut right_matched = vec![false; right.len()];
        match hash_cols {
            Some((li, ri)) => {
                let keys = KeyArena::of(right.iter().map(|r| &r[ri]));
                let index = KeyIndex::build(&keys);
                let mut probe = String::new();
                for l in left.iter() {
                    let mut matched = false;
                    if !l[li].is_null() {
                        probe.clear();
                        row_key_into(&mut probe, std::slice::from_ref(&l[li]));
                        for j in index.matches(&probe) {
                            self.charge_rows(1)?;
                            rows.push(joined(l, &right[j]));
                            matched = true;
                            right_matched[j] = true;
                        }
                    }
                    if !matched && join.kind == JoinKind::Left {
                        self.charge_rows(1)?;
                        rows.push(l.iter().cloned().chain(nulls(rw)).collect());
                    }
                }
            }
            None => {
                // Nested loop. A highly selective constraint can spin
                // here for a long time without materializing anything,
                // so the deadline is also checked per outer row. The
                // constraint reads the row pair in place; only a kept
                // pair is built.
                for l in left.iter() {
                    self.check_deadline()?;
                    let mut matched = false;
                    for (j, r) in right.iter().enumerate() {
                        let keep = match &join.constraint {
                            Some(on) => {
                                let scope = Scope {
                                    rel: &combined,
                                    row: Row { left: l, right: r },
                                    outer,
                                    slots,
                                };
                                truthy(&self.eval(&scope, on)?)
                            }
                            None => true,
                        };
                        if keep {
                            self.charge_rows(1)?;
                            rows.push(joined(l, r));
                            matched = true;
                            right_matched[j] = true;
                        }
                    }
                    if !matched && join.kind == JoinKind::Left {
                        self.charge_rows(1)?;
                        rows.push(l.iter().cloned().chain(nulls(rw)).collect());
                    }
                }
            }
        }
        if join.kind == JoinKind::Right {
            for (j, m) in right_matched.iter().enumerate() {
                if !m {
                    self.charge_rows(1)?;
                    rows.push(nulls(lw).chain(right[j].iter().cloned()).collect());
                }
            }
        }
        combined.rows = Cow::Owned(rows);
        Ok(combined)
    }

    // -- projection ----------------------------------------------------------

    /// Row-mode projection: one output row per input row, plus sort keys.
    #[allow(clippy::type_complexity)]
    fn project_rows(
        &self,
        plan: &ProjectionPlan<'a, '_>,
        rel: &Relation<'_>,
        kept: &[&[Value]],
        order_by: &'a [OrderItem],
        outer: Option<&Scope<'_>>,
        slots: &Slots,
    ) -> ExecResult<Vec<(Vec<Value>, Vec<Value>)>> {
        let mut out = Vec::with_capacity(kept.len());
        for row in kept {
            let scope = Scope {
                rel,
                row: Row::one(row),
                outer,
                slots,
            };
            let mut values = Vec::with_capacity(plan.outputs.len());
            for output in &plan.outputs {
                match output {
                    Output::Column { index, .. } => values.push(row[*index].clone()),
                    Output::Expr(e) => values.push(self.eval(&scope, e)?),
                }
            }
            let keys = self.order_keys(order_by, plan, &values, |e| self.eval(&scope, e))?;
            out.push((values, keys));
        }
        Ok(out)
    }

    /// Aggregate-mode projection: group rows, filter by HAVING, project
    /// one row per group.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn project_groups(
        &self,
        core: &'a SelectCore,
        plan: &ProjectionPlan<'a, '_>,
        rel: &Relation<'_>,
        kept: &[&[Value]],
        order_by: &'a [OrderItem],
        outer: Option<&Scope<'_>>,
        slots: &Slots,
    ) -> ExecResult<Vec<(Vec<Value>, Vec<Value>)>> {
        // Group rows by GROUP BY key values.
        let mut groups: Vec<Vec<&[Value]>> = Vec::new();
        if core.group_by.is_empty() {
            groups.push(kept.to_vec());
        } else {
            let mut index: HashMap<String, usize> = HashMap::new();
            let mut key = String::new();
            let mut key_vals = Vec::with_capacity(core.group_by.len());
            for row in kept {
                let scope = Scope {
                    rel,
                    row: Row::one(row),
                    outer,
                    slots,
                };
                key_vals.clear();
                for g in &core.group_by {
                    key_vals.push(self.eval(&scope, g)?);
                }
                key.clear();
                row_key_into(&mut key, &key_vals);
                match index.get(key.as_str()) {
                    Some(&gi) => groups[gi].push(row),
                    None => {
                        index.insert(key.clone(), groups.len());
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
                slots,
            };
            if let Some(h) = &core.having {
                if !truthy(&self.eval_group(&gscope, h)?) {
                    continue;
                }
            }
            let mut values = Vec::with_capacity(plan.outputs.len());
            for output in &plan.outputs {
                match output {
                    Output::Column { index, .. } => {
                        values.push(match group.first() {
                            Some(row) => row[*index].clone(),
                            None => Value::Null,
                        });
                    }
                    Output::Expr(e) => values.push(self.eval_group(&gscope, e)?),
                }
            }
            let keys = self.order_keys(order_by, plan, &values, |e| self.eval_group(&gscope, e))?;
            out.push((values, keys));
        }
        Ok(out)
    }

    /// Computes sort keys for one output unit. Keys resolve, in priority
    /// order: positional references (`ORDER BY 1`), select-list aliases or
    /// output names, then arbitrary expressions in the source scope.
    fn order_keys(
        &self,
        order_by: &'a [OrderItem],
        plan: &ProjectionPlan<'a, '_>,
        values: &[Value],
        mut eval: impl FnMut(&'a Expr) -> ExecResult<Value>,
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

    /// Executes a subquery, memoizing uncorrelated ones by node.
    ///
    /// A subquery node is first attempted *without* the enclosing scope;
    /// if that only fails with an unknown column, it must be correlated,
    /// so it re-runs with the scope chained (and is not cached). The
    /// finding is remembered, so later rows go straight to the
    /// correlated run.
    fn subquery(&self, q: &'a Query, scope: &Scope<'_>) -> ExecResult<Rc<ResultSet>> {
        let node = std::ptr::from_ref(q) as usize;
        let memo = self.subqueries.borrow().get(&node).map(|m| match m {
            Subquery::Result(hit) => Some(Rc::clone(hit)),
            Subquery::Correlated => None,
        });
        match memo {
            Some(Some(hit)) => return Ok(hit),
            Some(None) => {}
            None => match self.query(q, None) {
                Ok(rs) => {
                    let rc = Rc::new(rs);
                    let memo = Subquery::Result(Rc::clone(&rc));
                    self.subqueries.borrow_mut().insert(node, memo);
                    return Ok(rc);
                }
                Err(ExecError::UnknownColumn { .. }) => {
                    let memo = Subquery::Correlated;
                    self.subqueries.borrow_mut().insert(node, memo);
                }
                Err(other) => return Err(other),
            },
        }
        // Correlated: evaluate in the enclosing scope, per row.
        self.query(q, Some(scope)).map(Rc::new)
    }

    // -- expression evaluation (row scope) ------------------------------------

    /// Evaluates `e`, borrowing a column's value from its row instead of
    /// cloning it: for operands that are only read.
    fn operand<'s>(&self, scope: &Scope<'s>, e: &'a Expr) -> ExecResult<Cow<'s, Value>> {
        match e {
            Expr::Column(c) => scope.value(c).map(Cow::Borrowed),
            _ => self.eval(scope, e).map(Cow::Owned),
        }
    }

    fn eval(&self, scope: &Scope<'_>, e: &'a Expr) -> ExecResult<Value> {
        match e {
            Expr::Column(c) => scope.value(c).cloned(),
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
                let v = self.operand(scope, expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = self.operand(scope, item)?;
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
                let v = self.operand(scope, expr)?;
                let lo = self.operand(scope, low)?;
                let hi = self.operand(scope, high)?;
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
                let v = self.operand(scope, expr)?;
                let p = self.operand(scope, pattern)?;
                match (v.as_ref(), p.as_ref()) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(pat)) => {
                        Ok(Value::Bool(like_match(s, pat) != *negated))
                    }
                    _ => Ok(Value::Bool(*negated)),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.operand(scope, expr)?;
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
        left: &'a Expr,
        op: BinOp,
        right: &'a Expr,
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
                let l = self.operand(scope, left)?;
                let r = self.operand(scope, right)?;
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
                Ok(arith(&l, op, &r))
            }
        }
    }

    // -- expression evaluation (group scope) ----------------------------------

    fn eval_group(&self, g: &GroupScope<'_>, e: &'a Expr) -> ExecResult<Value> {
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
                    Ok(arith(&l, *op, &r))
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

    fn eval_on_first_row(&self, g: &GroupScope<'_>, e: &'a Expr) -> ExecResult<Value> {
        match g.rows.first() {
            Some(row) => self.eval(&g.scope(row), e),
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
        args: &'a [Expr],
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
        let mut vals: Vec<Cow<'_, Value>> = Vec::with_capacity(g.rows.len());
        for row in g.rows {
            let v = self.operand(&g.scope(row), arg)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let mut seen = KeySet::with_capacity(vals.len());
            vals.retain(|v| seen.insert(std::slice::from_ref(v.as_ref())));
        }
        Ok(match func {
            Func::Count => Value::Int(vals.len() as i64),
            Func::Sum => {
                if vals.is_empty() {
                    Value::Null
                } else if vals.iter().all(|v| matches!(v.as_ref(), Value::Int(_))) {
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
                .map_or(Value::Null, |v| v.as_ref().clone()),
            Func::Max => vals
                .iter()
                .max_by(|a, b| a.total_cmp(b))
                .map_or(Value::Null, |v| v.as_ref().clone()),
            _ => unreachable!("non-aggregate filtered above"),
        })
    }
}

// ---------------------------------------------------------------------------
// Projection plan
// ---------------------------------------------------------------------------

/// One output of a projection: statement parts live for `'a`, relation
/// names for `'r`.
enum Output<'a, 'r> {
    /// Direct column copy (wildcard expansion), with the binding and
    /// column it names, for ORDER BY matching.
    Column {
        index: usize,
        binding: &'r str,
        column: &'r str,
    },
    /// Computed expression.
    Expr(&'a Expr),
}

struct ProjectionPlan<'a, 'r> {
    names: Vec<String>,
    outputs: Vec<Output<'a, 'r>>,
    /// Alias per original select item (pre-expansion); used only for
    /// alias-reference resolution.
    aliases: Vec<Option<&'a str>>,
}

impl ProjectionPlan<'_, '_> {
    /// Resolves an ORDER BY expression against the projection: by alias,
    /// by output name, or by structural identity with a projected
    /// expression (a wildcard column as its qualified reference).
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
                .position(|a| a.is_some_and(|a| a.eq_ignore_ascii_case(column)))
            {
                // Aliases map 1:1 to outputs only when no wildcard
                // expansion happened; guard by bounds.
                if i < self.outputs.len() && self.names[i].eq_ignore_ascii_case(column) {
                    return Some(i);
                }
            }
        }
        // Structural identity with a projected expression.
        self.outputs.iter().position(|o| match o {
            Output::Expr(pe) => *pe == e,
            Output::Column {
                binding, column, ..
            } => matches!(e, Expr::Column(ColumnRef { table: Some(t), column: c })
                if t == binding && c == column),
        })
    }
}

/// The select list of `core` over `rel`: output names and what computes
/// each output, borrowed from the statement and the relation.
fn projection_plan<'a, 'r>(
    core: &'a SelectCore,
    rel: &'r Relation<'_>,
) -> ExecResult<ProjectionPlan<'a, 'r>> {
    fn expand<'r>(b: &'r Binding<'_>, names: &mut Vec<String>, outputs: &mut Vec<Output<'_, 'r>>) {
        for i in 0..b.columns.len() {
            let column = b.columns.name(i);
            names.push(column.to_string());
            outputs.push(Output::Column {
                index: b.offset + i,
                binding: b.name,
                column,
            });
        }
    }
    let mut names = Vec::new();
    let mut outputs = Vec::new();
    for item in &core.items {
        match item {
            SelectItem::Wildcard => {
                if rel.bindings.is_empty() {
                    return Err(ExecError::MisplacedWildcard);
                }
                for b in &rel.bindings {
                    expand(b, &mut names, &mut outputs);
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let b = rel
                    .bindings
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| ExecError::UnknownTable { name: t.clone() })?;
                expand(b, &mut names, &mut outputs);
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                names.push(name);
                outputs.push(Output::Expr(expr));
            }
        }
    }
    Ok(ProjectionPlan {
        names,
        outputs,
        aliases: core
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => Some(a.as_str()),
                _ => None,
            })
            .collect(),
    })
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
    let columns = left.columns;
    let rows = match op {
        SetOp::UnionAll => {
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows
        }
        SetOp::Union => {
            let mut seen = KeySet::default();
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows.retain(|r| seen.insert(r));
            rows
        }
        SetOp::Intersect | SetOp::Except => {
            let mut right_keys = KeySet::with_capacity(right.rows.len());
            for r in &right.rows {
                right_keys.insert(r);
            }
            let keep_common = op == SetOp::Intersect;
            let mut seen = KeySet::default();
            let mut rows = left.rows;
            rows.retain(|r| right_keys.contains(r) == keep_common && seen.insert(r));
            rows
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
// Row keys
// ---------------------------------------------------------------------------

/// A set of row keys ([`row_key_into`]) built through one reused buffer:
/// a lookup allocates nothing, an insert allocates only a new key.
#[derive(Default)]
struct KeySet {
    keys: HashSet<String>,
    buf: String,
}

impl KeySet {
    fn with_capacity(n: usize) -> KeySet {
        KeySet {
            keys: HashSet::with_capacity(n),
            buf: String::new(),
        }
    }

    fn contains(&mut self, row: &[Value]) -> bool {
        self.buf.clear();
        row_key_into(&mut self.buf, row);
        self.keys.contains(self.buf.as_str())
    }

    /// Whether `row`'s key is new (and now present).
    fn insert(&mut self, row: &[Value]) -> bool {
        if self.contains(row) {
            return false;
        }
        self.keys.insert(self.buf.clone())
    }
}

/// One column's row keys ([`row_key_into`]), rendered into one arena: row
/// `j`'s key ends at `ends[j]`. A NULL renders empty (no other key is).
struct KeyArena {
    text: String,
    ends: Vec<usize>,
}

impl KeyArena {
    fn of<'v>(values: impl Iterator<Item = &'v Value>) -> KeyArena {
        let mut arena = KeyArena {
            text: String::new(),
            ends: Vec::new(),
        };
        for v in values {
            if !v.is_null() {
                row_key_into(&mut arena.text, std::slice::from_ref(v));
            }
            arena.ends.push(arena.text.len());
        }
        arena
    }

    fn key(&self, j: usize) -> &str {
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.text[start..self.ends[j]]
    }
}

/// A hash join's index over the build side's keys: per distinct key its
/// first and last row, and the rows sharing a key chained in ascending
/// order. NULL keys are left out (they never join).
struct KeyIndex<'k> {
    heads: HashMap<&'k str, (usize, usize)>,
    next: Vec<usize>,
}

impl<'k> KeyIndex<'k> {
    fn build(keys: &'k KeyArena) -> KeyIndex<'k> {
        let n = keys.ends.len();
        let mut heads: HashMap<&str, (usize, usize)> = HashMap::with_capacity(n);
        let mut next = vec![usize::MAX; n];
        for j in 0..n {
            let key = keys.key(j);
            if key.is_empty() {
                continue;
            }
            match heads.entry(key) {
                Entry::Occupied(mut chain) => {
                    let last = &mut chain.get_mut().1;
                    next[*last] = j;
                    *last = j;
                }
                Entry::Vacant(slot) => {
                    slot.insert((j, j));
                }
            }
        }
        KeyIndex { heads, next }
    }

    /// The rows whose key is `key`, ascending.
    fn matches(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let first = self.heads.get(key).map(|&(first, _)| first);
        std::iter::successors(first, |&j| Some(self.next[j]).filter(|&n| n != usize::MAX))
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

fn arith(l: &Value, op: BinOp, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Integer fast path (with SQLite truncating division).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
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
fn equi_join_columns(
    on: &Expr,
    left: &Relation<'_>,
    right: &Relation<'_>,
) -> Option<(usize, usize)> {
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
