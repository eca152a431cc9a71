//! Query results and the execution-match comparison.
//!
//! The paper's correctness metric is **execution accuracy**: a predicted
//! SQL is correct iff its execution result matches the gold SQL's
//! execution result. Following the SPIDER evaluator's convention, rows are
//! compared as a multiset unless the gold query has an ORDER BY, in which
//! case row order matters.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Whether the producing query imposed an ordering (had ORDER BY).
    pub ordered: bool,
}

impl ResultSet {
    /// An empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
            ordered: false,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A single scalar convenience accessor: the value at (0, 0), if the
    /// result has exactly one row and one column.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.columns.len() == 1 {
            self.rows[0].first()
        } else {
            None
        }
    }

    /// Renders the first `max_rows` rows as an aligned text grid — what
    /// the paper's Assistant shows users as "Evaluation" (Figure 7).
    pub fn render_grid(&self, max_rows: usize) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let shown = self.rows.iter().take(max_rows);
        let rendered: Vec<Vec<String>> = shown
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(&format!("{:w$}", c, w = widths[i]));
        }
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(&format!(
                    "{:w$}",
                    cell,
                    w = widths.get(i).copied().unwrap_or(0)
                ));
            }
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - max_rows));
        }
        out
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_grid(20))
    }
}

/// Canonical string key for a row, used for multiset comparison and
/// DISTINCT/set-op deduplication. Floats are keyed at reduced precision so
/// values that compare `group_eq` share a key.
pub fn row_key(row: &[Value]) -> String {
    let mut key = String::with_capacity(row.len() * 8);
    row_key_into(&mut key, row);
    key
}

/// Appends [`row_key`]`(row)` to `key`, formatting numbers in place: hot
/// loops key every row through one reused buffer.
pub fn row_key_into(key: &mut String, row: &[Value]) {
    for v in row {
        match v {
            Value::Null => key.push_str("\u{1}N"),
            // Integers and integral floats share a key.
            Value::Int(n) => {
                key.push_str("\u{1}F");
                push_scientific(key, *n as f64);
            }
            Value::Float(x) => {
                key.push_str("\u{1}F");
                if x.is_nan() {
                    key.push_str("NaN");
                } else {
                    push_scientific(key, *x);
                }
            }
            Value::Text(s) => {
                key.push_str("\u{1}T");
                key.push_str(s);
            }
            Value::Bool(b) => key.push_str(if *b { "\u{1}Bt" } else { "\u{1}Bf" }),
        }
    }
}

/// Appends `format!("{x:.9e}")`. An integral `x` below 1e10 in magnitude
/// has at most ten digits, so its ten significant digits are its own
/// digits, zero-padded: they are written directly, without the float
/// formatter. Everything else (fractions, larger magnitudes, `-0.0`,
/// infinities) goes through `write!`.
fn push_scientific(key: &mut String, x: f64) {
    if x.fract() != 0.0 || x.abs() >= 1e10 || (x == 0.0 && x.is_sign_negative()) {
        // Writing into a `String` cannot fail.
        let _ = write!(key, "{x:.9e}");
        return;
    }
    // Exact: |x| < 1e10 < 2^63.
    let n = x as i64;
    let mut digits = [0u8; 10];
    let mut len = 0;
    let mut rest = n.unsigned_abs();
    loop {
        digits[len] = b'0' + (rest % 10) as u8;
        len += 1;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        key.push('-');
    }
    key.push(char::from(digits[len - 1]));
    key.push('.');
    key.extend(digits[..len - 1].iter().rev().map(|&d| char::from(d)));
    key.extend(std::iter::repeat_n('0', 10 - len));
    key.push('e');
    key.push(char::from(b'0' + (len - 1) as u8));
}

/// Execution-match: does `predicted` produce the same result as `gold`?
///
/// - Column *labels* are ignored (aliases do not affect correctness) but
///   column count must match.
/// - If `gold.ordered`, rows must match pairwise in order.
/// - Otherwise rows are compared as multisets.
pub fn results_match(predicted: &ResultSet, gold: &ResultSet) -> bool {
    if predicted.columns.len() != gold.columns.len() {
        return false;
    }
    if predicted.rows.len() != gold.rows.len() {
        return false;
    }
    if gold.ordered {
        predicted
            .rows
            .iter()
            .zip(&gold.rows)
            .all(|(p, g)| rows_eq(p, g))
    } else {
        let mut counts: HashMap<String, i64> = HashMap::with_capacity(gold.rows.len());
        let mut key = String::new();
        for r in &gold.rows {
            key.clear();
            row_key_into(&mut key, r);
            match counts.get_mut(key.as_str()) {
                Some(c) => *c += 1,
                None => {
                    counts.insert(key.clone(), 1);
                }
            }
        }
        for r in &predicted.rows {
            key.clear();
            row_key_into(&mut key, r);
            match counts.get_mut(key.as_str()) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return false,
            }
        }
        true
    }
}

fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.group_eq(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rows: Vec<Vec<Value>>, ordered: bool) -> ResultSet {
        let cols = (0..rows.first().map(|r| r.len()).unwrap_or(1))
            .map(|i| format!("c{i}"))
            .collect();
        ResultSet {
            columns: cols,
            rows,
            ordered,
        }
    }

    #[test]
    fn unordered_match_ignores_row_order() {
        let a = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]], false);
        let b = rs(vec![vec![Value::Int(2)], vec![Value::Int(1)]], false);
        assert!(results_match(&a, &b));
    }

    #[test]
    fn ordered_match_requires_order() {
        let a = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]], false);
        let mut b = rs(vec![vec![Value::Int(2)], vec![Value::Int(1)]], false);
        b.ordered = true;
        assert!(!results_match(&a, &b));
    }

    #[test]
    fn multiset_counts_matter() {
        let a = rs(
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
            false,
        );
        let b = rs(
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(2)],
            ],
            false,
        );
        assert!(!results_match(&a, &b));
    }

    #[test]
    fn arity_mismatch_fails() {
        let a = rs(vec![vec![Value::Int(1), Value::Int(2)]], false);
        let b = rs(vec![vec![Value::Int(1)]], false);
        assert!(!results_match(&a, &b));
    }

    #[test]
    fn column_labels_ignored() {
        let mut a = rs(vec![vec![Value::Int(1)]], false);
        let b = rs(vec![vec![Value::Int(1)]], false);
        a.columns = vec!["anything".into()];
        assert!(results_match(&a, &b));
    }

    #[test]
    fn float_and_int_keys_coincide() {
        let a = rs(vec![vec![Value::Int(3)]], false);
        let b = rs(vec![vec![Value::Float(3.0)]], false);
        assert!(results_match(&a, &b));
    }

    #[test]
    fn nulls_match_nulls_only() {
        let a = rs(vec![vec![Value::Null]], false);
        let b = rs(vec![vec![Value::Null]], false);
        assert!(results_match(&a, &b));
        let c = rs(vec![vec![Value::Int(0)]], false);
        assert!(!results_match(&a, &c));
    }

    #[test]
    fn render_grid_truncates() {
        let a = rs(
            (0..30).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
            false,
        );
        let grid = a.render_grid(5);
        assert!(grid.contains("25 more rows"));
    }

    #[test]
    fn scalar_accessor() {
        let a = rs(vec![vec![Value::Int(7)]], false);
        assert_eq!(a.scalar().unwrap().as_f64(), Some(7.0));
        let b = rs(vec![vec![Value::Int(7)], vec![Value::Int(8)]], false);
        assert!(b.scalar().is_none());
    }
}
