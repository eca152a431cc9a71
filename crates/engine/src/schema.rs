//! Schema objects: columns, tables, foreign keys, and databases.

use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (unique within its table, case-insensitively).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// A foreign-key edge from one column of this table to a column of another
/// table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Index of the referencing column in the owning table.
    pub column: usize,
    /// Name of the referenced table.
    pub ref_table: String,
    /// Index of the referenced column in the referenced table.
    pub ref_column: usize,
}

/// A table: schema plus row storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name (unique within its database, case-insensitively).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
    /// Index of the primary-key column, if any.
    pub primary_key: Option<usize>,
    /// Outgoing foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
    /// Row storage; every row has exactly `columns.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Table {
            name: name.into(),
            columns,
            primary_key: None,
            foreign_keys: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Finds a column index by name, case-insensitively.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Appends a row after checking arity.
    ///
    /// # Panics
    /// Panics if the row arity does not match the column count — rows are
    /// only produced by the generator, so a mismatch is a programming
    /// error, not a data error.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != column count {} for table {}",
            row.len(),
            self.columns.len(),
            self.name
        );
        self.rows.push(row);
    }
}

/// A database: a named collection of tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Database {
    /// Database identifier.
    pub name: String,
    /// Tables in creation order.
    pub tables: Vec<Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Looks up a table by name, case-insensitively.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Adds a table; replaces any previous table with the same name.
    pub fn add_table(&mut self, table: Table) {
        if let Some(existing) = self.table_mut(&table.name) {
            *existing = table;
        } else {
            self.tables.push(table);
        }
    }

    /// Renders the schema as a `CREATE TABLE`-style text block. This is
    /// the "full schema definitions" fed into the zero-shot prompt of the
    /// paper's Figure 1.
    pub fn schema_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str("CREATE TABLE ");
            out.push_str(&t.name);
            out.push_str(" (\n");
            for (i, c) in t.columns.iter().enumerate() {
                out.push_str("  ");
                out.push_str(&c.name);
                out.push(' ');
                out.push_str(&c.dtype.to_string());
                if t.primary_key == Some(i) {
                    out.push_str(" PRIMARY KEY");
                }
                if let Some(fk) = t.foreign_keys.iter().find(|fk| fk.column == i) {
                    let ref_col = self
                        .table(&fk.ref_table)
                        .and_then(|rt| rt.columns.get(fk.ref_column))
                        .map(|c| c.name.clone())
                        .unwrap_or_else(|| format!("col{}", fk.ref_column));
                    out.push_str(&format!(" REFERENCES {}({})", fk.ref_table, ref_col));
                }
                if i + 1 < t.columns.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(");\n");
        }
        out
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "database `{}` ({} tables, {} rows)",
            self.name,
            self.tables.len(),
            self.total_rows()
        )
    }
}

// The parallel evaluation runner shares `&Database` across worker
// threads; this fails to compile if a future field (Rc, RefCell, raw
// pointer, …) silently removes that capability.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new("concert_singer");
        let mut singer = Table::new(
            "singer",
            vec![
                Column::new("singer_id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
            ],
        );
        singer.primary_key = Some(0);
        singer.push_row(vec![Value::Int(1), "Joe".into(), Value::Int(52)]);
        db.add_table(singer);
        let mut concert = Table::new(
            "concert",
            vec![
                Column::new("concert_id", DataType::Int),
                Column::new("singer_id", DataType::Int),
            ],
        );
        concert.primary_key = Some(0);
        concert.foreign_keys.push(ForeignKey {
            column: 1,
            ref_table: "singer".into(),
            ref_column: 0,
        });
        db.add_table(concert);
        db
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let db = sample_db();
        assert!(db.table("SINGER").is_some());
        assert_eq!(db.table("singer").unwrap().column_index("NAME"), Some(1));
        assert!(db.table("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", vec![Column::new("a", DataType::Int)]);
        t.push_row(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn schema_text_mentions_keys() {
        let db = sample_db();
        let text = db.schema_text();
        assert!(text.contains("CREATE TABLE singer"));
        assert!(text.contains("singer_id INT PRIMARY KEY"));
        assert!(text.contains("REFERENCES singer(singer_id)"));
    }

    #[test]
    fn add_table_replaces_same_name() {
        let mut db = sample_db();
        let replacement = Table::new("singer", vec![Column::new("x", DataType::Int)]);
        db.add_table(replacement);
        assert_eq!(db.tables.len(), 2);
        assert_eq!(db.table("singer").unwrap().columns.len(), 1);
    }

    #[test]
    fn total_rows_counts_all_tables() {
        let db = sample_db();
        assert_eq!(db.total_rows(), 1);
    }
}
