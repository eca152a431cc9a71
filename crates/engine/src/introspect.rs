//! Schema introspection: bridges [`Database`] to the static analyzer's
//! [`SchemaInfo`] description, and memoizes everything derived from a
//! database's schema in one [`DbContext`].
//!
//! `fisql-sqlkit` deliberately has no engine dependency (every layer
//! shares its AST), so the analyzer defines its own schema types and this
//! module converts the engine's index-based schema (foreign keys by
//! column *index*) into the analyzer's name-based one.
//!
//! **The context memo.** [`Database::context`] keeps one [`DbContext`]
//! per distinct database shape for the life of the process: the
//! analyzer schema, the prompt templates' schema block, the schema
//! lexicon and the cache fingerprint, each derived once instead of on
//! every call (the schema and lexicon on first use: the semantic cache
//! reads only the fingerprint of every database it executes against).
//! The key is FNV-1a over the database name and table count, which tell
//! corpus databases apart. Because `Database`'s fields are public, a hit
//! is confirmed field by field against the shape the context was built
//! from — every field the four read: names, column types, keys and row
//! counts, never row data — so a key collision or a mutated database
//! builds a fresh context, which replaces the stale entry. Hashing the
//! whole shape into the key would add a second pass over every field to
//! each lookup and buy nothing: a colliding key costs a rebuild, never a
//! wrong context. Nothing is evicted: entries are bounded by the
//! distinct schemas a process touches (200 for the full-scale corpus).

use crate::schema::{Database, Table};
use crate::value::DataType;
use fisql_sqlkit::check::{ColType, ColumnInfo, FkInfo, SchemaInfo, TableInfo};
use fisql_sqlkit::{Fnv64, SchemaLexicon};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Maps an engine column type to the analyzer's type lattice.
pub fn col_type(dtype: DataType) -> ColType {
    match dtype {
        DataType::Int => ColType::Int,
        DataType::Float => ColType::Float,
        DataType::Text => ColType::Text,
        DataType::Bool => ColType::Bool,
        DataType::Date => ColType::Date,
    }
}

fn table_info(db: &Database, t: &Table) -> TableInfo {
    TableInfo {
        name: t.name.clone(),
        columns: t
            .columns
            .iter()
            .map(|c| ColumnInfo {
                name: c.name.clone(),
                ctype: col_type(c.dtype),
            })
            .collect(),
        primary_key: t
            .primary_key
            .and_then(|i| t.columns.get(i))
            .map(|c| c.name.clone()),
        foreign_keys: t
            .foreign_keys
            .iter()
            .filter_map(|fk| {
                let column = t.columns.get(fk.column)?.name.clone();
                let ref_column = db
                    .table(&fk.ref_table)?
                    .columns
                    .get(fk.ref_column)?
                    .name
                    .clone();
                Some(FkInfo {
                    column,
                    ref_table: fk.ref_table.clone(),
                    ref_column,
                })
            })
            .collect(),
    }
}

/// Builds the analyzer's schema description for a database. Foreign keys
/// with out-of-range column indices or dangling table references are
/// dropped (they could never produce a usable join hint).
pub fn schema_info(db: &Database) -> SchemaInfo {
    SchemaInfo {
        tables: db.tables.iter().map(|t| table_info(db, t)).collect(),
    }
}

impl Database {
    /// Analyzer-facing schema description ([`schema_info`]), built
    /// fresh; hot paths read [`Database::context`] instead.
    pub fn schema_info(&self) -> SchemaInfo {
        schema_info(self)
    }

    /// The process-wide [`DbContext`] for this database's shape, built
    /// on first use (see the module docs).
    pub fn context(&self) -> Arc<DbContext> {
        let mut key = Fnv64::new();
        key.update(self.name.as_bytes());
        key.update(&(self.tables.len() as u64).to_le_bytes());
        let key = key.finish();
        let hit = memo()
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
            .cloned();
        if let Some(ctx) = hit.filter(|ctx| ctx.shape.matches(self)) {
            return ctx;
        }
        let ctx = Arc::new(DbContext::build(self));
        memo()
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, Arc::clone(&ctx));
        ctx
    }
}

/// Everything derived from one database's schema, computed once per
/// distinct shape and shared ([`Database::context`]).
#[derive(Debug)]
pub struct DbContext {
    /// The prompt templates' schema block ([`Database::schema_text`]).
    pub schema_text: String,
    /// Result-cache fingerprint: FNV-1a over the database name plus every
    /// table's name, column names and row count. Cheap (no row data) but
    /// strong enough to content-check the corpus's unique-name guarantee.
    pub fingerprint: u64,
    /// The analyzer's schema description, built on first use: the
    /// semantic cache reads only the fingerprint.
    schema: OnceLock<SchemaInfo>,
    /// The feedback linkers' lexicon, built on first use: only databases
    /// whose feedback is interpreted are ever linked against.
    lexicon: OnceLock<Arc<SchemaLexicon>>,
    /// The shape the context was derived from, to confirm memo hits.
    shape: Shape,
}

impl DbContext {
    fn build(db: &Database) -> DbContext {
        DbContext {
            schema_text: db.schema_text(),
            fingerprint: fingerprint(db),
            schema: OnceLock::new(),
            lexicon: OnceLock::new(),
            shape: Shape::of(db),
        }
    }

    /// The analyzer's schema description ([`Database::schema_info`]).
    /// `db` is a database with this context's shape — the one
    /// `context()` was called on; the schema reads nothing else.
    pub fn schema(&self, db: &Database) -> &SchemaInfo {
        self.schema.get_or_init(|| {
            debug_assert!(self.shape.matches(db), "a database of another shape");
            schema_info(db)
        })
    }

    /// The feedback linkers' lexicon of this schema; `db` as for
    /// [`schema`](Self::schema).
    pub fn lexicon(&self, db: &Database) -> &Arc<SchemaLexicon> {
        self.lexicon
            .get_or_init(|| SchemaLexicon::of_schema(self.schema(db)))
    }
}

type Memo = RwLock<HashMap<u64, Arc<DbContext>>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// One item of a database's shape (see [`visit_shape`]).
enum Item<'a> {
    Text(&'a str),
    Number(u64),
}

/// Visits `db`'s shape — every field a [`DbContext`] reads: names,
/// column types, keys and row counts, never row data — in a fixed order
/// where each list is preceded by its length, so two databases yield
/// equal item sequences iff their shapes are equal.
fn visit_shape<'a>(db: &'a Database, mut visit: impl FnMut(Item<'a>)) {
    let count = |n: usize| Item::Number(n as u64);
    visit(Item::Text(&db.name));
    visit(count(db.tables.len()));
    for t in &db.tables {
        visit(Item::Text(&t.name));
        visit(count(t.columns.len()));
        for c in &t.columns {
            visit(Item::Number(c.dtype as u64));
            visit(Item::Text(&c.name));
        }
        visit(Item::Number(t.primary_key.map_or(u64::MAX, |i| i as u64)));
        visit(count(t.foreign_keys.len()));
        for fk in &t.foreign_keys {
            visit(count(fk.column));
            visit(Item::Text(&fk.ref_table));
            visit(count(fk.ref_column));
        }
        visit(count(t.rows.len()));
    }
}

/// A database's shape, flattened: every name concatenated, and every
/// number — each name's length among them — in visit order.
#[derive(Debug)]
struct Shape {
    names: Box<str>,
    numbers: Box<[u64]>,
}

impl Shape {
    fn of(db: &Database) -> Shape {
        let mut names = String::new();
        let mut numbers = Vec::new();
        visit_shape(db, |item| match item {
            Item::Text(text) => {
                names.push_str(text);
                numbers.push(text.len() as u64);
            }
            Item::Number(n) => numbers.push(n),
        });
        Shape {
            names: names.into(),
            numbers: numbers.into(),
        }
    }

    /// Whether `db` has this shape, compared item by item.
    fn matches(&self, db: &Database) -> bool {
        let mut names = self.names.as_bytes();
        let mut numbers = self.numbers.iter();
        let mut same = true;
        visit_shape(db, |item| {
            same = same
                && match item {
                    Item::Text(text) => {
                        let len = text.len();
                        let matched = numbers.next() == Some(&(len as u64))
                            && names.get(..len) == Some(text.as_bytes());
                        names = names.get(len..).unwrap_or_default();
                        matched
                    }
                    Item::Number(n) => numbers.next() == Some(&n),
                };
        });
        same && names.is_empty() && numbers.next().is_none()
    }
}

/// [`DbContext::fingerprint`], hashed in place.
fn fingerprint(db: &Database) -> u64 {
    let mut h = Fnv64::new();
    h.update(db.name.as_bytes());
    for table in &db.tables {
        h.update(&[0x1f]);
        h.update(table.name.as_bytes());
        for col in &table.columns {
            h.update(&[0x1e]);
            h.update(col.name.as_bytes());
        }
        h.update(&[0x1d]);
        h.update(&(table.rows.len() as u64).to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ForeignKey};
    use crate::value::Value;
    use fisql_sqlkit::check::check_query;
    use fisql_sqlkit::parse_query;

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
        db.add_table(singer);
        let mut concert = Table::new(
            "concert",
            vec![
                Column::new("concert_id", DataType::Int),
                Column::new("singer_id", DataType::Int),
                Column::new("concert_date", DataType::Date),
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
    fn schema_info_resolves_fk_names() {
        let info = sample_db().schema_info();
        let concert = info.table("concert").unwrap();
        assert_eq!(concert.primary_key.as_deref(), Some("concert_id"));
        assert_eq!(concert.foreign_keys.len(), 1);
        let fk = &concert.foreign_keys[0];
        assert_eq!(fk.column, "singer_id");
        assert_eq!(fk.ref_table, "singer");
        assert_eq!(fk.ref_column, "singer_id");
        assert_eq!(
            info.table("singer").unwrap().column("age").unwrap().ctype,
            ColType::Int
        );
    }

    #[test]
    fn dangling_fk_is_dropped() {
        let mut db = sample_db();
        db.table_mut("concert")
            .unwrap()
            .foreign_keys
            .push(ForeignKey {
                column: 99,
                ref_table: "singer".into(),
                ref_column: 0,
            });
        let info = db.schema_info();
        assert_eq!(info.table("concert").unwrap().foreign_keys.len(), 1);
    }

    #[test]
    fn context_hits_are_shared_and_mutations_rebuild() {
        let db = sample_db();
        let a = db.context();
        assert!(
            Arc::ptr_eq(&a, &db.context()),
            "a hit is the memoized context"
        );
        assert!(Arc::ptr_eq(&a, &db.clone().context()), "keyed by content");
        assert_eq!(*a.schema(&db), db.schema_info());
        assert_eq!(a.schema_text, db.schema_text());

        // Every field the context reads invalidates it.
        let mutations: [fn(&mut Database); 6] = [
            |db| db.name.push('x'),
            |db| db.tables[0].columns[2].name = "years".into(),
            |db| db.tables[0].columns[2].dtype = DataType::Float,
            |db| db.tables[1].primary_key = None,
            |db| db.tables[1].foreign_keys[0].ref_column = 1,
            |db| db.tables[0].push_row(vec![Value::Int(1), "a".into(), Value::Int(2)]),
        ];
        for mutate in mutations {
            let mut changed = db.clone();
            mutate(&mut changed);
            let b = changed.context();
            assert!(!Arc::ptr_eq(&a, &b));
            assert_eq!(*b.schema(&changed), changed.schema_info());
            assert_eq!(b.schema_text, changed.schema_text());
            assert!(Arc::ptr_eq(&b, &changed.context()));
        }
        // Row values are not part of the shape.
        let mut rows = db.clone();
        rows.tables[0].push_row(vec![Value::Int(1), "a".into(), Value::Int(2)]);
        let with_row = rows.context();
        rows.tables[0].rows[0][1] = "b".into();
        assert!(Arc::ptr_eq(&with_row, &rows.context()));
    }

    #[test]
    fn analyzer_runs_against_introspected_schema() {
        let db = sample_db();
        let info = db.schema_info();
        let q = parse_query("SELECT name FROM singer WHERE age > 30").unwrap();
        assert!(check_query(&q, &info).is_empty());
        let bad = parse_query("SELECT nam FROM singer").unwrap();
        let diags = check_query(&bad, &info);
        assert!(diags.iter().any(|d| d.is_error()));
    }
}
