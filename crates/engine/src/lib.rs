//! # fisql-engine
//!
//! An in-memory relational engine used as the execution substrate of the
//! FISQL reproduction. The paper measures **execution accuracy** — a
//! prediction is correct iff running it yields the same result as running
//! the gold SQL — so the reproduction needs a real executor, not a string
//! comparison.
//!
//! The engine deliberately mirrors SQLite's behaviour in the corners that
//! matter to the SPIDER benchmark (see [`exec`] module docs).
//!
//! ```
//! use fisql_engine::{Database, Table, Column, DataType, Value, execute_sql};
//!
//! let mut db = Database::new("demo");
//! let mut t = Table::new("singer", vec![
//!     Column::new("name", DataType::Text),
//!     Column::new("age", DataType::Int),
//! ]);
//! t.push_row(vec!["Joe".into(), Value::Int(52)]);
//! t.push_row(vec!["Ann".into(), Value::Int(33)]);
//! db.add_table(t);
//!
//! let rs = execute_sql(&db, "SELECT name FROM singer WHERE age < 40").unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Text("Ann".into())]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ddl;
pub mod error;
pub mod exec;
pub mod explain;
pub mod introspect;
pub mod result;
pub mod schema;
pub mod value;

pub use ddl::{load_script, DdlError};
pub use error::{ExecError, ExecResult};
pub use exec::{execute, execute_sql, execute_with_limits, like_match, set_exec_pulse, ExecLimits};
pub use explain::explain;
pub use introspect::{col_type, schema_info, DbContext};
pub use result::{results_match, row_key, row_key_into, ResultSet};
pub use schema::{Column, Database, ForeignKey, Table};
pub use value::{float_eq, DataType, Value};
