//! Behavioural tests for the engine executor, organised as one fixture
//! database exercised by many queries. The fixture mimics a small SPIDER
//! database (`concert_singer`-like) plus an AEP-style analytics table.

use fisql_engine::{
    execute_sql, results_match, row_key, row_key_into, Column, DataType, Database, ForeignKey,
    Table, Value,
};
use proptest::prelude::*;

fn fixture() -> Database {
    let mut db = Database::new("concert_singer");

    let mut singer = Table::new(
        "singer",
        vec![
            Column::new("singer_id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("song_name", DataType::Text),
            Column::new("song_release_year", DataType::Int),
            Column::new("age", DataType::Int),
            Column::new("country", DataType::Text),
        ],
    );
    singer.primary_key = Some(0);
    for (id, name, song, year, age, country) in [
        (1, "Joe Sharp", "You", 1992, 52, "Netherlands"),
        (2, "Timbaland", "Dangerous", 2008, 32, "United States"),
        (3, "Justin Brown", "Hey Oh", 2013, 29, "France"),
        (4, "Rose White", "Sun", 2003, 41, "France"),
        (5, "John Nizinik", "Gentleman", 2014, 43, "France"),
        (6, "Tribal King", "Love", 2016, 25, "France"),
    ] {
        singer.push_row(vec![
            Value::Int(id),
            name.into(),
            song.into(),
            Value::Int(year),
            Value::Int(age),
            country.into(),
        ]);
    }
    db.add_table(singer);

    let mut concert = Table::new(
        "concert",
        vec![
            Column::new("concert_id", DataType::Int),
            Column::new("concert_name", DataType::Text),
            Column::new("stadium_id", DataType::Int),
            Column::new("year", DataType::Int),
        ],
    );
    concert.primary_key = Some(0);
    for (id, name, sid, year) in [
        (1, "Auditions", 1, 2014),
        (2, "Super bootcamp", 2, 2014),
        (3, "Home Visits", 2, 2015),
        (4, "Week 1", 10, 2014),
        (5, "Week 2", 1, 2015),
        (6, "Final", 9, 2015),
    ] {
        concert.push_row(vec![
            Value::Int(id),
            name.into(),
            Value::Int(sid),
            Value::Int(year),
        ]);
    }
    db.add_table(concert);

    let mut sic = Table::new(
        "singer_in_concert",
        vec![
            Column::new("concert_id", DataType::Int),
            Column::new("singer_id", DataType::Int),
        ],
    );
    sic.foreign_keys.push(ForeignKey {
        column: 0,
        ref_table: "concert".into(),
        ref_column: 0,
    });
    sic.foreign_keys.push(ForeignKey {
        column: 1,
        ref_table: "singer".into(),
        ref_column: 0,
    });
    for (cid, sid) in [
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 5),
        (4, 6),
        (5, 3),
        (6, 2),
    ] {
        sic.push_row(vec![Value::Int(cid), Value::Int(sid)]);
    }
    db.add_table(sic);

    // AEP-style table with dates-as-text and NULLs.
    let mut seg = Table::new(
        "hkg_dim_segment",
        vec![
            Column::new("segment_id", DataType::Int),
            Column::new("segment_name", DataType::Text),
            Column::new("createdTime", DataType::Date),
            Column::new("status", DataType::Text),
            Column::new("profile_count", DataType::Int),
        ],
    );
    seg.primary_key = Some(0);
    type SegRow = (
        i64,
        &'static str,
        &'static str,
        Option<&'static str>,
        Option<i64>,
    );
    let rows: Vec<SegRow> = vec![
        (1, "ABC", "2024-01-05", Some("active"), Some(1200)),
        (2, "Loyalty", "2024-01-20", Some("active"), Some(300)),
        (3, "Churned", "2023-01-11", Some("inactive"), None),
        (4, "VIP", "2024-02-02", None, Some(55)),
        (5, "Trial", "2023-06-30", Some("active"), Some(89)),
    ];
    for (id, name, created, status, count) in rows {
        seg.push_row(vec![
            Value::Int(id),
            name.into(),
            created.into(),
            status.map(Value::from).unwrap_or(Value::Null),
            count.map(Value::Int).unwrap_or(Value::Null),
        ]);
    }
    db.add_table(seg);

    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    execute_sql(db, sql)
        .unwrap_or_else(|e| panic!("query failed: {sql}\n{e}"))
        .rows
}

fn scalar_i64(db: &Database, sql: &str) -> i64 {
    let rs = execute_sql(db, sql).unwrap_or_else(|e| panic!("query failed: {sql}\n{e}"));
    match rs.scalar() {
        Some(Value::Int(n)) => *n,
        other => panic!("expected scalar int from {sql}, got {other:?}"),
    }
}

#[test]
fn simple_projection_and_filter() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer WHERE age > 40");
    assert_eq!(r.len(), 3);
}

#[test]
fn count_star() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT COUNT(*) FROM singer"), 6);
}

#[test]
fn count_with_filter_on_dates() {
    let db = fixture();
    // Paper Figure 4: segments created in January 2024.
    assert_eq!(
        scalar_i64(
            &db,
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'"
        ),
        2
    );
    // The misunderstood 2023 variant returns a different count.
    assert_eq!(
        scalar_i64(
            &db,
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'"
        ),
        1
    );
}

#[test]
fn aggregates() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT MAX(age) FROM singer"), 52);
    assert_eq!(scalar_i64(&db, "SELECT MIN(age) FROM singer"), 25);
    assert_eq!(scalar_i64(&db, "SELECT SUM(age) FROM singer"), 222);
    let rs = execute_sql(&db, "SELECT AVG(age) FROM singer").unwrap();
    assert!(matches!(rs.scalar(), Some(Value::Float(x)) if (*x - 37.0).abs() < 1e-9));
}

#[test]
fn aggregate_over_empty_set() {
    let db = fixture();
    assert_eq!(
        scalar_i64(&db, "SELECT COUNT(*) FROM singer WHERE age > 99"),
        0
    );
    let rs = execute_sql(&db, "SELECT MAX(age) FROM singer WHERE age > 99").unwrap();
    assert!(rs.scalar().unwrap().is_null());
}

#[test]
fn count_ignores_nulls_count_star_does_not() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT COUNT(*) FROM hkg_dim_segment"), 5);
    assert_eq!(
        scalar_i64(&db, "SELECT COUNT(status) FROM hkg_dim_segment"),
        4
    );
    assert_eq!(
        scalar_i64(&db, "SELECT COUNT(DISTINCT status) FROM hkg_dim_segment"),
        2
    );
}

#[test]
fn group_by_and_having() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Text("France".into()));
    assert_eq!(r[0][1].as_f64(), Some(4.0));
}

#[test]
fn group_by_orders_with_aggregate_key() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY COUNT(*) DESC LIMIT 1",
    );
    assert_eq!(r[0][0], Value::Text("France".into()));
}

#[test]
fn order_by_non_projected_column() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer ORDER BY age ASC LIMIT 1");
    assert_eq!(r[0][0], Value::Text("Tribal King".into()));
}

#[test]
fn order_by_positional() {
    let db = fixture();
    let r = rows(&db, "SELECT name, age FROM singer ORDER BY 2 DESC LIMIT 1");
    assert_eq!(r[0][0], Value::Text("Joe Sharp".into()));
}

#[test]
fn order_by_alias() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name, age AS years FROM singer ORDER BY years DESC LIMIT 1",
    );
    assert_eq!(r[0][0], Value::Text("Joe Sharp".into()));
}

#[test]
fn limit_offset() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer ORDER BY age ASC LIMIT 2 OFFSET 1",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0], Value::Text("Justin Brown".into()));
}

#[test]
fn offset_past_end_is_empty() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer LIMIT 5 OFFSET 100");
    assert!(r.is_empty());
}

#[test]
fn distinct() {
    let db = fixture();
    let r = rows(&db, "SELECT DISTINCT country FROM singer");
    assert_eq!(r.len(), 3);
}

#[test]
fn inner_join() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT s.name FROM singer s JOIN singer_in_concert sic ON s.singer_id = sic.singer_id \
         JOIN concert c ON sic.concert_id = c.concert_id WHERE c.year = 2015",
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn left_join_keeps_unmatched() {
    let db = fixture();
    // Singer 1 (Joe Sharp) performs in no concert.
    let r = rows(
        &db,
        "SELECT s.name, sic.concert_id FROM singer s \
         LEFT JOIN singer_in_concert sic ON s.singer_id = sic.singer_id \
         WHERE sic.concert_id IS NULL",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Text("Joe Sharp".into()));
}

#[test]
fn right_join_mirrors_left() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT s.name FROM singer_in_concert sic \
         RIGHT JOIN singer s ON s.singer_id = sic.singer_id \
         WHERE sic.concert_id IS NULL",
    );
    assert_eq!(r.len(), 1);
}

#[test]
fn cross_join_counts() {
    let db = fixture();
    assert_eq!(
        scalar_i64(&db, "SELECT COUNT(*) FROM singer CROSS JOIN concert"),
        36
    );
    assert_eq!(scalar_i64(&db, "SELECT COUNT(*) FROM singer, concert"), 36);
}

#[test]
fn join_with_non_equi_constraint_uses_nested_loop() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT COUNT(*) FROM singer s JOIN concert c ON s.age > c.year - 1990",
    );
    assert_eq!(r[0][0].as_f64().unwrap() as i64, 33);
}

#[test]
fn scalar_subquery() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name, song_release_year FROM singer WHERE age = (SELECT MIN(age) FROM singer)",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Text("Tribal King".into()));
    assert_eq!(r[0][1], Value::Int(2016));
}

#[test]
fn in_subquery() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert)",
    );
    assert_eq!(r.len(), 5);
}

#[test]
fn not_in_subquery() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM singer_in_concert)",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Text("Joe Sharp".into()));
}

#[test]
fn correlated_exists() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer s WHERE EXISTS \
         (SELECT 1 FROM singer_in_concert sic WHERE sic.singer_id = s.singer_id)",
    );
    assert_eq!(r.len(), 5);
}

#[test]
fn correlated_scalar_subquery() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name, (SELECT COUNT(*) FROM singer_in_concert sic \
         WHERE sic.singer_id = s.singer_id) AS appearances \
         FROM singer s ORDER BY appearances DESC, name ASC LIMIT 1",
    );
    assert_eq!(r[0][0], Value::Text("Justin Brown".into()));
    assert_eq!(r[0][1], Value::Int(3));
}

#[test]
fn union_dedupes() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT country FROM singer UNION SELECT country FROM singer",
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn union_all_keeps_duplicates() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT country FROM singer UNION ALL SELECT country FROM singer",
    );
    assert_eq!(r.len(), 12);
}

#[test]
fn intersect_and_except() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT year FROM concert INTERSECT SELECT song_release_year FROM singer",
    );
    assert_eq!(r.len(), 1); // 2014 appears in both
    let r = rows(
        &db,
        "SELECT year FROM concert EXCEPT SELECT song_release_year FROM singer",
    );
    assert_eq!(r.len(), 1); // 2015 remains
}

#[test]
fn set_op_order_by_output_column() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE age > 45 UNION SELECT name FROM singer WHERE age < 28 \
         ORDER BY name ASC",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0], Value::Text("Joe Sharp".into()));
}

#[test]
fn set_op_arity_mismatch_errors() {
    let db = fixture();
    assert!(execute_sql(
        &db,
        "SELECT name, age FROM singer UNION SELECT name FROM singer"
    )
    .is_err());
}

#[test]
fn like_patterns() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer WHERE name LIKE 'J%'");
    assert_eq!(r.len(), 3);
    let r = rows(&db, "SELECT name FROM singer WHERE name LIKE '%ose%'");
    assert_eq!(r.len(), 1);
    let r = rows(&db, "SELECT name FROM singer WHERE name LIKE '_ose White'");
    assert_eq!(r.len(), 1);
    // SQLite LIKE is case-insensitive.
    let r = rows(&db, "SELECT name FROM singer WHERE name LIKE 'j%'");
    assert_eq!(r.len(), 3);
}

#[test]
fn between() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer WHERE age BETWEEN 29 AND 41");
    assert_eq!(r.len(), 3);
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE age NOT BETWEEN 29 AND 41",
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn null_semantics_in_where() {
    let db = fixture();
    // NULL status rows match neither = 'active' nor != 'active'.
    let active = rows(&db, "SELECT * FROM hkg_dim_segment WHERE status = 'active'").len();
    let inactive = rows(
        &db,
        "SELECT * FROM hkg_dim_segment WHERE status != 'active'",
    )
    .len();
    assert_eq!(active + inactive, 4);
    let nulls = rows(&db, "SELECT * FROM hkg_dim_segment WHERE status IS NULL").len();
    assert_eq!(nulls, 1);
}

#[test]
fn not_in_with_nulls_filters_everything() {
    let db = fixture();
    // profile_count contains a NULL → `x NOT IN (subquery)` is never true.
    let r = rows(
        &db,
        "SELECT segment_id FROM hkg_dim_segment \
         WHERE segment_id NOT IN (SELECT profile_count FROM hkg_dim_segment)",
    );
    assert!(r.is_empty());
}

#[test]
fn arithmetic_and_division() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT 7 / 2"), 3); // integer division
    let rs = execute_sql(&db, "SELECT 7.0 / 2").unwrap();
    assert!(matches!(rs.scalar(), Some(Value::Float(x)) if *x == 3.5));
    let rs = execute_sql(&db, "SELECT 1 / 0").unwrap();
    assert!(rs.scalar().unwrap().is_null());
    assert_eq!(scalar_i64(&db, "SELECT 7 % 3"), 1);
}

#[test]
fn scalar_functions() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT ABS(-5)"), 5);
    assert_eq!(scalar_i64(&db, "SELECT LENGTH('hello')"), 5);
    let rs = execute_sql(&db, "SELECT LOWER('AbC')").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Text("abc".into()));
    let rs = execute_sql(&db, "SELECT UPPER('AbC')").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Text("ABC".into()));
    let rs = execute_sql(&db, "SELECT ROUND(2.567, 1)").unwrap();
    assert!(matches!(rs.scalar(), Some(Value::Float(x)) if (*x - 2.6).abs() < 1e-9));
    let rs = execute_sql(&db, "SELECT COALESCE(NULL, NULL, 3)").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(3));
    let rs = execute_sql(&db, "SELECT SUBSTR('hello', 2, 3)").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Text("ell".into()));
    let rs = execute_sql(&db, "SELECT SUBSTR('hello', -3)").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Text("llo".into()));
}

#[test]
fn case_expression() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name, CASE WHEN age >= 40 THEN 'senior' ELSE 'junior' END FROM singer \
         WHERE name = 'Joe Sharp'",
    );
    assert_eq!(r[0][1], Value::Text("senior".into()));
}

#[test]
fn derived_table() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT d.c FROM (SELECT country AS c, COUNT(*) AS n FROM singer GROUP BY country) AS d \
         WHERE d.n > 1",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Text("France".into()));
}

#[test]
fn wildcard_expansion() {
    let db = fixture();
    let rs = execute_sql(&db, "SELECT * FROM singer").unwrap();
    assert_eq!(rs.columns.len(), 6);
    let rs = execute_sql(
        &db,
        "SELECT s.* FROM singer s JOIN concert c ON s.singer_id = c.stadium_id",
    )
    .unwrap();
    assert_eq!(rs.columns.len(), 6);
}

#[test]
fn unknown_identifiers_error() {
    let db = fixture();
    assert!(execute_sql(&db, "SELECT * FROM nope").is_err());
    assert!(execute_sql(&db, "SELECT nope FROM singer").is_err());
    assert!(execute_sql(&db, "SELECT nope.name FROM singer").is_err());
}

#[test]
fn ambiguous_column_errors() {
    let db = fixture();
    assert!(execute_sql(
        &db,
        "SELECT singer_id FROM singer JOIN singer_in_concert ON 1 = 1"
    )
    .is_err());
}

#[test]
fn duplicate_binding_errors() {
    let db = fixture();
    assert!(execute_sql(&db, "SELECT * FROM singer JOIN singer ON 1 = 1").is_err());
    // But distinct aliases over the same table are fine (self-join).
    assert!(execute_sql(
        &db,
        "SELECT a.name FROM singer a JOIN singer b ON a.age < b.age"
    )
    .is_ok());
}

#[test]
fn aggregate_in_where_errors() {
    let db = fixture();
    assert!(execute_sql(&db, "SELECT name FROM singer WHERE COUNT(*) > 1").is_err());
}

#[test]
fn nested_aggregate_errors() {
    let db = fixture();
    assert!(execute_sql(&db, "SELECT MAX(COUNT(*)) FROM singer").is_err());
}

#[test]
fn execution_match_semantics() {
    let db = fixture();
    let a = execute_sql(&db, "SELECT name FROM singer WHERE age > 40").unwrap();
    let b = execute_sql(
        &db,
        "SELECT name FROM singer WHERE age > 40 ORDER BY name ASC",
    )
    .unwrap();
    // Unordered gold: the ordered prediction still matches.
    assert!(results_match(&b, &a));
    // Aliases are ignored.
    let c = execute_sql(&db, "SELECT name AS x FROM singer WHERE age > 40").unwrap();
    assert!(results_match(&c, &a));
    // A different filter does not match.
    let d = execute_sql(&db, "SELECT name FROM singer WHERE age > 45").unwrap();
    assert!(!results_match(&d, &a));
}

#[test]
fn min_max_on_text() {
    let db = fixture();
    let rs = execute_sql(&db, "SELECT MIN(name), MAX(name) FROM singer").unwrap();
    assert_eq!(rs.rows[0][0], Value::Text("Joe Sharp".into()));
    assert_eq!(rs.rows[0][1], Value::Text("Tribal King".into()));
}

#[test]
fn group_by_null_keys_group_together() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT status, COUNT(*) FROM hkg_dim_segment GROUP BY status",
    );
    assert_eq!(r.len(), 3); // active, inactive, NULL
}

#[test]
fn select_literal_without_from() {
    let db = fixture();
    assert_eq!(scalar_i64(&db, "SELECT 42"), 42);
}

#[test]
fn deep_nesting_three_levels() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE singer_id IN (
            SELECT singer_id FROM singer_in_concert WHERE concert_id IN (
                SELECT concert_id FROM concert WHERE year = (SELECT MAX(year) FROM concert)))",
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn empty_in_list_never_matches() {
    let db = fixture();
    let r = rows(&db, "SELECT name FROM singer WHERE singer_id IN (99, 98)");
    assert!(r.is_empty());
}

// ---------------------------------------------------------------------------
// Executor edge cases: in-place scans, lazily resolved column slots,
// subqueries memoized by node, and join row order.
// ---------------------------------------------------------------------------

fn error_text(db: &Database, sql: &str) -> String {
    match execute_sql(db, sql) {
        Ok(rs) => panic!("expected an error from {sql}, got {rs:?}"),
        Err(e) => e,
    }
}

fn int_pairs(db: &Database, sql: &str) -> Vec<(Option<i64>, Option<i64>)> {
    let int = |v: &Value| match v {
        Value::Int(n) => Some(*n),
        Value::Null => None,
        other => panic!("expected an int or NULL, got {other:?}"),
    };
    rows(db, sql)
        .iter()
        .map(|r| (int(&r[0]), int(&r[1])))
        .collect()
}

#[test]
fn unknown_column_over_an_empty_table_is_not_an_error() {
    let mut db = fixture();
    db.add_table(Table::new("empty_t", vec![Column::new("x", DataType::Int)]));
    // The predicate never runs, so its columns are never resolved.
    assert!(rows(&db, "SELECT x FROM empty_t WHERE nope = 1").is_empty());
    assert!(rows(&db, "SELECT * FROM empty_t WHERE e.nope > x").is_empty());
    // Over a non-empty table the same predicate fails.
    assert_eq!(
        error_text(&db, "SELECT name FROM singer WHERE nope = 1"),
        "unknown column `nope`"
    );
    assert_eq!(
        error_text(&db, "SELECT name FROM singer WHERE e.nope = 1"),
        "unknown column `e.nope`"
    );
}

#[test]
fn ambiguous_unqualified_column_keeps_its_error_text() {
    let db = fixture();
    for sql in [
        "SELECT singer_id FROM singer JOIN singer_in_concert ON 1 = 1",
        "SELECT name FROM singer s JOIN singer_in_concert sic \
         ON s.singer_id = sic.singer_id WHERE singer_id > 2",
        "SELECT s.name FROM singer s JOIN singer_in_concert sic ON singer_id = 1",
    ] {
        assert_eq!(
            error_text(&db, sql),
            "ambiguous column `singer_id`",
            "{sql}"
        );
    }
    // Qualified, the same column is fine.
    assert_eq!(
        rows(
            &db,
            "SELECT s.singer_id FROM singer s JOIN singer_in_concert sic \
             ON s.singer_id = sic.singer_id WHERE s.singer_id > 4"
        )
        .len(),
        2
    );
}

#[test]
fn identical_uncorrelated_subqueries_at_two_nodes_agree() {
    let db = fixture();
    let r = rows(
        &db,
        "SELECT (SELECT MAX(age) FROM singer), (SELECT MAX(age) FROM singer) FROM singer",
    );
    assert_eq!(r.len(), 6);
    assert!(r.iter().all(|row| row == &[Value::Int(52), Value::Int(52)]));
    let r = rows(
        &db,
        "SELECT name FROM singer WHERE age = (SELECT MIN(age) FROM singer) \
         OR age + 1 = (SELECT MIN(age) FROM singer) + 1",
    );
    assert_eq!(r, vec![vec![Value::Text("Tribal King".into())]]);
}

#[test]
fn correlated_exists_and_select_list_subquery_match_hand_counts() {
    let db = fixture();
    // Appearances per singer in `singer_in_concert`, counted by hand.
    assert_eq!(
        int_pairs(
            &db,
            "SELECT singer_id, (SELECT COUNT(*) FROM singer_in_concert sic \
             WHERE sic.singer_id = s.singer_id) FROM singer s",
        ),
        [(1, 0), (2, 2), (3, 3), (4, 1), (5, 1), (6, 1)]
            .map(|(a, b)| (Some(a), Some(b)))
            .to_vec()
    );
    // Singers with a concert after concert 2: rows (3,5), (4,6), (5,3),
    // (6,2) of `singer_in_concert`.
    let ids =
        |sql: &str| -> Vec<Value> { rows(&db, sql).into_iter().map(|r| r[0].clone()).collect() };
    assert_eq!(
        ids(
            "SELECT singer_id FROM singer s WHERE EXISTS (SELECT 1 FROM singer_in_concert sic \
             WHERE sic.singer_id = s.singer_id AND sic.concert_id > 2)"
        ),
        [2, 3, 5, 6].map(Value::Int).to_vec()
    );
    assert_eq!(
        ids(
            "SELECT singer_id FROM singer s WHERE NOT EXISTS (SELECT 1 FROM singer_in_concert sic \
             WHERE sic.singer_id = s.singer_id AND sic.concert_id > 2)"
        ),
        [1, 4].map(Value::Int).to_vec()
    );
}

#[test]
fn nested_loop_outer_joins_keep_row_order() {
    let db = fixture();
    // Not an equality, so both joins take the nested loop. Concerts of
    // 2015 are 3, 5 and 6.
    let on = "ON c.concert_id < s.singer_id AND c.year = 2015";
    assert_eq!(
        int_pairs(
            &db,
            &format!("SELECT s.singer_id, c.concert_id FROM singer s LEFT JOIN concert c {on}"),
        ),
        vec![
            (Some(1), None),
            (Some(2), None),
            (Some(3), None),
            (Some(4), Some(3)),
            (Some(5), Some(3)),
            (Some(6), Some(3)),
            (Some(6), Some(5)),
        ]
    );
    assert_eq!(
        int_pairs(
            &db,
            &format!("SELECT s.singer_id, c.concert_id FROM singer s RIGHT JOIN concert c {on}"),
        ),
        vec![
            (Some(4), Some(3)),
            (Some(5), Some(3)),
            (Some(6), Some(3)),
            (Some(6), Some(5)),
            (None, Some(1)),
            (None, Some(2)),
            (None, Some(4)),
            (None, Some(6)),
        ]
    );
}

#[test]
fn hash_joins_keep_row_order() {
    let db = fixture();
    let on = "ON s.singer_id = sic.singer_id";
    // Each left row's matches in build-side order.
    assert_eq!(
        int_pairs(
            &db,
            &format!("SELECT s.singer_id, sic.concert_id FROM singer s LEFT JOIN singer_in_concert sic {on}"),
        ),
        vec![
            (Some(1), None),
            (Some(2), Some(1)),
            (Some(2), Some(6)),
            (Some(3), Some(1)),
            (Some(3), Some(2)),
            (Some(3), Some(5)),
            (Some(4), Some(2)),
            (Some(5), Some(3)),
            (Some(6), Some(4)),
        ]
    );
    assert_eq!(
        int_pairs(
            &db,
            &format!("SELECT sic.concert_id, s.singer_id FROM singer_in_concert sic RIGHT JOIN singer s {on}"),
        ),
        vec![
            (Some(1), Some(2)),
            (Some(1), Some(3)),
            (Some(2), Some(3)),
            (Some(2), Some(4)),
            (Some(3), Some(5)),
            (Some(4), Some(6)),
            (Some(5), Some(3)),
            (Some(6), Some(2)),
            (None, Some(1)),
        ]
    );
}

/// The row key as it was written before `row_key_into`: one `format!`
/// temporary per number.
fn format_row_key(row: &[Value]) -> String {
    let mut key = String::with_capacity(row.len() * 8);
    for v in row {
        match v {
            Value::Null => key.push_str("\u{1}N"),
            Value::Int(n) => {
                key.push_str("\u{1}F");
                key.push_str(&format!("{:.9e}", *n as f64));
            }
            Value::Float(x) => {
                key.push_str("\u{1}F");
                if x.is_nan() {
                    key.push_str("NaN");
                } else {
                    key.push_str(&format!("{x:.9e}"));
                }
            }
            Value::Text(s) => {
                key.push_str("\u{1}T");
                key.push_str(s);
            }
            Value::Bool(b) => {
                key.push_str(if *b { "\u{1}Bt" } else { "\u{1}Bf" });
            }
        }
    }
    key
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Short integers, whose keys skip the float formatter, up to and
        // past the ten-digit edge; and the same values as floats.
        (-1_000i64..1_000).prop_map(Value::Int),
        (-20_000_000_000i64..20_000_000_000).prop_map(Value::Int),
        (0i64..8, any::<bool>()).prop_map(|(d, neg)| {
            let n = 9_999_999_996 + d;
            Value::Int(if neg { -n } else { n })
        }),
        (-20_000_000_000i64..20_000_000_000).prop_map(|n| Value::Float(n as f64)),
        Just(Value::Float(0.0)),
        Just(Value::Float(1e10)),
        Just(Value::Float(f64::INFINITY)),
        // Around 2^53, where `i64 as f64` starts to round.
        (0i64..64, any::<bool>()).prop_map(|(d, neg)| {
            let n = (1i64 << 53) + d - 32;
            Value::Int(if neg { -n } else { n })
        }),
        // Every bit pattern: NaNs, infinities, subnormals, -0.0.
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        // Near the 10-significant-digit rounding edge of `{:.9e}`.
        (1i64..100_000, 0i64..40).prop_map(|(m, k)| {
            Value::Float((m as f64 + 0.5) * 1e-9 + (k - 20) as f64 * 1e-18 + m as f64)
        }),
        (0i64..1_000, 0i64..21).prop_map(|(m, k)| Value::Float(m as f64 + (k - 10) as f64 * 1e-10)),
        "[a-zA-Z0-9 _]{0,8}".prop_map(Value::Text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn row_key_into_is_byte_equal_to_the_format_key(
        row in prop::collection::vec(value_strategy(), 0..6),
        prefix in "[a-z]{0,3}",
    ) {
        prop_assert_eq!(row_key(&row), format_row_key(&row));
        // Appending keeps what the buffer held.
        let mut buf = prefix.clone();
        row_key_into(&mut buf, &row);
        prop_assert_eq!(buf, format!("{prefix}{}", format_row_key(&row)));
    }
}
