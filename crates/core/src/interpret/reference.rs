//! The schema linkers as they were before the shared lexicon, kept as
//! test oracles: each re-humanizes and re-sorts the whole schema on every
//! call. The differential property below runs them against the lexicon
//! path — the interpreter's cue linking and de-linker, and
//! `FeedbackCues::extract` — over the full-scale corpus schemas plus a
//! hand-made schema with mixed-case and `_`-edged names, and requires
//! element-for-element equal output.

use super::{delink, find_word, Cues};
use fisql_engine::{Column, DataType, Database, Table};
use fisql_spider::{build_spider, SpiderConfig};
use fisql_sqlkit::check::SchemaInfo;
use fisql_sqlkit::{humanize, parse_query, FeedbackCues, Query};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The interpreter's column and table linking (`Cues::extract`).
fn reference_cues_links(
    text: &str,
    predicted: &Query,
    db: &Database,
) -> (Vec<(String, String)>, Vec<String>) {
    let lower = text.to_lowercase();
    let query_tables = predicted.all_table_names();
    let mut all_cols: Vec<(String, String, String)> = Vec::new();
    for t in &db.tables {
        let in_query = query_tables.iter().any(|n| n.eq_ignore_ascii_case(&t.name));
        for c in &t.columns {
            let human = humanize(&c.name);
            all_cols.push((
                t.name.clone(),
                c.name.clone(),
                format!("{}{human}", if in_query { "" } else { "\u{1}" }),
            ));
        }
    }
    all_cols.sort_by(|a, b| {
        b.2.trim_start_matches('\u{1}')
            .len()
            .cmp(&a.2.trim_start_matches('\u{1}').len())
            .then(a.2.cmp(&b.2))
    });
    let mut masked = lower.clone();
    let mut columns = Vec::new();
    for (table, column, keyed) in &all_cols {
        let human = keyed.trim_start_matches('\u{1}');
        if human.len() < 3 {
            continue;
        }
        if let Some(pos) = find_word(&masked, human) {
            masked.replace_range(pos..pos + human.len(), &"\u{2}".repeat(human.len()));
            columns.push((table.clone(), column.clone()));
        } else if let Some(pos) = find_word(&masked, &format!("{human}s")) {
            masked.replace_range(pos..=(pos + human.len()), &"\u{2}".repeat(human.len() + 1));
            columns.push((table.clone(), column.clone()));
        }
    }
    let mut tables = Vec::new();
    for t in &db.tables {
        let human = humanize(&t.name);
        if find_word(&lower, &human).is_some() || find_word(&lower, &format!("{human}s")).is_some()
        {
            tables.push(t.name.clone());
        }
    }
    (columns, tables)
}

/// The interpreter's de-linker (`parse_delinked` before its parse).
fn reference_delink(text: &str, db: &Database) -> String {
    let mut delinked = text.to_string();
    let mut idents: Vec<&str> = Vec::new();
    for t in &db.tables {
        idents.push(&t.name);
        for c in &t.columns {
            idents.push(&c.name);
        }
    }
    idents.sort_by_key(|i| std::cmp::Reverse(i.len()));
    for ident in idents {
        let human = humanize(ident);
        if human.contains(' ') {
            loop {
                let shadow = delinked.to_ascii_lowercase();
                let Some(pos) = find_word(&shadow, &human) else {
                    break;
                };
                delinked.replace_range(pos..pos + human.len(), ident);
            }
        }
    }
    delinked
}

/// `sqlkit::locate`'s word finder: a word-boundary match, optionally
/// followed by a plural `s`, as a byte range.
fn locate_find_word(hay: &str, needle: &str) -> Option<(usize, usize)> {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let start = from + rel;
        let mut end = start + needle.len();
        let before_ok = start == 0
            || !hay[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric());
        if hay[end..].starts_with('s') {
            end += 1;
        }
        let after_ok = !hay[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric());
        if before_ok && after_ok {
            return Some((start, end));
        }
        from = start + needle.len().max(1);
    }
    None
}

/// `FeedbackCues::extract` with the repair search's entity linking.
fn reference_feedback_cues(text: &str, schema: &SchemaInfo) -> FeedbackCues {
    let lower = text.to_lowercase();
    let mut entities: Vec<(String, String, bool)> = Vec::new();
    for t in &schema.tables {
        entities.push((humanize(&t.name), t.name.clone(), true));
        for c in &t.columns {
            let h = humanize(&c.name);
            if !entities.iter().any(|(eh, _, it)| !*it && *eh == h) {
                entities.push((h, c.name.clone(), false));
            }
        }
    }
    entities.sort_by(|a, b| {
        b.0.len()
            .cmp(&a.0.len())
            .then_with(|| b.2.cmp(&a.2))
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut tables = Vec::new();
    let mut columns = Vec::new();
    let mut masked = lower;
    for (h, canonical, is_table) in entities {
        if h.len() < 3 {
            continue;
        }
        if let Some((start, end)) = locate_find_word(&masked, &h) {
            masked.replace_range(start..end, &"\u{1}".repeat(end - start));
            let linked = if is_table { &mut tables } else { &mut columns };
            if !linked.contains(&canonical) {
                linked.push(canonical);
            }
        }
    }
    FeedbackCues {
        tables,
        columns,
        ..FeedbackCues::extract(text, schema)
    }
}

fn table(name: &str, columns: &[&str]) -> Table {
    Table::new(
        name,
        columns
            .iter()
            .map(|c| Column::new(*c, DataType::Text))
            .collect(),
    )
}

/// The full-scale corpus databases, then one hand-made schema with names
/// the corpus never produces: mixed case, `_` at either edge, spellings
/// equal once humanized, and names shorter than the linkers' three-byte
/// floor.
fn schemas() -> &'static [Database] {
    static SCHEMAS: OnceLock<Vec<Database>> = OnceLock::new();
    SCHEMAS.get_or_init(|| {
        let mut dbs = build_spider(&SpiderConfig::default()).databases;
        let mut odd = Database::new("odd");
        for t in [
            table(
                "hkg_dim_segment",
                &["segment_id", "segment_name", "createdTime", "Song_Name"],
            ),
            table("_audit_", &["_id", "name_", "song_name", "__x", "ts"]),
            table(
                "Song",
                &["song_name", "name", "id", "Name", "_created_time"],
            ),
            table("name", &["song", "singer_id", "createdtime_"]),
        ] {
            odd.add_table(t);
        }
        dbs.push(odd);
        dbs
    })
}

const FILLER: &[&str] = &[
    "show",
    "the",
    "of",
    "and",
    "instead",
    "rows where",
    "should be",
    "to",
    "not",
    "s",
    "id",
    "ids",
    "name",
    "names",
    "song",
    "singer",
    "year",
    "is",
    "a",
    "where",
    "count(*)",
];

const PUNCTUATION: &[&str] = &[
    ",", ".", "?", "!", "'", "(", ")", "-", "_", "=", ">", "<", "'x'", "\"",
];

/// Renders one utterance piece against `db`.
fn piece(db: &Database, kind: u32, pick: u32) -> String {
    let names: Vec<&str> = db
        .tables
        .iter()
        .flat_map(|t| {
            std::iter::once(t.name.as_str()).chain(t.columns.iter().map(|c| c.name.as_str()))
        })
        .collect();
    let name = names[pick as usize % names.len()];
    let human = humanize(name);
    match kind {
        0 => human,
        1 => format!("{human}s"),
        2 => human.to_uppercase(),
        // A compound name next to its own tail ("song name name"): the
        // masked overlap.
        3 => {
            let tail = human.rsplit(' ').next().unwrap_or("");
            format!("{human} {tail}")
        }
        // The first word alone ("song" of "song name").
        4 => human.split(' ').next().unwrap_or("").to_string(),
        5 => name.to_string(),
        6 => PUNCTUATION[pick as usize % PUNCTUATION.len()].to_string(),
        7 => (pick % 3000).to_string(),
        _ => FILLER[pick as usize % FILLER.len()].to_string(),
    }
}

/// A query over one or two of `db`'s tables, so both sides of the
/// in-query tie-break occur.
fn query_over(db: &Database, first: u32, second: Option<u32>) -> Query {
    let name = |i: u32| &db.tables[i as usize % db.tables.len()].name;
    let sql = match second {
        Some(j) => format!(
            "SELECT * FROM \"{}\" JOIN \"{}\" ON 1 = 1",
            name(first),
            name(j)
        ),
        None => format!("SELECT * FROM \"{}\"", name(first)),
    };
    parse_query(&sql).expect("generated query parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexicon_linkers_match_the_reference_linkers(
        db_pick in 0u32..1_000_000,
        tables in (0u32..64, prop::option::of(0u32..64)),
        pieces in prop::collection::vec((0u32..12, 0u32..100_000, 0u32..4), 1..10),
    ) {
        let schemas = schemas();
        // One case in four draws from the hand-made schema.
        let db = if db_pick % 4 == 0 {
            &schemas[schemas.len() - 1]
        } else {
            &schemas[db_pick as usize % (schemas.len() - 1)]
        };
        let mut text = String::new();
        for (kind, pick, joint) in pieces {
            text.push_str(match joint {
                0 => "",
                1 => ", ",
                _ => " ",
            });
            text.push_str(&piece(db, kind, pick));
        }
        let predicted = query_over(db, tables.0, tables.1);

        let cues = Cues::extract(&text, &predicted, db);
        let (columns, linked_tables) = reference_cues_links(&text, &predicted, db);
        prop_assert_eq!(&cues.columns, &columns, "{}", text);
        prop_assert_eq!(&cues.tables, &linked_tables, "{}", text);

        let schema = db.schema_info();
        prop_assert_eq!(
            FeedbackCues::extract(&text, &schema),
            reference_feedback_cues(&text, &schema),
            "{}",
            text
        );

        prop_assert_eq!(delink(&text, &cues.lexicon), reference_delink(&text, db), "{}", text);
    }
}
