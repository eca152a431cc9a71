//! The AEP-like closed-domain corpus.
//!
//! Substitutes the paper's internal Adobe Experience Platform dataset with
//! a synthetic marketing-analytics database whose schema reproduces the
//! paper's examples (`hkg_dim_segment` with a `createdTime` column appears
//! verbatim in Figures 4, 5, and 9) and whose questions use the
//! closed-domain jargon the paper calls out: "audiences" for segments,
//! "activated to" for segment↔destination mappings, and vague temporal
//! phrasing.

use crate::channels::{applicable_channels, DifficultyProfile, ErrorChannel};
use crate::example::{Corpus, Example, Hardness};
use crate::intent_gen::generate_intent;
use crate::question::render_question;
use fisql_engine::{Column, DataType, Database, ForeignKey, Table, Value};
use fisql_sqlkit::parse_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the AEP-like corpus.
#[derive(Debug, Clone)]
pub struct AepConfig {
    /// Number of examples to generate.
    pub n_examples: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for AepConfig {
    fn default() -> Self {
        AepConfig {
            n_examples: 225,
            seed: 0xAE9,
        }
    }
}

/// Jargon mapping: question surface term → table it actually refers to.
/// The surface term is what non-technical AEP users say; the table name is
/// what the schema calls it — the gap is the closed-domain vocabulary
/// problem of the paper's §1.
pub fn jargon_surface(table: &str) -> Option<&'static str> {
    match table {
        "hkg_dim_segment" => Some("audience"),
        "hkg_dim_destination" => Some("destination"),
        "hkg_dim_dataset" => Some("dataset"),
        "hkg_dim_journey" => Some("journey"),
        "hkg_fact_profile" => Some("profile"),
        "hkg_dim_schema_def" => Some("schema"),
        "hkg_map_segment_destination" => Some("activation"),
        "hkg_fact_query_log" => Some("query"),
        _ => None,
    }
}

/// Builds the AEP marketing-analytics database.
pub fn build_aep_database(rng: &mut impl Rng) -> Database {
    let mut db = Database::new("aep_experience_platform");

    let statuses = ["active", "inactive", "draft", "archived"];
    let platforms = ["Amazon S3", "Google Ads", "Meta", "Braze", "SFTP"];
    let seg_names = [
        "ABC",
        "Loyalty",
        "Churned",
        "VIP",
        "Trial",
        "Holiday Shoppers",
        "Cart Abandoners",
        "Newsletter",
        "High Value",
        "Win-back",
        "Lookalike",
        "Beta Testers",
    ];

    // hkg_dim_segment — the paper's own table.
    let mut segment = Table::new(
        "hkg_dim_segment",
        vec![
            Column::new("segment_id", DataType::Int),
            Column::new("segment_name", DataType::Text),
            Column::new("segment_description", DataType::Text),
            Column::new("status", DataType::Text),
            Column::new("createdTime", DataType::Date),
            Column::new("modifiedTime", DataType::Date),
            Column::new("profile_count", DataType::Int),
        ],
    );
    segment.primary_key = Some(0);
    for i in 0..40 {
        let year = if rng.gen_bool(0.55) { 2024 } else { 2023 };
        let month = rng.gen_range(1..=if year == 2024 { 6 } else { 12 });
        let day = rng.gen_range(1..=28);
        segment.push_row(vec![
            Value::Int(i + 1),
            Value::Text(format!(
                "{} {}",
                seg_names[(i as usize) % seg_names.len()],
                i + 1
            )),
            Value::Text(format!(
                "Segment tracking {}",
                seg_names[(i as usize) % seg_names.len()]
            )),
            Value::Text(statuses[rng.gen_range(0..statuses.len())].to_string()),
            Value::Text(format!("{year:04}-{month:02}-{day:02}")),
            Value::Text(format!("{year:04}-{:02}-{day:02}", (month % 12) + 1)),
            if rng.gen_bool(0.1) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(10..=50_000))
            },
        ]);
    }
    db.add_table(segment);

    // hkg_dim_destination.
    let mut destination = Table::new(
        "hkg_dim_destination",
        vec![
            Column::new("destination_id", DataType::Int),
            Column::new("destination_name", DataType::Text),
            Column::new("platform_type", DataType::Text),
            Column::new("status", DataType::Text),
            Column::new("createdTime", DataType::Date),
        ],
    );
    destination.primary_key = Some(0);
    for i in 0..12 {
        let year = rng.gen_range(2022..=2024);
        destination.push_row(vec![
            Value::Int(i + 1),
            Value::Text(format!(
                "{} export {}",
                platforms[(i as usize) % platforms.len()],
                i + 1
            )),
            Value::Text(platforms[(i as usize) % platforms.len()].to_string()),
            Value::Text(statuses[rng.gen_range(0..2)].to_string()),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
        ]);
    }
    db.add_table(destination);

    // hkg_map_segment_destination — "activations".
    let mut map = Table::new(
        "hkg_map_segment_destination",
        vec![
            Column::new("map_id", DataType::Int),
            Column::new("segment_id", DataType::Int),
            Column::new("destination_id", DataType::Int),
            Column::new("activation_date", DataType::Date),
            Column::new("status", DataType::Text),
        ],
    );
    map.primary_key = Some(0);
    map.foreign_keys.push(ForeignKey {
        column: 1,
        ref_table: "hkg_dim_segment".into(),
        ref_column: 0,
    });
    map.foreign_keys.push(ForeignKey {
        column: 2,
        ref_table: "hkg_dim_destination".into(),
        ref_column: 0,
    });
    for i in 0..60 {
        let year = rng.gen_range(2023..=2024);
        map.push_row(vec![
            Value::Int(i + 1),
            Value::Int(rng.gen_range(1..=40)),
            Value::Int(rng.gen_range(1..=12)),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
            Value::Text(statuses[rng.gen_range(0..2)].to_string()),
        ]);
    }
    db.add_table(map);

    // hkg_dim_dataset.
    let mut dataset = Table::new(
        "hkg_dim_dataset",
        vec![
            Column::new("dataset_id", DataType::Int),
            Column::new("dataset_name", DataType::Text),
            Column::new("source_type", DataType::Text),
            Column::new("record_count", DataType::Int),
            Column::new("createdTime", DataType::Date),
            Column::new("status", DataType::Text),
        ],
    );
    dataset.primary_key = Some(0);
    let sources = ["CRM", "Web SDK", "Mobile SDK", "Batch Upload", "Streaming"];
    for i in 0..20 {
        let year = rng.gen_range(2022..=2024);
        dataset.push_row(vec![
            Value::Int(i + 1),
            Value::Text(format!(
                "{} ingest {}",
                sources[(i as usize) % sources.len()],
                i + 1
            )),
            Value::Text(sources[(i as usize) % sources.len()].to_string()),
            Value::Int(rng.gen_range(1_000..=2_000_000)),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
            Value::Text(statuses[rng.gen_range(0..statuses.len())].to_string()),
        ]);
    }
    db.add_table(dataset);

    // hkg_fact_profile.
    let mut profile = Table::new(
        "hkg_fact_profile",
        vec![
            Column::new("profile_id", DataType::Int),
            Column::new("segment_id", DataType::Int),
            Column::new("dataset_id", DataType::Int),
            Column::new("identity_namespace", DataType::Text),
            Column::new("createdTime", DataType::Date),
            Column::new("merge_policy", DataType::Text),
        ],
    );
    profile.primary_key = Some(0);
    profile.foreign_keys.push(ForeignKey {
        column: 1,
        ref_table: "hkg_dim_segment".into(),
        ref_column: 0,
    });
    profile.foreign_keys.push(ForeignKey {
        column: 2,
        ref_table: "hkg_dim_dataset".into(),
        ref_column: 0,
    });
    let namespaces = ["ECID", "Email", "CRM ID", "Phone", "AAID"];
    let policies = ["timestamp-ordered", "dataset-precedence"];
    for i in 0..120 {
        let year = rng.gen_range(2023..=2024);
        profile.push_row(vec![
            Value::Int(i + 1),
            Value::Int(rng.gen_range(1..=40)),
            Value::Int(rng.gen_range(1..=20)),
            Value::Text(namespaces[rng.gen_range(0..namespaces.len())].to_string()),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
            Value::Text(policies[rng.gen_range(0..2)].to_string()),
        ]);
    }
    db.add_table(profile);

    // hkg_dim_journey.
    let mut journey = Table::new(
        "hkg_dim_journey",
        vec![
            Column::new("journey_id", DataType::Int),
            Column::new("journey_name", DataType::Text),
            Column::new("segment_id", DataType::Int),
            Column::new("status", DataType::Text),
            Column::new("createdTime", DataType::Date),
            Column::new("step_count", DataType::Int),
        ],
    );
    journey.primary_key = Some(0);
    journey.foreign_keys.push(ForeignKey {
        column: 2,
        ref_table: "hkg_dim_segment".into(),
        ref_column: 0,
    });
    for i in 0..15 {
        let year = rng.gen_range(2023..=2024);
        journey.push_row(vec![
            Value::Int(i + 1),
            Value::Text(format!("Journey {}", i + 1)),
            Value::Int(rng.gen_range(1..=40)),
            Value::Text(statuses[rng.gen_range(0..statuses.len())].to_string()),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
            Value::Int(rng.gen_range(2..=12)),
        ]);
    }
    db.add_table(journey);

    // hkg_dim_schema_def.
    let mut schema_def = Table::new(
        "hkg_dim_schema_def",
        vec![
            Column::new("schema_def_id", DataType::Int),
            Column::new("schema_name", DataType::Text),
            Column::new("class_name", DataType::Text),
            Column::new("field_count", DataType::Int),
            Column::new("createdTime", DataType::Date),
        ],
    );
    schema_def.primary_key = Some(0);
    let classes = ["XDM Individual Profile", "XDM ExperienceEvent", "Custom"];
    for i in 0..10 {
        let year = rng.gen_range(2022..=2024);
        schema_def.push_row(vec![
            Value::Int(i + 1),
            Value::Text(format!("Schema {}", i + 1)),
            Value::Text(classes[(i as usize) % classes.len()].to_string()),
            Value::Int(rng.gen_range(5..=120)),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
        ]);
    }
    db.add_table(schema_def);

    // hkg_fact_query_log.
    let mut qlog = Table::new(
        "hkg_fact_query_log",
        vec![
            Column::new("query_log_id", DataType::Int),
            Column::new("dataset_id", DataType::Int),
            Column::new("duration_ms", DataType::Int),
            Column::new("status", DataType::Text),
            Column::new("createdTime", DataType::Date),
        ],
    );
    qlog.primary_key = Some(0);
    qlog.foreign_keys.push(ForeignKey {
        column: 1,
        ref_table: "hkg_dim_dataset".into(),
        ref_column: 0,
    });
    for i in 0..80 {
        let year = rng.gen_range(2023..=2024);
        qlog.push_row(vec![
            Value::Int(i + 1),
            Value::Int(rng.gen_range(1..=20)),
            Value::Int(rng.gen_range(20..=60_000)),
            Value::Text(
                if rng.gen_bool(0.85) {
                    "success"
                } else {
                    "failed"
                }
                .to_string(),
            ),
            Value::Text(format!(
                "{year:04}-{:02}-{:02}",
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            )),
        ]);
    }
    db.add_table(qlog);

    db
}

/// Builds the AEP-like corpus: the fixed marketing database plus jargon-
/// phrased questions with closed-domain difficulty weights.
pub fn build_aep(cfg: &AepConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let db = build_aep_database(&mut rng);
    let profile = DifficultyProfile::aep();

    let mut examples = Vec::with_capacity(cfg.n_examples);
    let mut id = 0;

    // Seed the corpus with the paper's flagship example (Figure 4).
    let flagship = flagship_example(&db, &mut rng);
    if let Some(e) = flagship {
        examples.push(e);
        id += 1;
    }

    let mut attempts = 0;
    while examples.len() < cfg.n_examples && attempts < cfg.n_examples * 30 {
        attempts += 1;
        let Some(intent) = generate_intent(&db, &mut rng) else {
            continue;
        };
        let gold = intent.compile();
        if fisql_engine::execute(&db, &gold).is_err() {
            continue;
        }
        let jargon = jargon_surface(&intent.primary);
        let question = render_question(&intent, jargon, &mut rng);
        let mut channels = applicable_channels(&intent, &db, &profile);
        // Jargon-named tables make table confusion a dominant channel —
        // the question never names the physical table.
        if jargon.is_some() {
            for wc in &mut channels {
                if matches!(wc.channel, ErrorChannel::TableConfusion { .. }) {
                    wc.weight *= 2.0;
                }
            }
        }
        let hardness = Hardness::classify(&intent);
        examples.push(Example {
            id,
            db_index: 0,
            question,
            intent,
            gold,
            channels,
            hardness,
        });
        id += 1;
    }

    Corpus::new("aep-like", vec![db], examples)
}

/// The paper's Figure 4 walkthrough: "how many audiences were created in
/// January?" with an implicit current year of 2024.
fn flagship_example(db: &Database, rng: &mut impl Rng) -> Option<Example> {
    use crate::intent::{AggIntent, Intent, PredIntent, PredKind, Projection, Shape};
    let intent = Intent {
        primary: "hkg_dim_segment".to_string(),
        joins: vec![],
        projections: vec![Projection::Agg(AggIntent::Count)],
        distinct: false,
        preds: vec![PredIntent {
            table: "hkg_dim_segment".to_string(),
            column: "createdTime".to_string(),
            kind: PredKind::MonthWindow {
                year: 2024,
                month: 1,
            },
        }],
        shape: Shape::AggOnly,
    };
    let gold = intent.compile();
    fisql_engine::execute(db, &gold).ok()?;
    // Sanity: the gold matches the paper's Figure 5 corrected query.
    let paper_gold = parse_query(
        "SELECT COUNT(*) FROM hkg_dim_segment \
         WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'",
    )
    .expect("paper query parses");
    debug_assert!(fisql_sqlkit::structurally_equal(&gold, &paper_gold));
    let channels = applicable_channels(&intent, db, &DifficultyProfile::aep());
    let _ = rng;
    Some(Example {
        id: 0,
        db_index: 0,
        question: "how many audiences were created in January?".to_string(),
        intent,
        gold,
        channels,
        hardness: Hardness::Easy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_engine::execute;

    #[test]
    fn aep_database_matches_paper_schema() {
        let mut rng = StdRng::seed_from_u64(1);
        let db = build_aep_database(&mut rng);
        let seg = db.table("hkg_dim_segment").expect("paper table exists");
        assert!(seg.column_index("createdTime").is_some());
        assert!(db.tables.len() >= 7);
    }

    #[test]
    fn paper_figure5_queries_execute() {
        let mut rng = StdRng::seed_from_u64(2);
        let db = build_aep_database(&mut rng);
        for sql in [
            "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' and createdTime < '2023-02-01'",
            "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment \
             WHERE createdTime >= '2024-01-01' and createdTime < '2024-02-01'",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(execute(&db, &q).is_ok(), "{sql}");
        }
    }

    #[test]
    fn the_two_years_give_different_counts() {
        // The flagship ambiguity must be *observable*: the wrong-year
        // query returns a different result, so the user sees the error.
        let mut rng = StdRng::seed_from_u64(3);
        let db = build_aep_database(&mut rng);
        let q2024 = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'",
        )
        .unwrap();
        let q2023 = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
        )
        .unwrap();
        let a = execute(&db, &q2024).unwrap();
        let b = execute(&db, &q2023).unwrap();
        assert!(
            !fisql_engine::results_match(&a, &b),
            "2023 and 2024 January counts coincide; ambiguity unobservable"
        );
    }

    #[test]
    fn corpus_builds_with_flagship_first() {
        let corpus = build_aep(&AepConfig {
            n_examples: 60,
            seed: 5,
        });
        assert_eq!(corpus.examples.len(), 60);
        assert!(corpus.examples[0].question.contains("audiences"));
        for e in &corpus.examples {
            assert!(execute(corpus.database(e), &e.gold).is_ok());
            assert!(!e.channels.is_empty(), "AEP example without channels");
        }
    }

    #[test]
    fn aep_channel_mass_exceeds_spider_like_levels() {
        let corpus = build_aep(&AepConfig {
            n_examples: 40,
            seed: 6,
        });
        let avg: f64 = corpus
            .examples
            .iter()
            .map(|e| e.channels.iter().map(|c| c.weight).sum::<f64>())
            .sum::<f64>()
            / corpus.examples.len() as f64;
        assert!(avg > 1.0, "avg channel mass {avg}");
    }

    #[test]
    fn jargon_surfaces_cover_all_tables() {
        let mut rng = StdRng::seed_from_u64(7);
        let db = build_aep_database(&mut rng);
        for t in &db.tables {
            assert!(
                jargon_surface(&t.name).is_some(),
                "no jargon surface for {}",
                t.name
            );
        }
    }
}
