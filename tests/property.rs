//! Property-based tests over the core data structures and invariants,
//! using the corpus generators as structured input sources.

use fisql::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;

/// Builds a reusable small corpus once.
fn corpus_for(seed: u64) -> Corpus {
    build_spider(&SpiderConfig {
        n_databases: 6,
        n_examples: 40,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// print ∘ parse is the identity on every generated gold query.
    #[test]
    fn gold_queries_roundtrip_through_printer(seed in 0u64..500) {
        let corpus = corpus_for(seed);
        for e in &corpus.examples {
            let printed = print_query(&e.gold);
            let reparsed = parse_query(&printed).expect("printed gold parses");
            prop_assert_eq!(&reparsed, &e.gold, "roundtrip failed for {}", printed);
        }
    }

    /// Normalization is idempotent and preserves execution results.
    #[test]
    fn normalization_preserves_execution(seed in 0u64..500) {
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(20) {
            let db = corpus.database(e);
            let norm = normalize_query(&e.gold);
            prop_assert_eq!(normalize_query(&norm), norm.clone());
            let a = fisql::fisql_engine::execute(db, &e.gold).unwrap();
            let b = fisql::fisql_engine::execute(db, &norm).unwrap();
            prop_assert!(results_match(&b, &a), "normalization changed results for {}", print_query(&e.gold));
        }
    }

    /// apply(diff(p, g), p) ≡ g for every corrupted prediction.
    #[test]
    fn diff_apply_recovers_gold(seed in 0u64..500) {
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(20) {
            for wc in e.channels.iter().take(3) {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                let edits = diff_queries(&bad, &e.gold);
                let fixed = apply_edits(&bad, &edits).expect("edits apply");
                prop_assert!(
                    structurally_equal(&fixed, &e.gold),
                    "channel {} not invertible: {} → {}",
                    wc.channel.kind(),
                    print_query(&bad),
                    print_query(&fixed)
                );
            }
        }
    }

    /// Engine invariants on generated data: LIMIT bounds, WHERE subsets,
    /// DISTINCT no larger than raw.
    #[test]
    fn engine_invariants(seed in 0u64..500) {
        let corpus = corpus_for(seed);
        let db = &corpus.databases[(seed as usize) % corpus.databases.len()];
        let table = db.tables.iter().find(|t| !t.rows.is_empty()).unwrap();
        let name = &table.name;
        let total = execute_sql(db, &format!("SELECT COUNT(*) FROM {name}")).unwrap();
        let total_n = match total.scalar().unwrap() { Value::Int(n) => *n, _ => unreachable!() };
        prop_assert_eq!(total_n as usize, table.rows.len());

        let limited = execute_sql(db, &format!("SELECT * FROM {name} LIMIT 5")).unwrap();
        prop_assert!(limited.len() <= 5);

        let col = &table.columns[0].name;
        let distinct = execute_sql(db, &format!("SELECT DISTINCT {col} FROM {name}")).unwrap();
        let raw = execute_sql(db, &format!("SELECT {col} FROM {name}")).unwrap();
        prop_assert!(distinct.len() <= raw.len());

        let union_all = execute_sql(
            db,
            &format!("SELECT {col} FROM {name} UNION ALL SELECT {col} FROM {name}"),
        )
        .unwrap();
        prop_assert_eq!(union_all.len(), 2 * raw.len());

        let union = execute_sql(
            db,
            &format!("SELECT {col} FROM {name} UNION SELECT {col} FROM {name}"),
        )
        .unwrap();
        prop_assert_eq!(union.len(), distinct.len());
    }

    /// Zero-shot generation is invariant under the attempt salt
    /// (misreadings are systematic), and corrupted outputs always parse.
    #[test]
    fn generation_systematicity(seed in 0u64..200) {
        let corpus = corpus_for(seed);
        let llm = SimLlm::new(LlmConfig { seed, calibration: Calibration::default() });
        for e in corpus.examples.iter().take(10) {
            let gen = |salt| llm.generate_sql(&GenRequest {
                example: e,
                demos: 0,
                hint_text: "",
                salt,
                mode: GenMode::Initial,
            }).query;
            let a = gen(0);
            prop_assert_eq!(&gen(1234), &a);
            // The produced SQL is always well-formed.
            let printed = print_query(&a);
            prop_assert!(parse_query(&printed).is_ok(), "unparsable generation {}", printed);
        }
    }

    /// The semantic analyzer never panics on generated or corrupted
    /// queries, never flags a gold query as erroneous, and whenever it
    /// reports no errors the engine executes the query successfully
    /// (no name/type failures slip past a clean bill of health).
    #[test]
    fn analyzer_agrees_with_engine(seed in 0u64..500) {
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(15) {
            let db = corpus.database(e);
            let schema = db.schema_info();
            let gold_sql = print_query(&e.gold);
            let gold_diags = check_query(&e.gold, &schema);
            prop_assert!(
                gold_diags.iter().all(|d| !d.is_error()),
                "gold query flagged as erroneous: {}\n{}",
                gold_sql,
                render_report(&gold_sql, &gold_diags)
            );
            prop_assert!(
                repair_query(&e.gold, &gold_diags, &schema).is_none(),
                "repair rewrote a clean gold query: {}",
                gold_sql
            );
            for wc in e.channels.iter().take(3) {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                let diags = check_query(&bad, &schema);
                if diags.iter().all(|d| !d.is_error()) {
                    prop_assert!(
                        fisql::fisql_engine::execute(db, &bad).is_ok(),
                        "analyzer-clean query failed execution: {}",
                        print_query(&bad)
                    );
                }
            }
        }
    }

    /// Equivalence-oracle soundness: whenever `provably_equivalent`
    /// claims two queries are equivalent, executing both against the
    /// generated database yields matching results. Exercised over gold
    /// queries, their normalizations, fold-removable tautological
    /// padding (provably equivalent), and channel corruptions (mostly
    /// not — the oracle must never claim those falsely either).
    #[test]
    fn equivalence_oracle_is_sound(seed in 0u64..300) {
        use fisql::fisql_sqlkit::{BinOp, Expr, Literal};
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(12) {
            let db = corpus.database(e);
            let mut variants = vec![e.gold.clone(), normalize_query(&e.gold)];
            // `WHERE p` → `WHERE p AND TRUE`: constant folding makes this
            // provably equivalent to the original.
            if let Some(w) = &e.gold.core.where_clause {
                let mut padded = e.gold.clone();
                padded.core.where_clause = Some(Expr::Binary {
                    left: Box::new(w.clone()),
                    op: BinOp::And,
                    right: Box::new(Expr::Literal(Literal::Bool(true))),
                });
                prop_assert!(
                    provably_equivalent(&e.gold, &padded),
                    "tautological padding not recognized for {}",
                    print_query(&e.gold)
                );
                variants.push(padded);
            }
            for wc in e.channels.iter().take(2) {
                variants.push(normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel)));
            }
            for a in &variants {
                for b in &variants {
                    if !provably_equivalent(a, b) {
                        continue;
                    }
                    let ra = fisql::fisql_engine::execute(db, a);
                    let rb = fisql::fisql_engine::execute(db, b);
                    match (ra, rb) {
                        (Ok(ra), Ok(rb)) => prop_assert!(
                            results_match(&ra, &rb),
                            "oracle unsound: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "oracle equated an executing and a failing query: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                    }
                }
            }
        }
    }

    /// The simulated user never fabricates feedback for a correct query
    /// and never leaks gold SQL text verbatim.
    #[test]
    fn user_feedback_sanity(seed in 0u64..200) {
        let corpus = corpus_for(seed);
        let user = SimUser::new(UserConfig { seed, p_engage: 1.0, ..Default::default() });
        for e in corpus.examples.iter().take(10) {
            let view = UserView {
                question: e.question.clone(),
                sql: fisql::fisql_sqlkit::print_query_spanned(&e.gold),
                explanation: String::new(),
                result: Ok(String::new()),
            };
            prop_assert!(user.feedback(e, &e.gold, &view, 0).is_none());
            if let Some(wc) = e.channels.first() {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                if !structurally_equal(&bad, &e.gold) {
                    if let Some(fb) = user.feedback(e, &bad, &view, 0) {
                        prop_assert!(!fb.text.contains("SELECT"), "feedback leaked SQL: {}", fb.text);
                    }
                }
            }
        }
    }

    /// The repair search's twin static guarantees: every enumerated
    /// candidate is structure-preserving (its realized AST diff stays
    /// inside the clause families its edit script declares), and every
    /// candidate the abstract interpreter prunes as contradictory really
    /// returns zero rows when executed — pruning it can never have cost
    /// the search a correct query.
    #[test]
    fn repair_candidates_preserve_structure_and_pruning_is_sound(seed in 0u64..300) {
        use fisql::fisql_sqlkit::{
            enumerate_repairs, is_structure_preserving, locate_faults, prune_candidates,
            FeedbackCues, LocateOptions,
        };
        let corpus = corpus_for(seed);
        let feedbacks = [
            "we are in 2024",
            "order the results in descending order",
            "only show the top 3",
            "that name is wrong",
            "use the created time",
        ];
        for (i, e) in corpus.examples.iter().take(8).enumerate() {
            let db = corpus.database(e);
            let schema = db.schema_info();
            for wc in e.channels.iter().take(2) {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                let text = feedbacks[i % feedbacks.len()];
                let sites = locate_faults(
                    &bad,
                    &schema,
                    LocateOptions { feedback: Some(text), highlight: None },
                );
                let cues = FeedbackCues::extract(text, &schema);
                let pool = enumerate_repairs(&bad, &schema, &sites, &cues);
                for cand in &pool {
                    prop_assert!(
                        is_structure_preserving(&bad, cand),
                        "candidate `{}` ({}) is not structure-preserving against `{}`",
                        print_query(&cand.query),
                        cand.label,
                        print_query(&bad)
                    );
                }
                let outcome = prune_candidates(&bad, pool, &schema);
                for cand in &outcome.contradictory {
                    if let Ok(rs) = fisql::fisql_engine::execute(db, &cand.query) {
                        // Zero matching rows: either an empty result set,
                        // or — for ungrouped aggregates, which always
                        // emit one row — the empty-input aggregate row
                        // (COUNT = 0, SUM/MIN/MAX/AVG = NULL).
                        let empty_aggregate_rows = rs
                            .rows
                            .iter()
                            .all(|row| row.iter().all(|v| matches!(v, Value::Null | Value::Int(0))));
                        prop_assert!(
                            rs.is_empty() || empty_aggregate_rows,
                            "candidate `{}` pruned as contradictory matched rows: {rs}",
                            print_query(&cand.query)
                        );
                    }
                }
            }
        }
    }

    /// The facts pruning hands forward hold for their survivor, whether
    /// derived in this pool or remembered from an earlier pool of the
    /// same step, and remembering them changes no pool's lanes.
    #[test]
    fn repair_candidates_hand_forward_facts_that_hold(seed in 0u64..300) {
        use fisql::fisql_sqlkit::{
            canon_fingerprint, empty_arity, enumerate_repairs, locate_faults, prune_against,
            prune_candidates, FeedbackCues, LocateOptions, PruneBase, PruneOutcome,
        };
        let lanes = |o: &PruneOutcome| {
            let kept: Vec<_> = o.kept.iter().map(|k| k.cand.clone()).collect();
            (kept, o.contradictory.clone(), o.invalid.clone(), o.deduped)
        };
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(6) {
            let schema = corpus.database(e).schema_info();
            for wc in e.channels.iter().take(2) {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                let text = "that name is wrong, we are in 2024";
                let cues = FeedbackCues::extract(text, &schema);
                let options = LocateOptions { feedback: Some(text), highlight: None };
                let sites = locate_faults(&bad, &schema, options);
                let base = PruneBase::new(&bad);
                let mut pools = vec![enumerate_repairs(&bad, &schema, &sites, &cues)];
                let first = prune_against(&base, pools[0].clone(), &schema);
                for member in first.kept.iter().take(2) {
                    let member = &member.cand.query;
                    let sites = locate_faults(member, &schema, LocateOptions::default());
                    pools.push(enumerate_repairs(member, &schema, &sites, &cues));
                }
                for pool in pools {
                    let shared = prune_against(&base, pool.clone(), &schema);
                    prop_assert_eq!(lanes(&shared), lanes(&prune_candidates(&bad, pool, &schema)));
                    for kept in &shared.kept {
                        let q = &kept.cand.query;
                        prop_assert_eq!(kept.facts.diagnostics(q, &schema), check_query(q, &schema));
                        prop_assert_eq!(kept.facts.fingerprint(q), canon_fingerprint(q));
                        prop_assert_eq!(kept.facts.empty_arity(q), empty_arity(q));
                    }
                }
            }
        }
    }
}

/// Cases for the canonicalization fuzz block below: 24 by default (the
/// tests iterate whole corpora per case, so each case is already broad),
/// cranked up in CI's `canon` job via `PROPTEST_CASES`.
fn canon_fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(canon_fuzz_cases()))]

    /// Canonicalization is idempotent: one more pass over an already
    /// canonical query changes nothing. Exercised over gold queries and
    /// their channel corruptions (the shapes the pipeline actually
    /// canonicalizes).
    #[test]
    fn canonicalize_is_idempotent(seed in 0u64..300) {
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(12) {
            let c = canonicalize(&e.gold);
            prop_assert_eq!(
                canonicalize(&c), c.clone(),
                "canonicalize not idempotent for {}", print_query(&e.gold)
            );
            for wc in e.channels.iter().take(2) {
                let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
                let cb = canonicalize(&bad);
                prop_assert_eq!(
                    canonicalize(&cb), cb.clone(),
                    "canonicalize not idempotent for {}", print_query(&bad)
                );
            }
        }
    }

    /// Semantic-fingerprint soundness — the property the result cache's
    /// correctness rides on: whenever two queries share a canonical
    /// fingerprint, executing both against the generated database yields
    /// the same multiset of rows (or both fail). The variant pool mixes
    /// gold queries, their normalizations, tautological `AND TRUE`
    /// padding, double negation, and channel corruptions; the padded and
    /// normalized variants are asserted to actually collide with gold,
    /// so the property is never vacuously true.
    #[test]
    fn canon_fingerprint_is_sound(seed in 0u64..300) {
        use fisql::fisql_sqlkit::{BinOp, Expr, Literal, UnaryOp};
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(12) {
            let db = corpus.database(e);
            let gold_fp = canon_fingerprint(&e.gold);
            let mut variants = vec![e.gold.clone(), normalize_query(&e.gold)];
            prop_assert_eq!(
                canon_fingerprint(&variants[1]), gold_fp,
                "normalization moved the fingerprint of {}", print_query(&e.gold)
            );
            if let Some(w) = &e.gold.core.where_clause {
                // `WHERE p` → `WHERE p AND TRUE` folds away.
                let mut padded = e.gold.clone();
                padded.core.where_clause = Some(Expr::Binary {
                    left: Box::new(w.clone()),
                    op: BinOp::And,
                    right: Box::new(Expr::Literal(Literal::Bool(true))),
                });
                // `WHERE p` → `WHERE NOT NOT p` — the canonicalizer
                // eliminates the double negation when `p` is
                // boolean-shaped (and must stay sound either way).
                let mut doubled = e.gold.clone();
                doubled.core.where_clause = Some(Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(w.clone()),
                    }),
                });
                prop_assert_eq!(
                    canon_fingerprint(&padded), gold_fp,
                    "tautological padding moved the fingerprint of {}",
                    print_query(&e.gold)
                );
                variants.push(padded);
                variants.push(doubled);
            }
            for wc in e.channels.iter().take(2) {
                variants.push(normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel)));
            }
            for a in &variants {
                for b in &variants {
                    if canon_fingerprint(a) != canon_fingerprint(b) {
                        continue;
                    }
                    let ra = fisql::fisql_engine::execute(db, a);
                    let rb = fisql::fisql_engine::execute(db, b);
                    match (ra, rb) {
                        (Ok(ra), Ok(rb)) => prop_assert!(
                            results_match(&ra, &rb),
                            "fingerprint collision between inequivalent queries: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "fingerprint equated an executing and a failing query: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                    }
                }
            }
        }
    }

    /// `canonically_equivalent` subsumes both prior equivalence oracles
    /// and stays sound on everything it claims (checked by execution,
    /// like `equivalence_oracle_is_sound` above). The semantic cache's
    /// refuted lane keys reproduce it exactly: refuting `a` refutes `b`
    /// iff the two are canonically equivalent. `WHERE FALSE` variants of
    /// the analyzer-clean queries put provably empty queries of equal
    /// width but different canonical forms in the pool, so the lane's
    /// empty-arity key is exercised too. (Only analyzer-clean ones: two
    /// provably empty queries are equivalent only if both execute, which
    /// is why the runner's lane serves analyzer-clean candidates alone.)
    #[test]
    fn canonical_equivalence_subsumes_and_stays_sound(seed in 0u64..200) {
        let corpus = corpus_for(seed);
        for e in corpus.examples.iter().take(10) {
            let db = corpus.database(e);
            let norm = normalize_query(&e.gold);
            prop_assert!(structurally_equal(&norm, &norm));
            prop_assert!(canonically_equivalent(&e.gold, &norm));
            let mut variants = vec![e.gold.clone(), norm];
            for wc in e.channels.iter().take(2) {
                variants.push(normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel)));
            }
            let schema = db.schema_info();
            let emptied: Vec<Query> = variants
                .iter()
                .filter(|v| !check_query(v, &schema).iter().any(|d| d.is_error()))
                .map(|v| {
                    let mut empty = v.clone();
                    empty.core.where_clause = Some(fisql::fisql_sqlkit::Expr::Literal(
                        fisql::fisql_sqlkit::Literal::Bool(false),
                    ));
                    empty
                })
                .collect();
            variants.extend(emptied);
            // Each variant's facts travel with it from check to check.
            let facts: Vec<fisql::fisql_sqlkit::QueryFacts> = variants
                .iter()
                .map(|_| fisql::fisql_sqlkit::QueryFacts::default())
                .collect();
            let gate = fisql::fisql_core::GateOutcome::default();
            let mut cache = fisql::fisql_core::SemanticCache::new(true);
            for (a, a_facts) in variants.iter().zip(&facts) {
                for (b, b_facts) in variants.iter().zip(&facts) {
                    cache.begin_case(Some((a, a_facts)));
                    prop_assert_eq!(
                        cache.check_in_corpus(&corpus, e, b, b_facts, &gate).is_none(),
                        canonically_equivalent(a, b),
                        "refuted lane disagrees with canonical equivalence: {} vs {}",
                        print_query(a),
                        print_query(b)
                    );
                    // Subsumption: anything the old oracles accept, the
                    // canonical oracle accepts.
                    if structurally_equal(a, b) || provably_equivalent(a, b) {
                        prop_assert!(
                            canonically_equivalent(a, b),
                            "canonical oracle weaker than prior oracles: {} vs {}",
                            print_query(a),
                            print_query(b)
                        );
                    }
                    if !canonically_equivalent(a, b) {
                        continue;
                    }
                    let ra = fisql::fisql_engine::execute(db, a);
                    let rb = fisql::fisql_engine::execute(db, b);
                    match (ra, rb) {
                        (Ok(ra), Ok(rb)) => prop_assert!(
                            results_match(&ra, &rb),
                            "canonical oracle unsound: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "canonical oracle equated an executing and a failing query: {} vs {}",
                            print_query(a),
                            print_query(b)
                        ),
                    }
                }
            }
        }
    }

}

// Fuzz block: no explicit case count, so the proptest default applies
// and CI can crank it up via `PROPTEST_CASES` (the crash-recovery job
// runs these at 10k+ cases). The properties assert only "never panics":
// the SQL front end must answer arbitrary garbage with `Err`, not abort.
proptest! {
    /// Lexing and parsing arbitrary bytes never panics — including
    /// invalid UTF-8 (lossily decoded), control characters, and
    /// pathological repetition.
    #[test]
    fn sql_frontend_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let input = String::from_utf8_lossy(&bytes);
        let _ = fisql::fisql_sqlkit::lexer::lex(&input);
        let _ = parse_query(&input);
        let _ = fisql::fisql_sqlkit::parse_expr(&input);
    }

    /// Splicing garbage into well-formed corpus SQL never panics the
    /// lexer, parser, printer, normalizer, or schema checker — the
    /// near-valid neighborhood where a parser's assumptions actually
    /// break, rather than uniformly random noise.
    #[test]
    fn mutated_gold_sql_never_panics_the_frontend(
        seed in 0u64..200,
        example_idx in 0usize..40,
        cut in 0usize..400,
        garbage in ".{0,48}",
    ) {
        let corpus = corpus_for(seed);
        let e = &corpus.examples[example_idx % corpus.examples.len()];
        let sql = print_query(&e.gold);
        let at = sql
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(sql.len()))
            .nth(cut % (sql.chars().count() + 1))
            .unwrap_or(sql.len());
        let mutated = format!("{}{}{}", &sql[..at], garbage, &sql[at..]);
        let _ = fisql::fisql_sqlkit::lexer::lex(&mutated);
        if let Ok(q) = parse_query(&mutated) {
            // Whatever still parses must survive the rest of the
            // pipeline: printing, normalizing, and schema checking.
            let _ = print_query(&q);
            let _ = normalize_query(&q);
            let schema = corpus.database(e).schema_info();
            let _ = check_query(&q, &schema);
        }
    }

    /// Deep nesting is answered with a diagnostic, not a stack overflow,
    /// at every depth — below, at, and far beyond the parser's budget.
    #[test]
    fn nested_input_never_overflows_the_parser(depth in 1usize..4_000) {
        let bomb = format!("SELECT {}1{} FROM t", "(".repeat(depth), ")".repeat(depth));
        let _ = parse_query(&bomb);
        let not_bomb = format!("SELECT * FROM t WHERE {}x = 1", "NOT ".repeat(depth));
        let _ = parse_query(&not_bomb);
    }

    /// The feedback interpreter never panics on whatever characters the
    /// previous query's string literals or the feedback text hold —
    /// multibyte characters straddling a would-be year's fourth byte
    /// included — with and without a year cue in the feedback.
    #[test]
    fn interpreter_never_panics_on_arbitrary_string_literals(
        name in "[0-9a-z€é]{0,4}.{0,8}",
        created in "[0-9€é-]{0,6}.{0,6}",
        text in ".{0,64}",
        year in 1900i64..=2100,
    ) {
        let db = literal_db();
        let previous = parse_query(&format!(
            "SELECT name FROM segment WHERE name = '{}' AND created >= '{}'",
            name.replace('\'', "''"),
            created.replace('\'', "''"),
        ))
        .expect("quoted literals parse");
        let previous = normalize_query(&previous);
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
        for feedback in [text.clone(), format!("{text} we are in {year}")] {
            let interp = interpret(&feedback, &previous, &db, None, None, &mut rng);
            let _ = apply_edits(&previous, &interp.edits);
        }
    }
}

/// One table with a text column and a date-string column, for the
/// interpreter fuzz property.
fn literal_db() -> Database {
    let mut db = Database::new("literals");
    db.add_table(Table::new(
        "segment",
        vec![
            Column::new("name", DataType::Text),
            Column::new("created", DataType::Text),
        ],
    ));
    db
}

/// Highlight spans always slice to valid UTF-8 text inside the rendered
/// SQL (non-proptest because it exercises the feedback highlighter).
#[test]
fn highlights_are_within_rendered_sql() {
    let corpus = corpus_for(99);
    let user = SimUser::new(UserConfig {
        p_engage: 1.0,
        p_misalign: 0.0,
        p_highlight: 1.0,
        ..Default::default()
    });
    let mut checked = 0;
    for e in &corpus.examples {
        let Some(wc) = e.channels.first() else {
            continue;
        };
        let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
        if structurally_equal(&bad, &e.gold) {
            continue;
        }
        let spanned = fisql::fisql_sqlkit::print_query_spanned(&bad);
        let view = UserView {
            question: e.question.clone(),
            sql: spanned.clone(),
            explanation: String::new(),
            result: Ok(String::new()),
        };
        if let Some(mut fb) = user.feedback(e, &bad, &view, 0) {
            user.add_highlight(&mut fb, &spanned, e.id, 0);
            if let Some(hl) = fb.highlight {
                assert!(hl.end <= spanned.text.len());
                assert!(!hl.slice(&spanned.text).is_empty());
                checked += 1;
            }
        }
    }
    assert!(checked > 3, "too few highlights exercised: {checked}");
}

/// The AEP database regenerates identically from the same seed.
#[test]
fn aep_database_is_seed_deterministic() {
    let a = fisql_spider::build_aep_database(&mut StdRng::seed_from_u64(5));
    let b = fisql_spider::build_aep_database(&mut StdRng::seed_from_u64(5));
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Serve wire-protocol fuzzing: adversarial bytes through the frame
// reader must produce a typed error or clean EOF — never a panic, an
// unbounded allocation, or a hang.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes: the reader returns `Ok` or `Err`, never panics.
    #[test]
    fn protocol_reader_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256usize)
    ) {
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = fisql_core::serve::protocol::read_frame::<_, fisql_core::serve::ClientRequest>(
            &mut cursor,
        );
    }

    /// A valid frame truncated at every possible cut point is an error
    /// or EOF, never a panic.
    #[test]
    fn protocol_reader_never_panics_on_truncated_frames(cut in 0usize..64) {
        let mut bytes = Vec::new();
        fisql_core::serve::protocol::write_frame(
            &mut bytes,
            &fisql_core::serve::ClientRequest::Bye,
        ).unwrap();
        let full = bytes.len();
        bytes.truncate(cut.min(full));
        let truncated = bytes.len() < full;
        let mut cursor = std::io::Cursor::new(bytes);
        let result = fisql_core::serve::protocol::read_frame::<
            _,
            fisql_core::serve::ClientRequest,
        >(&mut cursor);
        if truncated {
            // Empty input is clean EOF (`Ok(None)`); a torn frame is a
            // typed error.
            prop_assert!(matches!(result, Ok(None) | Err(_)));
        } else {
            prop_assert!(matches!(
                result,
                Ok(Some(fisql_core::serve::ClientRequest::Bye))
            ));
        }
    }

    /// Deeply nested JSON in a well-formed frame is refused by the
    /// parser's depth limit — it must not blow the stack.
    #[test]
    fn protocol_reader_survives_deeply_nested_json(depth in 1usize..1500) {
        let mut body = Vec::with_capacity(depth * 2);
        body.extend(std::iter::repeat_n(b'[', depth));
        body.extend(std::iter::repeat_n(b']', depth));
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        let mut cursor = std::io::Cursor::new(frame);
        let result = fisql_core::serve::protocol::read_frame::<
            _,
            fisql_core::serve::ClientRequest,
        >(&mut cursor);
        // A JSON array is never a `ClientRequest`, and past the depth
        // limit it is not even JSON to serde: both are typed errors.
        prop_assert!(result.is_err());
    }

    /// Arbitrary strings — quotes, backslashes, control characters,
    /// 2- and 3-byte chars and non-BMP chars, in any mix — round-trip
    /// through the JSON codec unchanged, alone and as an object key.
    #[test]
    fn json_strings_round_trip_unchanged(
        picks in proptest::collection::vec((0u8..6, any::<u32>()), 0..64usize)
    ) {
        let text: String = picks.into_iter().map(|(pool, n)| json_char(pool, n)).collect();
        let json = serde_json::to_string(&text).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), text.clone());
        let keyed = std::collections::BTreeMap::from([(text.clone(), vec![text.clone()])]);
        let json = serde_json::to_string(&keyed).unwrap();
        prop_assert_eq!(
            serde_json::from_str::<std::collections::BTreeMap<String, Vec<String>>>(&json)
                .unwrap(),
            keyed
        );
    }

    /// A frame header may claim any length: oversized claims are
    /// refused before any allocation happens.
    #[test]
    fn protocol_reader_refuses_oversized_headers(extra in 1u32..1024) {
        let claimed = (fisql_core::serve::protocol::MAX_FRAME_LEN as u32) + extra;
        let mut cursor = std::io::Cursor::new(claimed.to_le_bytes().to_vec());
        let result = fisql_core::serve::protocol::read_frame::<
            _,
            fisql_core::serve::ClientRequest,
        >(&mut cursor);
        prop_assert!(result.is_err());
    }
}

/// One char from the pool `pool` picks (0: JSON's escape-worthy ASCII,
/// 1: control characters, 2: printable ASCII, 3: 2-byte, 4: 3-byte,
/// 5: 4-byte UTF-8), chosen within it by `n`.
fn json_char(pool: u8, n: u32) -> char {
    let code = match pool {
        0 => [u32::from(b'"'), u32::from(b'\\'), u32::from(b'/')][n as usize % 3],
        1 => n % 0x20,
        2 => 0x20 + n % 0x60,
        3 => 0x80 + n % 0x780,
        4 => 0x800 + n % 0xF800,
        _ => 0x10000 + n % 0x10_0000,
    };
    // The 3-byte pool spans the surrogate gap, which is no char.
    char::from_u32(code).unwrap_or('\u{fffd}')
}
