//! The paper's evaluation in one run: Figure 2, Tables 1–3, Figure 8,
//! the §4.2 error analysis, the DESIGN.md §5 ablations and a
//! paper-vs-measured summary (the source for EXPERIMENTS.md).
//!
//! Every row of [`ROWS`] is the same experiment over one seeded
//! [`Setup`] with one thing changed: the corpora, the strategies, or one
//! knob a sweep turns on the simulated user or LLM. Rows print in table
//! order, each under its own heading and, all but Table 1, followed by a
//! JSON record; each row's name goes to stderr as it starts.
//!
//! Run: `cargo run --release -p fisql-bench --bin exp`
//! (set `FISQL_SCALE=small` for a quick pass, `FISQL_SEED=<n>` for
//! another seed).

use fisql_bench::{annotated_cases, merge, pct, runner, Setup};
use fisql_core::{
    analyze_round, zero_shot_report, AnnotatedCase, Assistant, CorrectionReport, Strategy,
};
use fisql_spider::{evaluate, Corpus};
use fisql_sqlkit::OpClass;
use serde_json::{json, Value};

const FISQL: Strategy = Strategy::Fisql {
    routing: true,
    highlighting: false,
};
const NO_ROUTING: Strategy = Strategy::Fisql {
    routing: false,
    highlighting: false,
};
const HIGHLIGHTING: Strategy = Strategy::Fisql {
    routing: true,
    highlighting: true,
};

/// The paper's evaluation, in print order.
const ROWS: &[Row] = &[
    Row {
        name: "fig2",
        title: "# Figure 2 — zero-shot accuracy",
        shape: Shape::ZeroShot,
    },
    Row {
        name: "table2",
        title: "# Table 2 — % instances corrected",
        shape: Shape::Compare(Compare {
            width: 20,
            sets: true,
            paper: Paper::Recorded,
            arms: &[
                (Strategy::QueryRewrite, [Some(35.85), Some(16.83)]),
                (NO_ROUTING, [None, Some(43.56)]),
                (FISQL, [Some(67.92), Some(44.55)]),
            ],
            tag: Tag::Table(2),
        }),
    },
    Row {
        name: "table1",
        title: "# Table 1 — example feedback per type",
        shape: Shape::Examples,
    },
    Row {
        name: "fig8",
        title: "# Figure 8 — multi-round feedback on SPIDER errors",
        shape: Shape::Rounds,
    },
    Row {
        name: "table3",
        title: "# Table 3 — highlight grounding",
        shape: Shape::Compare(Compare {
            width: 24,
            sets: false,
            paper: Paper::Printed,
            arms: &[
                (FISQL, [Some(67.92), Some(44.55)]),
                (HIGHLIGHTING, [Some(69.81), Some(44.55)]),
            ],
            tag: Tag::Table(3),
        }),
    },
    Row {
        name: "errors",
        title: "# §4.2 — error analysis",
        shape: Shape::Errors,
    },
    Row {
        name: "router",
        title: "# Ablation — router noise sweep",
        shape: Shape::Sweep(Sweep {
            knob: Knob::RouterNoise(FISQL),
            label: ("router noise", 14, "noise"),
            values: &[0.0, 0.06, 0.15, 0.30, 0.50, 0.6667],
            columns: &[(Data::Spider, "% corrected (1 round)", "pct")],
            width: 22,
            note: Some(
                "(noise 0.67 ≈ uniform routing; compare the FISQL(- Routing) row of Table 2)",
            ),
            tag: Tag::Ablation("router"),
        }),
    },
    Row {
        name: "rag",
        title: "# Ablation — demonstration budget sweep",
        shape: Shape::Sweep(Sweep {
            knob: Knob::Demos,
            label: ("demos", 8, "demos"),
            values: &[0.0, 1.0, 3.0, 5.0, 8.0],
            columns: &[
                (Data::Spider, "SPIDER acc", "spider"),
                (Data::Ep, "AEP acc", "aep"),
            ],
            width: 16,
            note: Some("(0 demos = Figure 2's zero-shot points)"),
            tag: Tag::Ablation("rag"),
        }),
    },
    Row {
        name: "noise",
        title: "# Ablation — feedback misalignment sweep",
        shape: Shape::Sweep(Sweep {
            knob: Knob::Misalign(FISQL),
            label: ("p(misalign)", 14, "p_misalign"),
            values: &[0.0, 0.04, 0.08, 0.15, 0.30, 0.50],
            columns: &[
                (Data::Spider, "SPIDER", "spider_pct"),
                (Data::Ep, "EP", "ep_pct"),
            ],
            width: 14,
            note: None,
            tag: Tag::Ablation("misalignment"),
        }),
    },
    Row {
        name: "highlight",
        title: "# Ablation — highlight coverage sweep",
        shape: Shape::Sweep(Sweep {
            knob: Knob::Highlight(HIGHLIGHTING),
            label: ("p(highlight)", 14, "p_highlight"),
            values: &[0.0, 0.25, 0.5, 0.75, 1.0],
            columns: &[
                (Data::Spider, "SPIDER", "spider_pct"),
                (Data::Ep, "EP", "ep_pct"),
            ],
            width: 14,
            note: Some("(p = 0 reduces to plain FISQL; p = 1 is Table 3's '+ Highlighting' row)"),
            tag: Tag::Ablation("highlight"),
        }),
    },
    Row {
        name: "dynamic",
        title: "# Extension — fixed vs dynamic routing demonstrations",
        shape: Shape::Compare(Compare {
            width: 26,
            sets: false,
            paper: Paper::Absent,
            arms: &[
                (FISQL, [None, None]),
                (Strategy::FisqlDynamic, [None, None]),
            ],
            tag: Tag::Ablation("dynamic-routing"),
        }),
    },
    Row {
        name: "summary",
        title: "# FISQL — full experiment suite",
        shape: Shape::Summary(&[
            ("Fig 2: SPIDER zero-shot accuracy", "68.6%"),
            ("Fig 2: AEP zero-shot accuracy", "24.0%"),
            ("§4.1: SPIDER errors", "243/1034"),
            ("§4.1: annotated SPIDER feedback", "101 (~41%)"),
            ("§4.1: EP feedback set", "53"),
            ("T2: Query Rewrite EP / SPIDER", "35.85 / 16.83"),
            ("T2: FISQL(-Routing) SPIDER", "43.56"),
            ("T2: FISQL(-Routing) EP", "—"),
            ("T2: FISQL EP / SPIDER", "67.92 / 44.55"),
            ("F8: FISQL round 2 (SPIDER)", "~60"),
            ("F8: (-Routing) round 2 (SPIDER)", "~59"),
            ("T3: FISQL+Highlight EP / SPIDER", "69.81 / 44.55"),
        ]),
    },
];

/// One experiment: its name, its heading, and the shape of its result.
struct Row {
    /// What EXPERIMENTS.md calls the row; echoed to stderr as it starts.
    name: &'static str,
    /// Heading, printed with the seed.
    title: &'static str,
    shape: Shape,
}

/// What a row measures and how it prints; one renderer per shape.
enum Shape {
    /// Figure 2: zero-shot accuracy per corpus, then the §4.1 error
    /// statistics.
    ZeroShot,
    /// Table 1: the first annotated feedback of each edit class.
    Examples,
    /// A one-round correction rate per strategy, on EP and on SPIDER.
    Compare(Compare),
    /// Figure 8: FISQL and FISQL (− Routing) over two rounds on SPIDER.
    Rounds,
    /// §4.2: the failure taxonomy per corpus, for FISQL and Query
    /// Rewrite.
    Errors,
    /// One knob turned over a list of values.
    Sweep(Sweep),
    /// Paper vs measured for every headline number: each line's label
    /// and paper value.
    Summary(&'static [(&'static str, &'static str); 12]),
}

/// A strategy-comparison table.
struct Compare {
    /// Width of the method column.
    width: usize,
    /// Whether the annotated feedback-set sizes head the table.
    sets: bool,
    paper: Paper,
    /// Each strategy with its paper values on EP and on SPIDER.
    arms: &'static [(Strategy, [Option<f64>; 2])],
    tag: Tag,
}

/// Where a comparison's paper values go.
#[derive(PartialEq)]
enum Paper {
    Absent,
    /// Next to the measured columns.
    Printed,
    /// Next to the measured columns and into the JSON record.
    Recorded,
}

/// A one-knob sweep: one line per knob value, one column per corpus.
struct Sweep {
    knob: Knob,
    /// The knob's own column: heading, width and JSON key.
    label: (&'static str, usize, &'static str),
    values: &'static [f64],
    /// Each measured column's corpus, heading and JSON key.
    columns: &'static [(Data, &'static str, &'static str)],
    /// Width of each measured column.
    width: usize,
    /// A remark printed under the table.
    note: Option<&'static str>,
    tag: Tag,
}

/// What a sweep turns; the strategy is the one whose one-round
/// correction rate each cell reports.
#[derive(Clone, Copy)]
enum Knob {
    /// The LLM's `Calibration::router_noise`, over the base feedback
    /// sets (their size heads the table).
    RouterNoise(Strategy),
    /// The user's `UserConfig::p_misalign`. Misalignment changes the
    /// feedback itself, so every value re-annotates.
    Misalign(Strategy),
    /// The user's `UserConfig::p_highlight`, re-annotated per value.
    Highlight(Strategy),
    /// RAG demonstrations per Assistant prompt. A cell is the
    /// Assistant's first-pass accuracy, not a correction rate.
    Demos,
}

/// The first key of a row's JSON record: `{"table": n, "seed": ..}` or
/// `{"ablation": name}`.
enum Tag {
    Table(u8),
    Ablation(&'static str),
}

/// One of the setup's two corpora.
#[derive(Clone, Copy)]
enum Data {
    Spider,
    Ep,
}

/// The one setup every row runs on, and each corpus's §4.1 error count
/// and annotated feedback set under it.
struct Exp {
    setup: Setup,
    base: [(usize, Vec<AnnotatedCase>); 2],
}

fn main() {
    let mut exp = Exp {
        setup: Setup::from_env(),
        base: Default::default(),
    };
    exp.annotate();
    for row in ROWS {
        eprintln!("exp: {}", row.name);
        if let Shape::Examples = row.shape {
            println!("\n{}", row.title);
        } else {
            println!("{} (seed {})\n", row.title, exp.setup.seed);
        }
        match &row.shape {
            Shape::ZeroShot => exp.zero_shot(),
            Shape::Examples => exp.examples(),
            Shape::Compare(c) => exp.compare(c),
            Shape::Rounds => exp.rounds(),
            Shape::Errors => exp.errors(),
            Shape::Sweep(s) => exp.sweep(s),
            Shape::Summary(lines) => exp.summary(lines),
        }
    }
}

impl Tag {
    /// Prints the row's JSON record: this tag, then `rows`.
    fn print(&self, seed: u64, rows: Vec<Value>) {
        let record = match self {
            Tag::Table(n) => json!({"table": n, "seed": seed, "rows": rows}),
            Tag::Ablation(name) => json!({"ablation": name, "rows": rows}),
        };
        println!("\n{record}");
    }
}

/// A one-round correction rate: as the paper's tables print it, and as a
/// JSON percentage.
fn corrected(report: &CorrectionReport) -> (String, f64) {
    let n = report.corrected_after_round[0];
    let share = 100.0 * n as f64 / report.total.max(1) as f64;
    (pct(n, report.total), share)
}

impl Exp {
    fn corpus(&self, data: Data) -> &Corpus {
        match data {
            Data::Spider => &self.setup.spider,
            Data::Ep => &self.setup.aep,
        }
    }

    fn cases(&self, data: Data) -> &[AnnotatedCase] {
        &self.base[data as usize].1
    }

    /// Collects and annotates both corpora's errors under the current
    /// setup (the §4.1 protocol).
    fn annotate(&mut self) {
        self.base = [Data::Spider, Data::Ep].map(|d| annotated_cases(&self.setup, self.corpus(d)));
    }

    /// `strategy` over `rounds` feedback rounds on `data`'s feedback set.
    fn run(&self, data: Data, strategy: Strategy, rounds: usize) -> CorrectionReport {
        runner(&self.setup, self.corpus(data))
            .strategy(strategy)
            .rounds(rounds)
            .run(self.cases(data))
    }

    /// Accuracy of the Assistant's first answers on `data` with `demos`
    /// RAG demonstrations per prompt.
    fn first_pass(&self, data: Data, demos: usize) -> f64 {
        let corpus = self.corpus(data);
        let assistant = Assistant::for_corpus(corpus, self.setup.llm.clone(), demos);
        let predictions: Vec<_> = corpus
            .examples
            .iter()
            .map(|e| assistant.answer(corpus.database(e), e, 0).query)
            .collect();
        evaluate(corpus, corpus.examples.iter().zip(&predictions)).accuracy()
    }

    fn zero_shot(&self) {
        let setup = &self.setup;
        let spider = zero_shot_report(&setup.spider, &setup.llm);
        let aep = zero_shot_report(&setup.aep, &setup.llm);
        println!("{:<18} {:>10} {:>12}", "dataset", "accuracy", "paper");
        for (name, report, paper) in [
            ("SPIDER (ours)", &spider, "68.6%"),
            ("AEP (ours)", &aep, "24.0%"),
        ] {
            println!("{name:<18} {:>9.1}% {paper:>12}", 100.0 * report.accuracy());
        }
        println!(
            "\nPer-hardness breakdown (SPIDER-like):\n{}",
            spider.render()
        );

        // §4.1 error statistics, measured with the production (few-shot
        // RAG) Assistant like the paper's collection protocol.
        let (errors, annotated) = &self.base[Data::Spider as usize];
        let total = setup.spider.examples.len();
        let share = 100.0 * annotated.len() as f64 / (*errors).max(1) as f64;
        println!("# §4.1 error statistics");
        println!("SPIDER-like errors: {errors}/{total} (paper: 243/1034)");
        println!(
            "annotated feedback: {} ({share:.0}% of errors; paper: 101 ≈ 41%)",
            annotated.len()
        );
        let record = json!({
            "figure": 2,
            "seed": setup.seed,
            "spider_accuracy": spider.accuracy(),
            "aep_accuracy": aep.accuracy(),
            "paper": {"spider": 0.686, "aep": 0.24},
            "spider_errors": errors,
            "spider_total": total,
            "annotated": annotated.len(),
        });
        println!("\n{record}");
    }

    fn examples(&self) {
        let mut seen = std::collections::HashSet::new();
        for case in self.base.iter().flat_map(|(_, cases)| cases) {
            let class = case
                .feedback
                .intended
                .first()
                .map_or(OpClass::Edit, |e| e.class());
            if seen.insert(class) {
                println!("{:<8} {}", class.to_string(), case.feedback.text);
            }
            if seen.len() >= 3 {
                break;
            }
        }
    }

    fn compare(&self, c: &Compare) {
        if c.sets {
            let [(spider_errors, spider), (ep_errors, ep)] = &self.base;
            println!(
                "annotated feedback sets: SPIDER {} (of {spider_errors} errors; paper 101), EP {} (of {ep_errors} errors; paper 53)\n",
                spider.len(),
                ep.len(),
            );
        }
        let w = c.width;
        if c.paper == Paper::Absent {
            println!("{:<w$} {:>12} {:>12}", "Method", "EP", "SPIDER");
        } else {
            println!(
                "{:<w$} {:>12} {:>10} {:>12} {:>10}",
                "Method", "EP (ours)", "EP paper", "SPIDER(ours)", "paper"
            );
        }
        let paper_cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        let mut rows = Vec::new();
        for &(strategy, [ep_paper, spider_paper]) in c.arms {
            let [ep, spider] =
                [Data::Ep, Data::Spider].map(|d| corrected(&self.run(d, strategy, 1)));
            let name = strategy.name();
            if c.paper == Paper::Absent {
                println!("{name:<w$} {:>12} {:>12}", ep.0, spider.0);
            } else {
                let (ep_p, spider_p) = (paper_cell(ep_paper), paper_cell(spider_paper));
                println!(
                    "{name:<w$} {:>12} {ep_p:>10} {:>12} {spider_p:>10}",
                    ep.0, spider.0
                );
            }
            let mut record = json!({"method": name, "ep_pct": ep.1, "spider_pct": spider.1});
            if c.paper == Paper::Recorded {
                let paper = json!({"ep_paper": ep_paper, "spider_paper": spider_paper});
                record = merge(record, paper);
            }
            rows.push(record);
        }
        c.tag.print(self.setup.seed, rows);
    }

    fn rounds(&self) {
        let total = self.cases(Data::Spider).len();
        println!("annotated SPIDER feedback set: {total} cases\n");
        let fisql = self.run(Data::Spider, FISQL, 2);
        let no_routing = self.run(Data::Spider, NO_ROUTING, 2);
        println!(
            "{:<20} {:>10} {:>10} {:>14}",
            "Method", "round 1", "round 2", "paper (r1→r2)"
        );
        for (r, paper) in [(&fisql, "44.55→~60"), (&no_routing, "43.56→~59")] {
            let (r1, r2) = (r.pct_after(1), r.pct_after(2));
            println!("{:<20} {r1:>9.2}% {r2:>9.2}% {paper:>14}", r.strategy);
        }
        println!(
            "\nround-2 gain: FISQL +{:.1}pp, (-Routing) +{:.1}pp (paper: ~15pp each)",
            fisql.pct_after(2) - fisql.pct_after(1),
            no_routing.pct_after(2) - no_routing.pct_after(1)
        );
        println!(
            "convergence after 2 rounds: FISQL {} vs (-Routing) {} corrected (paper: equal)",
            fisql.corrected_after_round[1], no_routing.corrected_after_round[1]
        );
        let record = json!({
            "figure": 8,
            "seed": self.setup.seed,
            "total": total,
            "fisql": fisql.corrected_after_round,
            "fisql_no_routing": no_routing.corrected_after_round,
        });
        println!("\n{record}");
    }

    fn errors(&self) {
        let mut reports = Vec::new();
        for data in [Data::Spider, Data::Ep] {
            for strategy in [FISQL, Strategy::QueryRewrite] {
                let a = analyze_round(
                    self.corpus(data),
                    self.cases(data),
                    strategy,
                    &self.setup.llm,
                );
                println!("{}", a.render());
                reports.push(a);
            }
        }
        let json = serde_json::to_string(&reports).expect("reports serialize");
        println!("{json}");
    }

    /// Turns the sweep's knob on the one setup, then puts the setup and
    /// the base feedback sets back.
    fn sweep(&mut self, s: &Sweep) {
        if let Knob::RouterNoise(_) = s.knob {
            let n = self.cases(Data::Spider).len();
            println!("annotated SPIDER cases: {n}\n");
        }
        let (heading, width, key) = s.label;
        let mut line = format!("{heading:<width$}");
        for (_, heading, _) in s.columns {
            line += &format!(" {heading:>w$}", w = s.width);
        }
        println!("{line}");

        let saved = (self.setup.llm.cfg, self.setup.user.cfg, self.base.clone());
        let mut rows = Vec::new();
        for &value in s.values {
            let strategy = match s.knob {
                Knob::RouterNoise(strategy) => {
                    self.setup.llm.cfg.calibration.router_noise = value;
                    Some(strategy)
                }
                Knob::Misalign(strategy) => {
                    self.setup.user.cfg.p_misalign = value;
                    self.annotate();
                    Some(strategy)
                }
                Knob::Highlight(strategy) => {
                    self.setup.user.cfg.p_highlight = value;
                    self.annotate();
                    Some(strategy)
                }
                Knob::Demos => None,
            };
            let (mut line, shown) = match strategy {
                Some(_) => (format!("{value:<width$.2}"), json!(value)),
                None => (format!("{:<width$}", value as usize), json!(value as usize)),
            };
            let mut record = vec![(key.to_string(), shown)];
            for &(data, _, field) in s.columns {
                let (cell, number) = match strategy {
                    Some(strategy) => corrected(&self.run(data, strategy, 1)),
                    None => {
                        let accuracy = self.first_pass(data, value as usize);
                        (format!("{:.1}%", 100.0 * accuracy), accuracy)
                    }
                };
                line += &format!(" {cell:>w$}", w = s.width);
                record.push((field.to_string(), json!(number)));
            }
            println!("{line}");
            rows.push(Value::object(record));
        }
        (self.setup.llm.cfg, self.setup.user.cfg, self.base) = saved;

        if let Some(note) = s.note {
            println!("\n{note}");
        }
        s.tag.print(self.setup.seed, rows);
    }

    fn summary(&self, lines: &[(&str, &str); 12]) {
        let setup = &self.setup;
        let [spider_zs, aep_zs] =
            [&setup.spider, &setup.aep].map(|corpus| zero_shot_report(corpus, &setup.llm));
        let [(spider_errors, spider_cases), (aep_errors, aep_cases)] = &self.base;
        let [qr_ep, nr_ep, fi_ep, hl_ep] =
            [Strategy::QueryRewrite, NO_ROUTING, FISQL, HIGHLIGHTING]
                .map(|strategy| self.run(Data::Ep, strategy, 1));
        let [qr_sp, nr_sp, fi_sp, hl_sp] = [
            (Strategy::QueryRewrite, 1),
            (NO_ROUTING, 2),
            (FISQL, 2),
            (HIGHLIGHTING, 1),
        ]
        .map(|(strategy, rounds)| self.run(Data::Spider, strategy, rounds));
        let p = |r: &CorrectionReport, round: usize| r.pct_after(round);
        let one = |r, round| format!("{:>7.2}", p(r, round));
        let pair = |ep, spider| format!("{:.2} / {:.2}", p(ep, 1), p(spider, 1));
        let share = 100.0 * spider_cases.len() as f64 / (*spider_errors).max(1) as f64;
        let measured = [
            format!("{:>7.1}%", 100.0 * spider_zs.accuracy()),
            format!("{:>7.1}%", 100.0 * aep_zs.accuracy()),
            format!("{spider_errors}/{}", setup.spider.examples.len()),
            format!("{} ({share:.0}%)", spider_cases.len()),
            format!("{} (of {aep_errors} errors)", aep_cases.len()),
            pair(&qr_ep, &qr_sp),
            one(&nr_sp, 1),
            one(&nr_ep, 1),
            pair(&fi_ep, &fi_sp),
            one(&fi_sp, 2),
            one(&nr_sp, 2),
            pair(&hl_ep, &hl_sp),
        ];
        println!("| {:<33} | {:<6} | Measured |", "Experiment", "Paper");
        println!("|-----------------------------------|--------|----------|");
        for ((label, paper), measured) in lines.iter().zip(measured) {
            println!("| {label:<33} | {paper:<6} | {measured} |");
        }

        let record = json!({
            "seed": setup.seed,
            "fig2": {"spider": spider_zs.accuracy(), "aep": aep_zs.accuracy()},
            "errors": {"spider": spider_errors, "spider_annotated": spider_cases.len(),
                        "aep": aep_errors, "aep_annotated": aep_cases.len()},
            "table2": {
                "query_rewrite": {"ep": p(&qr_ep, 1), "spider": p(&qr_sp, 1)},
                "fisql_no_routing": {"ep": p(&nr_ep, 1), "spider": p(&nr_sp, 1)},
                "fisql": {"ep": p(&fi_ep, 1), "spider": p(&fi_sp, 1)},
            },
            "fig8": {"fisql": fi_sp.corrected_after_round, "no_routing": nr_sp.corrected_after_round,
                      "total": spider_cases.len()},
            "table3": {
                "fisql_highlight": {"ep": p(&hl_ep, 1), "spider": p(&hl_sp, 1)},
            },
        });
        println!("\n{record}");
    }
}
