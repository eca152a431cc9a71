//! The `eval` workload: the Table-2 protocol on the full-scale
//! SPIDER-like corpus — error collection and annotation (set-up), then
//! FISQL (routing), Query Rewrite and SearchRefine over the annotated
//! cases, two rounds each, in repeated passes at `nproc` workers. No
//! network, no disk.
//!
//! The three strategies load different layers (FISQL: `core::interpret`;
//! Query Rewrite: `fisql_engine`; SearchRefine: `sqlkit` search), so
//! each keeps its own throughput figure as the others' control.

use crate::stats::{self, Outcomes};
use crate::trace::{self, SpanRec};
use crate::{nproc, tail_note, Args, Output};
use fisql_core::{
    explain_query, interpret, try_incorporate, AnnotatedCase, CorrectionReport, CorrectionRun,
    IncorporateContext, SemanticCache, Strategy,
};
use fisql_feedback::{SimUser, UserConfig, UserView};
use fisql_llm::{
    prompt, BackendResult, Calibration, FallibleLanguageModel, GenRequest, Generation, LlmConfig,
    SimLlm,
};
use fisql_spider::{build_spider, check_prediction_with, Corpus, SpiderConfig, Verdict};
use fisql_sqlkit::{
    canon_fingerprint, canonically_equivalent, check_query, enumerate_repairs, locate_faults,
    normalize_query, print_query, print_query_spanned, prune_candidates, EditOp, FeedbackCues,
    LocateOptions, OpClass, Query,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Feedback rounds per case (the paper's two-round protocol).
const ROUNDS: usize = 2;

/// Annotated cases each pass corrects. Seeds yield 110–140, so the
/// first this many are kept: every seed then times the same amount of
/// work.
const CASES: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest full passes a timed window ends with.
const MIN_PASSES: usize = 3;

/// Single-worker passes behind `runner.parallel_efficiency`.
const SERIAL_PASSES: usize = 5;

/// One strategy under test and the names its figures go by.
struct Spec {
    strategy: Strategy,
    /// Throughput metric (cases ÷ median pass time).
    rate: &'static str,
    /// Replay span around `try_incorporate`, and its self-time metric.
    span: &'static str,
    incorporate_us: &'static str,
    /// Role calls per case and their µs per case.
    llm_calls: &'static str,
    llm_us: &'static str,
}

/// The strategies, in report order.
const STRATEGIES: [Spec; 3] = [
    Spec {
        strategy: Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
        rate: "fisql_cases_per_s",
        span: "incorporate.fisql",
        incorporate_us: "pipeline.incorporate_us.fisql",
        llm_calls: "llm.calls_per_case.fisql",
        llm_us: "llm.us_per_case.fisql",
    },
    Spec {
        strategy: Strategy::QueryRewrite,
        rate: "rewrite_cases_per_s",
        span: "incorporate.rewrite",
        incorporate_us: "pipeline.incorporate_us.rewrite",
        llm_calls: "llm.calls_per_case.rewrite",
        llm_us: "llm.us_per_case.rewrite",
    },
    Spec {
        strategy: Strategy::SearchRefine,
        rate: "search_cases_per_s",
        span: "incorporate.search",
        incorporate_us: "pipeline.incorporate_us.search",
        llm_calls: "llm.calls_per_case.search",
        llm_us: "llm.us_per_case.search",
    },
];

/// Everything the passes read: built from the seed alone.
struct Inputs {
    corpus: Corpus,
    llm: SimLlm,
    user: SimUser,
    cases: Vec<AnnotatedCase>,
}

/// Builds the inputs for `seed` (the same derivation as the experiment
/// binaries at full scale) and times each set-up layer, in seconds.
fn build_inputs(seed: u64, workers: usize) -> (Inputs, [f64; 3]) {
    let t = Instant::now();
    let corpus = build_spider(&SpiderConfig {
        seed,
        ..SpiderConfig::default()
    });
    let corpus_s = t.elapsed().as_secs_f64();
    let llm = SimLlm::new(LlmConfig {
        seed: seed ^ 0x515E,
        calibration: Calibration::default(),
    });
    let user = SimUser::new(UserConfig {
        seed: seed ^ 0x05E4,
        ..UserConfig::default()
    });
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .workers(workers);
    let t = Instant::now();
    let errors = run.collect_errors();
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut cases = run.annotate(&errors);
    let annotate_s = t.elapsed().as_secs_f64();
    cases.truncate(CASES);
    let inputs = Inputs {
        corpus,
        llm,
        user,
        cases,
    };
    (inputs, [corpus_s, collect_s, annotate_s])
}

/// One strategy pass over every annotated case; returns the report and
/// the pass's wall time in seconds.
fn pass<L: FallibleLanguageModel>(
    inputs: &Inputs,
    llm: &L,
    strategy: Strategy,
    workers: usize,
) -> (CorrectionReport, f64) {
    let t = Instant::now();
    let report = CorrectionRun::new(&inputs.corpus, llm, &inputs.user)
        .strategy(strategy)
        .rounds(ROUNDS)
        .workers(workers)
        .run(&inputs.cases);
    (report, t.elapsed().as_secs_f64())
}

fn serialized(report: &CorrectionReport) -> String {
    serde_json::to_string(report).expect("a correction report serializes")
}

/// The simulated model with a span around every role call — the
/// runner is generic over the fallible surface, so this needs no
/// program change.
struct Timed<'a>(&'a SimLlm);

impl FallibleLanguageModel for Timed<'_> {
    fn try_generate_sql(&self, req: &GenRequest<'_>) -> BackendResult<Generation> {
        let _s = trace::span("llm.generate_sql");
        self.0.try_generate_sql(req)
    }

    fn try_classify_feedback(&self, utterance: &str, salt: u64) -> BackendResult<OpClass> {
        let _s = trace::span("llm.classify_feedback");
        self.0.try_classify_feedback(utterance, salt)
    }

    fn try_rewrite_question(&self, question: &str, feedback: &str) -> BackendResult<String> {
        let _s = trace::span("llm.rewrite_question");
        self.0.try_rewrite_question(question, feedback)
    }

    fn try_edit_success_prob(&self, routed: bool, dynamic: bool) -> BackendResult<f64> {
        let _s = trace::span("llm.edit_success_prob");
        self.0.try_edit_success_prob(routed, dynamic)
    }

    fn try_edit_complexity_factor(&self, edits: &[EditOp]) -> BackendResult<f64> {
        let _s = trace::span("llm.edit_complexity_factor");
        self.0.try_edit_complexity_factor(edits)
    }

    fn try_apply_feedback_edit_with_prob(
        &self,
        previous: &Query,
        edits: &[EditOp],
        p: f64,
        example_id: usize,
        salt: u64,
    ) -> BackendResult<Query> {
        let _s = trace::span("llm.apply_feedback_edit");
        self.0
            .try_apply_feedback_edit_with_prob(previous, edits, p, example_id, salt)
    }
}

/// Timed passes of all three strategies.
#[derive(Default)]
struct Passes {
    /// Per-strategy pass times, seconds.
    per_strategy: [Vec<f64>; 3],
    /// Full-pass times (the three strategies back to back), seconds.
    full: Vec<f64>,
    /// The last report of each strategy (for its exact counters).
    last: [Option<CorrectionReport>; 3],
    /// Role calls and their summed µs per strategy (traced passes only).
    llm_calls: [(usize, f64); 3],
}

/// Runs full passes until `window` has elapsed (at least
/// [`MIN_PASSES`]), checking every report against `reference`.
fn timed_passes<L: FallibleLanguageModel>(
    inputs: &Inputs,
    llm: &L,
    workers: usize,
    window: Duration,
    reference: &[String; 3],
    outcomes: &mut Outcomes,
) -> Passes {
    let traced = trace::enabled();
    let deadline = Instant::now() + window;
    let mut passes = Passes::default();
    loop {
        let mut full = 0.0;
        for (i, spec) in STRATEGIES.iter().enumerate() {
            let m = if traced { trace::mark() } else { 0 };
            let (report, secs) = pass(inputs, llm, spec.strategy, workers);
            if traced {
                let spans = trace::since(m);
                passes.llm_calls[i].0 += spans.len();
                passes.llm_calls[i].1 += spans.iter().map(SpanRec::us).sum::<f64>();
            }
            outcomes.attempted += 1;
            if serialized(&report) != reference[i] {
                outcomes.wrong += 1;
            }
            passes.per_strategy[i].push(secs);
            passes.last[i] = Some(report);
            full += secs;
        }
        passes.full.push(full);
        if passes.full.len() >= MIN_PASSES && Instant::now() >= deadline {
            return passes;
        }
    }
}

/// End-to-end metrics of a set of passes.
fn e2e(passes: &Passes, cases: usize) -> Vec<(&'static str, f64)> {
    let total: f64 = passes.full.iter().sum();
    let sorted = stats::sorted(passes.full.clone());
    vec![
        (
            "throughput_per_s",
            stats::ratio((cases * passes.full.len()) as f64, total),
        ),
        (
            "p50_ms",
            stats::nearest_rank(&sorted, 50.0).unwrap_or(0.0) * 1e3,
        ),
    ]
}

/// Per-strategy throughput (cases ÷ median pass time).
fn strategy_rates(passes: &Passes, cases: usize) -> Vec<(&'static str, f64)> {
    STRATEGIES
        .iter()
        .zip(&passes.per_strategy)
        .map(|(spec, times)| (spec.rate, stats::ratio(cases as f64, stats::median(times))))
        .collect()
}

/// Where golden reports for a seed live, relative to the checkout root.
fn golden_path(seed: u64) -> PathBuf {
    PathBuf::from(format!("perfbench/golden/eval-seed-{seed}.txt"))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Output, String> {
    let workers = nproc();
    let mut out = Output::default();

    // Set-up, repeated; the last inputs are kept.
    let mut setup_times = Vec::new();
    let mut layers = [Vec::new(), Vec::new(), Vec::new()];
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (built, parts) = build_inputs(args.seed, workers);
        setup_times.push(parts.iter().sum::<f64>());
        for (acc, part) in layers.iter_mut().zip(parts) {
            acc.push(part);
        }
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let cases = inputs.cases.len();
    if cases == 0 {
        return Err(format!("seed {} yields no annotated cases", args.seed));
    }
    out.e2e.push(("setup_s", stats::median(&setup_times)));
    out.layers.extend([
        ("spider.corpus_build_s", stats::median(&layers[0])),
        ("runner.collect_errors_s", stats::median(&layers[1])),
        ("runner.annotate_s", stats::median(&layers[2])),
    ]);

    // The reference: one single-worker pass per strategy. Every timed
    // pass at `nproc` workers must reproduce it byte for byte.
    let reference: [String; 3] =
        STRATEGIES.map(|spec| serialized(&pass(&inputs, &inputs.llm, spec.strategy, 1).0));
    out.outcomes.attempted += 3;
    let golden = golden_path(args.seed);
    let golden_status = if args.write_golden {
        std::fs::write(&golden, reference.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", golden.display()))?;
        "written"
    } else {
        match std::fs::read_to_string(&golden) {
            Ok(text) => {
                let recorded: Vec<&str> = text.lines().collect();
                let mismatches = (0..3)
                    .filter(|&i| recorded.get(i) != Some(&reference[i].as_str()))
                    .count();
                out.outcomes.wrong += mismatches as u64;
                if mismatches == 0 {
                    "matched"
                } else {
                    "MISMATCHED"
                }
            }
            Err(_) => "none recorded for this seed",
        }
    };
    out.notes
        .push(("golden_reports".into(), json!(golden_status)));
    out.notes
        .push(("annotated_cases".into(), json!(cases as u64)));

    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let untraced = timed_passes(
        &inputs,
        &inputs.llm,
        workers,
        window,
        &reference,
        &mut out.outcomes,
    );
    out.e2e.extend(e2e(&untraced, cases));
    out.layers.extend(strategy_rates(&untraced, cases));
    out.notes
        .push(("passes".into(), json!(untraced.full.len() as u64)));
    out.notes.push((
        "pass_tail_ms".into(),
        tail_note(&stats::sorted(untraced.full.clone()), 1e3),
    ));
    exact_counters(&untraced, cases, &mut out);

    if args.trace {
        traced(args, &inputs, &reference, &untraced, window, &mut out);
    }
    out.e2e.push(("peak_rss_mb", crate::peak_rss_mb("self")?));
    Ok(out)
}

/// Counters that repeat exactly: they come from the reports of the
/// untraced passes at `nproc` workers.
fn exact_counters(passes: &Passes, cases: usize, out: &mut Output) {
    let reports: Vec<&CorrectionReport> = passes.last.iter().flatten().collect();
    let sum =
        |f: &dyn Fn(&CorrectionReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let logical = sum(&|r| r.metrics.engine_executions);
    let skipped_cache = sum(&|r| r.metrics.executions_skipped_cache);
    let cache_misses = sum(&|r| r.metrics.semantic_cache_misses);
    let skipped_static = sum(&|r| r.executions_skipped_static);
    let case_passes = (cases * reports.len()) as f64;
    out.layers.extend([
        (
            "runner.oracle_skip_share",
            stats::ratio(skipped_static, logical + skipped_static),
        ),
        ("engine.execs_per_case.logical", logical / case_passes),
        (
            "engine.execs_per_case.measured",
            (logical - skipped_cache) / case_passes,
        ),
        (
            "semcache.hit_rate",
            stats::ratio(skipped_cache, skipped_cache + cache_misses),
        ),
    ]);
}

/// The traced half: role-call spans around runner passes, the
/// single-worker passes behind parallel efficiency, and the per-case
/// replay that times each layer call on the same cases and candidates.
fn traced(
    args: &Args,
    inputs: &Inputs,
    reference: &[String; 3],
    untraced: &Passes,
    window: Duration,
    out: &mut Output,
) {
    let workers = nproc();
    let cases = inputs.cases.len();

    let serial: Vec<f64> = (0..SERIAL_PASSES)
        .map(|_| {
            STRATEGIES
                .iter()
                .map(|spec| pass(inputs, &inputs.llm, spec.strategy, 1).1)
                .sum()
        })
        .collect();
    out.layers.push((
        "runner.parallel_efficiency",
        stats::ratio(
            stats::median(&serial),
            workers as f64 * stats::median(&untraced.full),
        ),
    ));

    trace::enable(true);
    let timed = Timed(&inputs.llm);
    let traced_passes = timed_passes(
        inputs,
        &timed,
        workers,
        window,
        reference,
        &mut out.outcomes,
    );
    out.e2e_traced.extend(e2e(&traced_passes, cases));
    let case_passes = (cases * traced_passes.full.len()) as f64;
    for (spec, (calls, us)) in STRATEGIES.iter().zip(traced_passes.llm_calls) {
        out.layers
            .push((spec.llm_calls, calls as f64 / case_passes));
        out.layers.push((spec.llm_us, us / case_passes));
    }

    let m = trace::mark();
    let mut acc = ReplayAcc::default();
    for (i, reference) in reference.iter().enumerate() {
        let verdicts = replay(inputs, i, &mut acc);
        let expected: CorrectionReport =
            serde_json::from_str(reference).expect("the reference report parses");
        out.outcomes.attempted += 1;
        if verdicts != expected.corrected_after_round {
            out.outcomes.wrong += 1;
        }
    }
    trace::enable(false);
    let spans = trace::since(m);
    let mean_of = |name: &str| stats::mean(&trace::durations(&spans, name));
    for spec in &STRATEGIES {
        let self_us = stats::mean(&trace::self_times(&spans, m, spec.span));
        out.layers.push((spec.incorporate_us, self_us));
    }
    let replayed = (3 * cases) as f64;
    out.layers.extend([
        ("prompt.build_us", mean_of("prompt.feedback_prompt")),
        ("interpret.us_per_call", mean_of("interpret")),
        ("sqlkit.check_us", mean_of("sqlkit.check_query")),
        ("sqlkit.canon_us", mean_of("sqlkit.canon_fingerprint")),
        ("sqlkit.search_us_per_round", mean_of("sqlkit.search_round")),
        (
            "sqlkit.prune_share",
            stats::ratio(acc.pruned as f64, acc.enumerated as f64),
        ),
        (
            "engine.us_per_exec_p50",
            stats::median(&trace::durations(&spans, "engine.execute")),
        ),
        (
            "engine.share",
            stats::ratio(acc.engine_miss_us, acc.case_us),
        ),
        (
            "semcache.net_saved_us_per_case",
            (acc.engine_hit_us - acc.canon_us) / replayed,
        ),
    ]);
    crate::write_spans(args);
}

/// Sums the replay keeps across strategies.
#[derive(Default)]
struct ReplayAcc {
    /// Case time excluding probes, µs.
    case_us: f64,
    /// Engine time of lookups the semantic cache missed, µs.
    engine_miss_us: f64,
    /// Engine time the semantic cache's hits avoided, µs.
    engine_hit_us: f64,
    /// Canonical fingerprinting over every semantic lookup, µs.
    canon_us: f64,
    /// Repair candidates enumerated / pruned by the search trio.
    enumerated: u64,
    pruned: u64,
}

/// Runs `f` inside a probe span named `name`, adding its wall time to
/// `probe_us` (probes are extra calls the replay makes to time a layer;
/// their time is not case time). Returns `f`'s value and its µs.
fn probe<T>(probe_us: &mut f64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _p = trace::span("probe");
    let _s = trace::span(name);
    let t = Instant::now();
    let value = black_box(f());
    let us = t.elapsed().as_secs_f64() * 1e6;
    *probe_us += us;
    (value, us)
}

/// Replays strategy `which` case by case on one thread, reproducing the
/// runner's loop (view, feedback, incorporation, equivalence oracle,
/// correctness check through the semantic cache) and timing each layer
/// call on the same inputs. Returns the cumulative corrected counts,
/// which must equal the runner's `corrected_after_round`.
fn replay(inputs: &Inputs, which: usize, acc: &mut ReplayAcc) -> Vec<usize> {
    let spec = &STRATEGIES[which];
    let timed = Timed(&inputs.llm);
    let mut semcache = SemanticCache::new(true);
    let mut corrected = vec![0usize; ROUNDS];
    for (ci, case) in inputs.cases.iter().enumerate() {
        trace::set_request(ci as u64);
        let _case = trace::span("case");
        let started = Instant::now();
        let mut probe_us = 0.0;
        let example = &inputs.corpus.examples[case.error.example_idx];
        let db = inputs.corpus.database(example);
        let schema = db.schema_info();
        let mut current = normalize_query(&case.error.initial);
        let mut question = example.question.clone();
        let mut known_incorrect: Vec<Query> = Vec::new();
        if !case.error.execution_error {
            known_incorrect.push(current.clone());
        }
        let mut corrected_at = None;
        for round in 0..ROUNDS {
            let feedback = if round == 0 {
                Some(case.feedback.clone())
            } else {
                let view = UserView {
                    question: example.question.clone(),
                    sql: print_query_spanned(&current),
                    explanation: explain_query(&current),
                    result: semcache
                        .execute_view(db, &current)
                        .map(|rs| rs.render_grid(10)),
                };
                inputs.user.feedback(example, &current, &view, round as u64)
            };
            let Some(fb) = feedback else {
                break;
            };
            let r = round as u64;
            match spec.strategy {
                Strategy::Fisql { .. } => {
                    let routed = inputs.llm.classify_feedback(&fb.text, r);
                    let demos = prompt::type_demonstrations(routed);
                    probe(&mut probe_us, "prompt.feedback_prompt", || {
                        prompt::feedback_prompt(
                            db,
                            &[],
                            &demos,
                            &question,
                            &print_query(&current),
                            &fb.text,
                        )
                    });
                    probe(&mut probe_us, "interpret", || {
                        let mut rng = StdRng::seed_from_u64(
                            0x1E27 ^ (example.id as u64).rotate_left(13) ^ r.rotate_left(29),
                        );
                        interpret(&fb.text, &current, db, Some(routed), None, &mut rng)
                    });
                }
                Strategy::SearchRefine => {
                    let ((enumerated, pruned), _) =
                        probe(&mut probe_us, "sqlkit.search_round", || {
                            let previous = normalize_query(&current);
                            let sites = locate_faults(
                                &previous,
                                &schema,
                                LocateOptions {
                                    feedback: Some(&fb.text),
                                    highlight: fb.highlight,
                                },
                            );
                            let cues = FeedbackCues::extract(&fb.text, &schema);
                            let pool = enumerate_repairs(&previous, &schema, &sites, &cues);
                            let enumerated = pool.len() as u64;
                            (
                                enumerated,
                                prune_candidates(&previous, pool, &schema).pruned_static(),
                            )
                        });
                    acc.enumerated += enumerated;
                    acc.pruned += pruned;
                }
                _ => {}
            }
            let step = {
                let _s = trace::span(spec.span);
                try_incorporate(
                    spec.strategy,
                    &timed,
                    &IncorporateContext {
                        db,
                        example,
                        question: &question,
                        previous: &current,
                        feedback: &fb,
                        round: r,
                        conformance_gate: false,
                    },
                )
            };
            // The simulated model cannot fail; a failure would show up
            // as a verdict mismatch against the runner.
            let Ok(step) = step else {
                continue;
            };
            probe(&mut probe_us, "sqlkit.check_query", || {
                check_query(&step.query, &schema)
            });
            let clean = !step.gate.has_errors();
            current = step.query;
            question = step.question;
            if clean
                && known_incorrect
                    .iter()
                    .any(|q| canonically_equivalent(q, &current))
            {
                continue;
            }
            let check = check_prediction_with(db, example, &current, |db, q| {
                let hits = semcache.stats.hits;
                let result = semcache.execute_semantic(db, q);
                let hit = semcache.stats.hits > hits;
                acc.canon_us += probe(&mut probe_us, "sqlkit.canon_fingerprint", || {
                    canon_fingerprint(q)
                })
                .1;
                let engine_us = probe(&mut probe_us, "engine.execute", || {
                    fisql_engine::execute(db, q).is_ok()
                })
                .1;
                if hit {
                    acc.engine_hit_us += engine_us;
                } else {
                    acc.engine_miss_us += engine_us;
                }
                result
            });
            if check.is_correct() {
                corrected_at = Some(round);
                break;
            }
            if clean && !matches!(check, Verdict::ExecutionError { .. }) {
                known_incorrect.push(current.clone());
            }
        }
        if let Some(r) = corrected_at {
            for slot in corrected.iter_mut().skip(r) {
                *slot += 1;
            }
        }
        acc.case_us += started.elapsed().as_secs_f64() * 1e6 - probe_us;
    }
    corrected
}
