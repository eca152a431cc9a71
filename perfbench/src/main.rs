//! The repository benchmark (see NOTES.md).
//!
//! ```text
//! perfbench --workload eval|serve-churn|serve-durable --seed N
//!           --seconds S --trace 0|1 [--fisql PATH] [--write-golden]
//! ```
//!
//! Prints one record line (`{"record": …}`: every metric by name with
//! its unit, tail percentiles with their sample counts, correctness
//! verdicts, nproc, revision, build profile, and on traced runs the
//! tracing overhead), then, as the last line, the result object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits nonzero on any correctness failure.

mod eval;
mod serve;
mod stats;
mod trace;

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics, `(name, unit)`, as in BENCHMARK.json. Every
/// workload reports each one (see NOTES.md for its meaning there).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// How many of [`PER_LAYER`]'s first entries are each workload's
/// detailed figures (every record carries them, traced or not).
const DETAIL: usize = 12;

/// Per-layer metrics, `(name, unit)`, as in BENCHMARK.json. A traced
/// run reports each one; a layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fisql_cases_per_s", "cases/s"),
    ("rewrite_cases_per_s", "cases/s"),
    ("search_cases_per_s", "cases/s"),
    ("sessions_per_s", "sessions/s"),
    ("turns_per_s", "turns/s"),
    ("open_p50_ms", "ms"),
    ("open_tail_ms", "ms"),
    ("turn_p50_ms", "ms"),
    ("turn_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("failed_share", "fraction"),
    ("spider.corpus_build_s", "s"),
    ("runner.collect_errors_s", "s"),
    ("runner.annotate_s", "s"),
    ("server.spawn_to_ready_s", "s"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.oracle_skip_share", "fraction"),
    ("llm.calls_per_case.fisql", "count"),
    ("llm.calls_per_case.rewrite", "count"),
    ("llm.calls_per_case.search", "count"),
    ("llm.us_per_case.fisql", "us"),
    ("llm.us_per_case.rewrite", "us"),
    ("llm.us_per_case.search", "us"),
    ("prompt.build_us", "us"),
    ("interpret.us_per_call", "us"),
    ("pipeline.incorporate_us.fisql", "us"),
    ("pipeline.incorporate_us.rewrite", "us"),
    ("pipeline.incorporate_us.search", "us"),
    ("sqlkit.check_us", "us"),
    ("sqlkit.canon_us", "us"),
    ("sqlkit.search_us_per_round", "us"),
    ("sqlkit.prune_share", "fraction"),
    ("engine.execs_per_case.logical", "count"),
    ("engine.execs_per_case.measured", "count"),
    ("engine.us_per_exec_p50", "us"),
    ("engine.share", "fraction"),
    ("semcache.hit_rate", "fraction"),
    ("semcache.net_saved_us_per_case", "us"),
    ("client.connect_us", "us"),
    ("server.handshake_us", "us"),
    ("server.unattributed_us_per_open", "us"),
    ("server.unattributed_us_per_turn", "us"),
    ("admission.queued_share", "fraction"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.turn_bytes", "bytes"),
    ("protocol.read_bytes", "bytes"),
    ("session.ask_us", "us"),
    ("session.feedback_us", "us"),
    ("session.cache_hit_rate", "fraction"),
    ("store.append_us_p50", "us"),
    ("store.append_us_tail", "us"),
    ("store.fsyncs_per_turn", "count"),
    ("store.bytes_per_turn", "bytes"),
    ("replicate.gate_wait_us_p50", "us"),
    ("replicate.gate_wait_us_tail", "us"),
    ("replicate.records_per_turn", "count"),
    ("replicate.ack_timeouts", "count"),
];

/// Where runs leave records, spans and temporary stores (inside the
/// checkout; ignored by git).
const OUT_DIR: &str = ".bench_out";

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `fisql` binary serve workloads spawn.
    pub fisql: Option<PathBuf>,
    /// Record the eval reference reports for this seed instead of
    /// checking them.
    pub write_golden: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Option<&str> {
            raw.iter()
                .position(|a| a == flag)
                .and_then(|i| raw.get(i + 1))
                .map(String::as_str)
        };
        let number = |flag: &str| -> Result<u64, String> {
            let v = value(flag).ok_or_else(|| format!("{flag} is required"))?;
            v.parse()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        let trace = match value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: value("--workload")
                .ok_or("--workload is required")?
                .to_string(),
            seed: number("--seed")?,
            seconds,
            trace,
            fisql: value("--fisql").map(PathBuf::from),
            write_golden: raw.iter().any(|a| a == "--write-golden"),
        })
    }

    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Output {
    /// Every operation attempted and how many did not succeed.
    pub outcomes: stats::Outcomes,
    /// End-to-end metrics, untraced.
    pub e2e: Vec<(&'static str, f64)>,
    /// The same metrics from the traced half of a traced run.
    pub e2e_traced: Vec<(&'static str, f64)>,
    /// Per-layer metrics (and each workload's detailed figures).
    pub layers: Vec<(&'static str, f64)>,
    /// Further facts for the record.
    pub notes: Vec<(String, Value)>,
}

/// Worker threads and client connections: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a tail percentile was chosen, for the record; `scale` converts
/// the sample's unit to the metric's.
pub fn tail_note(sorted: &[f64], scale: f64) -> Value {
    match stats::tail(sorted) {
        Some(t) => json!({
            "percentile": t.percentile,
            "value": t.value * scale,
            "samples": t.samples as u64,
            "beyond": t.beyond as u64,
        }),
        None => json!({"samples": 0}),
    }
}

/// `VmHWM` (peak resident set) of process `pid` (`self` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// A run's temporary directory, removed on every exit path.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory for this run's temporary files.
    pub fn new(args: &Args) -> Result<Scratch, String> {
        let dir =
            Path::new(OUT_DIR)
                .join("tmp")
                .join(format!("{}-{}", args.stem(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes every recorded span next to the run's record (one file per
/// workload, replaced by each traced run: eval traces run to megabytes).
pub fn write_spans(args: &Args) {
    let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = trace::write_all(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn metric_block(names: &[(&str, &str)], values: &[(&'static str, f64)]) -> Value {
    Value::object(
        names
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name.to_string(), json!({"value": value, "unit": unit}))
            })
            .collect(),
    )
}

fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "eval" => eval::run(&args),
        "serve-churn" => serve::run(&args, serve::Mix::Churn),
        "serve-durable" => serve::run(&args, serve::Mix::Durable),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    out.layers
        .push(("failed_share", out.outcomes.failed_share()));

    let overhead = Value::object(
        out.e2e_traced
            .iter()
            .filter_map(|&(name, traced)| {
                let (_, untraced) = out.e2e.iter().find(|(n, _)| *n == name)?;
                Some((
                    name.to_string(),
                    json!({"untraced": *untraced, "traced": traced, "traced_minus_untraced": traced - *untraced}),
                ))
            })
            .collect(),
    );
    let record = json!({"record": {
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc() as u64,
        "revision": revision(),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "outcomes": {
            "attempted": out.outcomes.attempted,
            "failed": out.outcomes.failed,
            "rejected": out.outcomes.rejected,
            "wrong": out.outcomes.wrong,
        },
        "end_to_end": metric_block(END_TO_END, &out.e2e),
        "per_workload": metric_block(&PER_LAYER[..DETAIL], &out.layers),
        "per_layer": if args.trace { metric_block(PER_LAYER, &out.layers) } else { Value::Null },
        "tracing_overhead": overhead,
        "notes": Value::object(out.notes.clone()),
    }});
    let record_line = record.to_string();
    let path = Path::new(OUT_DIR).join(format!("record-{}.json", args.stem()));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &record_line))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{record_line}");

    let correct = out.outcomes.bad() == 0;
    let metrics = if args.trace {
        metric_block(PER_LAYER, &out.layers)
    } else {
        metric_block(END_TO_END, &out.e2e)
    };
    let attempted = out.outcomes.attempted.max(1);
    println!(
        "{}",
        json!({"correct": correct, "attempted": attempted, "failed": out.outcomes.bad(), "metrics": metrics})
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    /// `(name, unit)` of every entry of BENCHMARK.json's list `key`.
    fn declared(json: &Value, key: &str) -> Vec<(String, String)> {
        let text = |entry: &Content, field: &str| match entry
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == field).map(|(_, v)| v))
        {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key}.{field}: {other:?}"),
        };
        let list = json
            .0
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v);
        match list {
            Some(Content::Seq(entries)) => entries
                .iter()
                .map(|e| (text(e, "name"), text(e, "unit")))
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn args_parse_and_reject() {
        let raw = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&raw("--workload eval --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(Args::parse(&raw("--workload eval --seed x --seconds 10")).is_err());
        assert!(Args::parse(&raw("--workload eval --seed 1 --seconds 0")).is_err());
        assert!(Args::parse(&raw("--workload eval --seed 1 --seconds 5 --trace 2")).is_err());
    }

    #[test]
    fn metric_block_fills_missing_layers_with_zero() {
        let block = metric_block(&[("a", "s"), ("b", "ms")], &[("b", 2.5)]);
        assert_eq!(
            block.to_string(),
            r#"{"a":{"value":0.0,"unit":"s"},"b":{"value":2.5,"unit":"ms"}}"#
        );
    }
}
