//! Typed, validated configuration for the `fisql` entry points.
//!
//! The CLI used to thread every flag positionally through ad-hoc
//! `flag_value` lookups; `fisql --eval`, `fisql serve`, and `fisql load`
//! now parse into these builder-style structs (matching the
//! [`CorrectionRun`](crate::runner::CorrectionRun) idiom), validate
//! once, and hand a single config object to the code that runs. The
//! eval and serve surfaces share the backend-tuning knobs (fault rate,
//! retry budget, fsync policy), so a flag means the same thing in both
//! modes.

use crate::journal::FsyncPolicy;
use crate::pipeline::Strategy;
use fisql_llm::{FaultConfig, FaultyBackend, ResilienceConfig, Resilient, SimLlm};
use fisql_sqlkit::Fnv64;
use std::path::PathBuf;

/// A configuration parse or validation failure, rendered for the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parses `--flag value` out of an argument list.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, ConfigError>
where
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(ConfigError(format!("{flag} needs a value")));
    };
    raw.parse()
        .map(Some)
        .map_err(|e| ConfigError(format!("{flag} got an invalid value {raw:?}: {e}")))
}

/// Whether a bare switch is present.
fn switch(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Validates a fault rate into `[0, 1]`.
fn check_rate(rate: f64, flag: &str) -> Result<(), ConfigError> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(ConfigError(format!(
            "{flag} must be within [0, 1], got {rate}"
        )));
    }
    Ok(())
}

/// Builds the chaos backend stack both entry points evaluate through:
/// deterministic fault injection under the simulated model, retries and
/// breaker on top. Built even at rate 0 — the zero-rate injector passes
/// everything through and `Resilient` adds only bookkeeping — so the
/// pipeline is identical with and without chaos.
pub fn chaos_stack(
    llm: &SimLlm,
    fault_rate: f64,
    retry_budget: u32,
) -> Resilient<FaultyBackend<SimLlm>> {
    Resilient::new(
        FaultyBackend::new(llm.clone(), FaultConfig::uniform(fault_rate)),
        ResilienceConfig {
            attempt_budget: retry_budget,
            ..ResilienceConfig::default()
        },
    )
}

/// Configuration for `fisql --eval`: the sharded correction evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Feedback-incorporation strategy.
    pub strategy: Strategy,
    /// Worker threads (0 = all cores).
    pub workers: usize,
    /// Injected backend fault rate in `[0, 1]`.
    pub fault_rate: f64,
    /// Resilience attempts per backend call.
    pub retry_budget: u32,
    /// Run the feedback-conformance gate.
    pub conformance_gate: bool,
    /// Serve repeated semantically-equivalent executions from the
    /// per-worker result cache (on by default; reports are bit-identical
    /// either way).
    pub semantic_cache: bool,
    /// Write-ahead journal path prefix (one file per corpus).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal.
    pub resume: bool,
    /// Stall-watchdog deadline per case, virtual milliseconds.
    pub case_deadline_ms: Option<u64>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            strategy: Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            workers: 0,
            fault_rate: 0.0,
            retry_budget: 3,
            conformance_gate: false,
            semantic_cache: true,
            journal: None,
            resume: false,
            case_deadline_ms: None,
            fsync: FsyncPolicy::default(),
        }
    }
}

impl EvalConfig {
    /// Parses the `--eval` flag surface, falling back to `FISQL_WORKERS`
    /// and `FISQL_FAULT_RATE` where the flags are absent, and validates
    /// the result.
    pub fn from_args(args: &[String]) -> Result<EvalConfig, ConfigError> {
        let config = EvalConfig {
            strategy: flag_value(args, "--strategy")?.unwrap_or(EvalConfig::default().strategy),
            workers: flag_value(args, "--workers")?.unwrap_or_else(crate::runner::workers_from_env),
            fault_rate: match flag_value(args, "--fault-rate")? {
                Some(rate) => rate,
                None => FaultConfig::from_env().map_or(0.0, |c| c.total_rate()),
            },
            retry_budget: flag_value(args, "--retry-budget")?.unwrap_or(3),
            conformance_gate: switch(args, "--conformance-gate"),
            semantic_cache: !switch(args, "--no-semantic-cache"),
            journal: flag_value::<String>(args, "--journal")?.map(PathBuf::from),
            resume: switch(args, "--resume"),
            case_deadline_ms: flag_value(args, "--case-deadline")?,
            fsync: flag_value(args, "--fsync")?.unwrap_or_default(),
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks cross-field invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_rate(self.fault_rate, "--fault-rate")?;
        if self.retry_budget == 0 {
            return Err(ConfigError("--retry-budget must be at least 1".into()));
        }
        if self.resume && self.journal.is_none() {
            return Err(ConfigError("--resume requires --journal PATH".into()));
        }
        Ok(())
    }

    /// Builder: sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder: sets the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder: sets the injected fault rate.
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Builder: enables or disables the semantic result cache.
    pub fn semantic_cache(mut self, on: bool) -> Self {
        self.semantic_cache = on;
        self
    }
}

/// Configuration for `fisql serve`: the long-lived multi-session daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind host.
    pub host: String,
    /// Bind port (0 = ephemeral; the daemon prints the resolved address).
    pub port: u16,
    /// Concurrent-session cap: admissions beyond it queue.
    pub max_sessions: usize,
    /// Connections allowed to wait for a session slot; beyond this the
    /// server rejects immediately (backpressure).
    pub queue_depth: usize,
    /// Longest a queued connection waits for a slot before being
    /// rejected, milliseconds.
    pub queue_wait_ms: u64,
    /// Session-store journal path. `None` keeps sessions in memory only
    /// (no restart replay).
    pub store: Option<PathBuf>,
    /// Session-store fsync policy.
    pub fsync: FsyncPolicy,
    /// Idle-session reaping: a connection silent for this long has its
    /// slot reclaimed (journaled `Reaped`, typed close frame). 0
    /// disables the reaper.
    pub idle_timeout_ms: u64,
    /// Auto-compact the session store after this many closed/reaped
    /// sessions (0 = only on explicit `Compact` requests).
    pub compact_every: u64,
    /// Deterministic disk-fault injection rate in `[0, 1]` on the
    /// session store's append and fsync lanes (chaos serving).
    pub disk_fault_rate: f64,
    /// Feedback-incorporation strategy for hosted sessions.
    pub strategy: Strategy,
    /// Injected backend fault rate in `[0, 1]` (chaos serving).
    pub fault_rate: f64,
    /// Resilience attempts per backend call.
    pub retry_budget: u32,
    /// Corpus seed — the daemon serves the bundled AEP-like corpus built
    /// from this seed, and clients must build the same corpus to script
    /// against it.
    pub seed: u64,
    /// Corpus size (examples).
    pub n_examples: usize,
    /// Give each hosted session a result cache for re-presented SQL (on
    /// by default; transcripts are byte-identical either way).
    pub semantic_cache: bool,
    /// Boot as a hot standby following the primary whose `--repl-listen`
    /// address this is. A follower refuses sessions until promoted.
    pub replica_of: Option<String>,
    /// Accept follower connections on this address (primary side;
    /// `host:0` prints the resolved address like the client listener).
    pub repl_listen: Option<String>,
    /// When state-changing responses are released: `none` (immediately,
    /// shipping is async) or `quorum` (after a majority of connected
    /// followers acknowledged durability).
    pub repl_ack: crate::serve::AckMode,
    /// Longest one response waits for follower acknowledgement before
    /// being released anyway, milliseconds (quorum mode).
    pub repl_ack_timeout_ms: u64,
    /// Follower auto-promotion on primary link loss (on by default;
    /// `--no-auto-promote` leaves promotion to the admin `Promote`
    /// request).
    pub auto_promote: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 4151,
            max_sessions: 32,
            queue_depth: 16,
            queue_wait_ms: 5_000,
            store: None,
            fsync: FsyncPolicy::default(),
            idle_timeout_ms: 0,
            compact_every: 0,
            disk_fault_rate: 0.0,
            strategy: Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            fault_rate: 0.0,
            retry_budget: 3,
            seed: 0xC11,
            n_examples: 120,
            semantic_cache: true,
            replica_of: None,
            repl_listen: None,
            repl_ack: crate::serve::AckMode::None,
            repl_ack_timeout_ms: 5_000,
            auto_promote: true,
        }
    }
}

impl ServeConfig {
    /// Parses the `serve` flag surface and validates the result.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, ConfigError> {
        let defaults = ServeConfig::default();
        let config = ServeConfig {
            host: flag_value(args, "--host")?.unwrap_or(defaults.host),
            port: flag_value(args, "--port")?.unwrap_or(defaults.port),
            max_sessions: flag_value(args, "--max-sessions")?.unwrap_or(defaults.max_sessions),
            queue_depth: flag_value(args, "--queue-depth")?.unwrap_or(defaults.queue_depth),
            queue_wait_ms: flag_value(args, "--queue-wait-ms")?.unwrap_or(defaults.queue_wait_ms),
            store: flag_value::<String>(args, "--store")?.map(PathBuf::from),
            fsync: flag_value(args, "--fsync")?.unwrap_or_default(),
            idle_timeout_ms: flag_value(args, "--idle-timeout")?.unwrap_or(0),
            compact_every: flag_value(args, "--compact-every")?.unwrap_or(0),
            disk_fault_rate: match flag_value(args, "--disk-fault-rate")? {
                Some(rate) => rate,
                None => crate::serve::DiskFaultConfig::from_env().map_or(0.0, |c| c.append_rate),
            },
            strategy: flag_value(args, "--strategy")?.unwrap_or(defaults.strategy),
            fault_rate: flag_value(args, "--fault-rate")?.unwrap_or(0.0),
            retry_budget: flag_value(args, "--retry-budget")?.unwrap_or(defaults.retry_budget),
            seed: flag_value(args, "--seed")?.unwrap_or(defaults.seed),
            n_examples: flag_value(args, "--examples")?.unwrap_or(defaults.n_examples),
            semantic_cache: !switch(args, "--no-semantic-cache"),
            replica_of: flag_value(args, "--replica-of")?,
            repl_listen: flag_value(args, "--repl-listen")?,
            repl_ack: match flag_value::<String>(args, "--repl-ack")? {
                Some(mode) => mode
                    .parse()
                    .map_err(|e| ConfigError(format!("--repl-ack: {e}")))?,
                None => defaults.repl_ack,
            },
            repl_ack_timeout_ms: flag_value(args, "--repl-ack-timeout")?
                .unwrap_or(defaults.repl_ack_timeout_ms),
            auto_promote: !switch(args, "--no-auto-promote"),
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks cross-field invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_rate(self.fault_rate, "--fault-rate")?;
        check_rate(self.disk_fault_rate, "--disk-fault-rate")?;
        if self.max_sessions == 0 {
            return Err(ConfigError("--max-sessions must be at least 1".into()));
        }
        if self.retry_budget == 0 {
            return Err(ConfigError("--retry-budget must be at least 1".into()));
        }
        if self.n_examples == 0 {
            return Err(ConfigError("--examples must be at least 1".into()));
        }
        if self.repl_ack == crate::serve::AckMode::Quorum
            && self.repl_listen.is_none()
            && self.replica_of.is_none()
        {
            return Err(ConfigError(
                "--repl-ack quorum needs replication (--repl-listen or --replica-of)".into(),
            ));
        }
        if self.repl_ack_timeout_ms == 0 {
            return Err(ConfigError(
                "--repl-ack-timeout must be at least 1 ms".into(),
            ));
        }
        Ok(())
    }

    /// The bind address.
    pub fn addr(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }

    /// Fingerprint binding a session store to everything that affects
    /// replay: corpus identity, strategy, and the chaos/resilience
    /// knobs. Restarting with a different configuration refuses the
    /// store instead of replaying sessions into different transcripts.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv64::new();
        fp.update(b"fisql-session-store-v1");
        fp.update(&self.seed.to_le_bytes());
        fp.update(&(self.n_examples as u64).to_le_bytes());
        fp.update(format!("{:?}", self.strategy).as_bytes());
        fp.update(&self.fault_rate.to_bits().to_le_bytes());
        fp.update(&self.retry_budget.to_le_bytes());
        fp.update(&[u8::from(self.semantic_cache)]);
        fp.finish()
    }

    /// Builder: sets the bind host.
    pub fn host(mut self, host: impl Into<String>) -> Self {
        self.host = host.into();
        self
    }

    /// Builder: sets the bind port.
    pub fn port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Builder: sets the concurrent-session cap.
    pub fn max_sessions(mut self, cap: usize) -> Self {
        self.max_sessions = cap;
        self
    }

    /// Builder: sets the admission queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Builder: sets the queued-admission wait budget.
    pub fn queue_wait_ms(mut self, ms: u64) -> Self {
        self.queue_wait_ms = ms;
        self
    }

    /// Builder: sets the session-store path.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Builder: sets the session-store fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder: sets the idle-session reap timeout (0 disables).
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Builder: sets the auto-compaction cadence (0 disables).
    pub fn compact_every(mut self, closed_sessions: u64) -> Self {
        self.compact_every = closed_sessions;
        self
    }

    /// Builder: sets the disk-fault injection rate.
    pub fn disk_fault_rate(mut self, rate: f64) -> Self {
        self.disk_fault_rate = rate;
        self
    }

    /// Builder: sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder: sets the injected fault rate.
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Builder: sets the corpus seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the corpus size.
    pub fn n_examples(mut self, n: usize) -> Self {
        self.n_examples = n;
        self
    }

    /// Builder: enables or disables the per-session result cache.
    pub fn semantic_cache(mut self, on: bool) -> Self {
        self.semantic_cache = on;
        self
    }

    /// Builder: boots the daemon as a follower of this primary
    /// replication address.
    pub fn replica_of(mut self, primary: impl Into<String>) -> Self {
        self.replica_of = Some(primary.into());
        self
    }

    /// Builder: accepts follower connections on this address.
    pub fn repl_listen(mut self, addr: impl Into<String>) -> Self {
        self.repl_listen = Some(addr.into());
        self
    }

    /// Builder: sets the replication acknowledgement mode.
    pub fn repl_ack(mut self, mode: crate::serve::AckMode) -> Self {
        self.repl_ack = mode;
        self
    }

    /// Builder: sets the follower-ack wait budget (quorum mode).
    pub fn repl_ack_timeout_ms(mut self, ms: u64) -> Self {
        self.repl_ack_timeout_ms = ms;
        self
    }

    /// Builder: enables or disables follower auto-promotion.
    pub fn auto_promote(mut self, on: bool) -> Self {
        self.auto_promote = on;
        self
    }

    /// Builder: clears all replication wiring (standalone daemon) — the
    /// failover harness starts from this before wiring each node.
    pub fn replication_off(mut self) -> Self {
        self.replica_of = None;
        self.repl_listen = None;
        self.repl_ack = crate::serve::AckMode::None;
        self
    }
}

/// Configuration for `fisql load`: the deterministic load generator.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Server address to drive — or a comma-separated endpoint list
    /// (primary first, standbys after) the clients fail over across
    /// (see [`LoadConfig::endpoints`]).
    pub addr: String,
    /// Scripted sessions to run.
    pub sessions: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Feedback rounds per session (upper bound; scripts vary 1..=max).
    pub max_rounds: usize,
    /// Script seed (must match across runs for identical scripts).
    pub seed: u64,
    /// Corpus seed (must match the server's `--seed`).
    pub corpus_seed: u64,
    /// Corpus size (must match the server's `--examples`).
    pub n_examples: usize,
    /// Send a graceful `Shutdown` to the daemon after the load.
    pub shutdown: bool,
    /// How long to keep retrying the first connection, milliseconds
    /// (lets CI start the daemon and the load generator concurrently).
    pub connect_retry_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        LoadConfig {
            addr: serve.addr(),
            sessions: 48,
            concurrency: 16,
            max_rounds: 3,
            seed: 0x10AD,
            corpus_seed: serve.seed,
            n_examples: serve.n_examples,
            shutdown: false,
            connect_retry_ms: 10_000,
        }
    }
}

impl LoadConfig {
    /// Parses the `load` flag surface and validates the result.
    pub fn from_args(args: &[String]) -> Result<LoadConfig, ConfigError> {
        let defaults = LoadConfig::default();
        let config = LoadConfig {
            addr: flag_value(args, "--addr")?.unwrap_or(defaults.addr),
            sessions: flag_value(args, "--sessions")?.unwrap_or(defaults.sessions),
            concurrency: flag_value(args, "--concurrency")?.unwrap_or(defaults.concurrency),
            max_rounds: flag_value(args, "--rounds")?.unwrap_or(defaults.max_rounds),
            seed: flag_value(args, "--seed")?.unwrap_or(defaults.seed),
            corpus_seed: flag_value(args, "--corpus-seed")?.unwrap_or(defaults.corpus_seed),
            n_examples: flag_value(args, "--examples")?.unwrap_or(defaults.n_examples),
            shutdown: switch(args, "--shutdown"),
            connect_retry_ms: flag_value(args, "--connect-retry-ms")?
                .unwrap_or(defaults.connect_retry_ms),
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks cross-field invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sessions == 0 || self.concurrency == 0 || self.max_rounds == 0 {
            return Err(ConfigError(
                "--sessions, --concurrency, and --rounds must all be at least 1".into(),
            ));
        }
        if self.endpoints().is_empty() {
            return Err(ConfigError("--addr must name at least one endpoint".into()));
        }
        Ok(())
    }

    /// The failover endpoint list: `--addr` split on commas, in order
    /// (primary first). A single plain address is a one-entry list, so
    /// the non-replicated path is unchanged.
    pub fn endpoints(&self) -> Vec<String> {
        self.addr
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn eval_config_parses_the_full_flag_surface() {
        let config = EvalConfig::from_args(&args(&[
            "--strategy",
            "search",
            "--workers",
            "4",
            "--fault-rate",
            "0.2",
            "--retry-budget",
            "5",
            "--conformance-gate",
            "--no-semantic-cache",
            "--journal",
            "/tmp/j",
            "--resume",
            "--case-deadline",
            "9000",
            "--fsync",
            "each",
        ]))
        .unwrap();
        assert_eq!(config.strategy, Strategy::SearchRefine);
        assert_eq!(config.workers, 4);
        assert!((config.fault_rate - 0.2).abs() < 1e-12);
        assert_eq!(config.retry_budget, 5);
        assert!(config.conformance_gate);
        assert!(!config.semantic_cache);
        assert_eq!(
            config.journal.as_deref(),
            Some(std::path::Path::new("/tmp/j"))
        );
        assert!(config.resume);
        assert_eq!(config.case_deadline_ms, Some(9000));
        assert_eq!(config.fsync, FsyncPolicy::EachRecord);
    }

    #[test]
    fn eval_config_rejects_invalid_combinations() {
        assert!(EvalConfig::from_args(&args(&["--resume"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--fault-rate", "1.5"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--retry-budget", "0"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--strategy", "osmosis"])).is_err());
        assert!(EvalConfig::from_args(&args(&["--workers"])).is_err());
    }

    #[test]
    fn serve_config_defaults_and_fingerprint_stability() {
        let a = ServeConfig::from_args(&args(&[])).unwrap();
        assert_eq!(a, ServeConfig::default());
        let b = ServeConfig::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any replay-relevant knob moves the fingerprint.
        assert_ne!(a.fingerprint(), b.clone().seed(1).fingerprint());
        assert_ne!(a.fingerprint(), b.clone().fault_rate(0.5).fingerprint());
        assert_ne!(
            a.fingerprint(),
            b.clone().strategy(Strategy::SearchRefine).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            b.clone().semantic_cache(false).fingerprint()
        );
        // The transport and survivability knobs do not: replay is
        // transport-independent, and reaping/compaction/disk faults
        // change durability, never transcript content. The replication
        // knobs are in the same class — a follower must open a store
        // written by its primary, so they must never move the
        // fingerprint.
        assert_eq!(
            a.fingerprint(),
            b.clone()
                .port(0)
                .max_sessions(4)
                .queue_depth(1)
                .idle_timeout_ms(250)
                .compact_every(4)
                .disk_fault_rate(0.3)
                .replica_of("127.0.0.1:9000")
                .repl_listen("127.0.0.1:0")
                .repl_ack(crate::serve::AckMode::Quorum)
                .repl_ack_timeout_ms(100)
                .auto_promote(false)
                .fingerprint()
        );
    }

    #[test]
    fn serve_config_parses_the_replication_flags() {
        let config = ServeConfig::from_args(&args(&[
            "--replica-of",
            "127.0.0.1:9000",
            "--repl-listen",
            "127.0.0.1:0",
            "--repl-ack",
            "quorum",
            "--repl-ack-timeout",
            "750",
            "--no-auto-promote",
        ]))
        .unwrap();
        assert_eq!(config.replica_of.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(config.repl_listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.repl_ack, crate::serve::AckMode::Quorum);
        assert_eq!(config.repl_ack_timeout_ms, 750);
        assert!(!config.auto_promote);

        assert!(
            ServeConfig::from_args(&args(&["--repl-ack", "all"])).is_err(),
            "unknown ack mode"
        );
        assert!(
            ServeConfig::from_args(&args(&["--repl-ack", "quorum"])).is_err(),
            "quorum without replication is a config error"
        );
        assert!(ServeConfig::from_args(&args(&["--repl-ack-timeout", "0"])).is_err());
    }

    #[test]
    fn serve_config_parses_the_survivability_flags() {
        let config = ServeConfig::from_args(&args(&[
            "--idle-timeout",
            "750",
            "--compact-every",
            "8",
            "--disk-fault-rate",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(config.idle_timeout_ms, 750);
        assert_eq!(config.compact_every, 8);
        assert!((config.disk_fault_rate - 0.1).abs() < 1e-12);
        assert!(ServeConfig::from_args(&args(&["--disk-fault-rate", "1.5"])).is_err());
    }

    #[test]
    fn serve_config_rejects_zero_caps() {
        assert!(ServeConfig::from_args(&args(&["--max-sessions", "0"])).is_err());
        assert!(ServeConfig::from_args(&args(&["--examples", "0"])).is_err());
        assert!(ServeConfig::from_args(&args(&["--fault-rate", "-0.1"])).is_err());
    }

    #[test]
    fn load_config_parses_and_validates() {
        let config = LoadConfig::from_args(&args(&[
            "--addr",
            "127.0.0.1:9999",
            "--sessions",
            "10",
            "--concurrency",
            "5",
            "--rounds",
            "2",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:9999");
        assert_eq!(config.sessions, 10);
        assert_eq!(config.concurrency, 5);
        assert_eq!(config.max_rounds, 2);
        assert!(config.shutdown);
        assert!(LoadConfig::from_args(&args(&["--sessions", "0"])).is_err());
    }

    #[test]
    fn load_config_endpoint_list_splits_on_commas() {
        let single = LoadConfig::default();
        assert_eq!(single.endpoints(), vec![single.addr.clone()]);

        let config = LoadConfig {
            addr: "127.0.0.1:4151, 127.0.0.1:4152".to_string(),
            ..LoadConfig::default()
        };
        assert_eq!(
            config.endpoints(),
            vec!["127.0.0.1:4151".to_string(), "127.0.0.1:4152".to_string()]
        );
        assert!(config.validate().is_ok());
        let empty = LoadConfig {
            addr: " , ".to_string(),
            ..LoadConfig::default()
        };
        assert!(empty.validate().is_err());
    }
}
