//! Deterministic disk-fault injection for the session store.
//!
//! The same philosophy as [`fisql_llm::FaultyBackend`]: chaos must be
//! **replayable**, so a fault decision is a pure hash of per-operation
//! context — `(seed, lane, session id, per-session op index)` — never a
//! shared call counter that would make the schedule depend on thread
//! interleaving. Two runs driving the same sessions see the same disk
//! faults regardless of how connections race.
//!
//! Three lanes:
//!
//! - **append faults** — a journal append fails (short write, I/O
//!   error); the affected *session* degrades to memory-only, the daemon
//!   lives;
//! - **sync faults** — an fsync fails; durability of the batch is lost,
//!   nothing else;
//! - **disk-full** — after a configured number of journaled ops every
//!   write fails with [`io::ErrorKind::StorageFull`]; the store flips
//!   unwritable and the daemon refuses *new* sessions while continuing
//!   to serve existing ones in memory.
//!
//! Injected errors carry an `injected disk fault` prefix so logs can
//! tell chaos from a genuinely failing disk.

use fisql_sqlkit::hash::{splitmix, unit};
use std::io;

/// Environment variable carrying a uniform disk-fault rate
/// (`0.0..=1.0`) for the chaos-serve CI job; see
/// [`DiskFaultConfig::from_env`].
pub const DISK_FAULT_RATE_ENV: &str = "FISQL_DISK_FAULT_RATE";

/// Per-lane injection rates plus the disk-full horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultConfig {
    /// Seed the fault schedule derives from.
    pub seed: u64,
    /// Probability an append's journal write fails, per op.
    pub append_rate: f64,
    /// Probability an fsync fails, per sync.
    pub sync_rate: f64,
    /// Total journaled ops after which the disk is "full": every later
    /// write fails with [`io::ErrorKind::StorageFull`]. `None` = never.
    pub full_after_ops: Option<u64>,
}

impl Default for DiskFaultConfig {
    fn default() -> Self {
        DiskFaultConfig {
            seed: 0xD15C,
            append_rate: 0.0,
            sync_rate: 0.0,
            full_after_ops: None,
        }
    }
}

impl DiskFaultConfig {
    /// A config injecting `rate` on both the append and sync lanes, with
    /// no disk-full horizon.
    pub fn uniform(rate: f64) -> DiskFaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        DiskFaultConfig {
            append_rate: rate,
            sync_rate: rate,
            ..DiskFaultConfig::default()
        }
    }

    /// Reads [`DISK_FAULT_RATE_ENV`] into a uniform config; `None` when
    /// unset, empty, unparsable, or zero.
    pub fn from_env() -> Option<DiskFaultConfig> {
        let rate: f64 = std::env::var(DISK_FAULT_RATE_ENV)
            .ok()?
            .trim()
            .parse()
            .ok()?;
        (rate > 0.0).then(|| DiskFaultConfig::uniform(rate))
    }

    /// Whether any lane can fire.
    pub fn is_active(&self) -> bool {
        self.append_rate > 0.0 || self.sync_rate > 0.0 || self.full_after_ops.is_some()
    }

    /// The fault decision for one journal append: `session_id` and the
    /// 0-based `op_index` *within that session* key the schedule, and
    /// `total_ops` (journaled so far, store-wide) drives the disk-full
    /// horizon.
    pub fn append_fault(
        &self,
        session_id: u64,
        op_index: u64,
        total_ops: u64,
    ) -> Option<io::Error> {
        if let Some(full_after) = self.full_after_ops {
            if total_ops >= full_after {
                return Some(storage_full(total_ops));
            }
        }
        let h = latent(self.seed, Lane::Append, session_id, op_index);
        (unit(h) < self.append_rate).then(|| {
            io::Error::other(format!(
                "injected disk fault: append failed (session {session_id}, op {op_index})"
            ))
        })
    }

    /// The fault decision for one fsync, keyed by the 0-based sync
    /// index.
    pub fn sync_fault(&self, sync_index: u64, total_ops: u64) -> Option<io::Error> {
        if let Some(full_after) = self.full_after_ops {
            if total_ops >= full_after {
                return Some(storage_full(total_ops));
            }
        }
        let h = latent(self.seed, Lane::Sync, sync_index, 0);
        (unit(h) < self.sync_rate)
            .then(|| io::Error::other(format!("injected disk fault: fsync failed (#{sync_index})")))
    }
}

fn storage_full(total_ops: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected disk fault: no space left on device after {total_ops} op(s)"),
    )
}

/// The two schedulable lanes, as salt.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Append = 1,
    Sync = 2,
}

/// SplitMix-style avalanche over the fault key (the same construction
/// as the backend fault injector).
fn latent(seed: u64, lane: Lane, a: u64, b: u64) -> u64 {
    splitmix(
        0x2545F4914F6CDD1D,
        0xD6E8FEB86659FD93,
        17,
        Some(32),
        &[seed, lane as u64, a, b],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let cfg = DiskFaultConfig::uniform(0.0);
        assert!(!cfg.is_active());
        for session in 0..8u64 {
            for op in 0..64u64 {
                assert!(cfg.append_fault(session, op, op).is_none());
            }
        }
        assert!(cfg.sync_fault(0, 0).is_none());
    }

    #[test]
    fn schedule_is_deterministic_and_roughly_calibrated() {
        let cfg = DiskFaultConfig::uniform(0.25);
        let mut faults = 0;
        let mut calls = 0;
        for session in 0..16u64 {
            for op in 0..64u64 {
                let a = cfg.append_fault(session, op, 0).is_some();
                let b = cfg.append_fault(session, op, 0).is_some();
                assert_eq!(a, b, "schedule must be pure");
                calls += 1;
                if a {
                    faults += 1;
                }
            }
        }
        let rate = f64::from(faults) / f64::from(calls);
        assert!((0.15..0.35).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn schedule_is_interleave_independent() {
        // The decision for (session, op) must not depend on what other
        // sessions did in between — it is a pure function of its key.
        let cfg = DiskFaultConfig::uniform(0.5);
        let direct: Vec<bool> = (0..32u64)
            .map(|op| cfg.append_fault(3, op, 0).is_some())
            .collect();
        // "Interleaved" evaluation order: other sessions' draws between.
        let mut interleaved = Vec::new();
        for op in 0..32u64 {
            let _ = cfg.append_fault(7, op, 0);
            interleaved.push(cfg.append_fault(3, op, 0).is_some());
            let _ = cfg.sync_fault(op, 0);
        }
        assert_eq!(direct, interleaved);
    }

    #[test]
    fn disk_full_fires_past_the_horizon_regardless_of_rate() {
        let cfg = DiskFaultConfig {
            full_after_ops: Some(10),
            ..DiskFaultConfig::uniform(0.0)
        };
        assert!(cfg.append_fault(0, 0, 9).is_none());
        let err = cfg.append_fault(0, 0, 10).expect("full");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(cfg.sync_fault(0, 11).is_some());
    }

    #[test]
    fn env_parsing_matches_the_backend_lane() {
        let cfg = DiskFaultConfig::uniform(0.2);
        assert!((cfg.append_rate - 0.2).abs() < 1e-12);
        assert!((cfg.sync_rate - 0.2).abs() < 1e-12);
        if let Some(env_cfg) = DiskFaultConfig::from_env() {
            assert!(env_cfg.is_active());
        }
    }
}
