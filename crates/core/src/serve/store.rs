//! The session store: the write-ahead run journal reused as a durable,
//! replayable log of session operations.
//!
//! `fisql serve` persists **inputs, not outputs**. Every state-changing
//! client operation is appended as a `(session_id, SessionOp)` record to
//! a [`RunJournal`] *before* it executes (write-ahead), and a session is
//! reconstructed — after a client reconnect or a daemon restart — by
//! replaying its ops through a fresh [`Session`] (../session.rs). The
//! daemon applies a live op and a replayed one through the same
//! function (`Hosted::apply` in `serve::server`), so live turns,
//! reconnects and restarts share one code path. Because the whole
//! pipeline is deterministic (the simulated model, the fault injector,
//! and the resilience middleware are all pure functions of their
//! inputs), replay reproduces the transcript bit-identically; there is
//! no second on-disk format and no snapshot to keep consistent.
//!
//! The journal's existing integrity machinery carries over unchanged:
//! checksummed records mean a torn tail from a crash mid-append costs at
//! most the last operation, and the header fingerprint — here derived
//! from [`ServeConfig::fingerprint`](crate::config::ServeConfig) — makes
//! the daemon refuse a store written under a different corpus, strategy,
//! or chaos configuration rather than replay it into different
//! transcripts. The header's case-count slot is pinned to
//! [`SESSION_STORE_MARKER`], so an evaluation run journal can never be
//! mistaken for a session store (or vice versa).
//!
//! # Compaction
//!
//! A long-lived daemon's journal only ever grows, and restart replay
//! cost grows with it. [`SessionStore::compact`] rewrites the journal
//! keeping only **unclosed** sessions' ops (closed and reaped sessions
//! are fully replayed history nobody can resume into a live slot),
//! prefixed by a [`SessionOp::Checkpoint`] record under the reserved
//! [`META_SESSION`] id that carries the new **generation** number and
//! the next-session-id floor (so ids of dropped sessions are never
//! reissued). The fencing epoch raises that floor too: a node promoted
//! to epoch `e` issues ids from `epoch_id_floor(e)` up, so it never
//! reissues an id a deposed primary handed out but did not replicate.
//! The rewrite goes to a `<path>.compact` sibling and is **atomically
//! renamed over** the live journal (a follower's resync wipe rewrites
//! the same way, through `<path>.resync`); a crash mid-compaction
//! leaves the old journal untouched. Compaction triggers automatically
//! every `compact_every` closed sessions, or on demand (the `Compact`
//! admin request). Surviving sessions replay byte-identically before
//! and after — compaction only drops records replay never reads.
//!
//! # Disk faults
//!
//! An optional [`DiskFaultConfig`] lane injects deterministic append and
//! fsync failures plus a disk-full horizon (see [`super::diskfault`]).
//! Failures never kill the daemon: a failed append leaves that session's
//! op in memory only ([`Appended::Degraded`] — the serve layer marks the
//! session degraded and keeps serving it), and a disk-full error flips
//! the whole store unwritable, after which [`SessionStore::open_session_tracked`]
//! refuses new sessions with a typed error while existing sessions
//! continue memory-only.

use super::diskfault::DiskFaultConfig;
use super::replicate::ReplLog;
use crate::journal::{FsyncPolicy, RunJournal};
use fisql_sqlkit::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Value pinned into the journal header's case-count slot for session
/// stores. An eval journal records its real (small) case count there, so
/// the two uses of the format can never be confused.
pub const SESSION_STORE_MARKER: u64 = u64::MAX;

/// Reserved session id carrying store metadata records
/// ([`SessionOp::Checkpoint`]); never issued to a real session.
pub const META_SESSION: u64 = u64::MAX;

/// Lowest session id a node at fencing epoch `epoch` issues. Each
/// epoch owns its own 2^32-id range, so a promoted follower can never
/// hand a fresh session an id the dead primary issued but never
/// shipped. A client failing over from such a session must get "unknown
/// session" (and account its lost turns), not silently attach to a
/// stranger's conversation.
pub(crate) fn epoch_id_floor(epoch: u64) -> u64 {
    epoch.saturating_mul(1 << 32)
}

/// One journaled session operation — the replay unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionOp {
    /// The session was opened.
    Opened,
    /// The client asked a question; the server resolved it to a corpus
    /// example. The resolved index is journaled so replay never depends
    /// on the resolution heuristic staying stable.
    Ask {
        /// Index into the serve corpus's example list.
        example_idx: u64,
        /// The question as the client typed it (diagnostics only).
        question: String,
    },
    /// The client sent feedback.
    Feedback {
        /// The feedback utterance.
        text: String,
        /// Optional highlight over the rendered SQL.
        highlight: Option<Span>,
    },
    /// The client closed the session with `Bye`.
    Closed,
    /// The idle reaper reclaimed the session's slot after the client
    /// went silent past `--idle-timeout`. Ends the session like
    /// [`SessionOp::Closed`] (the transcript stays replayable until the
    /// next compaction); replay skips it.
    Reaped {
        /// How long the connection had been idle, milliseconds.
        idle_ms: u64,
    },
    /// Compaction checkpoint, journaled under [`META_SESSION`] as the
    /// first record of a compacted journal. Never part of a session's
    /// replay stream.
    Checkpoint {
        /// Compaction generation (0 = never compacted; +1 per rewrite).
        generation: u64,
        /// Floor for newly issued session ids, so ids of compacted-away
        /// sessions are never reused.
        next_session_id: u64,
    },
    /// Fencing-epoch record, journaled under [`META_SESSION`] when this
    /// node is promoted to replication primary (see
    /// [`super::replicate`]). Monotonic: the store's epoch is the max of
    /// every `Epoch` record it holds; compaction re-asserts it right
    /// after the checkpoint. Never written while replication is unused
    /// (epoch 0 is implicit), so a replication-free store's bytes are
    /// unchanged. Never part of a session's replay stream.
    Epoch {
        /// The fencing epoch (>= 1; bumped on every promotion).
        epoch: u64,
    },
    /// Memory-only marker: the session's journal lane degraded at this
    /// point of its history (see [`SessionStore::mark_degraded`]).
    /// Never journaled, never shipped to followers; replay turns it into
    /// the session's transcript `Degraded` notice.
    Degraded {
        /// The rendered disk error.
        error: String,
    },
}

impl SessionOp {
    /// Whether this op ends its session (no further live slot).
    pub fn closes_session(&self) -> bool {
        matches!(self, SessionOp::Closed | SessionOp::Reaped { .. })
    }
}

/// How [`SessionStore::open`] should behave beyond the path: replay
/// fingerprint, durability policy, compaction cadence, and the chaos
/// lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreOptions {
    /// Replay fingerprint the journal header must match.
    pub fingerprint: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Auto-compact after this many closed/reaped sessions
    /// (0 = only on explicit [`SessionStore::compact`] calls).
    pub compact_every: u64,
    /// Deterministic disk-fault injection lane, if any.
    pub faults: Option<DiskFaultConfig>,
}

impl StoreOptions {
    /// Options with the given fingerprint and everything else default
    /// (batch fsync, no auto-compaction, no fault injection).
    pub fn new(fingerprint: u64) -> StoreOptions {
        StoreOptions {
            fingerprint,
            fsync: FsyncPolicy::default(),
            compact_every: 0,
            faults: None,
        }
    }

    /// Builder: sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder: sets the auto-compaction cadence.
    pub fn compact_every(mut self, closed_sessions: u64) -> Self {
        self.compact_every = closed_sessions;
        self
    }

    /// Builder: sets the disk-fault lane.
    pub fn faults(mut self, faults: Option<DiskFaultConfig>) -> Self {
        self.faults = faults;
        self
    }
}

/// The durability of one accepted append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Appended {
    /// Journaled write-ahead (or the store is memory-only by
    /// configuration, where memory *is* the store).
    Durable,
    /// The journal write failed; the op was kept in memory only, so the
    /// live daemon still replays it on reconnect, but a restart loses
    /// it. The serve layer marks the session degraded.
    Degraded {
        /// The rendered disk error.
        error: String,
    },
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The generation the store is now at.
    pub generation: u64,
    /// Ops in the store before the rewrite.
    pub ops_before: u64,
    /// Ops kept (surviving sessions only).
    pub ops_after: u64,
    /// Sessions whose history was dropped.
    pub sessions_dropped: u64,
}

/// A point-in-time view of the store's health counters
/// (serde-serializable for the `Stats` admin response).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Ops currently held (after any compaction).
    pub ops: u64,
    /// Distinct sessions currently held.
    pub sessions: u64,
    /// Compaction generation (0 = never compacted).
    pub generation: u64,
    /// Compactions performed by this store instance.
    pub compactions: u64,
    /// Ops dropped across all compactions.
    pub ops_dropped: u64,
    /// Appends that degraded to memory-only (disk fault).
    pub append_faults: u64,
    /// Fsyncs that failed.
    pub sync_faults: u64,
    /// Whether the journal is still accepting writes (`false` after
    /// disk-full: new sessions are refused).
    pub writable: bool,
    /// Whether the store is durable at all (`false` = memory-only by
    /// configuration).
    pub durable: bool,
    /// Fencing epoch (0 = this lineage was never promoted).
    pub epoch: u64,
}

#[derive(Debug)]
struct Inner {
    /// The backing journal, when the store is durable.
    journal: Option<RunJournal>,
    /// The journal's path (for compaction rewrites).
    path: Option<PathBuf>,
    /// Every live op, in append order — the in-memory image replays
    /// read. Checkpoint records live only on disk.
    ops: Vec<(u64, SessionOp)>,
    /// Next session id to hand out.
    next_id: u64,
    /// Compaction generation.
    generation: u64,
    /// Closed/reaped sessions since the last compaction.
    closed_since_compact: u64,
    /// Per-session journaled-op indices (fault-schedule key).
    op_counts: HashMap<u64, u64>,
    /// Total ops ever offered to the journal (disk-full horizon).
    total_ops: u64,
    /// Fsyncs attempted (fault-schedule key).
    sync_count: u64,
    /// False after disk-full: the journal takes no further writes.
    writable: bool,
    /// Fencing epoch (max of every `Epoch` record; 0 = replication never
    /// promoted this lineage).
    epoch: u64,
    /// Memory-only sessions: session id → (index among the session's
    /// ops of the op whose append degraded it, the rendered error).
    degraded: HashMap<u64, (usize, String)>,
    /// Replication log every non-meta append is mirrored into, once a
    /// `ReplState` attaches one (absent when replication is unused).
    repl: Option<Arc<ReplLog>>,
    compactions: u64,
    ops_dropped: u64,
    append_faults: u64,
    sync_faults: u64,
}

/// A concurrent, durable session-operation log (see the module docs).
#[derive(Debug)]
pub struct SessionStore {
    options: StoreOptions,
    inner: Mutex<Inner>,
}

impl SessionStore {
    /// Opens a store. With a `path`, an existing journal is resumed
    /// (validating its fingerprint and truncating any torn tail) and a
    /// missing one is created; without, the store is memory-only.
    pub fn open(path: Option<&Path>, options: StoreOptions) -> io::Result<SessionStore> {
        let (journal, raw_ops) = match path {
            None => (None, Vec::new()),
            Some(path) if path.exists() => {
                let (journal, ops) = RunJournal::open_resume::<SessionOp>(
                    path,
                    options.fingerprint,
                    SESSION_STORE_MARKER,
                    options.fsync,
                )?;
                (Some(journal), ops)
            }
            Some(path) => (
                Some(RunJournal::create(
                    path,
                    options.fingerprint,
                    SESSION_STORE_MARKER,
                    options.fsync,
                )?),
                Vec::new(),
            ),
        };
        // Split metadata off the replayable stream: a checkpoint pins
        // the generation and the id floor, an epoch record pins the
        // fencing epoch, and neither reaches replay.
        let mut generation = 0;
        let mut id_floor = 0;
        let mut epoch = 0;
        let mut ops = Vec::with_capacity(raw_ops.len());
        for (id, op) in raw_ops {
            match op {
                SessionOp::Checkpoint {
                    generation: g,
                    next_session_id,
                } if id == META_SESSION => {
                    generation = generation.max(g);
                    id_floor = id_floor.max(next_session_id);
                }
                SessionOp::Epoch { epoch: e } if id == META_SESSION => {
                    epoch = epoch.max(e);
                }
                _ => ops.push((id, op)),
            }
        }
        let next_id = ops
            .iter()
            .map(|(id, _)| id + 1)
            .max()
            .unwrap_or(0)
            .max(id_floor)
            .max(epoch_id_floor(epoch));
        let mut op_counts = HashMap::new();
        for (id, _) in &ops {
            *op_counts.entry(*id).or_insert(0) += 1;
        }
        let total_ops = ops.len() as u64;
        Ok(SessionStore {
            options,
            inner: Mutex::new(Inner {
                journal,
                path: path.map(Path::to_path_buf),
                ops,
                next_id,
                generation,
                closed_since_compact: 0,
                op_counts,
                total_ops,
                sync_count: 0,
                writable: true,
                epoch,
                degraded: HashMap::new(),
                repl: None,
                compactions: 0,
                ops_dropped: 0,
                append_faults: 0,
                sync_faults: 0,
            }),
        })
    }

    /// Opens a fresh session: assigns the next id and journals its
    /// `Opened` record, also reporting the replication stream position
    /// of that record (0 when replication is detached) so the caller can
    /// gate on exactly its own append. Refuses (typed `StorageFull`-kind
    /// error) when the journal has flipped unwritable — existing
    /// sessions keep running memory-only, but new work is shed while
    /// durability is gone.
    pub fn open_session_tracked(&self) -> io::Result<(u64, Appended, u64)> {
        let mut inner = self.lock();
        if inner.journal.is_some() && !inner.writable {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "session store is unwritable (disk full); not accepting new sessions",
            ));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let (durability, repl_upto) = self.append_locked(&mut inner, id, SessionOp::Opened);
        Ok((id, durability, repl_upto))
    }

    /// Appends one op to an existing session, write-ahead, also
    /// reporting the replication stream position this op landed at (0
    /// when nothing was mirrored — meta ops, or no log attached). The
    /// position is what a quorum gate waits on: a session is gated on
    /// its own writes, not on whatever unrelated sessions appended
    /// since. Never fails the session: a disk fault degrades the append
    /// to memory-only and reports it.
    pub fn append_tracked(&self, session_id: u64, op: SessionOp) -> (Appended, u64) {
        self.append_locked(&mut self.lock(), session_id, op)
    }

    /// Applies one record shipped from a replication primary: the same
    /// append path (journaled write-ahead, mirrored into the attached
    /// log so the follower's `have` count advances), plus an id-floor
    /// bump so a later promotion never reissues a replicated session's
    /// id.
    pub fn apply_replicated(&self, session_id: u64, op: SessionOp) -> Appended {
        let mut inner = self.lock();
        if session_id != META_SESSION {
            inner.next_id = inner.next_id.max(session_id + 1);
        }
        self.append_locked(&mut inner, session_id, op).0
    }

    /// Attaches the replication log every subsequent non-meta append is
    /// mirrored into (the caller preloads it from
    /// [`SessionStore::replication_image`] first).
    pub fn attach_repl(&self, log: Arc<ReplLog>) {
        self.lock().repl = Some(log);
    }

    /// A copy of the live op stream, for seeding a replication log.
    pub fn replication_image(&self) -> Vec<(u64, SessionOp)> {
        self.lock().ops.clone()
    }

    /// The store's fencing epoch (0 = never promoted).
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Raises the fencing epoch, persisting an [`SessionOp::Epoch`]
    /// record (synced immediately — a promotion that later un-happens
    /// would re-split the brain). The in-memory epoch advances even if
    /// the disk is gone: a promotion must not fail on a degraded store,
    /// it only loses crash-persistence of the fence.
    pub fn set_epoch(&self, epoch: u64) -> io::Result<()> {
        let mut inner = self.lock();
        if epoch <= inner.epoch {
            return Ok(());
        }
        inner.epoch = epoch;
        inner.next_id = inner.next_id.max(epoch_id_floor(epoch));
        if inner.writable {
            if let Some(journal) = inner.journal.as_mut() {
                let written = journal
                    .append(META_SESSION, &SessionOp::Epoch { epoch })
                    .and_then(|()| journal.sync());
                if let Err(err) = written {
                    inner.append_faults += 1;
                    if err.kind() == io::ErrorKind::StorageFull {
                        inner.writable = false;
                    }
                }
            }
        }
        Ok(())
    }

    fn append_locked(&self, inner: &mut Inner, session_id: u64, op: SessionOp) -> (Appended, u64) {
        let op_index = {
            let slot = inner.op_counts.entry(session_id).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        let total = inner.total_ops;
        inner.total_ops += 1;
        let closes = op.closes_session();

        let mut durability = Appended::Durable;
        if let Some(journal) = inner.journal.as_mut() {
            if inner.degraded.contains_key(&session_id) {
                // A degraded session stays memory-only, so what a
                // restart replays is a prefix of its history.
                durability = Appended::Degraded {
                    error: "session is memory-only after an earlier journal fault".to_string(),
                };
            } else if inner.writable {
                let injected = self
                    .options
                    .faults
                    .and_then(|f| f.append_fault(session_id, op_index, total));
                let result = match injected {
                    Some(err) => Err(err),
                    None => journal.append(session_id, &op),
                };
                if let Err(err) = result {
                    inner.append_faults += 1;
                    if err.kind() == io::ErrorKind::StorageFull {
                        inner.writable = false;
                    }
                    durability = Appended::Degraded {
                        error: err.to_string(),
                    };
                }
            } else {
                durability = Appended::Degraded {
                    error: "session store is unwritable (disk full)".to_string(),
                };
            }
        }
        // The in-memory image always records the op: the live daemon
        // replays reconnects from memory even while the disk is gone.
        // A degraded (memory-only) op still enters the replication log —
        // a follower with a healthy disk is exactly how it survives.
        let mut repl_upto = 0;
        if let Some(repl) = &inner.repl {
            if session_id != META_SESSION {
                repl_upto = repl.append(session_id, op.clone());
            }
        }
        inner.ops.push((session_id, op));

        if closes {
            inner.closed_since_compact += 1;
            if self.options.compact_every > 0
                && inner.closed_since_compact >= self.options.compact_every
            {
                // Auto-compaction is best-effort: a failure leaves the
                // uncompacted journal in place, which is always valid.
                let _ = self.compact_locked(inner);
            }
        }
        (durability, repl_upto)
    }

    /// Rewrites the journal keeping only unclosed sessions' ops, bumps
    /// the generation, and atomically renames the rewrite over the live
    /// file. See the module docs.
    pub fn compact(&self) -> io::Result<CompactionOutcome> {
        self.compact_locked(&mut self.lock())
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<CompactionOutcome> {
        let ops_before = inner.ops.len() as u64;
        let survivors = unclosed_of(&inner.ops);
        let kept: Vec<(u64, SessionOp)> = inner
            .ops
            .iter()
            .filter(|(id, _)| survivors.contains(id))
            .cloned()
            .collect();
        let sessions_dropped = sessions_of(&inner.ops)
            .iter()
            .filter(|id| !survivors.contains(id))
            .count() as u64;
        let generation = inner.generation + 1;

        let checkpoint = SessionOp::Checkpoint {
            generation,
            next_session_id: inner.next_id,
        };
        self.rewrite_journal(inner, "compact", Some(checkpoint), &kept)?;
        inner.ops = kept;
        inner.degraded.retain(|id, _| survivors.contains(id));
        inner.op_counts.clear();
        for (id, _) in &inner.ops {
            *inner.op_counts.entry(*id).or_insert(0) += 1;
        }
        inner.generation = generation;
        inner.closed_since_compact = 0;
        inner.compactions += 1;
        let ops_after = inner.ops.len() as u64;
        inner.ops_dropped += ops_before - ops_after;
        Ok(CompactionOutcome {
            generation,
            ops_before,
            ops_after,
            sessions_dropped,
        })
    }

    /// Atomically replaces the journal file (a no-op for an in-memory
    /// store) with `head`, the re-asserted fencing epoch, then `records`
    /// — written to a `<path>.<what>` sibling, synced, and renamed over
    /// the live file. A failed rewrite removes the sibling and leaves
    /// the old journal in place; a disk-full failure also flips the
    /// store unwritable.
    fn rewrite_journal(
        &self,
        inner: &mut Inner,
        what: &str,
        head: Option<SessionOp>,
        records: &[(u64, SessionOp)],
    ) -> io::Result<()> {
        let Some(path) = inner.path.clone() else {
            return Ok(());
        };
        if !inner.writable {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("session store is unwritable (disk full); cannot {what}"),
            ));
        }
        let tmp = PathBuf::from(format!("{}.{what}", path.display()));
        let epoch = inner.epoch;
        let rewrite = (|| -> io::Result<RunJournal> {
            let mut journal = RunJournal::create(
                &tmp,
                self.options.fingerprint,
                SESSION_STORE_MARKER,
                self.options.fsync,
            )?;
            if let Some(head) = &head {
                journal.append(META_SESSION, head)?;
            }
            // The rewrite drops every old metadata record, so a nonzero
            // fencing epoch must be re-asserted or a restart would
            // forget it was ever promoted.
            if epoch > 0 {
                journal.append(META_SESSION, &SessionOp::Epoch { epoch })?;
            }
            for (id, op) in records {
                journal.append(*id, op)?;
            }
            journal.sync()?;
            Ok(journal)
        })();
        match rewrite {
            Ok(journal) => {
                // Rename-over is atomic; the open handle follows the
                // inode, so the store keeps appending to the file now
                // living at `path`.
                std::fs::rename(&tmp, &path)?;
                inner.journal = Some(journal);
                Ok(())
            }
            Err(err) => {
                std::fs::remove_file(&tmp).ok();
                if err.kind() == io::ErrorKind::StorageFull {
                    inner.writable = false;
                }
                Err(err)
            }
        }
    }

    /// Empties the store back to a blank image so a follower can
    /// re-bootstrap from a primary whose stream lineage no longer
    /// matches (see `serve::replicate`). The journal is atomically
    /// rewritten to just the fencing epoch — the one fact that must
    /// survive a resync, or a wiped ex-primary could forget it was
    /// deposed — and the attached replication log is cleared so the
    /// next handshake offers `have = 0`. Fault counters and the
    /// fault-schedule keys (`total_ops`, `sync_count`) stay monotonic.
    pub fn reset_for_resync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        self.rewrite_journal(&mut inner, "resync", None, &[])?;
        inner.ops.clear();
        inner.degraded.clear();
        inner.op_counts.clear();
        inner.next_id = 0;
        inner.generation = 0;
        inner.closed_since_compact = 0;
        if let Some(repl) = &inner.repl {
            repl.reset();
        }
        Ok(())
    }

    /// Records that `session_id`'s latest op degraded its journal lane:
    /// from here on the session is memory-only (later appends skip the
    /// journal), and [`SessionStore::session_ops`] yields a
    /// [`SessionOp::Degraded`] marker just before that op. The marker
    /// lives in memory only — the journal never writes it and the
    /// replication log never ships it — so a same-daemon resume replays
    /// the degradation notice, while a restart replays the durable
    /// prefix before it.
    pub fn mark_degraded(&self, session_id: u64, error: &str) {
        let mut inner = self.lock();
        let ops = inner.ops.iter().filter(|(id, _)| *id == session_id).count();
        inner
            .degraded
            .entry(session_id)
            .or_insert_with(|| (ops.saturating_sub(1), error.to_string()));
    }

    /// The ops of one session, in order, with its memory-only
    /// [`SessionOp::Degraded`] marker if it has one (empty = unknown
    /// session).
    pub fn session_ops(&self, session_id: u64) -> Vec<SessionOp> {
        let inner = self.lock();
        let marker = inner.degraded.get(&session_id);
        let mut ops = Vec::new();
        for (i, (_, op)) in inner
            .ops
            .iter()
            .filter(|(id, _)| *id == session_id)
            .enumerate()
        {
            if let Some((_, error)) = marker.filter(|(at, _)| *at == i) {
                ops.push(SessionOp::Degraded {
                    error: error.clone(),
                });
            }
            ops.push(op.clone());
        }
        ops
    }

    /// Every session id the store knows, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        sessions_of(&self.lock().ops)
    }

    /// Sessions that were never ended — neither closed with `Bye` nor
    /// reaped — i.e. the ones a crash or silent disconnect interrupted.
    pub fn unclosed_sessions(&self) -> Vec<u64> {
        unclosed_of(&self.lock().ops)
    }

    /// Flushes pending appends to stable storage. A failed fsync is
    /// counted and reported but leaves the store serving (durability of
    /// the batch is lost, nothing else).
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        let sync_index = inner.sync_count;
        inner.sync_count += 1;
        if inner.journal.is_none() || !inner.writable {
            return Ok(());
        }
        let total = inner.total_ops;
        let injected = self
            .options
            .faults
            .and_then(|f| f.sync_fault(sync_index, total));
        let result = match (injected, inner.journal.as_mut()) {
            (Some(err), _) => Err(err),
            (None, Some(journal)) => journal.sync(),
            // Unreachable (memory-only stores returned above), but a
            // no-op beats a panic on a daemon-lifetime path.
            (None, None) => Ok(()),
        };
        if let Err(err) = result {
            inner.sync_faults += 1;
            if err.kind() == io::ErrorKind::StorageFull {
                inner.writable = false;
            }
            return Err(err);
        }
        Ok(())
    }

    /// Whether the journal still accepts writes (always `true` for a
    /// memory-only store: there is nothing to fill).
    pub fn writable(&self) -> bool {
        let inner = self.lock();
        inner.journal.is_none() || inner.writable
    }

    /// The compaction generation (0 = never compacted).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Health counters.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.lock();
        StoreSnapshot {
            ops: inner.ops.len() as u64,
            sessions: sessions_of(&inner.ops).len() as u64,
            generation: inner.generation,
            compactions: inner.compactions,
            ops_dropped: inner.ops_dropped,
            append_faults: inner.append_faults,
            sync_faults: inner.sync_faults,
            writable: inner.journal.is_none() || inner.writable,
            durable: inner.journal.is_some(),
            epoch: inner.epoch,
        }
    }

    /// Total ops recorded (all sessions, after any compaction).
    pub fn len(&self) -> usize {
        self.lock().ops.len()
    }

    /// Whether the store holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store lock means a panic escaped the serve layer's
        // isolation while appending; the in-memory image is still
        // well-formed (Vec pushes are atomic at this granularity).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Distinct session ids in `ops`, ascending.
fn sessions_of(ops: &[(u64, SessionOp)]) -> Vec<u64> {
    let mut ids: Vec<u64> = ops.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Session ids opened but never closed/reaped, in open order.
fn unclosed_of(ops: &[(u64, SessionOp)]) -> Vec<u64> {
    let mut open: Vec<u64> = Vec::new();
    for (id, op) in ops {
        match op {
            SessionOp::Opened => open.push(*id),
            op if op.closes_session() => open.retain(|o| o != id),
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fisql-session-store-{}-{name}.fjnl",
            std::process::id()
        ))
    }

    fn opts(fingerprint: u64, fsync: FsyncPolicy) -> StoreOptions {
        StoreOptions::new(fingerprint).fsync(fsync)
    }

    fn ask(idx: u64) -> SessionOp {
        SessionOp::Ask {
            example_idx: idx,
            question: format!("q{idx}"),
        }
    }

    #[test]
    fn ops_roundtrip_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let (a, _, _) = store.open_session_tracked().unwrap();
            let (b, _, _) = store.open_session_tracked().unwrap();
            assert_ne!(a, b);
            assert_eq!(store.append_tracked(a, ask(4)).0, Appended::Durable);
            assert_eq!(
                store
                    .append_tracked(
                        a,
                        SessionOp::Feedback {
                            text: "we are in 2024".into(),
                            highlight: None,
                        },
                    )
                    .0,
                Appended::Durable
            );
            store.append_tracked(b, SessionOp::Closed);
            store.sync().unwrap();
        }
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Batch)).unwrap();
        assert_eq!(store.session_ids(), vec![0, 1]);
        assert_eq!(
            store.session_ops(0),
            vec![
                SessionOp::Opened,
                ask(4),
                SessionOp::Feedback {
                    text: "we are in 2024".into(),
                    highlight: None,
                },
            ]
        );
        assert_eq!(store.unclosed_sessions(), vec![0]);
        // Ids never collide with recovered sessions.
        assert_eq!(store.open_session_tracked().unwrap().0, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_for_resync_blanks_the_image_but_keeps_the_epoch() {
        let path = tmp("resync");
        std::fs::remove_file(&path).ok();
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let (id, _, _) = store.open_session_tracked().unwrap();
            store.append_tracked(id, ask(1));
            store.set_epoch(3).unwrap();
            store.reset_for_resync().unwrap();
            assert_eq!(store.len(), 0, "the image is blank");
            assert!(store.session_ids().is_empty());
            assert_eq!(store.epoch(), 3, "the fence survives the wipe");
            // Ids restart from 0 — the resynced stream renumbers them.
            assert_eq!(store.open_session_tracked().unwrap().0, 0);
        }
        // The journal rewrite is what a restart replays: blank ops, the
        // epoch re-asserted.
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.session_ids(), vec![0], "only the post-resync open");
        assert_eq!(store.epoch(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_promoted_store_never_reissues_an_earlier_epochs_ids() {
        let path = tmp("epoch-ids");
        std::fs::remove_file(&path).ok();
        {
            let store =
                SessionStore::open(Some(&path), opts(0xE1D, FsyncPolicy::EachRecord)).unwrap();
            // Replicated from the epoch-0 primary: ids 0 and 1. The
            // primary may have issued 2, 3, … without shipping them.
            store.apply_replicated(0, SessionOp::Opened);
            store.apply_replicated(1, SessionOp::Opened);
            store.set_epoch(1).unwrap();
            assert_eq!(store.open_session_tracked().unwrap().0, epoch_id_floor(1));
        }
        // A restart before any fresh session keeps the floor too.
        std::fs::remove_file(&path).ok();
        {
            let store =
                SessionStore::open(Some(&path), opts(0xE1D, FsyncPolicy::EachRecord)).unwrap();
            store.apply_replicated(0, SessionOp::Opened);
            store.set_epoch(2).unwrap();
        }
        let store = SessionStore::open(Some(&path), opts(0xE1D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.open_session_tracked().unwrap().0, epoch_id_floor(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracked_appends_report_the_replication_position() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        // Replication detached: nothing to gate on.
        let (id, _, upto) = store.open_session_tracked().unwrap();
        assert_eq!(upto, 0);
        let log = std::sync::Arc::new(crate::serve::replicate::ReplLog::new());
        store.attach_repl(std::sync::Arc::clone(&log));
        let (_, upto) = store.append_tracked(id, ask(0));
        assert_eq!(upto, 1, "first mirrored record");
        let (_, upto) = store.append_tracked(id, SessionOp::Closed);
        assert_eq!(upto, 2);
        assert_eq!(log.tail(), 2);
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let path = tmp("foreign");
        std::fs::remove_file(&path).ok();
        {
            let store = SessionStore::open(Some(&path), opts(0xAAAA, FsyncPolicy::Never)).unwrap();
            store.open_session_tracked().unwrap();
            store.sync().unwrap();
        }
        let err = SessionStore::open(Some(&path), opts(0xBBBB, FsyncPolicy::Never)).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_intact_prefix() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
            let (id, _, _) = store.open_session_tracked().unwrap();
            store.append_tracked(id, ask(0));
            store.sync().unwrap();
        }
        // A crash mid-append: garbage half-record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&[0xCD; 9]);
        std::fs::write(&path, &bytes).unwrap();

        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.len(), 2, "intact prefix only");
        assert_eq!(store.session_ops(0).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_only_store_works_without_a_path() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        let (id, durability, _) = store.open_session_tracked().unwrap();
        assert_eq!(durability, Appended::Durable);
        store.append_tracked(id, SessionOp::Closed);
        assert_eq!(store.session_ids(), vec![id]);
        assert!(store.writable());
        store.sync().unwrap();
    }

    #[test]
    fn reaped_sessions_count_as_ended() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        let (a, _, _) = store.open_session_tracked().unwrap();
        let (b, _, _) = store.open_session_tracked().unwrap();
        store.append_tracked(a, ask(0));
        store.append_tracked(a, SessionOp::Reaped { idle_ms: 500 });
        assert_eq!(store.unclosed_sessions(), vec![b]);
        // The reaped transcript is still there to resume until compaction.
        assert_eq!(store.session_ops(a).len(), 3);
    }

    #[test]
    fn compaction_drops_ended_sessions_and_survives_reopen() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let survivor_ops;
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let (done, _, _) = store.open_session_tracked().unwrap();
            store.append_tracked(done, ask(1));
            store.append_tracked(done, SessionOp::Closed);
            let (reaped, _, _) = store.open_session_tracked().unwrap();
            store.append_tracked(reaped, ask(2));
            store.append_tracked(reaped, SessionOp::Reaped { idle_ms: 9 });
            let (live, _, _) = store.open_session_tracked().unwrap();
            assert_eq!(live, 2);
            store.append_tracked(live, ask(3));
            survivor_ops = store.session_ops(live);

            let outcome = store.compact().unwrap();
            assert_eq!(outcome.generation, 1);
            assert_eq!(outcome.ops_before, 8);
            assert_eq!(outcome.ops_after, 2);
            assert_eq!(outcome.sessions_dropped, 2);
            assert_eq!(store.session_ids(), vec![live]);
            assert_eq!(store.session_ops(live), survivor_ops, "survivor intact");

            // The store keeps appending to the renamed-over journal.
            store.append_tracked(live, ask(4));
            store.sync().unwrap();
        }
        // Reopen: generation persisted, survivor replay identical, and
        // the id floor prevents reuse of dropped ids.
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.session_ids(), vec![2]);
        let mut expected = survivor_ops.clone();
        expected.push(ask(4));
        assert_eq!(store.session_ops(2), expected);
        assert_eq!(
            store.open_session_tracked().unwrap().0,
            3,
            "id floor respected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_closed_session_cadence() {
        let path = tmp("autocompact");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).compact_every(2),
        )
        .unwrap();
        let (keep, _, _) = store.open_session_tracked().unwrap();
        store.append_tracked(keep, ask(0));
        for _ in 0..2 {
            let (id, _, _) = store.open_session_tracked().unwrap();
            store.append_tracked(id, ask(1));
            store.append_tracked(id, SessionOp::Closed);
        }
        // Second close crossed the cadence: generation bumped, only the
        // live session left.
        assert_eq!(store.generation(), 1);
        assert_eq!(store.session_ids(), vec![keep]);
        let snap = store.snapshot();
        assert_eq!(snap.compactions, 1);
        assert!(snap.ops_dropped >= 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_atomic_rename_no_tmp_left_behind() {
        let path = tmp("atomic");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        let (id, _, _) = store.open_session_tracked().unwrap();
        store.append_tracked(id, SessionOp::Closed);
        store.compact().unwrap();
        let tmp_path = PathBuf::from(format!("{}.compact", path.display()));
        assert!(!tmp_path.exists(), "rewrite must be renamed over");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_append_fault_degrades_without_losing_the_memory_image() {
        let store = SessionStore::open(
            None,
            opts(0, FsyncPolicy::Never).faults(Some(DiskFaultConfig::uniform(1.0))),
        )
        .unwrap();
        // Memory-only store: faults never fire (nothing to inject into).
        let (id, d, _) = store.open_session_tracked().unwrap();
        assert_eq!(d, Appended::Durable);

        let path = tmp("faulty");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).faults(Some(DiskFaultConfig::uniform(1.0))),
        )
        .unwrap();
        let (id2, d2, _) = store.open_session_tracked().unwrap();
        assert!(matches!(d2, Appended::Degraded { .. }), "rate 1 must fire");
        // The op is still in the in-memory image for live replay.
        assert_eq!(store.session_ops(id2), vec![SessionOp::Opened]);
        assert_eq!(store.snapshot().append_faults, 1);
        assert!(store.writable(), "transient faults do not flip writable");
        let _ = id;
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_marked_session_stays_memory_only_and_restarts_from_its_durable_prefix() {
        let path = tmp("marked");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        let (id, _, _) = store.open_session_tracked().unwrap();
        assert_eq!(store.append_tracked(id, ask(0)).0, Appended::Durable);
        // The daemon marks the session after its `ask(1)` append degraded
        // (here it did not: the mark alone makes the session memory-only).
        store.append_tracked(id, ask(1));
        store.mark_degraded(id, "boom");
        store.mark_degraded(id, "a later fault keeps the first mark");
        assert!(matches!(
            store.append_tracked(id, ask(2)).0,
            Appended::Degraded { .. }
        ));
        let marker = SessionOp::Degraded {
            error: "boom".into(),
        };
        assert_eq!(
            store.session_ops(id),
            vec![SessionOp::Opened, ask(0), marker, ask(1), ask(2)]
        );
        // The marker is never replicated.
        assert_eq!(store.replication_image().len(), 4);
        drop(store);

        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(
            store.session_ops(id),
            vec![SessionOp::Opened, ask(0), ask(1)],
            "a restart replays the durable prefix, without the marker"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_full_flips_unwritable_and_refuses_new_sessions() {
        let path = tmp("full");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).faults(Some(DiskFaultConfig {
                full_after_ops: Some(2),
                ..DiskFaultConfig::uniform(0.0)
            })),
        )
        .unwrap();
        let (id, d, _) = store.open_session_tracked().unwrap();
        assert_eq!(d, Appended::Durable);
        assert_eq!(store.append_tracked(id, ask(0)).0, Appended::Durable);
        // Third op crosses the horizon: degraded, store unwritable.
        assert!(matches!(
            store.append_tracked(id, ask(1)).0,
            Appended::Degraded { .. }
        ));
        assert!(!store.writable());
        let err = store.open_session_tracked().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The existing session continues memory-only.
        assert!(matches!(
            store.append_tracked(id, ask(2)).0,
            Appended::Degraded { .. }
        ));
        assert_eq!(store.session_ops(id).len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_faults_are_counted_and_reported() {
        let path = tmp("syncfault");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::EachRecord).faults(Some(DiskFaultConfig {
                sync_rate: 1.0,
                ..DiskFaultConfig::default()
            })),
        )
        .unwrap();
        store.open_session_tracked().unwrap();
        assert!(store.sync().is_err());
        assert_eq!(store.snapshot().sync_faults, 1);
        assert!(store.writable(), "sync faults are not disk-full");
        std::fs::remove_file(&path).ok();
    }
}
