//! The serve wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame — `len u32 LE | json` — carrying a
//! [`ClientRequest`] or [`ServerResponse`]. JSON keeps the protocol
//! debuggable (`nc` + a hand-built frame works) and reuses the exact
//! [`SessionEvent`] serialization the session store journals, so what a
//! client receives over the wire is bit-identical to what a restart
//! replay reconstructs.
//!
//! A conversation:
//!
//! ```text
//! C: Hello { version: 1, resume: None }
//! S: Welcome { session_id: 7, replayed_rounds: 0 }
//! C: Ask { question: "how many audiences were created in January?" }
//! S: Turn { round: 0, sql: "SELECT ...", rendered: "...", events: [...] }
//! C: Feedback { text: "we are in 2024", highlight: None }
//! S: Turn { round: 1, sql: "SELECT ...", rendered: "...", events: [...] }
//! C: Bye
//! S: Goodbye { rounds: 1 }
//! ```

use super::admission::AdmissionSnapshot;
use super::store::StoreSnapshot;
use crate::session::SessionEvent;
use fisql_sqlkit::Span;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::time::Instant;

/// Protocol version; a mismatched client is refused at `Hello`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Frames larger than this are refused — no legitimate message
/// approaches it, and it bounds what a bad client can make the server
/// buffer.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientRequest {
    /// Opens (or, with `resume`, replays) a session. Must be the first
    /// request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// A previously issued session id to resume from the session
        /// store, or `None` for a fresh session.
        resume: Option<u64>,
    },
    /// Asks a natural-language question. The server resolves it onto the
    /// bundled corpus (exact match first, nearest-embedding otherwise).
    Ask {
        /// The question text.
        question: String,
    },
    /// Sends feedback on the previously shown SQL.
    Feedback {
        /// The feedback utterance.
        text: String,
        /// Optional highlight over the rendered SQL.
        highlight: Option<Span>,
    },
    /// Requests the full typed transcript of this session.
    Transcript,
    /// Closes the session (the connection follows).
    Bye,
    /// Asks the daemon to shut down gracefully: stop accepting, drain
    /// live sessions, sync the store, exit. Does not require a session.
    Shutdown,
    /// Asks for live daemon statistics (admission counters, store
    /// health, served-work totals, uptime). Does not require a session.
    Stats,
    /// Asks the daemon to compact its session store now (drop closed and
    /// reaped sessions' history, bump the generation). Does not require
    /// a session.
    Compact,
    /// Asks a standby follower to promote itself to primary: bump and
    /// persist the fencing epoch, start accepting sessions, and fence
    /// the old primary (see `serve::replicate`). Does not require a
    /// session. A node that is already primary answers with its current
    /// epoch; a fenced node refuses.
    Promote,
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerResponse {
    /// The session is open.
    Welcome {
        /// Id under which the session is journaled (quote it in a later
        /// `Hello { resume }` to pick the conversation back up).
        session_id: u64,
        /// Feedback rounds replayed from the store (0 for a fresh
        /// session).
        replayed_rounds: u64,
    },
    /// Admission control refused the connection (cap + queue exhausted,
    /// queue wait expired, or the daemon is shutting down).
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
        /// Sessions active when the decision was made.
        active: usize,
        /// Connections queued when the decision was made.
        queued: usize,
    },
    /// One Assistant turn (answer to `Ask` or `Feedback`).
    Turn {
        /// Feedback rounds completed so far on this question.
        round: u64,
        /// The SQL now on the table.
        sql: String,
        /// The rendered chat bubble.
        rendered: String,
        /// The typed events this turn appended to the transcript.
        events: Vec<SessionEvent>,
    },
    /// The full typed transcript (answer to `Transcript`).
    TranscriptDump {
        /// Every event so far, in order.
        events: Vec<SessionEvent>,
    },
    /// The session is closed (answer to `Bye`).
    Goodbye {
        /// Feedback rounds taken over the whole connection.
        rounds: u64,
    },
    /// The daemon acknowledged `Shutdown` and is draining.
    ShuttingDown,
    /// The idle reaper reclaimed this session's slot: the connection was
    /// silent past the daemon's `--idle-timeout`. The session stays
    /// resumable (`Hello { resume }`) until the next compaction; the
    /// connection closes after this frame.
    Reaped {
        /// Human-readable reason (mirrors `Rejected`).
        reason: String,
        /// How long the connection had been idle, milliseconds.
        idle_ms: u64,
    },
    /// Live daemon statistics (answer to `Stats`).
    Stats(ServerStats),
    /// The store was compacted (answer to `Compact`).
    Compacted {
        /// The store's new compaction generation.
        generation: u64,
        /// Ops held before the rewrite.
        ops_before: u64,
        /// Ops kept (surviving sessions only).
        ops_after: u64,
        /// Sessions whose history was dropped.
        sessions_dropped: u64,
    },
    /// This node is not accepting session writes: it is a standby
    /// follower, or an ex-primary fenced by a higher epoch. The typed
    /// refusal is what keeps a deposed primary from silently diverging
    /// its store — clients take it as the signal to fail over.
    Fenced {
        /// The node's current role.
        role: super::replicate::Role,
        /// The node's fencing epoch.
        epoch: u64,
        /// Human-readable explanation.
        message: String,
    },
    /// The node promoted itself to primary (answer to `Promote`).
    Promoted {
        /// The fencing epoch the node now serves at.
        epoch: u64,
    },
    /// The request could not be served; the session (when one exists)
    /// is still alive.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// A live view of the daemon, carried by [`ServerResponse::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Admission-gate counters (slots, queue, rejections, reaps).
    pub admission: AdmissionSnapshot,
    /// Session-store health (ops held, generation, fault counters,
    /// writability).
    pub store: StoreSnapshot,
    /// Fresh sessions opened since the daemon started.
    pub sessions_opened: u64,
    /// Sessions resumed from the store.
    pub sessions_resumed: u64,
    /// Questions answered live.
    pub questions_served: u64,
    /// Feedback rounds served live — the daemon's "uptime rounds".
    pub rounds_served: u64,
    /// Sessions degraded to memory-only by a store fault.
    pub sessions_degraded: u64,
    /// Requests answered with a protocol `Error`.
    pub errors: u64,
    /// Requests whose handler panicked and was contained.
    pub contained_panics: u64,
    /// Wall-clock since the daemon bound its listener, milliseconds.
    pub uptime_ms: u64,
    /// Replication role (primary even when replication is unused).
    pub role: super::replicate::Role,
    /// Fencing epoch (0 = this lineage was never promoted).
    pub epoch: u64,
    /// Records the slowest connected follower has not yet acknowledged
    /// (0 with no followers).
    pub replication_lag_records: u64,
    /// Followers currently attached to the replication channel.
    pub repl_followers: u64,
    /// Records shipped to followers since the daemon started.
    pub repl_records_shipped: u64,
    /// Responses released because the follower-ack wait timed out
    /// (quorum mode only; each one is durability the client believed in
    /// but a follower never confirmed).
    pub repl_ack_timeouts: u64,
    /// Quorum acking is currently degraded to counted-async: zero
    /// followers are connected and a full ack wait already expired, so
    /// responses release immediately (each still counted in
    /// `repl_ack_timeouts`) until a follower reconnects.
    #[serde(default)]
    pub repl_ack_degraded: bool,
    /// Times the quorum gate entered degraded-async (follower-less)
    /// operation since the daemon started.
    #[serde(default)]
    pub repl_ack_degraded_entries: u64,
}

/// Writes one frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, message: &T) -> io::Result<()> {
    let json = serde_json::to_vec(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if json.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", json.len()),
        ));
    }
    // Infallible: json.len() <= MAX_FRAME_LEN (4 MiB) was checked above,
    // far inside u32 range.
    let len = u32::try_from(json.len()).expect("frame fits u32");
    // One buffer, one write: under TCP_NODELAY a separate header write
    // would go out as its own segment.
    let mut frame = Vec::with_capacity(4 + json.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&json);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame (blocking until a full frame arrives or the peer
/// closes). Returns `Ok(None)` on a clean EOF *before* any frame byte.
pub fn read_frame<R: Read, T: serde::de::DeserializeOwned>(r: &mut R) -> io::Result<Option<T>> {
    read_frame_inner(r, None, false)
}

/// Like [`read_frame`], but bounded by a wall-clock deadline: once it
/// passes, the read fails with a [`deadline_expired`] error instead of
/// retrying forever. This is what defeats slowloris clients — a peer
/// trickling one byte per poll interval keeps the plain mid-frame retry
/// loop alive indefinitely, but cannot outlast a deadline.
///
/// The socket must have a read timeout set (the poll tick); the deadline
/// is only checked when a read comes back empty-handed. With
/// `wait_for_first` the reader also waits for the *first* byte until the
/// deadline (client style: one bounded call per expected response);
/// without it, an empty-handed poll before any frame byte surfaces as
/// `WouldBlock`/`TimedOut` so the caller can interleave its own checks
/// (server style: shutdown flag, idle clock).
pub fn read_frame_deadline<R: Read, T: serde::de::DeserializeOwned>(
    r: &mut R,
    deadline: Instant,
    wait_for_first: bool,
) -> io::Result<Option<T>> {
    read_frame_inner(r, Some(deadline), wait_for_first)
}

/// Marker message for deadline expiry (see [`deadline_expired`]).
const DEADLINE_MARKER: &str = "read deadline elapsed";

/// Whether an error from [`read_frame_deadline`] means the deadline
/// passed (as opposed to a poll-tick timeout or a real transport error).
pub fn deadline_expired(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::TimedOut && e.to_string().contains(DEADLINE_MARKER)
}

fn read_frame_inner<R: Read, T: serde::de::DeserializeOwned>(
    r: &mut R,
    deadline: Option<Instant>,
    wait_for_first: bool,
) -> io::Result<Option<T>> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header, false, deadline, wait_for_first)? {
        0 => return Ok(None),
        4 => {}
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame-header",
            ))
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (max {MAX_FRAME_LEN})"),
        ));
    }
    let mut body = vec![0u8; len];
    if read_full(r, &mut body, true, deadline, wait_for_first)? != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame-body",
        ));
    }
    serde_json::from_slice(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads until `buf` is full or EOF; retries through timeout-style
/// errors once a frame has started (the server polls its sockets with a
/// read timeout so it can observe shutdown, and a frame must never be
/// torn by that poll). `frame_started` marks reads that are always
/// mid-frame (the body follows its header); an empty-handed header read
/// instead surfaces its timeout to the caller — unless `wait_for_first`
/// asks to keep waiting — which is how the server regains control
/// between requests. With a `deadline`, every retry first checks the
/// clock and fails with [`DEADLINE_MARKER`] once it has passed, so a
/// trickling or stalled peer cannot pin the reader.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    frame_started: bool,
    deadline: Option<Instant>,
    wait_for_first: bool,
) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (filled > 0 || frame_started || wait_for_first)
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                // Empty-handed or mid-frame poll timeout: fall through
                // to the deadline check, then keep reading.
            }
            Err(e) => return Err(e),
        }
        // The clock is checked after EVERY incomplete read attempt, not
        // only empty-handed ones — a slowloris peer that lands one byte
        // per poll tick never goes empty-handed and must still expire.
        if filled < buf.len() {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, DEADLINE_MARKER));
                }
            }
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let requests = vec![
            ClientRequest::Hello {
                version: PROTOCOL_VERSION,
                resume: Some(9),
            },
            ClientRequest::Ask {
                question: "how many?".into(),
            },
            ClientRequest::Feedback {
                text: "we are in 2024".into(),
                highlight: None,
            },
            ClientRequest::Transcript,
            ClientRequest::Bye,
            ClientRequest::Shutdown,
        ];
        let mut wire = Vec::new();
        for r in &requests {
            write_frame(&mut wire, r).unwrap();
        }
        let mut cursor = &wire[..];
        let mut back = Vec::new();
        while let Some(r) = read_frame::<_, ClientRequest>(&mut cursor).unwrap() {
            back.push(r);
        }
        assert_eq!(back, requests);
    }

    #[test]
    fn responses_roundtrip() {
        let responses = vec![
            ServerResponse::Welcome {
                session_id: 3,
                replayed_rounds: 2,
            },
            ServerResponse::Rejected {
                reason: "at capacity".into(),
                active: 32,
                queued: 16,
            },
            ServerResponse::Turn {
                round: 1,
                sql: "SELECT 1".into(),
                rendered: "Assistant>".into(),
                events: vec![crate::session::SessionEvent::User("hi".into())],
            },
            ServerResponse::ShuttingDown,
            ServerResponse::Goodbye { rounds: 4 },
        ];
        let mut wire = Vec::new();
        for r in &responses {
            write_frame(&mut wire, r).unwrap();
        }
        let mut cursor = &wire[..];
        for want in &responses {
            let got: ServerResponse = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn oversized_and_torn_frames_are_errors() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_le_bytes());
        let mut cursor = &wire[..];
        assert!(read_frame::<_, ClientRequest>(&mut cursor).is_err());

        let mut torn = Vec::new();
        write_frame(&mut torn, &ClientRequest::Bye).unwrap();
        torn.truncate(torn.len() - 1);
        let mut cursor = &torn[..];
        assert!(read_frame::<_, ClientRequest>(&mut cursor).is_err());
    }

    #[test]
    fn clean_eof_before_a_frame_is_none() {
        let wire: Vec<u8> = Vec::new();
        let mut cursor = &wire[..];
        assert_eq!(read_frame::<_, ClientRequest>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn admin_frames_roundtrip() {
        let requests = vec![ClientRequest::Stats, ClientRequest::Compact];
        let mut wire = Vec::new();
        for r in &requests {
            write_frame(&mut wire, r).unwrap();
        }
        let mut cursor = &wire[..];
        let mut back = Vec::new();
        while let Some(r) = read_frame::<_, ClientRequest>(&mut cursor).unwrap() {
            back.push(r);
        }
        assert_eq!(back, requests);

        let responses = vec![
            ServerResponse::Reaped {
                reason: "idle past 500 ms".into(),
                idle_ms: 512,
            },
            ServerResponse::Stats(ServerStats {
                rounds_served: 9,
                uptime_ms: 1234,
                ..ServerStats::default()
            }),
            ServerResponse::Compacted {
                generation: 2,
                ops_before: 40,
                ops_after: 6,
                sessions_dropped: 7,
            },
        ];
        let mut wire = Vec::new();
        for r in &responses {
            write_frame(&mut wire, r).unwrap();
        }
        let mut cursor = &wire[..];
        for want in &responses {
            let got: ServerResponse = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    /// A reader that trickles one byte per call, answering `WouldBlock`
    /// in between — a slowloris peer as the frame reader sees it.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        starved: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.starved = !self.starved;
            if self.starved {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "poll tick"));
            }
            if self.pos >= self.data.len() || buf.is_empty() {
                // Out of scripted bytes: stall forever.
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn deadline_bounds_a_mid_frame_stall() {
        // A frame header arrives, then the peer stalls: the deadline
        // read must fail with the marker instead of spinning forever.
        let mut wire = Vec::new();
        write_frame(&mut wire, &ClientRequest::Bye).unwrap();
        wire.truncate(6); // header + 2 body bytes, then silence
        let mut peer = Trickle {
            data: wire,
            pos: 0,
            starved: false,
        };
        let deadline = Instant::now() + std::time::Duration::from_millis(30);
        let err = read_frame_deadline::<_, ClientRequest>(&mut peer, deadline, true)
            .expect_err("stalled mid-frame read must expire");
        assert!(deadline_expired(&err), "{err}");
    }

    #[test]
    fn deadline_read_still_completes_a_slow_but_live_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &ClientRequest::Bye).unwrap();
        let mut peer = Trickle {
            data: wire,
            pos: 0,
            starved: false,
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let got: Option<ClientRequest> =
            read_frame_deadline(&mut peer, deadline, true).expect("live trickle completes");
        assert_eq!(got, Some(ClientRequest::Bye));
    }

    #[test]
    fn without_wait_for_first_an_empty_poll_surfaces() {
        // Server style: an empty-handed poll tick before any frame byte
        // must surface (the caller checks its shutdown flag and idle
        // clock), not be swallowed by the deadline loop.
        struct AlwaysBlock;
        impl Read for AlwaysBlock {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll tick"))
            }
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let err = read_frame_deadline::<_, ClientRequest>(&mut AlwaysBlock, deadline, false)
            .expect_err("must surface the poll tick");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(!deadline_expired(&err));
    }
}
