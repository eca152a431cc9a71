//! Write-ahead run journal: crash-safe persistence for per-case verdicts.
//!
//! The evaluation runner appends one record per finished case *before*
//! that case's outcome is merged into the report, so a killed process
//! loses at most the cases that were mid-flight. A resumed run replays
//! the journal, skips every recorded case, and — because per-case work
//! is pure and order-independent (see [`crate::runner`]) — produces a
//! report bit-identical to an uninterrupted run at any worker count.
//!
//! # On-disk format
//!
//! ```text
//! header:  magic "FJNL" | version u32 LE | fingerprint u64 LE | n_cases u64 LE
//! record:  body_len u32 LE | fnv1a32(body) u32 LE | body
//! body:    case_idx u64 LE | serde_json payload
//! ```
//!
//! The fingerprint binds a journal to one experiment: configuration
//! (minus the worker count, which never affects the report) plus a
//! digest of the case set. Resuming against a journal written by a
//! different experiment is refused rather than silently merged.
//!
//! Records are self-checking: opening a journal validates each record's
//! length and checksum in order and truncates the file at the first
//! invalid byte — a torn tail from a crash mid-append costs exactly the
//! cases after the intact prefix, never the whole file.

use fisql_sqlkit::fnv1a_32;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::str::FromStr;

/// The four magic bytes opening every journal file.
pub const MAGIC: [u8; 4] = *b"FJNL";

/// On-disk format version.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes: magic + version + fingerprint + n_cases.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Records longer than this are treated as torn (a crash can leave an
/// arbitrary length field; no real verdict payload approaches this).
const MAX_RECORD_LEN: usize = 16 << 20;

/// Under [`FsyncPolicy::Batch`], sync after this many appends.
const BATCH_EVERY: usize = 32;

/// When (and whether) journal appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync — fastest; a power loss may drop buffered records
    /// (the checksummed framing still recovers the intact prefix).
    Never,
    /// Fsync after every record — maximum durability, slowest.
    EachRecord,
    /// Fsync every `BATCH_EVERY` (32) records and once at the end of the
    /// run — the default durability/throughput trade-off.
    #[default]
    Batch,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "never" => Ok(FsyncPolicy::Never),
            "each" => Ok(FsyncPolicy::EachRecord),
            "batch" => Ok(FsyncPolicy::Batch),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected never, each, or batch)"
            )),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Never => "never",
            FsyncPolicy::EachRecord => "each",
            FsyncPolicy::Batch => "batch",
        })
    }
}

/// An append-only, checksummed journal of per-case outcome records.
///
/// Generic over the payload (the runner journals
/// [`crate::runner::CaseOutcome`]); any serde-serializable type works,
/// which keeps the format unit-testable in isolation.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
    policy: FsyncPolicy,
    appended_since_sync: usize,
}

impl RunJournal {
    /// Creates (or truncates) the journal at `path` and writes its
    /// header. The header is flushed immediately under any policy other
    /// than [`FsyncPolicy::Never`], so a resumable file exists on disk
    /// before the first case finishes.
    pub fn create(
        path: &Path,
        fingerprint: u64,
        n_cases: u64,
        policy: FsyncPolicy,
    ) -> io::Result<RunJournal> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&n_cases.to_le_bytes());
        file.write_all(&header)?;
        let mut journal = RunJournal {
            file,
            policy,
            appended_since_sync: 0,
        };
        journal.sync()?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption: validates the header
    /// against this run's `fingerprint` and `n_cases`, decodes every
    /// intact record in order, truncates any torn or corrupt tail, and
    /// returns the journal positioned for further appends together with
    /// the recovered `(case_idx, payload)` records.
    ///
    /// A fingerprint or case-count mismatch is an error — the journal
    /// belongs to a different experiment and resuming from it would
    /// silently corrupt the report.
    pub fn open_resume<T: serde::de::DeserializeOwned>(
        path: &Path,
        fingerprint: u64,
        n_cases: u64,
        policy: FsyncPolicy,
    ) -> io::Result<(RunJournal, Vec<(u64, T)>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_LEN {
            return Err(invalid("journal shorter than its header"));
        }
        if bytes[..4] != MAGIC {
            return Err(invalid("not a FISQL run journal (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(invalid(&format!(
                "journal format version {version} (this build reads {VERSION})"
            )));
        }
        let found_fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if found_fp != fingerprint {
            return Err(invalid(&format!(
                "journal fingerprint {found_fp:#018x} does not match this run \
                 ({fingerprint:#018x}) — refusing to resume a different experiment"
            )));
        }
        let found_n = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if found_n != n_cases {
            return Err(invalid(&format!(
                "journal was written for {found_n} cases, this run has {n_cases}"
            )));
        }

        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        while bytes.len() - offset >= 8 {
            let body_len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let checksum = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            if !(8..=MAX_RECORD_LEN).contains(&body_len) || offset + 8 + body_len > bytes.len() {
                break; // torn tail
            }
            let body = &bytes[offset + 8..offset + 8 + body_len];
            if fnv1a_32(body) != checksum {
                break; // corrupt record: keep the intact prefix only
            }
            let case_idx = u64::from_le_bytes(body[..8].try_into().unwrap());
            let Ok(payload) = serde_json::from_slice::<T>(&body[8..]) else {
                break;
            };
            records.push((case_idx, payload));
            offset += 8 + body_len;
        }

        // Drop everything past the last intact record so future appends
        // start from a clean end-of-file.
        file.set_len(offset as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((
            RunJournal {
                file,
                policy,
                appended_since_sync: 0,
            },
            records,
        ))
    }

    /// Appends one record. Flushes according to the configured
    /// [`FsyncPolicy`].
    pub fn append<T: serde::Serialize>(&mut self, case_idx: u64, payload: &T) -> io::Result<()> {
        let json = serde_json::to_vec(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut body = Vec::with_capacity(8 + json.len());
        body.extend_from_slice(&case_idx.to_le_bytes());
        body.extend_from_slice(&json);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(
            &u32::try_from(body.len())
                .expect("record fits u32")
                .to_le_bytes(),
        );
        frame.extend_from_slice(&fnv1a_32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.appended_since_sync += 1;
        match self.policy {
            FsyncPolicy::Never => {}
            FsyncPolicy::EachRecord => self.sync()?,
            FsyncPolicy::Batch => {
                if self.appended_since_sync >= BATCH_EVERY {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Flushes pending appends to stable storage (no-op under
    /// [`FsyncPolicy::Never`]). The runner calls this once after the
    /// last case so a clean shutdown is always fully durable under
    /// [`FsyncPolicy::Batch`].
    pub fn sync(&mut self) -> io::Result<()> {
        if self.policy == FsyncPolicy::Never {
            return Ok(());
        }
        self.appended_since_sync = 0;
        self.file.sync_data()
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::path::PathBuf;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        v: u64,
        s: String,
    }

    fn payload(i: u64) -> Payload {
        Payload {
            v: i * 7,
            s: format!("record-{i}"),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fisql-journal-{}-{name}.fjnl", std::process::id()))
    }

    fn write_three(path: &std::path::Path, policy: FsyncPolicy) {
        let mut j = RunJournal::create(path, 0xFEED, 3, policy).unwrap();
        for i in 0..3 {
            j.append(i, &payload(i)).unwrap();
        }
        j.sync().unwrap();
    }

    #[test]
    fn roundtrip_create_append_reopen() {
        let path = tmp("roundtrip");
        write_three(&path, FsyncPolicy::EachRecord);
        let (_, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 0xFEED, 3, FsyncPolicy::Batch).unwrap();
        assert_eq!(records.len(), 3);
        for (i, (idx, p)) in records.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(p, &payload(i as u64));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_after_resume_extend_the_journal() {
        let path = tmp("extend");
        write_three(&path, FsyncPolicy::Batch);
        let (mut j, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 0xFEED, 3, FsyncPolicy::Batch).unwrap();
        assert_eq!(records.len(), 3);
        drop(records);
        j.append(3, &payload(3)).unwrap();
        j.sync().unwrap();
        drop(j);
        let (_, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 0xFEED, 3, FsyncPolicy::Batch).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], (3, payload(3)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_and_case_count_mismatches_are_refused() {
        let path = tmp("mismatch");
        write_three(&path, FsyncPolicy::Never);
        let wrong_fp =
            RunJournal::open_resume::<Payload>(&path, 0xBAD, 3, FsyncPolicy::Batch).unwrap_err();
        assert!(wrong_fp.to_string().contains("fingerprint"), "{wrong_fp}");
        let wrong_n =
            RunJournal::open_resume::<Payload>(&path, 0xFEED, 4, FsyncPolicy::Batch).unwrap_err();
        assert!(wrong_n.to_string().contains("cases"), "{wrong_n}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_intact_prefix() {
        let path = tmp("torn");
        write_three(&path, FsyncPolicy::Never);
        // Simulate a crash mid-append: a frame header promising more
        // bytes than the file holds.
        let mut bytes = std::fs::read(&path).unwrap();
        let intact_len = bytes.len();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 0xFEED, 3, FsyncPolicy::Batch).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact_len as u64,
            "torn tail should be truncated away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_keeps_only_the_prefix_before_it() {
        let path = tmp("corrupt");
        write_three(&path, FsyncPolicy::Never);
        // Flip a byte inside the *last* record's body: the first two
        // records are intact and must survive.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 0xFEED, 3, FsyncPolicy::Batch).unwrap();
        assert_eq!(records.len(), 2, "intact prefix before the corrupt record");
        assert_eq!(records[1], (1, payload(1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_resumes_with_no_records() {
        let path = tmp("empty");
        drop(RunJournal::create(&path, 1, 10, FsyncPolicy::Batch).unwrap());
        let (_, records): (_, Vec<(u64, Payload)>) =
            RunJournal::open_resume(&path, 1, 10, FsyncPolicy::Batch).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses_from_flag_values() {
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "Each".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::EachRecord
        );
        assert_eq!("batch".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Batch);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }
}
