//! Crash-safety suite: the write-ahead run journal's recovery contracts.
//!
//! - Resuming from a partial journal — torn mid-record, checksum-flipped,
//!   or cleanly truncated — yields a report bit-identical to an
//!   uninterrupted run, at any worker count.
//! - Corruption never poisons a resume: the intact prefix is kept, the
//!   damaged tail is dropped and re-evaluated.
//! - A journal from a *different* experiment (config or case set) is
//!   refused outright rather than silently mixed in.
//! - Under every fsync policy the journal is an observer: a journaled
//!   run and a resume from its complete journal equal the unjournaled
//!   report.
//!
//! The `#[ignore]`d SIGKILL loop at the bottom exercises the real thing —
//! killing a child `fisql --eval` process at random points and resuming —
//! and runs in the CI crash-recovery job, not in the default suite.

use fisql::prelude::*;
use std::path::PathBuf;

fn setup() -> (Corpus, SimLlm, SimUser) {
    let corpus = build_spider(&SpiderConfig {
        n_databases: 8,
        n_examples: 64,
        seed: 0x1D0A7,
    });
    (
        corpus,
        SimLlm::new(LlmConfig::default()),
        SimUser::new(UserConfig::default()),
    )
}

fn annotated(corpus: &Corpus, llm: &SimLlm, user: &SimUser) -> Vec<AnnotatedCase> {
    let plain = CorrectionRun::new(corpus, llm, user).demos_k(3);
    let errors = plain.collect_errors();
    plain.annotate(&errors)
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fisql-crash-{}-{tag}.fjnl", std::process::id()))
}

#[test]
fn resume_from_any_truncation_point_matches_the_fresh_run() {
    let (corpus, llm, user) = setup();
    let cases = annotated(&corpus, &llm, &user);
    assert!(cases.len() >= 5, "need a non-trivial case set");
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let baseline = run.workers(1).run(&cases);
    let baseline_json = serde_json::to_string(&baseline).unwrap();

    let path = temp_journal("truncate");
    run.workers(2)
        .journal(&path)
        .fsync(FsyncPolicy::Never)
        .run(&cases);
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > fisql_core::journal::HEADER_LEN);

    // Truncate at a spread of byte offsets — header-only, mid-record,
    // between records — and check each resume reconverges, at several
    // worker counts.
    let cuts = [
        fisql_core::journal::HEADER_LEN,
        fisql_core::journal::HEADER_LEN + 3, // torn length prefix
        full.len() / 4,
        full.len() / 2,
        full.len() - 1,
    ];
    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let workers = [1, 4, 8][i % 3];
        let resumed = run
            .workers(workers)
            .journal(&path)
            .resume(true)
            .fsync(FsyncPolicy::Never)
            .run(&cases);
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline_json,
            "resume diverged after truncation to {cut} bytes at {workers} workers"
        );
        // After the resume the journal is complete again: a further
        // resume replays everything from disk and runs zero cases.
        let replayed = run
            .workers(1)
            .journal(&path)
            .resume(true)
            .fsync(FsyncPolicy::Never)
            .run(&cases);
        assert_eq!(serde_json::to_string(&replayed).unwrap(), baseline_json);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_records_are_dropped_and_reevaluated() {
    let (corpus, llm, user) = setup();
    let cases = annotated(&corpus, &llm, &user);
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let baseline_json = serde_json::to_string(&run.workers(1).run(&cases)).unwrap();

    let path = temp_journal("corrupt");
    run.workers(1)
        .journal(&path)
        .fsync(FsyncPolicy::Never)
        .run(&cases);
    let full = std::fs::read(&path).unwrap();

    // Flip one byte in the middle of the record region: the checksum
    // catches it, the prefix before it survives, everything from the
    // flipped record on is re-run.
    let mut flipped = full.clone();
    let mid = fisql_core::journal::HEADER_LEN + (full.len() - fisql_core::journal::HEADER_LEN) / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    let resumed = run
        .workers(4)
        .journal(&path)
        .resume(true)
        .fsync(FsyncPolicy::Never)
        .run(&cases);
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        baseline_json,
        "checksum corruption poisoned the resume"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn foreign_journals_are_refused() {
    let (corpus, llm, user) = setup();
    let cases = annotated(&corpus, &llm, &user);
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);

    let path = temp_journal("foreign");
    run.workers(1)
        .journal(&path)
        .fsync(FsyncPolicy::Never)
        .run(&cases);

    // Different config (rounds) → different fingerprint → refused.
    let err = run
        .rounds(1)
        .journal(&path)
        .resume(true)
        .try_run(&cases)
        .unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "got: {err}");

    // Different case set → refused too (count mismatch or fingerprint).
    let fewer = &cases[..cases.len() - 1];
    let err = run.journal(&path).resume(true).try_run(fewer).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("fingerprint") || msg.contains("case"),
        "got: {msg}"
    );

    // Not-a-journal → refused, not misparsed.
    std::fs::write(&path, b"definitely not a journal").unwrap();
    assert!(run.journal(&path).resume(true).try_run(&cases).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn without_resume_an_existing_journal_is_overwritten() {
    let (corpus, llm, user) = setup();
    let cases = annotated(&corpus, &llm, &user);
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let baseline_json = serde_json::to_string(&run.workers(1).run(&cases)).unwrap();

    // The journal is an observer under every fsync policy: the report
    // and a resume from the complete journal equal the unjournaled run.
    for policy in [
        FsyncPolicy::Never,
        FsyncPolicy::Batch,
        FsyncPolicy::EachRecord,
    ] {
        let path = temp_journal(&format!("overwrite-{policy}"));
        // Stale garbage at the path: a fresh (non-resume) run truncates it.
        std::fs::write(&path, b"stale bytes from another era").unwrap();
        let journaled = run.workers(4).journal(&path).fsync(policy);
        let report = journaled.run(&cases);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            baseline_json,
            "journaling under {policy} changed the report"
        );
        // And the rewritten journal resumes cleanly: everything replays
        // from disk.
        let resumed = journaled.resume(true).run(&cases);
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline_json,
            "full-journal resume under {policy} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// The real thing: SIGKILL a child `fisql --eval --journal` process at a
/// random point mid-run, resume it, and diff the final report against an
/// uninterrupted baseline. Ignored by default (spawns processes, takes
/// seconds); the CI crash-recovery job runs it with `-- --ignored`.
#[test]
#[ignore = "spawns and kills child processes; run explicitly in the crash-recovery CI job"]
fn sigkill_and_resume_recovers_bit_identically() {
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_fisql");
    let dir = std::env::temp_dir().join(format!("fisql-sigkill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.fjnl");
    let eval_args = |extra: &[&str]| {
        let mut v = vec![
            "--eval".to_string(),
            "--workers".to_string(),
            "4".to_string(),
            "--journal".to_string(),
            journal.display().to_string(),
            "--fsync".to_string(),
            "each".to_string(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_string()));
        v
    };

    // Uninterrupted baseline output (the per-corpus summary lines).
    let baseline = Command::new(bin)
        .args(eval_args(&[]))
        .output()
        .expect("baseline eval runs");
    assert!(baseline.status.success());
    let baseline_out = String::from_utf8_lossy(&baseline.stdout).to_string();

    for attempt in 0..5u64 {
        // Remove journals so each attempt interrupts a fresh run.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).ok();
        }
        let mut child = Command::new(bin)
            .args(eval_args(&[]))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("eval child spawns");
        // Kill at a pseudo-random point early in the run. The exact
        // instant does not matter — any prefix of the journal must
        // resume correctly (including the empty one).
        std::thread::sleep(std::time::Duration::from_millis(40 + attempt * 90));
        child.kill().expect("SIGKILL delivered");
        child.wait().unwrap();

        let resumed = Command::new(bin)
            .args(eval_args(&["--resume"]))
            .output()
            .expect("resumed eval runs");
        assert!(
            resumed.status.success(),
            "resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let resumed_out = String::from_utf8_lossy(&resumed.stdout).to_string();
        // Compare the deterministic report lines; throughput lines vary.
        let stable = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("cases/s") && !l.contains("journal:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            stable(&resumed_out),
            stable(&baseline_out),
            "kill-and-resume attempt {attempt} diverged from the baseline"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
