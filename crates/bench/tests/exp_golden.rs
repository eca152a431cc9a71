//! `exp` prints the paper's evaluation byte for byte as the goldens in
//! `tests/golden/exp/` record it at the default seed.
//!
//! The small-scale case always runs. The full-scale case is ignored by
//! default (a few seconds in release, minutes in a debug build); run it
//! with `cargo test --release -p fisql-bench --test exp_golden --
//! --include-ignored`. A deliberate change to an experiment lands as a
//! reviewed golden diff: regenerate with
//! `FISQL_SCALE=<scale> cargo run --release -p fisql-bench --bin exp >
//! crates/bench/tests/golden/exp/<scale>.txt`.

use std::process::Command;

fn assert_matches_golden(scale: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .env("FISQL_SCALE", scale)
        .env_remove("FISQL_SEED")
        .output()
        .expect("spawn exp");
    assert!(
        out.status.success(),
        "exp failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!(
        "{}/tests/golden/exp/{scale}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let got = String::from_utf8(out.stdout).expect("exp prints UTF-8");
    if got != golden {
        let want: Vec<&str> = golden.lines().collect();
        let have: Vec<&str> = got.lines().collect();
        let line = (0..want.len().max(have.len()))
            .find(|&i| want.get(i) != have.get(i))
            .unwrap_or(want.len());
        panic!(
            "exp at FISQL_SCALE={scale} differs from {path} at line {}:\n golden: {:?}\n    got: {:?}",
            line + 1,
            want.get(line),
            have.get(line)
        );
    }
}

#[test]
fn small_scale_matches_golden() {
    assert_matches_golden("small");
}

#[test]
#[ignore = "full scale; run in release"]
fn full_scale_matches_golden() {
    assert_matches_golden("full");
}
