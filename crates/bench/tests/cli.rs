//! `experiments` refuses a command line it does not understand: an
//! unknown experiment name or flag prints the usage and exits 2 before
//! any table runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_experiment_or_flag_is_refused() {
    // `fig6` names no experiment (they are `fig6-baseline`/`fig6-trim`).
    for args in [&["fig6", "--quick"][..], &["fig6-baseline", "--bogus-flag"]] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a table");
    }
}

#[test]
fn known_experiment_runs() {
    let out = experiments(&["fig6-baseline"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
