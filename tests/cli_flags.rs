//! `scratch-tool` refuses flags its subcommand's usage does not name —
//! and `--help` — before doing any work: no kernel runs, no daemon
//! starts.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `scratch-tool args`, killing it if it is still running after a
/// few seconds (a started daemon would never exit by itself), and return
/// its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scratch-tool"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scratch-tool");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll scratch-tool").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill scratch-tool");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("reap scratch-tool");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_is_refused_before_the_kernel_runs() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/kernels/affine.s");
    let (code, stderr) = run(&["run", kernel, "--bogus-flag"]);
    assert!(matches!(code, Some(c) if c != 0), "exit {code:?}");
    assert!(stderr.contains("unknown flag `--bogus-flag`"), "{stderr}");
    assert!(stderr.contains("usage: scratch-tool run"), "{stderr}");
}

#[test]
fn help_prints_usage_instead_of_starting_a_daemon() {
    for flag in ["--help", "-h"] {
        let (code, stderr) = run(&["serve", flag]);
        assert!(matches!(code, Some(c) if c != 0), "{flag}: exit {code:?}");
        assert!(stderr.contains("usage: scratch-tool serve"), "{stderr}");
    }
}

#[test]
fn named_flags_and_their_values_still_parse() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/kernels/affine.s");
    let (code, stderr) = run(&["run", kernel, "--wgs", "2", "--exec", "fast"]);
    assert_eq!(code, Some(0), "{stderr}");
}
