//! Command-line entry of the layered benchmark:
//!
//! ```text
//! scratch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's metadata and a metric table, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The same result, with sample counts and metadata, is written to
//! `.perfbench_out/<workload>-trace<t>.json`, and a traced serve run's
//! span timelines to `.perfbench_out/<workload>.spans.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use scratch_perfbench::report::{number, quote, Meta, Outcome};
use scratch_perfbench::{run, Options, Workload};

/// Where results and scratch files go, relative to the working directory.
const WORK_DIR: &str = ".perfbench_out";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} is not in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(WORK_DIR),
    })
}

/// The written result: metadata, the gate's tally and failures, and every
/// metric with its unit and sample count.
fn result_file(meta: &str, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = outcome.gate.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"meta\":{meta},\"correct\":{},\"attempted\":{},\"failed\":{},\"fail_ratio\":{},\
         \"failures\":[{}],\"metrics\":[{}]}}\n",
        outcome.correct(),
        outcome.gate.attempted,
        outcome.gate.failed(),
        number(outcome.gate.fail_ratio()),
        failures.join(","),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("scratch-perfbench: {e}");
            eprintln!(
                "usage: scratch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let meta = Meta::collect().to_json(opts.workload.name(), opts.seed, opts.seconds, opts.trace);
    println!("meta {meta}");
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("scratch-perfbench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!(
            "{:<28} {:>16.3} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "fail_ratio {} ({} of {} failed)",
        outcome.gate.fail_ratio(),
        outcome.gate.failed(),
        outcome.gate.attempted
    );
    for why in outcome.gate.failures.iter().take(10) {
        println!("failed: {why}");
    }
    let stem = format!("{}-trace{}", opts.workload.name(), u8::from(opts.trace));
    let mut written = std::fs::write(
        opts.work_dir.join(format!("{stem}.json")),
        result_file(&meta, &outcome),
    );
    if written.is_ok() && !outcome.spans_jsonl.is_empty() {
        written = std::fs::write(
            opts.work_dir
                .join(format!("{}.spans.jsonl", opts.workload.name())),
            &outcome.spans_jsonl,
        );
    }
    if let Err(e) = written {
        eprintln!("scratch-perfbench: writing results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
