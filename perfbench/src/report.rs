//! Metrics, the correctness tally, run metadata and the JSON the
//! benchmark prints.

use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or an
    /// exact count).
    pub samples: u64,
}

/// Shorthand constructor for a [`Metric`].
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: samples as u64,
    }
}

/// The correctness gate's running tally: every operation attempted, and
/// a description of every one that failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Gate {
    /// Operations attempted (served jobs, suite runs, reference checks).
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one operation; `Err` records it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed share of attempted operations.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The correctness tally.
    pub gate: Gate,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Span timelines of the traced run, one JSON object per line.
    pub spans_jsonl: String,
}

impl Outcome {
    /// `true` when every attempted operation passed the gate.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate.failures.is_empty() && self.gate.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.gate.attempted.max(1),
            self.gate.failed(),
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, render as 0 so the line stays valid JSON).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Quote `s` as a JSON string.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Cores available to the process.
    pub nproc: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Git commit of the checkout, when it is a git repository.
    pub commit: String,
}

impl Meta {
    /// Gather the metadata of this host and build.
    #[must_use]
    pub fn collect() -> Meta {
        Meta {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The metadata as a JSON object, with the invocation's arguments.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{trace},\
             \"nproc\":{},\"profile\":{},\"rustc\":{},\"commit\":{}}}",
            quote(workload),
            number(seconds),
            self.nproc,
            quote(self.profile),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }
}

/// First line of a command's standard output, or `"unknown"` when it
/// cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::default();
        o.gate.check(Ok(()));
        o.metrics.push(metric("setup_s", 0.25, "s", 3));
        assert_eq!(
            o.result_line(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        o.gate.check(Err("bad digest".to_owned()));
        assert!(!o.correct());
        assert_eq!(o.gate.fail_ratio(), 0.5);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(f64::NAN), "0.0");
    }
}
