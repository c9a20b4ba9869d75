//! The benchmark against its own contract: every workload emits every
//! metric `BENCHMARK.json` names, with the declared unit, and a wrong
//! reference trips the correctness gate.

use std::collections::BTreeMap;
use std::path::PathBuf;

use scratch_perfbench::serve_load::ServeBench;
use scratch_perfbench::{run, Options, Workload};
use serde_json::Value;

/// Seconds of measurement in the short runs.
const SHORT: f64 = 1.0;

fn work_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let Some(Value::Array(metrics)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list")
    };
    metrics
        .iter()
        .map(|m| match m {
            Value::Object(m) => match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
                _ => panic!("metric without name or unit: {m:?}"),
            },
            other => panic!("metric is not an object: {other:?}"),
        })
        .collect()
}

fn short_run(workload: Workload, trace: bool) {
    let outcome = run(&Options {
        workload,
        seed: 7,
        seconds: SHORT,
        trace,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        outcome.correct(),
        "{}: {:?}",
        workload.name(),
        outcome.gate.failures
    );
    let emitted: BTreeMap<String, String> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(emitted, want, "{} trace={trace}", workload.name());
    assert_eq!(
        emitted.len(),
        outcome.metrics.len(),
        "a metric is reported twice"
    );
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    if !trace {
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{}: {} is 0", workload.name(), m.name);
        }
    }
    let Value::Object(line) =
        serde_json::from_str(&outcome.result_line()).expect("result line parses")
    else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = line.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
}

#[test]
fn serve_small_emits_every_metric() {
    short_run(Workload::ServeSmall, false);
    short_run(Workload::ServeSmall, true);
}

#[test]
fn serve_journal_emits_every_metric() {
    short_run(Workload::ServeJournal, false);
    short_run(Workload::ServeJournal, true);
}

#[test]
fn serve_preempt_emits_every_metric() {
    short_run(Workload::ServePreempt, false);
    short_run(Workload::ServePreempt, true);
}

#[test]
fn paper_suite_emits_every_metric() {
    short_run(Workload::PaperSuite, false);
    short_run(Workload::PaperSuite, true);
}

#[test]
fn wrong_reference_digest_trips_the_gate() {
    let dir = work_dir("wrong-digest");
    std::fs::create_dir_all(&dir).expect("work dir");
    let shape = Workload::ServeSmall
        .serve_shape()
        .expect("a serve workload");
    let mut bench = ServeBench::setup(7, shape, &dir, false).expect("set-up");
    // The first client's first job runs mix kernel 0 on the cycle tier.
    bench.mix.kernels[0].reference.digest ^= 1;
    let load = bench.run(SHORT);
    drop(bench.finish());
    assert!(load.gate.attempted > 0);
    assert!(
        load.gate.failures.iter().any(|f| f.contains("digest")),
        "{:?}",
        load.gate.failures
    );
}
