//! Regenerate the SCRATCH paper's tables and figures.
//!
//! ```text
//! experiments [fig4|fig6-baseline|fig6-trim|sec41|fig7a|fig7b|headline|util|profile|resilience|recovery|ablations|all]
//!             [--quick] [--jobs N] [--json <path>]
//! experiments trace [--quick] [--json <path>]
//! ```
//!
//! `--quick` runs CI-sized workloads; the default reproduces the paper's
//! sizes. `--jobs N` fans the §4.1.2 and Fig. 7 batch sweeps out over N
//! `scratch-engine` workers (default: one per core; the tables are
//! bit-identical for any N). `--json` additionally dumps every table as
//! JSON (used to regenerate `EXPERIMENTS.md`). `trace` (not part of
//! `all`) prints the stall-attribution profile of Matrix Add under each
//! system preset.

use std::fmt::Write as _;

use scratch_bench::{
    ablation, fig4, fig6, fig7, headline, profile, recovery, resilience, sec41, stalls, util, Scale,
};
use scratch_isa::Category;

const USAGE: &str = "\
usage: experiments [fig4|fig6-baseline|fig6-trim|sec41|fig7a|fig7b|headline|util|profile|resilience|recovery|trace|ablations|all]
                   [--quick] [--jobs N] [--json <path>]

  --quick        CI-sized workloads (default: the paper's sizes)
  --jobs N       run the sec41 and fig7 sweeps on N scratch-engine workers
                 (default: one per available core; 1 = serial; every table
                 is bit-identical regardless of N)
  --json <path>  additionally dump every table as JSON";

/// Every experiment name the command line accepts.
const EXPERIMENTS: [&str; 14] = [
    "fig4",
    "fig6-baseline",
    "fig6-trim",
    "sec41",
    "fig7a",
    "fig7b",
    "headline",
    "util",
    "profile",
    "resilience",
    "recovery",
    "trace",
    "ablations",
    "all",
];

/// Refuse the command line: `msg`, the usage, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path = None;
    let mut jobs = 0; // engine default: one worker per core
    let mut what = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--json" => {
                let path = rest
                    .next()
                    .unwrap_or_else(|| usage_error("--json expects a path"));
                json_path = Some(path.clone());
            }
            "--jobs" => {
                let v = rest.next().map_or("", String::as_str);
                jobs = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs expects a worker count, got `{v}`"))
                });
            }
            name if what.is_none() && EXPERIMENTS.contains(&name) => what = Some(name),
            other => usage_error(&format!("unknown experiment or flag `{other}`")),
        }
    }
    let what = what.unwrap_or("all");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    // A failed table is reported and the others still print; the exit
    // status says whether every table was produced.
    let mut failed = false;
    let mut fail = |table: &str, e: &dyn std::fmt::Display| {
        eprintln!("{table} failed: {e}");
        failed = true;
    };

    let mut json = serde_json::Map::new();

    let run = |name: &str| what == "all" || what == name;

    if run("fig4") {
        match fig4::characterize(scale) {
            Ok(rows) => {
                print_fig4(&rows);
                json.insert("fig4".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("fig4", &e),
        }
    }
    if run("fig6-baseline") {
        let rows = fig6::baseline_systems();
        print_fig6_baseline(&rows);
        json.insert("fig6_baseline".into(), serde_json::to_value(&rows).unwrap());
    }
    if run("fig6-trim") {
        match fig6::trimming_rows(scale) {
            Ok(rows) => {
                print_fig6_trim(&rows);
                json.insert("fig6_trim".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("fig6-trim", &e),
        }
    }
    if run("sec41") {
        match sec41::speedups_with_jobs(scale, jobs) {
            Ok(rows) => {
                print_sec41(&rows);
                json.insert("sec41".into(), serde_json::to_value(&rows).unwrap());
                let agg = sec41::aggregates(&rows);
                json.insert(
                    "sec41_aggregates".into(),
                    serde_json::to_value(&agg).unwrap(),
                );
            }
            Err(e) => fail("sec41", &e),
        }
    }
    if run("fig7a") || run("fig7b") || run("headline") {
        match fig7::sweep_with_jobs(scale, jobs) {
            Ok(points) => {
                if run("fig7a") {
                    print_fig7(&points, true);
                }
                if run("fig7b") {
                    print_fig7(&points, false);
                }
                json.insert("fig7".into(), serde_json::to_value(&points).unwrap());
                if run("headline") {
                    let h = headline::compute(&points);
                    print_headline(&h);
                    json.insert("headline".into(), serde_json::to_value(&h).unwrap());
                }
            }
            Err(e) => fail("fig7", &e),
        }
    }

    if run("util") {
        match util::utilization(scale) {
            Ok(rows) => {
                print_util(&rows);
                json.insert("util".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("util", &e),
        }
    }

    if run("profile") {
        match profile::signatures(scale) {
            Ok(rows) => {
                print_profile(&rows);
                json.insert("profile".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("profile", &e),
        }
    }

    if run("resilience") {
        match resilience::campaign_table(scale, jobs) {
            Ok(rows) => {
                print_resilience(&rows);
                json.insert("resilience".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("resilience", &e),
        }
    }

    if run("recovery") {
        match recovery::recovery_latency(quick) {
            Ok(rows) => {
                print_recovery(&rows);
                json.insert("recovery".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("recovery", &e),
        }
    }

    // Opt-in study (not part of `all`): cycle attribution per preset.
    if what == "trace" {
        match stalls::stall_profiles(scale) {
            Ok(rows) => {
                print_stalls(&rows);
                json.insert("trace".into(), serde_json::to_value(&rows).unwrap());
            }
            Err(e) => fail("trace", &e),
        }
    }

    if run("ablations") {
        match ablation_tables(scale) {
            Ok(value) => {
                json.insert("ablations".into(), value);
            }
            Err(e) => fail("ablations", &e),
        }
    }

    if let Some(path) = json_path {
        let value = serde_json::Value::Object(json);
        match std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap()) {
            Ok(()) => println!("\nJSON written to {path}"),
            Err(e) => fail(&format!("writing {path}"), &e),
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn ablation_tables(scale: Scale) -> Result<serde_json::Value, scratch_kernels::BenchError> {
    let mut map = serde_json::Map::new();

    let occ = ablation::wavefront_occupancy(scale)?;
    hr("Ablation — wavefront occupancy (latency hiding)");
    println!("{:>12} {:>12} {:>10}", "wavefronts", "cycles", "speedup");
    for p in &occ {
        println!(
            "{:>12} {:>12} {:>10.2}",
            p.max_wavefronts, p.cycles, p.speedup_vs_one
        );
    }
    map.insert("occupancy".into(), serde_json::to_value(&occ).unwrap());

    let valus = ablation::valu_scaling(scale)?;
    hr("Ablation — integer VALU scaling (multi-thread curve)");
    println!("{:>8} {:>12} {:>10}", "VALUs", "cycles", "speedup");
    for p in &valus {
        println!("{:>8} {:>12} {:>10.2}", p.valus, p.cycles, p.speedup_vs_one);
    }
    map.insert("valu_scaling".into(), serde_json::to_value(&valus).unwrap());

    let pf = ablation::prefetch_capacity(scale)?;
    hr("Ablation — prefetch-capacity cliff (2x2 max pooling)");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12}",
        "image", "input B", "hits", "misses", "PM speedup"
    );
    for p in &pf {
        println!(
            "{:>8} {:>12} {:>10} {:>10} {:>12.2}",
            p.image, p.input_bytes, p.hits, p.misses, p.pm_speedup
        );
    }
    map.insert("prefetch".into(), serde_json::to_value(&pf).unwrap());

    let bits = ablation::datapath_bits(scale)?;
    hr("Ablation — vector datapath bit-width (NiN)");
    println!(
        "{:>6} {:>12} {:>6} {:>10}",
        "bits", "CU FF", "CUs", "power W"
    );
    for p in &bits {
        println!(
            "{:>6} {:>12} {:>6} {:>10.2}",
            p.bits, p.cu_ff, p.cus, p.power_w
        );
    }
    map.insert("datapath_bits".into(), serde_json::to_value(&bits).unwrap());

    let pk = ablation::per_kernel_trimming(scale)?;
    hr("Ablation — per-kernel trimming + partial reconfiguration (§4.3)");
    println!(
        "{:30} {:>10} {:>14} {:>12} {:>12} {:>12} {:>14}",
        "application",
        "reconfigs",
        "reconfig (ms)",
        "union (mJ)",
        "per-k (mJ)",
        "winner",
        "breakeven(ms)"
    );
    for a in &pk {
        println!(
            "{:30} {:>10} {:>14.3} {:>12.3} {:>12.3} {:>12} {:>14.3}",
            a.name,
            a.reconfigurations,
            a.reconfig_seconds * 1e3,
            a.union_energy_j * 1e3,
            a.per_kernel_energy_j * 1e3,
            if a.per_kernel_wins() {
                "per-kernel"
            } else {
                "union"
            },
            a.breakeven_reconfig_s.unwrap_or(0.0) * 1e3,
        );
    }
    map.insert("per_kernel".into(), serde_json::to_value(&pk).unwrap());

    Ok(serde_json::Value::Object(map))
}

fn hr(title: &str) {
    println!("\n=== {title} ===");
}

fn print_recovery(rows: &[recovery::RecoveryRow]) {
    hr("Crash recovery — WAL scan latency and replay split");
    println!(
        "{:>9} {:>9} {:>10} {:>9} {:>9} {:>9} {:>6} {:>9} {:>9}",
        "jobs", "frames", "log KiB", "replayed", "resumed", "deduped", "torn", "open ms", "MiB/s"
    );
    for r in rows {
        println!(
            "{:>9} {:>9} {:>10} {:>9} {:>9} {:>9} {:>6} {:>9.2} {:>9.1}",
            r.jobs,
            r.frames,
            r.log_bytes / 1024,
            r.replayed,
            r.resumed,
            r.deduped,
            r.torn_bytes,
            r.open_ms,
            r.mib_per_sec
        );
    }
}

fn print_resilience(rows: &[resilience::ResilienceRow]) {
    hr("Resilience — seeded fault campaigns per detection mode");
    println!(
        "{:6} {:6} {:>8} {:>7} {:>9} {:>10} {:>7} {:>9} {:>9}",
        "mode",
        "class",
        "injected",
        "masked",
        "detected",
        "recovered",
        "silent",
        "coverage",
        "overhead"
    );
    for row in rows {
        println!(
            "{:6} {:6} {:>8} {:>7} {:>9} {:>10} {:>7} {:>8.1}% {:>8.2}x",
            row.mode,
            row.class,
            row.stats.injected,
            row.stats.masked,
            row.stats.detected,
            row.stats.recovered,
            row.stats.silent,
            row.coverage_pct,
            row.overhead
        );
    }
}

fn print_stalls(rows: &[stalls::StallRow]) {
    use scratch_system::StallReason;
    hr("Cycle attribution — where wavefront-cycles go per system preset");
    let mut head = format!(
        "{:22} {:10} {:>9} {:>7}",
        "benchmark", "system", "cycles", "occ%"
    );
    for r in StallReason::ALL {
        write!(head, "{:>15}", r.label()).unwrap();
    }
    println!("{head}");
    for row in rows {
        let mut line = format!(
            "{:22} {:10} {:>9} {:>7.1}",
            row.name, row.system, row.cycles, row.issue_occupancy_percent
        );
        for r in StallReason::ALL {
            write!(line, "{:>15}", row.stall_cycles(r)).unwrap();
        }
        println!("{line}");
    }
}

fn print_util(rows: &[util::UtilRow]) {
    use scratch_isa::FuncUnit;
    hr("Per-kernel utilisation — DCD+PM baseline (metrics-plane aggregates)");
    let mut head = format!(
        "{:30} {:>10} {:>12} {:>7} {:>8}",
        "benchmark", "cycles", "instrs", "IPC", "mem/cyc"
    );
    for u in FuncUnit::ALL {
        write!(head, "{:>8}%", u.label()).unwrap();
    }
    println!("{head}");
    for row in rows {
        let mut line = format!(
            "{:30} {:>10} {:>12} {:>7.3} {:>8.4}",
            row.name, row.cycles, row.instructions, row.ipc, row.mem_ops_per_cycle
        );
        for p in &row.occupancy_percent {
            write!(line, "{p:>9.1}").unwrap();
        }
        println!("{line}");
    }
}

fn print_profile(rows: &[profile::SignatureRow]) {
    hr("Instruction signatures — per-PC retire profile and minimal covering trim preset");
    println!(
        "{:30} {:>12} {:>8} {:24} {:>22} {:>7} {:>9}  preset",
        "benchmark", "instrs", "opcodes", "units", "top class", "top %", "kept/all"
    );
    for r in rows {
        println!(
            "{:30} {:>12} {:>8} {:24} {:>22} {:>7.1} {:>5}/{:<3}  {}",
            r.name,
            r.instructions,
            r.distinct_opcodes,
            r.units,
            r.top_class,
            r.top_class_percent,
            r.kept_opcodes,
            r.total_opcodes,
            r.preset
        );
    }
}

fn print_fig4(rows: &[fig4::MixRow]) {
    hr("Fig. 4 — instruction mix per benchmark (% of executed instructions)");
    let mut head = format!("{:38}", "benchmark");
    for c in Category::ALL {
        write!(head, "{:>9}", c.label()).unwrap();
    }
    println!("{head}{:>8}", "FP%");
    for r in rows {
        let mut line = format!("{:38}", r.name);
        for p in &r.percent {
            write!(line, "{p:>9.1}").unwrap();
        }
        println!("{line}{:>8.1}", r.fp_percent);
    }
}

fn print_fig6_baseline(rows: &[fig6::BaselineRow]) {
    hr("Fig. 6 (left) — base-system resource utilisation and power");
    println!(
        "{:10} {:>10} {:>10} {:>7} {:>7} {:>9} {:>9}",
        "system", "FF", "LUT", "DSP48", "BRAM", "static W", "dynamic W"
    );
    for r in rows {
        println!(
            "{:10} {:>10} {:>10} {:>7} {:>7} {:>9.2} {:>9.2}",
            r.label,
            r.resources.ff,
            r.resources.lut,
            r.resources.dsp,
            r.resources.bram,
            r.static_w,
            r.dynamic_w
        );
    }
}

fn print_fig6_trim(rows: &[fig6::TrimRow]) {
    hr("Fig. 6 (right) — per-benchmark trimming and parallelism");
    println!(
        "{:30} {:>24} {:>26} {:>13} {:>9} {:>9} {:>8}",
        "benchmark",
        "usage% SALU/iV/fpV/LSU",
        "savings% FF/LUT/DSP/BRAM",
        "power W s+d",
        "MC plan",
        "MT plan",
        "totW MC"
    );
    for r in rows {
        println!(
            "{:30} {:>5.0} {:>5.0} {:>5.0} {:>5.0}  {:>6.0} {:>6.0} {:>6.0} {:>5.0} {:>6.2}+{:<5.2} {:>3}c/{}i/{}f {:>3}c/{}i/{}f {:>8.2}",
            r.name,
            r.usage[0],
            r.usage[1],
            r.usage[2],
            r.usage[3],
            r.savings[0],
            r.savings[1],
            r.savings[2],
            r.savings[3],
            r.power_w.0,
            r.power_w.1,
            r.multicore.cus,
            r.multicore.int_valus,
            r.multicore.fp_valus,
            r.multithread.cus,
            r.multithread.int_valus,
            r.multithread.fp_valus,
            r.multicore_power_w,
        );
    }
    let avg = fig6::average_savings(rows);
    println!(
        "{:30} {:>24} {:>6.0} {:>6.0} {:>6.0} {:>5.0}",
        "AVERAGE", "", avg[0], avg[1], avg[2], avg[3]
    );
}

fn print_sec41(rows: &[sec41::SpeedupRow]) {
    hr("§4.1.2 — speedup and energy-efficiency of DCD / DCD+PM / trimming");
    println!(
        "{:30} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "DCD x", "DCD+PM x", "DCD IPJ", "PM IPJ", "trim IPJ"
    );
    for r in rows {
        println!(
            "{:30} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.3}",
            r.name, r.dcd_speedup, r.pm_speedup, r.dcd_ipj_gain, r.pm_ipj_gain, r.trim_ipj_gain
        );
    }
    let agg = sec41::aggregates(rows);
    println!(
        "min DCD {:.2}x | min PM {:.2}x | max PM {:.2}x | avg DCD IPJ {:.2}x | avg PM IPJ {:.2}x | trim IPJ {:.2}-{:.2}x",
        agg.min_dcd_speedup,
        agg.min_pm_speedup,
        agg.max_pm_speedup,
        agg.avg_dcd_ipj,
        agg.avg_pm_ipj,
        agg.trim_ipj_range.0,
        agg.trim_ipj_range.1
    );
}

fn print_fig7(points: &[fig7::Fig7Point], multicore: bool) {
    hr(if multicore {
        "Fig. 7A — multi-core parallelism (several CUs, 1 VALU each)"
    } else {
        "Fig. 7B — multi-thread parallelism (1 CU, multiple VALUs)"
    });
    println!(
        "{:22} {:20} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "family", "param", "plan", "x vs orig", "x vs base", "IPJ orig", "IPJ base"
    );
    for p in points {
        let (plan, g) = if multicore {
            (p.multicore_plan, p.multicore)
        } else {
            (p.multithread_plan, p.multithread)
        };
        println!(
            "{:22} {:20} {:>4}c/{}i/{}f {:>10.1} {:>10.2} {:>10.1} {:>10.2}",
            p.family,
            p.param,
            plan.cus,
            plan.int_valus,
            plan.fp_valus,
            g.speedup_vs_original,
            g.speedup_vs_baseline,
            g.ipj_vs_original,
            g.ipj_vs_baseline
        );
    }
}

fn print_headline(h: &headline::Headline) {
    hr("Headline aggregates (abstract)");
    println!(
        "avg speedup vs original MIAOW : {:>8.1}x   (paper: 140x)",
        h.avg_speedup_vs_original
    );
    println!(
        "avg IPJ gain vs original      : {:>8.1}x   (paper: 115x)",
        h.avg_ipj_vs_original
    );
    println!(
        "avg speedup vs baseline       : {:>8.2}x   (paper: 2.4x)",
        h.avg_speedup_vs_baseline
    );
    println!(
        "avg IPJ gain vs baseline      : {:>8.2}x   (paper: 2.1x)",
        h.avg_ipj_vs_baseline
    );
    println!(
        "peak speedup vs baseline      : {:>8.2}x   (paper: 3.0-3.5x)",
        h.peak_speedup_vs_baseline
    );
    println!(
        "peak IPJ gain vs original     : {:>8.1}x   (paper: up to 252x)",
        h.peak_ipj_vs_original
    );
    println!("aggregated over {} sweep points", h.points);
}
