//! The htnoc benchmark: end-to-end host-time metrics of four workloads,
//! a per-layer split from a separate traced run, and an exact check of
//! every operation's simulated output.
//!
//! ```text
//! perfbench --workload <paper_grid|flood_8x8|drain_bursty|campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record
//! ```
//!
//! A run first runs one pass at the default seed and one at the
//! held-out seed and compares each operation's digest with the table
//! `--record` wrote from this repository's code. Then it repeats timed
//! passes at its own seed until `--seconds` have gone by; every one must
//! reproduce the first one's digests. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `failed / attempted` is the failed-operations ratio.
//!
//! With `--trace 1`, passes alternate between untraced and traced. Traced
//! passes keep spans in memory (written to `.bench_out/` at the end) and
//! arm the engine's per-cycle phase timers; the per-layer numbers come
//! from them and the tracing overhead from the untraced ones between.

mod digest;
mod spans;
mod workloads;

use digest::{Expected, EXPECTED_FILE};
use noc_sim::telemetry::PHASE_LABELS;
use noc_sim::Sabotage;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{run_pass, tail_percentile, Ctx, Op, Pass, WORKLOADS};

/// The seed whose digests are recorded for every workload.
const DEFAULT_SEED: u64 = 1;
/// A second recorded seed, never used while the workloads were tuned.
const HELD_OUT_SEED: u64 = 914_001;

const USAGE: &str = "usage: perfbench --workload <paper_grid|flood_8x8|drain_bursty|campaign> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record";

struct Plan<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Passes to run whatever the clock says.
    min_passes: usize,
    /// Recorded seeds to check before the timed passes.
    anchors: &'a [u64],
    sabotage: Option<Sabotage>,
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        record();
        return;
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--workload", Some(v)) if WORKLOADS.contains(&v) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let tmp = scratch_dir();
    let plan = Plan {
        workload: &workload,
        seed,
        seconds,
        trace,
        min_passes: if trace { 4 } else { 3 },
        anchors: &[DEFAULT_SEED, HELD_OUT_SEED],
        sabotage: None,
    };
    let out = bench(&plan, &tmp, &Expected::embedded());
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = tmp.parent().map(std::fs::remove_dir);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// A per-process scratch directory inside the working directory (the
/// checkout the benchmark runs from).
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    dir
}

/// Count the failed operations of one pass: failed checks, and digests
/// that differ from `reference` (which the first pass of a seed sets
/// when nothing was recorded for it).
fn judge(label: &str, ops: &[Op], reference: &mut Option<Vec<u64>>) -> u64 {
    let digests: Vec<u64> = ops.iter().map(|o| o.digest).collect();
    let reference = reference.get_or_insert_with(|| digests.clone());
    if reference.len() != ops.len() {
        eprintln!(
            "{label}: {} operations, {} recorded",
            ops.len(),
            reference.len()
        );
    }
    let mut failed = 0;
    for (i, op) in ops.iter().enumerate() {
        let mut problems = op.problems.clone();
        if reference.get(i) != Some(&op.digest) {
            problems.push(format!(
                "digest {:016x} differs from the recorded one",
                op.digest
            ));
        }
        if !problems.is_empty() {
            if failed < 5 {
                eprintln!("{label}: op {i} failed: {}", problems.join("; "));
            }
            failed += 1;
        }
    }
    failed
}

/// Run one pass; a panic that escapes the workload counts as one failed
/// operation.
fn guarded_pass(plan: &Plan, seed: u64, ctx: &Ctx) -> Result<Pass, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_pass(plan.workload, seed, ctx)
    }))
    .map_err(|_| format!("{} pass at seed {seed} panicked", plan.workload))
}

fn bench(plan: &Plan, tmp: &Path, expected: &Expected) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let mut run = |seed: u64, traced: bool, label: &str, reference: &mut Option<Vec<u64>>| {
        let ctx = Ctx {
            traced,
            tmp,
            sabotage: plan.sabotage,
        };
        match guarded_pass(plan, seed, &ctx) {
            Ok(pass) => {
                attempted += pass.ops.len() as u64;
                failed += judge(label, &pass.ops, reference);
                Some(pass)
            }
            Err(e) => {
                eprintln!("{e}");
                attempted += 1;
                failed += 1;
                None
            }
        }
    };
    // The recorded seeds go first: besides checking the outputs, their
    // passes let caches fill and lazy set-up finish before any timing.
    for &seed in plan.anchors {
        let label = format!("{} (recorded seed {seed})", plan.workload);
        let mut recorded = Some(expected.get(plan.workload, seed).unwrap_or(&[]).to_vec());
        run(seed, false, &label, &mut recorded);
    }
    let mut reference = expected.get(plan.workload, plan.seed).map(<[u64]>::to_vec);
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let start = Instant::now();
    while passes.len() < plan.min_passes || start.elapsed().as_secs_f64() < plan.seconds {
        let traced = plan.trace && passes.len() % 2 == 1;
        match run(plan.seed, traced, plan.workload, &mut reference) {
            Some(pass) => passes.push((pass, traced)),
            None => break,
        }
    }
    let rss_kb = peak_rss_kb();
    let metrics = if plan.trace {
        write_spans(plan, &passes);
        per_layer(&passes)
    } else {
        end_to_end(plan.workload, &passes, rss_kb)
    };
    eprintln!(
        "{}: {} passes, {attempted} operations attempted, {failed} failed \
         (failed_ops_ratio {})",
        plan.workload,
        passes.len(),
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The workload's tail percentile (nearest rank), as (percentile,
/// value). It is fixed per workload, so that the metric means the same
/// in every run; a run with fewer than ten operations beyond it says so.
fn tail(workload: &str, sorted: &[f64]) -> (f64, f64) {
    let p = tail_percentile(workload);
    let n = sorted.len();
    if (n as f64 * (1.0 - p / 100.0)) < 10.0 {
        eprintln!("{workload}: fewer than ten of {n} operations lie beyond p{p}");
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    (p, sorted.get(rank - 1).copied().unwrap_or(0.0))
}

fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn end_to_end(
    workload: &str,
    passes: &[(Pass, bool)],
    rss_kb: f64,
) -> Vec<(String, f64, &'static str)> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(|(p, _)| f(p)).collect());
    let mut op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|(p, _)| p.ops.iter().map(|o| o.ms))
        .collect();
    op_ms.sort_by(f64::total_cmp);
    let (p, tail_ms) = tail(workload, &op_ms);
    eprintln!("op_ms_tail is p{p} over {} operations", op_ms.len());
    let sum = |p: &Pass, f: fn(&Op) -> u64| p.ops.iter().map(f).sum::<u64>() as f64;
    vec![
        ("wall_s".into(), per_pass(&|p| p.wall_s), "s"),
        ("setup_s".into(), per_pass(&|p| p.setup_s), "s"),
        (
            "sim_cycles_per_s".into(),
            per_pass(&|p| sum(p, |o| o.cycles) / p.ops_s),
            "1/s",
        ),
        (
            "flit_hops_per_s".into(),
            per_pass(&|p| sum(p, |o| o.flit_hops) / p.hops_s),
            "1/s",
        ),
        ("op_ms_p50".into(), median(op_ms.clone()), "ms"),
        ("op_ms_tail".into(), tail_ms, "ms"),
        ("peak_rss_kb".into(), rss_kb, "kB"),
    ]
}

/// Each layer's self-time metric and the span names it sums.
const LAYERS: [(&str, &[&str]); 12] = [
    ("noc.step.self_s", &["noc.step"]),
    ("noc.skip.self_s", &["noc.skip"]),
    ("noc.quiesce.self_s", &["noc.quiesce"]),
    (
        "noc.snapshot.self_s",
        &["noc.snapshot.ser", "noc.snapshot.deser"],
    ),
    ("noc.sim_new.self_s", &["noc.sim_new"]),
    ("noc.telemetry_out.self_s", &["noc.telemetry_out"]),
    ("core.scenario.build_s", &["core.scenario.build"]),
    ("core.sweep.self_s", &["core.sweep"]),
    ("core.campaign.self_s", &["core.campaign"]),
    ("traffic.generate_s", &["traffic.generate"]),
    ("bench.self_s", &["bench.setup", "bench.op"]),
    ("bench.check.self_s", &["bench.check"]),
];

/// The per-layer metrics of one traced pass.
fn layer_metrics(pass: &Pass) -> Vec<(String, f64, &'static str)> {
    let l = &pass.layers;
    let self_s = pass.spans.self_s();
    let layer_s = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| self_s.get(n))
            .fold(0.0, |a, b| a + b)
    };
    let step_s = layer_s(&["noc.step"]);
    let share = |ns: u64| {
        if step_s > 0.0 {
            ns as f64 * 1e-9 / step_s * 100.0
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    for (metric, names) in LAYERS {
        m.push((metric.to_string(), layer_s(names), "s"));
    }
    let step_calls = pass.spans.calls("noc.step") as f64;
    m.push((
        "noc.step.ns_per_cycle".into(),
        ratio(step_s * 1e9, step_calls),
        "ns",
    ));
    for (label, ns) in PHASE_LABELS.iter().zip(l.phase_ns) {
        m.push((format!("noc.phase.{label}.share_pct"), share(ns), "%"));
    }
    let phases: u64 = l.phase_ns.iter().sum();
    let unattributed = if step_s > 0.0 {
        100.0 - share(phases)
    } else {
        0.0
    };
    m.push(("noc.phase.unattributed.share_pct".into(), unattributed, "%"));
    let skip_calls = pass.spans.calls("noc.skip") as f64;
    m.push(("noc.skip.calls".into(), skip_calls, "count"));
    m.push((
        "noc.skip.cycles_skipped".into(),
        l.cycles_skipped as f64,
        "count",
    ));
    m.push((
        "noc.skip.hit_ratio".into(),
        ratio(l.skip_hits as f64, skip_calls),
        "ratio",
    ));
    let snap = |f: fn(&(f64, f64, usize)) -> f64| median(l.snapshots.iter().map(f).collect());
    m.push(("noc.snapshot.ser_us".into(), snap(|s| s.0), "us"));
    m.push(("noc.snapshot.deser_us".into(), snap(|s| s.1), "us"));
    m.push(("noc.snapshot.bytes".into(), snap(|s| s.2 as f64), "bytes"));
    let opt = |v: Option<f64>| v.unwrap_or(0.0);
    m.push((
        "core.checkpoint.overhead_pct".into(),
        opt(l.ckpt_overhead_pct),
        "%",
    ));
    m.push((
        "noc.telemetry.overhead_pct".into(),
        opt(l.telemetry_overhead_pct),
        "%",
    ));
    m.push((
        "core.sweep.worker_busy_pct".into(),
        opt(l.sweep_busy_pct),
        "%",
    ));
    m.push((
        "core.sweep.imbalance".into(),
        opt(l.sweep_imbalance),
        "ratio",
    ));
    m.push(("traffic.packets".into(), l.packets as f64, "count"));
    m.push(("ecc.corrected".into(), l.ecc_corrected as f64, "count"));
    m.push((
        "ecc.uncorrectable".into(),
        l.ecc_uncorrectable as f64,
        "count",
    ));
    m.push(("mitigation.bist_scans".into(), l.bist_scans as f64, "count"));
    m.push((
        "mitigation.quarantined_links".into(),
        l.quarantined_links as f64,
        "count",
    ));
    m.push((
        "mitigation.budget_escalations".into(),
        l.budget_escalations as f64,
        "count",
    ));
    let retx = ratio(l.retransmissions as f64, l.delivered_flits as f64);
    m.push(("noc.retx.per_delivered_flit".into(), retx, "ratio"));
    m.push((
        "noc.backlog.queued_flits_max".into(),
        l.backlog_max as f64,
        "flits",
    ));
    // Coverage of the measured time: output checks and the pass loop
    // around them are not part of `wall_s`.
    let measured = self_s.values().sum::<f64>() - layer_s(&["bench.pass", "bench.check"]);
    let covered = measured - layer_s(&["bench.setup", "bench.op"]);
    m.push((
        "bench.trace.coverage_pct".into(),
        ratio(covered, measured) * 100.0,
        "%",
    ));
    m
}

fn per_layer(passes: &[(Pass, bool)]) -> Vec<(String, f64, &'static str)> {
    let wall = |traced: bool| {
        median(
            passes
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(p, _)| p.wall_s)
                .collect(),
        )
    };
    let traced: Vec<_> = passes
        .iter()
        .filter(|(_, t)| *t)
        .map(|(p, _)| layer_metrics(p))
        .collect();
    let mut values: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for metrics in &traced {
        for (i, (_, v, _)) in metrics.iter().enumerate() {
            values.entry(i).or_default().push(*v);
        }
    }
    let mut out: Vec<(String, f64, &'static str)> = match traced.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, (name, _, unit))| (name.clone(), median(values[&i].clone()), *unit))
            .collect(),
        None => Vec::new(),
    };
    let overhead = (wall(true) / wall(false) - 1.0) * 100.0;
    out.push(("bench.trace.overhead_pct".into(), overhead, "%"));
    out
}

/// Write every traced pass's spans, one JSON object per line.
fn write_spans(plan: &Plan, passes: &[(Pass, bool)]) {
    let mut text = String::new();
    for (i, (pass, _)) in passes.iter().enumerate().filter(|(_, (_, t))| *t) {
        pass.spans.to_json_lines(i, &mut text);
    }
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", plan.workload, plan.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Record the per-operation digests of the default and the held-out
/// seed for every workload, after checking that two passes agree and
/// that every operation passes its other checks.
fn record() {
    let tmp = scratch_dir();
    let mut entries = Vec::new();
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let ctx = Ctx {
                traced: false,
                tmp: &tmp,
                sabotage: None,
            };
            let digests = |pass: &Pass| -> Vec<u64> {
                for (i, op) in pass.ops.iter().enumerate() {
                    assert!(
                        op.problems.is_empty(),
                        "{workload} seed {seed} op {i}: {:?}",
                        op.problems
                    );
                }
                pass.ops.iter().map(|o| o.digest).collect()
            };
            let first = digests(&run_pass(workload, seed, &ctx));
            let again = digests(&run_pass(workload, seed, &ctx));
            assert_eq!(first, again, "{workload} seed {seed} is not deterministic");
            eprintln!("{workload} seed {seed}: {} operations", first.len());
            entries.push((workload, seed, first));
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = tmp.parent().map(std::fs::remove_dir);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED_FILE);
    std::fs::write(&path, Expected::render(&entries)).expect("the benchmark directory is writable");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(sabotage: Option<Sabotage>) -> Plan<'static> {
        Plan {
            workload: "drain_bursty",
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            min_passes: 1,
            anchors: &[],
            sabotage,
        }
    }

    fn run(plan: &Plan, expected: &Expected) -> Outcome {
        let tmp = scratch_dir();
        let out = bench(plan, &tmp, expected);
        let _ = std::fs::remove_dir_all(&tmp);
        out
    }

    #[test]
    fn the_correct_build_fails_no_operation() {
        let out = run(&plan(None), &Expected::embedded());
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "failed_ops_ratio must be 0");
    }

    #[test]
    fn a_wrong_expected_digest_fails_its_operation() {
        let mut text = String::from(include_str!("../expected_digests.txt"));
        let line = text
            .lines()
            .find(|l| l.starts_with("drain_bursty 1 7 "))
            .expect("op 7 of drain_bursty is recorded")
            .to_string();
        let digest = u64::from_str_radix(line.rsplit(' ').next().unwrap(), 16).unwrap();
        text = text.replace(&line, &format!("drain_bursty 1 7 {:016x}", digest ^ 1));
        let out = run(&plan(None), &Expected::parse(&text));
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn a_broken_invariant_fails_operations() {
        // Nothing recorded: the first pass sets the reference digests, so
        // only the invariant and conservation checks can fail an op.
        let out = run(
            &plan(Some(Sabotage::LeakCredit { every: 3 })),
            &Expected::parse(""),
        );
        assert!(out.failed > 0);
    }

    #[test]
    fn tail_is_the_workloads_percentile() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail("drain_bursty", &v), (99.0, 1980.0));
        assert_eq!(tail("flood_8x8", &v[..200]), (90.0, 180.0));
    }
}
