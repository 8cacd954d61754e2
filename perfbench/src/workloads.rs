//! The benchmark's four workloads.
//!
//! Each workload is a sequence of *passes*. A pass builds its inputs
//! from the seed (timed as `setup_s`), then runs a fixed list of
//! operations (each timed on its own). Every pass of one run gets the
//! same seed, so every pass must produce the same per-operation digests.
//! All simulators run the sequential engine (`SimConfig::threads =
//! None` or `Some(1)`, the same code path); only `paper_grid` uses a
//! second host thread, through `htnoc_core::sweep::par_map`.
//!
//! # Why each workload, and which layer metric should move which
//! # end-to-end metric on it
//!
//! * `paper_grid` — the Fig. 10/12 grid: `AppSpec::all()` × infected
//!   fractions {0, 5, 10, 15 %} × {S2sLob, Reroute, Unprotected} × two
//!   seeds, each cell built with `Scenario::try_build_sim` and run on the
//!   `run_scenario` schedule, fanned out over ≤ 2 `par_map` workers.
//!   Unprotected cells stop at 6 000 cycles so that the never-draining
//!   DoS cells do not dominate host time. This is the paper's own
//!   traffic; it is the only workload where the mitigation plane
//!   (detector, L-Ob, BIST), the up*/down* reroute table build and
//!   `sweep` all do real work, at moderate router load.
//!   - `noc.step.*` → `flit_hops_per_s`;
//!   - `core.scenario.build_s` (reroute tables included) → `setup_s`;
//!   - `core.sweep.worker_busy_pct`, `core.sweep.imbalance` → `wall_s`.
//!
//!   The workers also run each cell's output checks, which cannot leave
//!   the worker with its simulator; the operations' host time is the
//!   busiest worker's summed operation time, so the checks stay out of
//!   the end-to-end figures here as everywhere else.
//! * `flood_8x8` — the saturated, unprotected 8×8 TASP hotspot flood
//!   (the DoS regime), fast-forward on, 100 000 cycles per pass in
//!   5 000-cycle operations. Router allocation dominates and the skip
//!   probe must reject every cycle.
//!   - `noc.step.*`, `noc.phase.switch_alloc|va_rc.share_pct` →
//!     `flit_hops_per_s`;
//!   - `noc.phase.unattributed.share_pct` (injection, effect commit,
//!     snapshot recording, quarantine) → `wall_s`;
//!   - `noc.skip.*` → predicted flat: a skip change must not move it.
//!
//!   Checkpointing stays out of this workload on purpose. The open-loop
//!   backlog (about 150 000 packets injected against 50 000 delivered
//!   over 200 000 cycles) would be serialized by every checkpoint; a
//!   probe that checkpointed every 2 000 cycles spent 7.9 s in snapshot
//!   round trips against 3.2 s of stepping, so it would measure the
//!   codec and not the router. `campaign` measures the codec.
//! * `drain_bursty` — the 4×4 paper configuration with mitigation on,
//!   replaying blackscholes bursts of 400 cycles, each followed by a
//!   20 000-cycle idle gap; one operation is one burst plus its gap, one
//!   pass 200 bursts. Each burst is captured with `Trace::capture` just
//!   before the operation that replays it through `Replay`, and the
//!   captures count as set-up. Captured all at once, the set-up was one
//!   40 ms block, short enough to fall wholly in one of the host's fast
//!   or slow phases (which last seconds), and its median over a run's
//!   passes jumped between the two from run to run (spread 0.26–0.38
//!   over ten seeds). About 98 % of simulated cycles are skipped, so
//!   `sim_cycles_per_s` here depends on `skip_idle_cycles` working:
//!   without it the idle cycles would cost a step each. The host time
//!   left goes to the busy 2 %, where every cycle also pays a rejected
//!   skip probe.
//!   - `noc.skip.*` → `sim_cycles_per_s`;
//!   - `traffic.generate_s`, `traffic.packets` → `setup_s`.
//! * `campaign` — the resilience campaign of `core::campaign`, one
//!   scenario per operation: the six `run_campaign` scenarios, a
//!   snapshot round trip of the flood's final state, the checkpointed
//!   flood halted at a checkpoint and resumed from the newest one, and
//!   the two `*_telemetry_streamed` scenarios. It is the only workload
//!   that writes (snapshot encode, atomic write, restore, Prometheus and
//!   heartbeat export) and the only one that exercises the watchdog,
//!   quarantine and purge.
//!   - `noc.snapshot.*`, `core.checkpoint.overhead_pct` → `wall_s`;
//!   - `noc.telemetry.overhead_pct` → `wall_s`.
//!
//!   Only three of its operations return their simulator (the plain
//!   flood and the two streamed scenarios), so its `flit_hops_per_s`
//!   divides their link flit traversals by their host time alone. Its
//!   `setup_s` times opening the two telemetry outputs and building the
//!   simulator the snapshot round trip restores into; removing the
//!   previous pass's files comes before it, untimed.
//!
//! A layer a workload never calls reads 0 in its traced run: the
//! campaign steps its simulators inside `core::campaign`, so it has no
//! `noc.step`, skip or phase figures, and `paper_grid` takes no
//! snapshots. Traced passes of `flood_8x8` and `drain_bursty` end with
//! one snapshot round trip of the final state, outside the operations.
//!
//! The modelled-design counts (`ecc.*`, `mitigation.*`,
//! `noc.retx.per_delivered_flit`, `noc.backlog.queued_flits_max`)
//! explain throughput differences between workloads and must not move
//! under a change that only makes the simulator faster.
//!
//! Left out: the 500-seed conformance sweep (0.36 s in total, nothing to
//! optimise) and the 16×16/32×32 thread-scaling rows, which the
//! repository's `cycles_per_sec` harness keeps.

use crate::digest::Digest;
use crate::spans::{CallAgg, Spans};
use htnoc_core::campaign::{self, CheckpointOpts};
use htnoc_core::sweep::par_map;
use htnoc_core::{Scenario, ScenarioReport, Strategy};
use noc_sim::routing::xy_direction;
use noc_sim::telemetry::PHASE_COUNT;
use noc_sim::{
    Checkpointer, LinkFaults, Sabotage, SimConfig, SimEvent, SimSnapshot, SimStats, Simulator,
    TelemetryConfig, TelemetryOut, TrafficSource,
};
use noc_traffic::{AppModel, AppSpec, Pattern, Replay, SyntheticTraffic, Trace};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{Mesh, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["paper_grid", "flood_8x8", "drain_bursty", "campaign"];

/// `op_ms_tail`'s percentile: the highest of p99 and p90 with at least
/// ten operations beyond it in a run, at the operation counts a run
/// makes (about 2 100 for the grid, 5 000 for the drain and 350 for the
/// flood in 25 s). Fixed per workload because a run on a slow host
/// makes fewer operations, and a percentile that followed the count
/// would change meaning between runs. The campaign's operations are
/// eleven different scenarios; its p90 fell on the boundary between the
/// slowest (the telemetry-streamed flood, one in eleven) and the next,
/// and jumped between them from run to run, so it reports p80.
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "paper_grid" | "drain_bursty" => 99.0,
        "campaign" => 80.0,
        _ => 90.0,
    }
}

/// At most this many host threads carry the load (the benchmark host
/// has two cores).
const MAX_WORKERS: usize = 2;

const GRID_SEEDS: u64 = 2;
const GRID_FRACTIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.15];
const GRID_UNPROTECTED_CAP: u64 = 6_000;

const FLOOD_DIM: u8 = 8;
const FLOOD_CYCLES: u64 = 100_000;
/// Long enough that one operation spans the host's sub-second speed
/// swings: with 2 000-cycle chunks the per-operation times split into a
/// fast and a slow cluster and their median jumped between them.
const FLOOD_CHUNK: u64 = 5_000;

const DRAIN_BURSTS: u64 = 200;
const DRAIN_BUSY: u64 = 400;
const DRAIN_GAP: u64 = 20_000;

/// The checkpoint cadence and the telemetry interval are the `campaign`
/// binary's defaults; the halt lands on a checkpoint, after the first
/// watchdog quarantine.
const CKPT_EVERY: u64 = 500;
const CKPT_HALT_AT: u64 = 1_500;
const TELEMETRY_EVERY: u64 = 100;

/// What a pass needs besides its seed.
pub struct Ctx<'a> {
    /// Record spans and arm per-cycle phase profiling.
    pub traced: bool,
    /// Scratch directory inside the checkout.
    pub tmp: &'a Path,
    /// A deliberate defect to plant in the simulator `drain_bursty`
    /// builds (the self-test of the output checks).
    pub sabotage: Option<Sabotage>,
}

/// One operation: its host time and its checked simulated output.
#[derive(Debug, Clone, Default)]
pub struct Op {
    pub ms: f64,
    pub digest: u64,
    /// Simulated cycles the operation advanced, skipped ones included.
    pub cycles: u64,
    /// Link flit traversals, where the operation exposes its simulator
    /// (0 for the campaign operations that do not).
    pub flit_hops: u64,
    /// Failed checks; empty when the output is correct.
    pub problems: Vec<String>,
}

impl Op {
    fn failed(ms: f64, why: String) -> Self {
        Op {
            ms,
            problems: vec![why],
            ..Op::default()
        }
    }
}

/// Counts and samples of one pass that spans do not carry.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Engine phase time from the telemetry plane (traced passes).
    pub phase_ns: [u64; PHASE_COUNT],
    pub cycles_skipped: u64,
    /// Skip probes that fast-forwarded at least one cycle.
    pub skip_hits: u64,
    /// Snapshot round trips: (serialize µs, decode + restore µs, bytes).
    pub snapshots: Vec<(f64, f64, usize)>,
    pub packets: u64,
    pub ecc_corrected: u64,
    pub ecc_uncorrectable: u64,
    pub bist_scans: u64,
    pub quarantined_links: u64,
    pub budget_escalations: u64,
    pub retransmissions: u64,
    pub delivered_flits: u64,
    pub backlog_max: u64,
    pub ckpt_overhead_pct: Option<f64>,
    pub telemetry_overhead_pct: Option<f64>,
    pub sweep_busy_pct: Option<f64>,
    pub sweep_imbalance: Option<f64>,
}

impl Layers {
    fn count(&mut self, s: &SimStats) {
        self.ecc_corrected += s.corrected_faults;
        self.ecc_uncorrectable += s.uncorrectable_faults;
        self.bist_scans += s.bist_scans;
        self.quarantined_links += s.quarantined_links;
        self.budget_escalations += s.budget_escalations;
        self.retransmissions += s.retransmissions;
        self.delivered_flits += s.delivered_flits;
        self.packets += s.injected_packets;
        let peak = s.snapshots.iter().map(|x| x.injection_util as u64).max();
        self.backlog_max = self.backlog_max.max(peak.unwrap_or(0));
    }

    /// Add another pass share's counts (the grid's cells).
    fn absorb(&mut self, o: &Layers) {
        for (a, b) in self.phase_ns.iter_mut().zip(o.phase_ns) {
            *a += b;
        }
        self.cycles_skipped += o.cycles_skipped;
        self.skip_hits += o.skip_hits;
        self.packets += o.packets;
        self.ecc_corrected += o.ecc_corrected;
        self.ecc_uncorrectable += o.ecc_uncorrectable;
        self.bist_scans += o.bist_scans;
        self.quarantined_links += o.quarantined_links;
        self.budget_escalations += o.budget_escalations;
        self.retransmissions += o.retransmissions;
        self.delivered_flits += o.delivered_flits;
        self.backlog_max = self.backlog_max.max(o.backlog_max);
    }

    fn telemetry(&mut self, sim: &Simulator) {
        if let Some(t) = sim.telemetry() {
            for (acc, ns) in self.phase_ns.iter_mut().zip(t.phase_total_ns()) {
                *acc += ns;
            }
        }
    }
}

pub struct Pass {
    /// Host time of the pass without its output checks.
    pub wall_s: f64,
    /// Host time building the pass's scenarios, simulators and traffic.
    pub setup_s: f64,
    /// Host time of the operations: their sum, or the busiest worker's
    /// share where they run in parallel.
    pub ops_s: f64,
    /// Host time of the operations that report `flit_hops`.
    pub hops_s: f64,
    pub ops: Vec<Op>,
    pub spans: Spans,
    pub layers: Layers,
}

/// splitmix64: derives every input seed of a pass from the run's seed.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run_pass(workload: &str, seed: u64, ctx: &Ctx) -> Pass {
    match workload {
        "paper_grid" => paper_grid(seed, ctx),
        "flood_8x8" => flood_8x8(seed, ctx),
        "drain_bursty" => drain_bursty(seed, ctx),
        "campaign" => campaign_pass(seed, ctx),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Per-cycle phase profiling for traced passes.
fn profiling() -> TelemetryConfig {
    TelemetryConfig {
        profile_every: 1,
        timeline_every: 0,
        ..TelemetryConfig::default()
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Per-cycle call sites of one operation.
#[derive(Default)]
struct Calls {
    step: CallAgg,
    skip: CallAgg,
    quiesce: CallAgg,
}

impl Calls {
    fn push(&self, spans: &mut Spans, op: u32, parent: usize) {
        spans.push_agg("noc.step", Some(op), parent, &self.step);
        spans.push_agg("noc.skip", Some(op), parent, &self.skip);
        spans.push_agg("noc.quiesce", Some(op), parent, &self.quiesce);
    }
}

/// Latest `PacketDelivered` cycle among `events`.
fn last_delivery(events: &[SimEvent]) -> Option<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            SimEvent::PacketDelivered { delivered_at, .. } => Some(*delivered_at),
            _ => None,
        })
        .max()
}

/// One step plus the event drain, as a harness that drains every cycle
/// runs it.
fn step(
    sim: &mut Simulator,
    src: &mut dyn TrafficSource,
    calls: &mut Calls,
    on: bool,
    events: &mut Vec<SimEvent>,
    completion: &mut Option<u64>,
) {
    calls.step.time(on, || {
        sim.step(src);
        sim.drain_events_into(events);
    });
    *completion = (*completion).max(last_delivery(events));
    events.clear();
}

/// Advance to cycle `until`, fast-forwarding provably idle windows
/// (what `Simulator::run` does, with the event drain of `step`).
#[allow(clippy::too_many_arguments)]
fn drive(
    sim: &mut Simulator,
    src: &mut dyn TrafficSource,
    until: u64,
    calls: &mut Calls,
    on: bool,
    events: &mut Vec<SimEvent>,
    completion: &mut Option<u64>,
    layers: &mut Layers,
) {
    while sim.cycle() < until {
        let limit = until - sim.cycle();
        let skipped = calls.skip.time(on, || sim.skip_idle_cycles(limit, src));
        if skipped == 0 {
            step(sim, src, calls, on, events, completion);
        } else {
            layers.skip_hits += 1;
            layers.cycles_skipped += skipped;
        }
    }
}

fn check_invariants(sim: &Simulator, problems: &mut Vec<String>) {
    let v = sim.check_all_invariants();
    if !v.is_empty() {
        problems.push(format!(
            "{} invariant violation(s) at cycle {}: {:?}",
            v.len(),
            sim.cycle(),
            v.first()
        ));
    }
}

fn check_conserved(s: &SimStats, problems: &mut Vec<String>) {
    if !s.flits_conserved() || !s.packets_conserved() {
        problems.push(format!(
            "conservation broken: flits {}/{}+{} packets {}/{}+{}",
            s.injected_flits,
            s.delivered_flits,
            s.dropped_flits,
            s.injected_packets,
            s.delivered_packets,
            s.dropped_packets
        ));
    }
}

fn flit_hops(sim: &Simulator) -> u64 {
    sim.metrics().link_flits().iter().sum()
}

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

struct CellMeta {
    app: usize,
    frac: usize,
    seed: usize,
    infected: bool,
    strategy: Strategy,
    cap: u64,
}

/// How a cell ended.
#[derive(Clone, Copy, Default)]
struct CellEnd {
    drained: bool,
    completion: Option<u64>,
    /// The trojan corrupted at least one flit (an uncorrectable ECC
    /// event; the grid injects no other faults).
    fired: bool,
}

/// The paper's shape, per (app, seed): L-Ob cells drain, an Unprotected
/// cell whose trojan fired never does, and at 15 % infected L-Ob
/// completes no later than rerouting (`RunResult::completion_or_cap`).
///
/// The attacker avoids links next to the primary router that the
/// trojans hunt for, so at some seeds no target flit crosses an
/// infected link and an infected Unprotected cell drains untouched
/// (about 1 in 4 cells at 5 %, 1 in 60 at 15 %); the DoS claim is about
/// the cells where the trojan fired.
fn check_paper_shape(meta: &[CellMeta], ends: &[CellEnd], ops: &mut [Op]) {
    let done = |i: usize| match ends[i] {
        CellEnd {
            drained: true,
            completion: Some(c),
            ..
        } => c,
        _ => meta[i].cap,
    };
    for (i, m) in meta.iter().enumerate() {
        let CellEnd { drained, fired, .. } = ends[i];
        match m.strategy {
            Strategy::S2sLob if !drained => ops[i].problems.push("L-Ob cell did not drain".into()),
            Strategy::Unprotected if m.infected && fired && drained => ops[i]
                .problems
                .push("Unprotected cell drained after its trojan fired".into()),
            _ => {}
        }
        if m.strategy != Strategy::S2sLob || m.frac != GRID_FRACTIONS.len() - 1 {
            continue;
        }
        let reroute = meta.iter().position(|r| {
            r.app == m.app
                && r.frac == m.frac
                && r.seed == m.seed
                && r.strategy == Strategy::Reroute
        });
        if let Some(j) = reroute {
            if done(i) > done(j) {
                let why = format!(
                    "L-Ob completion {} > reroute completion {} at 15 %",
                    done(i),
                    done(j)
                );
                ops[i].problems.push(why.clone());
                ops[j].problems.push(why);
            }
        }
    }
}

struct CellRun {
    op: Op,
    thread: std::thread::ThreadId,
    spans: Spans,
    layers: Layers,
    end: CellEnd,
    /// Host time building the simulator and the traffic source.
    build_s: f64,
}

/// The Fig. 10 cell schedule; Unprotected cells stop at the DoS cap.
fn grid_scenario(
    app: AppSpec,
    strategy: Strategy,
    infected: Vec<noc_types::LinkId>,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::paper_default(app, strategy).with_infected(infected);
    sc.seed = seed;
    sc.warmup = 200;
    sc.inject_until = 1000;
    sc.max_cycles = if sc.strategy == Strategy::Unprotected {
        GRID_UNPROTECTED_CAP
    } else {
        40_000
    };
    sc.snapshot_interval = 50;
    sc
}

fn paper_grid(seed: u64, ctx: &Ctx) -> Pass {
    let mut spans = Spans::new(ctx.traced);
    let root = spans.begin("bench.pass", None, None);
    let t_setup = Instant::now();
    let setup = spans.begin("bench.setup", None, Some(root));
    let mut meta = Vec::new();
    let mut scenarios = Vec::new();
    let mut layers = Layers::default();
    for (a, app) in AppSpec::all().into_iter().enumerate() {
        for (f, &frac) in GRID_FRACTIONS.iter().enumerate() {
            for k in 0..GRID_SEEDS {
                let s = mix(seed, k);
                let infected = spans.time("traffic.generate", None, Some(setup), || {
                    noc_bench::fig10::infected_for(&app, frac, s)
                });
                for strategy in [Strategy::S2sLob, Strategy::Reroute, Strategy::Unprotected] {
                    let sc = grid_scenario(app.clone(), strategy.clone(), infected.clone(), s);
                    meta.push(CellMeta {
                        app: a,
                        frac: f,
                        seed: k as usize,
                        infected: !infected.is_empty(),
                        strategy,
                        cap: sc.max_cycles,
                    });
                    scenarios.push(sc);
                }
            }
        }
    }
    spans.end(setup);
    // The simulator is not `Send`, so each cell builds its own on the
    // worker that runs it; that build time is added to `setup_s` below.
    let main_setup_s = t_setup.elapsed().as_secs_f64();
    let mut setup_s = main_setup_s;

    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS);
    let sweep = spans.begin("core.sweep", None, Some(root));
    spans.set_threads(sweep, workers as u32);
    let traced = ctx.traced;
    let t_sweep = Instant::now();
    let runs = par_map(
        scenarios.into_iter().enumerate().collect(),
        Some(workers),
        |(i, sc)| run_cell(i as u32, sc, traced),
    );
    let sweep_s = t_sweep.elapsed().as_secs_f64();
    spans.end(sweep);

    // Worker load, from the operations' own timings. The workers also
    // run each cell's output checks (the simulator cannot leave its
    // thread), so the sweep's wall time includes them; the operations'
    // host time is instead the busiest worker's summed operation time,
    // which is what the sweep would take without the checks (`par_map`
    // hands out chunks on demand, so no worker waits for another).
    let mut busy: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for r in &runs {
        match busy.iter_mut().find(|(t, _)| *t == r.thread) {
            Some((_, b)) => *b += r.op.ms,
            None => busy.push((r.thread, r.op.ms)),
        }
    }
    let total: f64 = busy.iter().map(|(_, b)| b).sum();
    let max = busy.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    let ops_s = max / 1e3;
    layers.sweep_busy_pct = Some(total / 1e3 / (workers as f64 * sweep_s) * 100.0);
    layers.sweep_imbalance = Some(max / (total / workers as f64));

    // Output checks, then the paper's shape across cells.
    let mut ops = Vec::with_capacity(runs.len());
    let mut ends = Vec::with_capacity(runs.len());
    for r in runs {
        spans.adopt(r.spans, sweep);
        setup_s += r.build_s;
        layers.absorb(&r.layers);
        ends.push(r.end);
        ops.push(r.op);
    }
    check_paper_shape(&meta, &ends, &mut ops);
    spans.end(root);
    Pass {
        wall_s: main_setup_s + ops_s,
        setup_s,
        ops_s,
        hops_s: ops_s,
        ops,
        spans,
        layers,
    }
}

fn run_cell(i: u32, sc: Scenario, traced: bool) -> CellRun {
    let mut spans = Spans::new(traced);
    let op_span = spans.begin("bench.op", Some(i), None);
    let mut calls = Calls::default();
    let mut layers = Layers::default();
    let mut build_s = 0.0;
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sim = spans.time("core.scenario.build", Some(i), Some(op_span), || {
            sc.try_build_sim()
        });
        let mut sim = sim.map_err(|e| e.to_string())?;
        let mut traffic = spans.time("traffic.generate", Some(i), Some(op_span), || {
            sc.build_traffic(sim.mesh())
        });
        build_s = t0.elapsed().as_secs_f64();
        if traced {
            sim.set_telemetry(profiling());
        }
        let mut events = Vec::new();
        let mut completion = None;
        // The `run_scenario` schedule: warm-up (fast-forwarded like
        // `Simulator::run`), kill switch, then step until drained or
        // capped.
        drive(
            &mut sim,
            &mut *traffic,
            sc.warmup,
            &mut calls,
            traced,
            &mut events,
            &mut completion,
            &mut layers,
        );
        sim.arm_trojans(true);
        while sim.cycle() < sc.max_cycles {
            step(
                &mut sim,
                &mut *traffic,
                &mut calls,
                traced,
                &mut events,
                &mut completion,
            );
            let done = traffic.done() && calls.quiesce.time(traced, || sim.is_quiescent());
            if done {
                break;
            }
        }
        let drained = sim.is_quiescent();
        Ok::<_, String>((sim, drained, completion))
    }));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    calls.push(&mut spans, i, op_span);
    spans.end(op_span);
    let thread = std::thread::current().id();
    // Output checks run here, after the timed operation, because the
    // simulator cannot leave its worker thread.
    let check = spans.begin("bench.check", Some(i), None);
    let (op, end) = match result {
        Ok(Ok((sim, drained, completion))) => {
            let mut op = Op {
                ms,
                cycles: sim.cycle(),
                flit_hops: flit_hops(&sim),
                ..Op::default()
            };
            check_invariants(&sim, &mut op.problems);
            if drained {
                check_conserved(sim.stats(), &mut op.problems);
            }
            let mut d = Digest::default();
            d.sim(&sim);
            d.u64(u64::from(drained));
            d.u64(completion.unwrap_or(u64::MAX));
            op.digest = d.value();
            layers.count(sim.stats());
            layers.telemetry(&sim);
            let fired = sim.stats().uncorrectable_faults > 0;
            let end = CellEnd {
                drained,
                completion,
                fired,
            };
            (op, end)
        }
        Ok(Err(e)) => (Op::failed(ms, format!("cell {i}: {e}")), CellEnd::default()),
        Err(p) => {
            let why = format!("cell {i} panicked: {}", panic_text(p));
            (Op::failed(ms, why), CellEnd::default())
        }
    };
    spans.end(check);
    CellRun {
        op,
        thread,
        spans,
        layers,
        end,
        build_s,
    }
}

// ---------------------------------------------------------------------
// flood_8x8
// ---------------------------------------------------------------------

/// The 8×8 trojan flood of `cycles_per_sec` (`scaling_trojan_flood_parts`
/// at one thread): a TASP comparator on the centre router's western
/// feeder link under an unmitigated hotspot flood.
fn flood_8x8(seed: u64, ctx: &Ctx) -> Pass {
    let mut spans = Spans::new(ctx.traced);
    let root = spans.begin("bench.pass", None, None);
    let t_setup = Instant::now();
    let setup = spans.begin("bench.setup", None, Some(root));
    let d = u16::from(FLOOD_DIM);
    let victim = NodeId((d / 2) * d + d / 2);
    let sim = spans.time("noc.sim_new", None, Some(setup), || {
        let mut cfg = SimConfig::paper_unprotected();
        cfg.mesh = Mesh::new(FLOOD_DIM, FLOOD_DIM, 1);
        cfg.snapshot_interval = 1_000;
        let mut sim = Simulator::new(cfg);
        let feeder = NodeId(victim.0 - 1);
        let dir = xy_direction(sim.mesh(), feeder, victim);
        let hot = sim
            .mesh()
            .link_out(feeder, dir)
            .expect("adjacent routers share a link");
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest((victim.0 & 0xF) as u8)));
        let healthy = LinkFaults::healthy(u64::from(hot.0));
        let faults = std::mem::replace(sim.link_faults_mut(hot), healthy);
        *sim.link_faults_mut(hot) = faults.with_trojan(ht);
        sim.arm_trojans(true);
        sim
    });
    let traffic = spans.time("traffic.generate", None, Some(setup), || {
        let mesh = sim.mesh().clone();
        SyntheticTraffic::new(mesh, Pattern::Hotspot(vec![victim]), 0.02, mix(seed, 0))
            .until(FLOOD_CYCLES * 3 / 5)
    });
    spans.end(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let ends = (1..=FLOOD_CYCLES / FLOOD_CHUNK).map(|i| i * FLOOD_CHUNK);
    chunked_pass(
        sim,
        traffic,
        |_, _, _| {},
        ends,
        ctx,
        spans,
        root,
        setup_s,
        |_, _| {},
    )
}

// ---------------------------------------------------------------------
// drain_bursty
// ---------------------------------------------------------------------

fn drain_bursty(seed: u64, ctx: &Ctx) -> Pass {
    let mut spans = Spans::new(ctx.traced);
    let root = spans.begin("bench.pass", None, None);
    let t_setup = Instant::now();
    let setup = spans.begin("bench.setup", None, Some(root));
    let sim = spans.time("noc.sim_new", None, Some(setup), || {
        let mut cfg = SimConfig::paper();
        // One statistics sample per 256 cycles: the per-cycle default
        // would make every skip replay 20 000 samples.
        cfg.snapshot_interval = 256;
        cfg.sabotage = ctx.sabotage;
        Simulator::new(cfg)
    });
    spans.end(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Each burst is captured just before the operation that replays it;
    // the capture counts as set-up.
    let period = DRAIN_BUSY + DRAIN_GAP;
    let mesh = Mesh::paper();
    let capture = |replay: &mut Replay, op: u32, spans: &mut Spans| {
        let b = u64::from(op);
        *replay = spans.time("traffic.generate", Some(op), Some(root), || {
            let mut model = AppModel::new(AppSpec::blackscholes(), mesh.clone(), mix(seed, b))
                .with_packet_id_offset(b << 32);
            let mut burst = Trace::capture(&mut model, DRAIN_BUSY);
            let off = b * period;
            for e in &mut burst.entries {
                e.cycle += off;
                e.packet.created_at += off;
            }
            burst.replay()
        });
    };
    let ends = (1..=DRAIN_BURSTS).map(|b| b * period);
    let drained = |sim: &Simulator, problems: &mut Vec<String>| {
        if !sim.is_quiescent() {
            problems.push(format!(
                "burst still holds {} flits at cycle {}",
                sim.resident_flits() + sim.queued_flits(),
                sim.cycle()
            ));
        }
        check_conserved(sim.stats(), problems);
    };
    let replay = Trace {
        entries: Vec::new(),
    }
    .replay();
    chunked_pass(
        sim, replay, capture, ends, ctx, spans, root, setup_s, drained,
    )
}

/// The operations of a pass over one long-running simulator: each ends
/// at the next cycle `ends` yields and is timed on its own. Before each,
/// `feed` may replace the traffic source (timed as set-up). After each,
/// outside the timing: `check`, the invariant audit and the digest
/// (state so far plus the operation's last delivery cycle).
#[allow(clippy::too_many_arguments)]
fn chunked_pass<S: TrafficSource>(
    mut sim: Simulator,
    mut src: S,
    mut feed: impl FnMut(&mut S, u32, &mut Spans),
    ends: impl Iterator<Item = u64>,
    ctx: &Ctx,
    mut spans: Spans,
    root: usize,
    mut setup_s: f64,
    check: impl Fn(&Simulator, &mut Vec<String>),
) -> Pass {
    if ctx.traced {
        sim.set_telemetry(profiling());
    }
    let mut layers = Layers::default();
    let mut ops = Vec::new();
    let mut events = Vec::new();
    let mut hops = 0;
    for (i, until) in (0u32..).zip(ends) {
        let t_feed = Instant::now();
        feed(&mut src, i, &mut spans);
        setup_s += t_feed.elapsed().as_secs_f64();
        let op_span = spans.begin("bench.op", Some(i), Some(root));
        let mut calls = Calls::default();
        let mut completion = None;
        let from = sim.cycle();
        let t0 = Instant::now();
        drive(
            &mut sim,
            &mut src,
            until,
            &mut calls,
            ctx.traced,
            &mut events,
            &mut completion,
            &mut layers,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        calls.push(&mut spans, i, op_span);
        spans.end(op_span);
        let now_hops = flit_hops(&sim);
        let mut op = Op {
            ms,
            cycles: sim.cycle() - from,
            flit_hops: now_hops - hops,
            ..Op::default()
        };
        hops = now_hops;
        let check_span = spans.begin("bench.check", Some(i), Some(root));
        check(&sim, &mut op.problems);
        check_invariants(&sim, &mut op.problems);
        let mut d = Digest::default();
        d.sim(&sim);
        d.u64(completion.unwrap_or(u64::MAX));
        op.digest = d.value();
        spans.end(check_span);
        ops.push(op);
    }
    layers.count(sim.stats());
    layers.backlog_max = layers.backlog_max.max(sim.queued_flits() as u64);
    layers.telemetry(&sim);
    if ctx.traced {
        snapshot_probe(&sim, &mut spans, root, &mut layers);
    }
    spans.end(root);
    let ops_s = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
    Pass {
        wall_s: setup_s + ops_s,
        setup_s,
        ops_s,
        hops_s: ops_s,
        ops,
        spans,
        layers,
    }
}

// ---------------------------------------------------------------------
// snapshot round trip
// ---------------------------------------------------------------------

/// A simulator with `sim`'s configuration to restore snapshots into.
/// Building it is simulator construction, not part of the decode.
fn restore_target(sim: &Simulator, spans: &mut Spans, parent: usize) -> Simulator {
    spans.time("noc.sim_new", None, Some(parent), || {
        Simulator::new(sim.config().clone())
    })
}

/// Encode `sim`, decode and restore it into `fresh`, and encode that
/// again: (first bytes, re-encoded bytes, ser µs, deser µs).
fn snapshot_round_trip(
    sim: &Simulator,
    mut fresh: Simulator,
    spans: &mut Spans,
    op: Option<u32>,
    parent: usize,
) -> Result<(Vec<u8>, Vec<u8>, f64, f64), String> {
    let t0 = Instant::now();
    let bytes = spans.time("noc.snapshot.ser", op, Some(parent), || {
        sim.snapshot().to_bytes()
    });
    let ser_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    spans.time("noc.snapshot.deser", op, Some(parent), || {
        let snap = SimSnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        fresh.restore(&snap).map_err(|e| e.to_string())
    })?;
    let deser_us = t1.elapsed().as_secs_f64() * 1e6;
    let again = fresh.snapshot().to_bytes();
    Ok((bytes, again, ser_us, deser_us))
}

/// The traced run's snapshot cost at the end state of a pass.
fn snapshot_probe(sim: &Simulator, spans: &mut Spans, parent: usize, layers: &mut Layers) {
    let fresh = restore_target(sim, spans, parent);
    if let Ok((bytes, _, ser_us, deser_us)) = snapshot_round_trip(sim, fresh, spans, None, parent) {
        layers.snapshots.push((ser_us, deser_us, bytes.len()));
    }
}

// ---------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------

/// Run one campaign operation: `f` is timed (and may record spans under
/// the operation's span), `check` inspects its output afterwards.
fn campaign_op<T>(
    ops: &mut Vec<Op>,
    spans: &mut Spans,
    root: usize,
    f: impl FnOnce(&mut Spans, u32, usize) -> T,
    check: impl FnOnce(&T, &mut Op),
) -> Option<T> {
    let id = ops.len() as u32;
    let op_span = spans.begin("bench.op", Some(id), Some(root));
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| f(&mut *spans, id, op_span)));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    spans.end(op_span);
    match r {
        Ok(out) => {
            let mut op = Op {
                ms,
                ..Op::default()
            };
            let check_span = spans.begin("bench.check", Some(id), Some(root));
            check(&out, &mut op);
            spans.end(check_span);
            ops.push(op);
            Some(out)
        }
        Err(p) => {
            ops.push(Op::failed(
                ms,
                format!("op {id} panicked: {}", panic_text(p)),
            ));
            None
        }
    }
}

fn report_digest(rep: &ScenarioReport) -> u64 {
    let mut d = Digest::default();
    d.report(rep);
    d.value()
}

/// Digest, cycles, hops and invariants of a scenario that returns its
/// simulator.
fn check_sim_report(rep: &ScenarioReport, sim: &Simulator, op: &mut Op) {
    let mut d = Digest::default();
    d.report(rep);
    d.sim(sim);
    op.digest = d.value();
    op.cycles = rep.cycles;
    op.flit_hops = flit_hops(sim);
    check_invariants(sim, &mut op.problems);
}

fn check_same_report(rep: &ScenarioReport, plain: Option<u64>, op: &mut Op) {
    if plain != Some(report_digest(rep)) {
        op.problems
            .push("report differs from the plain trojan_flood run".into());
    }
}

/// The exported Prometheus text must parse and be non-empty.
fn check_prometheus(dir: &Path, op: &mut Op) {
    let ok = std::fs::read_to_string(dir.join("metrics.prom"))
        .map_err(|e| e.to_string())
        .and_then(|t| noc_sim::parse_prometheus(&t))
        .is_ok_and(|samples| !samples.is_empty());
    if !ok {
        op.problems.push(format!(
            "{}/metrics.prom missing or malformed",
            dir.display()
        ));
    }
}

fn campaign_pass(seed: u64, ctx: &Ctx) -> Pass {
    let mut spans = Spans::new(ctx.traced);
    let root = spans.begin("bench.pass", None, None);
    // The previous pass's files go first, outside the set-up timing: the
    // resumed run must find the halted run's checkpoint as the newest.
    let dir = ctx.tmp.join("campaign");
    let ckpt_dir = dir.join("checkpoints");
    let (flood_dir, base_dir) = (dir.join("trojan_flood"), dir.join("baseline"));
    let _ = std::fs::remove_dir_all(&dir);
    let t_setup = Instant::now();
    let setup = spans.begin("bench.setup", None, Some(root));
    let (mut tel_flood, mut tel_base) = spans.time("noc.telemetry_out", None, Some(setup), || {
        let open = |d: &Path| {
            TelemetryOut::new(d, TELEMETRY_EVERY).expect("scratch directory is writable")
        };
        (open(&flood_dir), open(&base_dir))
    });
    spans.end(setup);
    let mut setup_s = t_setup.elapsed().as_secs_f64();

    let s = mix(seed, 0);
    let mut ops = Vec::new();
    let mut layers = Layers::default();
    // The `run_campaign` scenarios, on its seed offsets 0..5.
    let scenarios: [fn(u64) -> ScenarioReport; 5] = [
        campaign::transient_storm,
        campaign::stuck_at_burst,
        campaign::trojan_toggle,
        campaign::multi_trojan,
        campaign::link_death_revival,
    ];
    for (k, f) in (0u64..).zip(scenarios) {
        let run = |sp: &mut Spans, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || f(s.wrapping_add(k)))
        };
        let rep = campaign_op(&mut ops, &mut spans, root, run, |rep, op| {
            op.digest = report_digest(rep);
            op.cycles = rep.cycles;
        });
        if let Some(rep) = rep {
            layers.quarantined_links += rep.quarantined_links;
            layers.budget_escalations += rep.budget_escalations;
        }
    }

    let flood_seed = s.wrapping_add(5);
    let plain = campaign_op(
        &mut ops,
        &mut spans,
        root,
        |sp, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || {
                campaign::trojan_flood_threads(flood_seed, 1)
            })
        },
        |(rep, sim), op| check_sim_report(rep, sim, op),
    );
    let plain_ms = ops[ops.len() - 1].ms;
    let plain_digest = plain.as_ref().map(|(rep, _)| report_digest(rep));
    if let Some((_, sim)) = &plain {
        layers.count(sim.stats());
        let t_new = Instant::now();
        let fresh = restore_target(sim, &mut spans, root);
        setup_s += t_new.elapsed().as_secs_f64();
        campaign_op(
            &mut ops,
            &mut spans,
            root,
            |sp, id, p| snapshot_round_trip(sim, fresh, sp, Some(id), p),
            |r, op| match r {
                Ok((bytes, again, ser_us, deser_us)) => {
                    let mut d = Digest::default();
                    d.bytes(bytes);
                    op.digest = d.value();
                    if bytes != again {
                        op.problems
                            .push("re-encoding a restored snapshot changed its bytes".into());
                    }
                    layers.snapshots.push((*ser_us, *deser_us, bytes.len()));
                }
                Err(e) => op.problems.push(format!("snapshot round trip: {e}")),
            },
        );
    } else {
        ops.push(Op::failed(0.0, "no flood state to snapshot".into()));
    }

    // Checkpointed flood: crash at a checkpoint, resume from the newest.
    let mut opts = CheckpointOpts::new(&ckpt_dir, CKPT_EVERY);
    opts.halt_at = Some(CKPT_HALT_AT);
    campaign_op(
        &mut ops,
        &mut spans,
        root,
        |sp, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || {
                campaign::trojan_flood_checkpointed(flood_seed, &opts)
            })
        },
        |r, op| {
            op.cycles = CKPT_HALT_AT;
            if r.is_some() {
                op.problems.push("the halted run completed".into());
            }
            let newest = Checkpointer::new(&ckpt_dir, opts.keep).load_latest();
            match newest.map(|n| n.map(|(path, _)| std::fs::read(path))) {
                Ok(Some(Ok(bytes))) => {
                    let mut d = Digest::default();
                    d.bytes(&bytes);
                    op.digest = d.value();
                }
                _ => op.problems.push("no checkpoint to resume from".into()),
            }
        },
    );
    let halt_ms = ops[ops.len() - 1].ms;
    opts.halt_at = None;
    opts.resume = true;
    campaign_op(
        &mut ops,
        &mut spans,
        root,
        |sp, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || {
                campaign::trojan_flood_checkpointed(flood_seed, &opts)
            })
        },
        |r, op| match r {
            Some(rep) => {
                op.digest = report_digest(rep);
                op.cycles = rep.cycles - CKPT_HALT_AT;
                check_same_report(rep, plain_digest, op);
            }
            None => op.problems.push("the resumed run halted".into()),
        },
    );
    let resume_ms = ops[ops.len() - 1].ms;

    // Telemetry streamed to Prometheus text and heartbeats.
    campaign_op(
        &mut ops,
        &mut spans,
        root,
        |sp, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || {
                campaign::trojan_flood_telemetry_streamed(flood_seed, 1, &mut tel_flood)
            })
        },
        |r, op| match r {
            Ok((rep, sim)) => {
                check_sim_report(rep, sim, op);
                check_same_report(rep, plain_digest, op);
                check_prometheus(&flood_dir, op);
            }
            Err(e) => op.problems.push(format!("telemetry export: {e}")),
        },
    );
    let streamed_ms = ops[ops.len() - 1].ms;
    let base = campaign_op(
        &mut ops,
        &mut spans,
        root,
        |sp, id, p| {
            sp.time("core.campaign", Some(id), Some(p), || {
                campaign::baseline_telemetry_streamed(s.wrapping_add(6), 1, &mut tel_base)
            })
        },
        |r, op| match r {
            Ok((rep, sim)) => {
                check_sim_report(rep, sim, op);
                check_prometheus(&base_dir, op);
            }
            Err(e) => op.problems.push(format!("telemetry export: {e}")),
        },
    );
    if let Some(Ok((_, sim))) = &base {
        layers.count(sim.stats());
    }
    layers.ckpt_overhead_pct = Some((halt_ms + resume_ms - plain_ms) / plain_ms * 100.0);
    layers.telemetry_overhead_pct = Some((streamed_ms - plain_ms) / plain_ms * 100.0);
    spans.end(root);
    let ops_s = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
    let hops_s = ops
        .iter()
        .filter(|o| o.flit_hops > 0)
        .map(|o| o.ms)
        .sum::<f64>()
        / 1e3;
    Pass {
        wall_s: setup_s + ops_s,
        setup_s,
        ops_s,
        hops_s,
        ops,
        spans,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grid drives each cell itself (to time `step` apart from the
    /// rest); its outputs must be exactly those of `run_scenario`.
    #[test]
    fn grid_cells_match_run_scenario() {
        let app = AppSpec::blackscholes();
        let infected = noc_bench::fig10::infected_for(&app, 0.15, 5);
        for strategy in [Strategy::S2sLob, Strategy::Reroute, Strategy::Unprotected] {
            let sc = grid_scenario(app.clone(), strategy, infected.clone(), 5);
            let want = htnoc_core::run_scenario(&sc);
            let mut d = Digest::default();
            d.run(want.cycles, &want.stats, &want.metrics.link_flits());
            d.u64(u64::from(want.drained));
            d.u64(want.completion.unwrap_or(u64::MAX));
            let got = run_cell(0, sc, false);
            assert!(got.op.problems.is_empty(), "{:?}", got.op.problems);
            assert_eq!(got.op.digest, d.value());
        }
    }
}
