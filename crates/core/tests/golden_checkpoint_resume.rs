//! Golden checkpoint/resume tests: a run that is snapshotted at cycle C,
//! torn down, restored into a fresh simulator (traffic cursor included),
//! and driven to completion must reproduce the *committed sequential
//! golden* byte-for-byte. Compare-only: like the parallel sweeps in
//! `golden_determinism.rs`, a checkpointed run can never regenerate a
//! golden, only match the one recorded by an uninterrupted run.

use htnoc_core::prelude::*;
use noc_sim::{Reader, SimSnapshot, Simulator, TrafficSource};
use noc_traffic::AppSpec;
use noc_types::Direction;
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a 64-bit: a stable, dependency-free content fingerprint.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare-only: the checkpointed run must match the committed golden
/// that `golden_determinism.rs` records from uninterrupted runs.
fn assert_matches_committed_golden(name: &str, ckpt_at: u64, got: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file missing: {} (record it with UPDATE_GOLDEN=1 via \
             golden_determinism.rs)",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name}: run checkpointed at cycle {ckpt_at} diverged from the \
         committed uninterrupted golden — restore is not bit-identical"
    );
}

/// Serialize (sim + traffic cursor) through the byte format, tear both
/// down, and bring them back in fresh instances built from the scenario.
fn checkpoint_roundtrip(
    sc: &Scenario,
    sim: Simulator,
    traffic: Box<dyn TrafficSource>,
) -> (Simulator, Box<dyn TrafficSource>) {
    let mut snap = sim.snapshot();
    let mut cursor = Vec::new();
    traffic.save_cursor(&mut cursor);
    snap.set_user_data(cursor);
    let bytes = snap.to_bytes();
    drop(sim);
    drop(traffic);

    let snap = SimSnapshot::from_bytes(&bytes).expect("checkpoint decodes");
    let mut sim = sc.build_sim();
    sim.restore(&snap).expect("checkpoint restores");
    let mut traffic = sc.build_traffic(sim.mesh());
    let mut cursor = Reader::new(snap.user_data());
    traffic
        .load_cursor(&mut cursor)
        .expect("traffic cursor decodes");
    cursor.finish().expect("traffic cursor fully consumed");
    (sim, traffic)
}

/// The baseline golden scenario from `golden_determinism.rs`, driven
/// with an interruption at `ckpt_at`: warm up clean, arm (a no-op — no
/// trojans are mounted), inject until the schedule runs dry, drain.
fn baseline_checkpointed_digest(ckpt_at: u64) -> String {
    let mut sc =
        Scenario::paper_default(AppSpec::blackscholes(), Strategy::Unprotected).with_threads(1);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 4_000;
    sc.snapshot_interval = 50;

    let mut sim = sc.build_sim();
    let mut traffic = sc.build_traffic(sim.mesh());
    let mut finished = drive(&mut sim, traffic.as_mut(), &sc, None, ckpt_at);
    assert!(
        !finished,
        "the scenario must still be live at cycle {ckpt_at}"
    );
    let (mut sim, mut traffic) = checkpoint_roundtrip(&sc, sim, traffic);
    finished = drive(&mut sim, traffic.as_mut(), &sc, None, u64::MAX);
    let _ = finished;

    let stats = format!("{:?}", sim.stats());
    let mut out = String::new();
    writeln!(out, "cycles: {}", sim.cycle()).unwrap();
    writeln!(out, "drained: {}", sim.is_quiescent()).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    out
}

/// Step until `stop_at` (or the scenario ends), replaying the golden
/// driver's cycle-keyed actions: arm at the end of warm-up, quarantine
/// the infected link at cycle 400 when one is given. Keying the actions
/// off the cycle counter means a resumed run never repeats or skips
/// them — arming and quarantine state ride in the snapshot.
fn drive(
    sim: &mut Simulator,
    traffic: &mut dyn TrafficSource,
    sc: &Scenario,
    quarantine_at_400: Option<LinkId>,
    stop_at: u64,
) -> bool {
    while sim.cycle() < stop_at.min(sc.max_cycles) {
        let now = sim.cycle();
        if now == sc.warmup {
            sim.arm_trojans(true);
        }
        if now == 400 {
            if let Some(link) = quarantine_at_400 {
                sim.quarantine_link(link)
                    .expect("the paper mesh survives one dead link");
            }
        }
        sim.step(traffic);
        if traffic.done() && sim.is_quiescent() {
            return true;
        }
    }
    false
}

/// The busiest blackscholes feeder hop (1 → 0), as pinned by the
/// quarantine-reroute golden.
fn infected_link() -> LinkId {
    Mesh::paper()
        .link_out(NodeId(1), Direction::West)
        .expect("paper-mesh feeder hop")
}

/// The quarantine-reroute golden scenario with an interruption at
/// `ckpt_at`: trojan storm, mid-run link kill at cycle 400, rerouted
/// drain — the checkpoint lands either mid-storm (before the kill) or
/// mid-reroute (after it), and both must finish on the golden numbers.
fn quarantine_reroute_checkpointed_digest(ckpt_at: u64) -> String {
    let infected = infected_link();
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), Strategy::S2sLob)
        .with_infected(vec![infected]);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;

    let mut sim = sc.build_sim();
    sim.set_threads(1);
    let mut traffic = sc.build_traffic(sim.mesh());
    let finished = drive(&mut sim, traffic.as_mut(), &sc, Some(infected), ckpt_at);
    assert!(
        !finished,
        "the scenario must still be live at cycle {ckpt_at}"
    );
    let (mut sim, mut traffic) = checkpoint_roundtrip(&sc, sim, traffic);
    drive(&mut sim, traffic.as_mut(), &sc, Some(infected), u64::MAX);

    let violations = sim.check_network_invariants();
    let stats = format!("{:?}", sim.stats());
    let mut out = String::new();
    writeln!(out, "cycles: {}", sim.cycle()).unwrap();
    writeln!(out, "quiescent: {}", sim.is_quiescent()).unwrap();
    writeln!(out, "invariant_violations: {}", violations.len()).unwrap();
    writeln!(out, "injected: {}", sim.stats().injected_packets).unwrap();
    writeln!(out, "delivered: {}", sim.stats().delivered_packets).unwrap();
    writeln!(out, "quarantined_links: {}", sim.stats().quarantined_links).unwrap();
    writeln!(out, "stats_fnv64: {:016x}", fnv64(stats.as_bytes())).unwrap();
    writeln!(out, "stats: {stats}").unwrap();
    out
}

#[test]
fn baseline_checkpoint_resume_matches_golden() {
    // Mid-warmup and mid-injection checkpoints.
    for ckpt_at in [150, 500] {
        assert_matches_committed_golden(
            "baseline_stats.txt",
            ckpt_at,
            &baseline_checkpointed_digest(ckpt_at),
        );
    }
}

#[test]
fn quarantine_reroute_checkpoint_resume_matches_golden() {
    // Mid-storm (before the link kill) and mid-reroute (after it).
    for ckpt_at in [300, 1_000] {
        assert_matches_committed_golden(
            "quarantine_reroute.txt",
            ckpt_at,
            &quarantine_reroute_checkpointed_digest(ckpt_at),
        );
    }
}
