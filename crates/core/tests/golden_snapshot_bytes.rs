//! Golden snapshot bytes: `SimSnapshot::to_bytes()` of fixed-seed states
//! must keep the length and FNV-1a fingerprint committed in
//! `tests/golden/snapshot_bytes.txt`.
//!
//! The round-trip tests (`snapshot_props.rs`, `golden_checkpoint_resume.rs`)
//! would still pass if the encoder and the decoder changed the on-disk
//! format together; this file pins the format itself. The states between
//! them reach every tag the codec writes that a run can produce: a clean
//! mid-run mesh, a trojan flood under L-Ob (obfuscated wires, NACKs, a
//! TASP trojan attacking), a quarantine reroute (table routing, dead
//! links), the torus (topology routing with VC classes), a traced run
//! (the trace ring), a sabotaged run stopped by the invariant audit, and
//! a campaign checkpoint whose `user_data` holds the stall log and the
//! traffic cursor, hand-built fault forensics (odd-even routing, packet
//! tracing, BIST on stuck-at wires, range-matching and dormant trojans,
//! single-flit packets) and an L-Ob ladder climbing to the scramble plan.
//! The tags no run reaches (the `SimError` held in `poisoned`, the
//! retry-budget event) are pinned by a unit test in `noc::snapshot`.
//!
//! Compare-only: nothing here ever rewrites the golden. A format change
//! that is meant must bump `SNAPSHOT_VERSION` and record a new file by
//! hand from the mismatch report.

use htnoc_core::campaign::{trojan_flood_checkpointed, trojan_flood_traced, CheckpointOpts};
use htnoc_core::prelude::*;
use noc_sim::{Sabotage, SimSnapshot, TraceConfig};
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

/// Drive `sc` sequentially to `stop_at`, arming at the end of warm-up
/// and quarantining `kill` at cycle 400 when one is given.
fn run_to(sc: &Scenario, kill: Option<LinkId>, stop_at: u64) -> Simulator {
    let mut sim = sc.build_sim();
    sim.set_threads(1);
    let mut traffic = sc.build_traffic(sim.mesh());
    while sim.cycle() < stop_at {
        let now = sim.cycle();
        if now == sc.warmup {
            sim.arm_trojans(true);
        }
        if now == 400 {
            if let Some(link) = kill {
                sim.quarantine_link(link)
                    .expect("the mesh survives the kill");
            }
        }
        sim.step(traffic.as_mut());
    }
    sim
}

fn blackscholes(strategy: Strategy) -> Scenario {
    let mut sc = Scenario::paper_default(AppSpec::blackscholes(), strategy);
    sc.warmup = 200;
    sc.inject_until = 800;
    sc.max_cycles = 6_000;
    sc.snapshot_interval = 50;
    sc
}

/// The busiest blackscholes feeder hop (1 → 0).
fn feeder() -> LinkId {
    Mesh::paper()
        .link_out(NodeId(1), Direction::West)
        .expect("paper-mesh feeder hop")
}

fn baseline_mid_run() -> Vec<u8> {
    run_to(&blackscholes(Strategy::Unprotected), None, 500)
        .snapshot()
        .to_bytes()
}

fn flood_under_lob() -> Vec<u8> {
    let sc = blackscholes(Strategy::S2sLob).with_infected(vec![feeder()]);
    run_to(&sc, None, 600).snapshot().to_bytes()
}

fn quarantine_reroute() -> Vec<u8> {
    let sc = blackscholes(Strategy::S2sLob).with_infected(vec![feeder()]);
    run_to(&sc, Some(feeder()), 700).snapshot().to_bytes()
}

fn torus_baseline() -> Vec<u8> {
    let sc = blackscholes(Strategy::Unprotected).with_mesh(Mesh::new_torus(4, 4, 1));
    run_to(&sc, None, 500).snapshot().to_bytes()
}

fn traced_flood() -> Vec<u8> {
    let (_, sim) = trojan_flood_traced(7, TraceConfig { capacity: 64 });
    sim.snapshot().to_bytes()
}

/// A credit-leaking router under the periodic invariant audit, stopped
/// on the first `InvariantViolations` error.
fn invariant_violation() -> Vec<u8> {
    let mut cfg = SimConfig::paper();
    cfg.sabotage = Some(Sabotage::LeakCredit { every: 3 });
    cfg.check_invariants_every = Some(16);
    let mut sim = Simulator::new(cfg);
    let mesh = sim.mesh().clone();
    let mut traffic = SyntheticTraffic::new(mesh, Pattern::UniformRandom, 0.05, 11).until(2_000);
    loop {
        match sim.try_step(&mut traffic) {
            Ok(()) => assert!(sim.cycle() < 4_000, "the leak must trip the audit"),
            Err(SimError::InvariantViolations { .. }) => break,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    sim.snapshot().to_bytes()
}

/// Injects a fixed packet list, each packet at its `created_at` cycle.
struct PacketList(Vec<Packet>);

impl TrafficSource for PacketList {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        out.extend(self.0.iter().filter(|p| p.created_at == cycle).cloned());
        self.0.retain(|p| p.created_at != cycle);
    }
    fn done(&self) -> bool {
        self.0.is_empty()
    }
}

/// Hand-built fault forensics on the paper mesh, snapshotted at several
/// cycles of one run: odd-even routing, a retry budget, a traced packet
/// crossing an armed range-matching trojan on a noisy link, a stuck-at
/// pair of wires that BIST classifies as permanent, a disarmed trojan
/// that never fires, and single-flit packets.
fn fault_forensics() -> Vec<Vec<u8>> {
    use noc_sim::routing::Routing;
    use noc_trojan::FieldMatch;
    use noc_types::PacketId;

    let traced = PacketId(1 << 40);
    let mut cfg = SimConfig::paper();
    cfg.trace_packet = Some(traced);
    cfg.retry_budget = Some(6);
    let mut sim = Simulator::new(cfg);
    sim.set_routing(Routing::OddEven);
    let mesh = sim.mesh().clone();
    let link = |n: u16, d: Direction| mesh.link_out(NodeId(n), d).expect("mesh hop");

    let armed = TaspHt::new(TaspConfig::new(TargetSpec {
        src: Some(FieldMatch::Range(0..=3)),
        dest: Some(FieldMatch::Exact(2)),
        vc: None,
        mem: Some(FieldMatch::Range(0..=u32::MAX)),
    }));
    let hot = sim.link_faults_mut(link(1, Direction::East));
    hot.trojan = Some(armed);
    hot.transient_bit_prob = 2e-3;
    let dormant = TaspHt::new(TaspConfig::new(TargetSpec {
        src: None,
        dest: None,
        vc: Some(FieldMatch::Range(0..=1)),
        mem: Some(FieldMatch::Exact(0xdead_beef)),
    }));
    sim.link_faults_mut(link(10, Direction::South)).trojan = Some(dormant);
    sim.link_faults_mut(link(5, Direction::East))
        .stuck
        .stuck_one = 0b1010;
    sim.link_faults_mut(link(1, Direction::East))
        .trojan
        .as_mut()
        .expect("mounted above")
        .set_kill_switch(true);

    let mut packets = vec![Packet::new(
        traced,
        NodeId(0),
        NodeId(2),
        VcId(0),
        64,
        0,
        4,
        3,
    )];
    for i in 0..120u64 {
        let src = (i * 5 % 16) as u16;
        let dest = ((i * 11 + 2) % 16) as u16;
        if src == dest {
            continue;
        }
        let id = PacketId((i << 8) | 1);
        let len = 1 + (i % 3) as u8;
        let vc = VcId((i % 4) as u8);
        packets.push(Packet::new(
            id,
            NodeId(src),
            NodeId(dest),
            vc,
            (i * 64) as u32,
            0,
            len,
            i * 2,
        ));
    }
    let mut traffic = PacketList(packets);
    let mut out = Vec::new();
    for stop in [60, 120, 180, 240] {
        while sim.cycle() < stop {
            sim.step(&mut traffic);
        }
        out.push(sim.snapshot().to_bytes());
    }
    out
}

/// A trojan that matches every header, so no plan of the L-Ob ladder
/// hides a flit from it: entries climb the ladder to the scramble plan
/// (which pairs each flit with a partner) and exhaust the retry budget.
/// Snapshotted at several cycles of one run.
fn ladder_climb() -> Vec<Vec<u8>> {
    use noc_types::PacketId;

    let mut cfg = SimConfig::paper();
    cfg.retry_budget = Some(12);
    let mut sim = Simulator::new(cfg);
    let hop = sim
        .mesh()
        .link_out(NodeId(0), Direction::East)
        .expect("mesh hop");
    let mut blanket = TaspHt::new(TaspConfig::new(TargetSpec::default()));
    blanket.set_kill_switch(true);
    sim.link_faults_mut(hop).trojan = Some(blanket);
    let packets = (0..48u64)
        .map(|i| {
            let id = PacketId(i + 1);
            let vc = VcId((i % 4) as u8);
            Packet::new(id, NodeId(0), NodeId(1 + (i % 3) as u16), vc, 0, 0, 2, i)
        })
        .collect();
    let mut traffic = PacketList(packets);
    let mut out = Vec::new();
    for stop in [24, 72] {
        while sim.cycle() < stop {
            sim.step(&mut traffic);
        }
        out.push(sim.snapshot().to_bytes());
    }
    out
}

/// The newest rotated checkpoint of a halted checkpointed flood: the
/// simulator plus a `user_data` of stall log and traffic cursor.
fn campaign_checkpoint() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("htnoc-snapbytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut opts = CheckpointOpts::new(&dir, 1_000);
    opts.halt_at = Some(4_500);
    assert!(trojan_flood_checkpointed(5, &opts).is_none(), "halted");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    files.sort();
    let bytes = std::fs::read(files.last().expect("a checkpoint was written")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let snap = SimSnapshot::from_bytes(&bytes).expect("checkpoint parses");
    // Stall log (u64 count + at least one report) and the 6-word cursor.
    assert!(
        snap.user_data().len() > 8 + 48,
        "the stall log is not empty"
    );
    bytes
}

/// A named state producer: the `to_bytes()` of one pinned snapshot.
type State = fn() -> Vec<u8>;

#[test]
fn snapshot_bytes_match_golden() {
    let states: [(&str, State); 13] = [
        ("baseline_mid_run", baseline_mid_run),
        ("flood_under_lob", flood_under_lob),
        ("quarantine_reroute", quarantine_reroute),
        ("torus_baseline", torus_baseline),
        ("traced_flood", traced_flood),
        ("invariant_violation", invariant_violation),
        ("campaign_checkpoint", campaign_checkpoint),
        ("fault_forensics@60", || fault_forensics().swap_remove(0)),
        ("fault_forensics@120", || fault_forensics().swap_remove(1)),
        ("fault_forensics@180", || fault_forensics().swap_remove(2)),
        ("fault_forensics@240", || fault_forensics().swap_remove(3)),
        ("ladder_climb@24", || ladder_climb().swap_remove(0)),
        ("ladder_climb@72", || ladder_climb().swap_remove(1)),
    ];
    let mut got = String::new();
    for (name, state) in states {
        let bytes = state();
        writeln!(
            got,
            "{name} len={} fnv64={:016x}",
            bytes.len(),
            fnv64(&bytes)
        )
        .unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_bytes.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("golden file missing: {}\ngot:\n{got}", path.display()));
    assert_eq!(
        want, got,
        "snapshot bytes diverged from the committed golden: the on-disk \
         format changed without a SNAPSHOT_VERSION bump"
    );
}
