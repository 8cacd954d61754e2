//! Digests of the deterministic simulated outputs each operation
//! produces, and the table of digests recorded from this repository's
//! code for the default and the held-out seed.
//!
//! A digest covers only simulated state: `SimStats` counters and time
//! series, per-link flit counts, completion cycles and `ScenarioReport`
//! fields. Nothing that depends on the host, the wall clock or the
//! thread count goes in (heartbeat rates, RSS, stall-report heartbeats).

use htnoc_core::ScenarioReport;
use noc_sim::{SimStats, Simulator, Snapshot};
use std::collections::HashMap;

/// FNV-1a over little-endian 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn value(self) -> u64 {
        self.0
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every `SimStats` field. The destructuring is exhaustive on
    /// purpose: a new statistic fails to compile here until it is
    /// either hashed or deliberately left out.
    pub fn stats(&mut self, s: &SimStats) {
        let SimStats {
            snapshots,
            injected_packets,
            delivered_packets,
            injected_flits,
            delivered_flits,
            latency_sum,
            latency_samples,
            latency_max,
            latency_histogram,
            retransmissions,
            corrected_faults,
            uncorrectable_faults,
            bist_scans,
            dropped_flits,
            dropped_packets,
            quarantined_links,
            budget_escalations,
        } = s;
        for v in [
            *injected_packets,
            *delivered_packets,
            *injected_flits,
            *delivered_flits,
            *latency_sum,
            *latency_samples,
            *latency_max,
            *retransmissions,
            *corrected_faults,
            *uncorrectable_faults,
            *bist_scans,
            *dropped_flits,
            *dropped_packets,
            *quarantined_links,
            *budget_escalations,
        ] {
            self.u64(v);
        }
        latency_histogram.iter().for_each(|&v| self.u64(v));
        self.u64(snapshots.len() as u64);
        for snap in snapshots {
            let Snapshot {
                cycle,
                input_util,
                output_util,
                injection_util,
                routers_all_cores_full,
                routers_half_cores_full,
                routers_blocked_port,
                delivered_flits,
                retransmissions,
                uncorrectable_faults,
            } = *snap;
            for v in [
                cycle,
                input_util as u64,
                output_util as u64,
                injection_util as u64,
                routers_all_cores_full as u64,
                routers_half_cores_full as u64,
                routers_blocked_port as u64,
                delivered_flits,
                retransmissions,
                uncorrectable_faults,
            ] {
                self.u64(v);
            }
        }
    }

    /// The simulator's cycle, statistics and per-link flit counts.
    pub fn sim(&mut self, sim: &Simulator) {
        self.run(sim.cycle(), sim.stats(), &sim.metrics().link_flits());
    }

    /// A run's end cycle, statistics and per-link flit counts.
    pub fn run(&mut self, cycle: u64, stats: &SimStats, link_flits: &[u64]) {
        self.u64(cycle);
        self.stats(stats);
        link_flits.iter().for_each(|&v| self.u64(v));
    }

    /// Every `ScenarioReport` field; stall reports without their
    /// wall-clock heartbeat.
    pub fn report(&mut self, r: &ScenarioReport) {
        self.bytes(r.name.as_bytes());
        for v in [
            r.seed,
            r.cycles,
            r.injected_flits,
            r.delivered_flits,
            r.dropped_flits,
            r.quarantined_links,
            r.budget_escalations,
            r.stalls.len() as u64,
        ] {
            self.u64(v);
        }
        for s in &r.stalls {
            self.u64(s.cycle);
            self.bytes(format!("{:?}", s.kind).as_bytes());
            self.u64(s.resident_flits as u64);
            self.u64(s.queued_flits as u64);
            self.u64(s.delivered_flits);
        }
    }
}

/// The recorded digests, keyed by (workload, seed), one per operation
/// in pass order.
pub struct Expected(HashMap<(String, u64), Vec<u64>>);

/// The table `--record` writes and the binary embeds.
pub const EXPECTED_FILE: &str = "expected_digests.txt";

impl Expected {
    pub fn embedded() -> Self {
        Self::parse(include_str!("../expected_digests.txt"))
    }

    /// Lines of `workload seed op_index digest_hex`; `#` starts a comment.
    pub fn parse(text: &str) -> Self {
        let mut map: HashMap<(String, u64), Vec<u64>> = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = (f.len() == 4)
                .then(|| {
                    Some((
                        f[1].parse::<u64>().ok()?,
                        f[2].parse::<usize>().ok()?,
                        u64::from_str_radix(f[3], 16).ok()?,
                    ))
                })
                .flatten();
            let Some((seed, idx, digest)) = parsed else {
                panic!("malformed line in {EXPECTED_FILE}: {line:?}");
            };
            let ops = map.entry((f[0].to_string(), seed)).or_default();
            assert_eq!(idx, ops.len(), "{EXPECTED_FILE}: op indices must be dense");
            ops.push(digest);
        }
        Expected(map)
    }

    pub fn get(&self, workload: &str, seed: u64) -> Option<&[u64]> {
        self.0.get(&(workload.to_string(), seed)).map(Vec::as_slice)
    }

    pub fn render(entries: &[(&str, u64, Vec<u64>)]) -> String {
        let mut out = String::from(
            "# Per-operation digests of simulated outputs, recorded with\n\
             # `perfbench --record`: workload seed op_index digest_hex\n",
        );
        for (workload, seed, digests) in entries {
            for (i, d) in digests.iter().enumerate() {
                out.push_str(&format!("{workload} {seed} {i} {d:016x}\n"));
            }
        }
        out
    }
}
