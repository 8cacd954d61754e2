//! Synthetic application models standing in for the PARSEC / SPLASH-2
//! traces the paper evaluates (Blackscholes, Facesim, Ferret, FFT).
//!
//! Each model is a *gravity* distribution anchored at a primary router (the
//! application's master / hottest core in the paper's Fig. 1): a share of
//! every core's requests goes to the primary, the rest spreads over the
//! mesh with exponential decay in hop distance. The primary itself answers
//! back at an elevated rate (master→worker replies). On/off bursts add the
//! temporal texture of barrier-synchronised phases.

use crate::Cursor;
use noc_sim::{Codec, Reader, SnapshotError, TrafficSource};
use noc_types::{CoreId, Mesh, NodeId, Packet, PacketId, VcId};
use rand::Rng;

/// Shape parameters of one application model.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Benchmark name as printed in tables.
    pub name: &'static str,
    /// The master router around which traffic localises.
    pub primary: NodeId,
    /// Fraction of worker requests aimed at the primary.
    pub to_primary: f64,
    /// Exponential decay of the remaining traffic with hop distance.
    pub decay: f64,
    /// Worker injection rate (packets / core / cycle).
    pub rate: f64,
    /// Rate multiplier for the primary router's cores (reply traffic).
    pub primary_boost: f64,
    /// Burst on/off period and duty length in cycles (0 period = no bursts).
    pub burst_period: u64,
    /// Burst duty length in cycles.
    pub burst_len: u64,
    /// Flits per packet.
    pub packet_len: u8,
    /// Base of the memory range this application touches (trojan Mem
    /// targets key on this).
    pub mem_base: u32,
}

/// The four benchmarks of the paper's Fig. 10, as model presets. Values are
/// chosen so the resulting distributions match the qualitative description
/// in §III-A: sharp primary peak for Blackscholes, flatter neighbourhoods
/// for Ferret's pipeline, wide butterfly exchange for FFT.
impl AppSpec {
    /// The Blackscholes-shaped preset (sharp master-worker peak).
    pub fn blackscholes() -> Self {
        Self {
            name: "blackscholes",
            primary: NodeId(0),
            to_primary: 0.55,
            decay: 0.9,
            rate: 0.02,
            primary_boost: 6.0,
            burst_period: 400,
            burst_len: 300,
            packet_len: 4,
            mem_base: 0x1000_0000,
        }
    }

    /// The Facesim-shaped preset.
    pub fn facesim() -> Self {
        Self {
            name: "facesim",
            primary: NodeId(5),
            to_primary: 0.40,
            decay: 0.6,
            rate: 0.025,
            primary_boost: 4.0,
            burst_period: 600,
            burst_len: 450,
            packet_len: 4,
            mem_base: 0x2000_0000,
        }
    }

    /// The Ferret-shaped preset (flat pipeline neighbourhoods).
    pub fn ferret() -> Self {
        Self {
            name: "ferret",
            primary: NodeId(10),
            to_primary: 0.30,
            decay: 0.35,
            rate: 0.03,
            primary_boost: 3.0,
            burst_period: 0,
            burst_len: 0,
            packet_len: 4,
            mem_base: 0x3000_0000,
        }
    }

    /// The FFT-shaped preset (wide butterfly exchange).
    pub fn fft() -> Self {
        Self {
            name: "fft",
            primary: NodeId(6),
            to_primary: 0.20,
            decay: 0.15,
            rate: 0.035,
            primary_boost: 2.0,
            burst_period: 500,
            burst_len: 250,
            packet_len: 4,
            mem_base: 0x4000_0000,
        }
    }

    /// All four Fig. 10 benchmarks.
    pub fn all() -> Vec<AppSpec> {
        vec![
            Self::blackscholes(),
            Self::facesim(),
            Self::ferret(),
            Self::fft(),
        ]
    }
}

/// A running instance of an application model.
#[derive(Debug)]
pub struct AppModel {
    spec: AppSpec,
    mesh: Mesh,
    /// Per-source cumulative destination distributions.
    dest_cdf: Vec<Vec<(f64, NodeId)>>,
    until: u64,
    cursor: Cursor,
    /// Added to every issued packet id so multiple concurrent models never
    /// collide in one simulator.
    id_offset: u64,
    vcs: u8,
    /// Restrict issued VCs to this set (TDM domain pinning); empty = all.
    vc_choices: Vec<u8>,
}

impl AppModel {
    /// Instantiate the model on a mesh with a deterministic seed.
    pub fn new(spec: AppSpec, mesh: Mesh, seed: u64) -> Self {
        let dest_cdf = (0..mesh.routers())
            .map(|s| Self::build_cdf(&spec, &mesh, NodeId(s as u16)))
            .collect();
        Self {
            spec,
            mesh,
            dest_cdf,
            until: u64::MAX,
            cursor: Cursor::new(seed),
            id_offset: 0,
            vcs: 4,
            vc_choices: Vec::new(),
        }
    }

    /// Offset every issued packet id (required when several models feed the
    /// same simulator, so ids stay globally unique).
    pub fn with_packet_id_offset(mut self, offset: u64) -> Self {
        self.id_offset = offset;
        self
    }

    /// Stop injecting at `cycle` (exclusive).
    pub fn until(mut self, cycle: u64) -> Self {
        self.until = cycle;
        self
    }

    /// Pin all packets to the given VCs (e.g. one TDM domain's partition).
    pub fn with_vcs(mut self, vcs: Vec<u8>) -> Self {
        self.vc_choices = vcs;
        self
    }

    /// The model parameters.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// The mesh the model runs on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn build_cdf(spec: &AppSpec, mesh: &Mesh, src: NodeId) -> Vec<(f64, NodeId)> {
        let mut weights = Vec::with_capacity(mesh.routers());
        for d in 0..mesh.routers() {
            let dest = NodeId(d as u16);
            if dest == src {
                continue;
            }
            let mut w = (-spec.decay * mesh.hop_distance(src, dest) as f64).exp();
            if dest == spec.primary {
                // Lump the dedicated primary share onto the gravity weight.
                w += spec.to_primary / (1.0 - spec.to_primary).max(1e-9);
            }
            weights.push((w, dest));
        }
        let total: f64 = weights.iter().map(|(w, _)| w).sum();
        let mut acc = 0.0;
        weights
            .into_iter()
            .map(|(w, d)| {
                acc += w / total;
                (acc, d)
            })
            .collect()
    }

    fn sample_dest(&mut self, src: NodeId) -> NodeId {
        let u: f64 = self.cursor.rng.gen();
        let cdf = &self.dest_cdf[src.index()];
        cdf.iter()
            .find(|(p, _)| u <= *p)
            .map(|(_, d)| *d)
            .unwrap_or(cdf.last().expect("nonempty").1)
    }

    fn bursting(&self, cycle: u64) -> bool {
        if self.spec.burst_period == 0 {
            return true;
        }
        cycle % self.spec.burst_period < self.spec.burst_len
    }

    /// The analytical probability that a packet from `src` targets `dest`
    /// (exposed for the Fig. 1 matrix harness and tests).
    pub fn dest_probability(&self, src: NodeId, dest: NodeId) -> f64 {
        if src == dest {
            return 0.0;
        }
        let cdf = &self.dest_cdf[src.index()];
        let mut prev = 0.0;
        for (p, d) in cdf {
            if *d == dest {
                return p - prev;
            }
            prev = *p;
        }
        0.0
    }

    /// Packets issued so far.
    pub fn packets_issued(&self) -> u64 {
        self.cursor.next_packet
    }
}

impl TrafficSource for AppModel {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.cursor.polled = self.cursor.polled.max(cycle);
        if cycle >= self.until || !self.bursting(cycle) {
            return;
        }
        for core in 0..self.mesh.cores() {
            let src = self.mesh.router_of_core(CoreId(core as u16));
            // A single-router mesh has no remote destination to sample
            // (the CDF excludes src), so this core can never inject.
            if self.dest_cdf[src.index()].is_empty() {
                continue;
            }
            let mut rate = self.spec.rate;
            if src == self.spec.primary {
                rate *= self.spec.primary_boost;
            }
            if !self.cursor.rng.gen_bool(rate.min(1.0)) {
                continue;
            }
            let dest = self.sample_dest(src);
            let id = PacketId(self.id_offset + self.cursor.next_packet);
            self.cursor.next_packet += 1;
            let vc = if self.vc_choices.is_empty() {
                VcId((id.0 % self.vcs as u64) as u8)
            } else {
                VcId(self.vc_choices[(id.0 % self.vc_choices.len() as u64) as usize])
            };
            let thread = (core % self.mesh.concentration() as usize) as u8;
            let mem = self.spec.mem_base | (self.cursor.rng.gen::<u32>() & 0x00FF_FFFF);
            out.push(Packet::new(
                id,
                src,
                dest,
                vc,
                mem,
                thread,
                self.spec.packet_len,
                cycle,
            ));
        }
    }

    fn done(&self) -> bool {
        // Done only once the whole injection window has been polled
        // through, so a drain lull mid-schedule never ends a run early.
        self.until != u64::MAX && self.cursor.polled + 1 >= self.until
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        if now >= self.until {
            // Schedule exhausted: `poll` only moves the watermark and
            // `done()` is already final.
            return None;
        }
        if self.bursting(now) {
            // Inside a burst the per-core coins are drawn every cycle.
            return Some(now);
        }
        // Burst-off phase: `poll` returns before touching the RNG, so
        // the lull is skippable up to the next burst boundary (clamped
        // to `until - 1`, the cycle whose poll finalizes `done()`).
        let next_burst = (now / self.spec.burst_period + 1) * self.spec.burst_period;
        Some(next_burst.min(self.until - 1).max(now))
    }

    fn skip_to(&mut self, to: u64) {
        // Only the serialized `polled` watermark moves during a lull.
        if to > 0 {
            self.cursor.polled = self.cursor.polled.max(to - 1);
        }
    }

    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.cursor.encode(out);
    }

    fn load_cursor(&mut self, input: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.cursor = Cursor::decode(input)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(spec: AppSpec) -> AppModel {
        AppModel::new(spec, Mesh::paper(), 42)
    }

    #[test]
    fn cdf_is_normalised() {
        let m = model(AppSpec::blackscholes());
        for src in 0..16u16 {
            let total: f64 = (0..16u16)
                .map(|d| m.dest_probability(NodeId(src), NodeId(d)))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "src {src}: {total}");
        }
    }

    #[test]
    fn primary_is_the_hottest_aggregate_destination() {
        // Summed over all sources, the primary draws more traffic than any
        // other router (a near neighbour may beat a distant primary from a
        // single source under flat decay, as in Ferret's pipeline).
        for spec in AppSpec::all() {
            let primary = spec.primary;
            let m = model(spec.clone());
            let col =
                |d: NodeId| -> f64 { (0..16u16).map(|s| m.dest_probability(NodeId(s), d)).sum() };
            let p_primary = col(primary);
            for d in 0..16u16 {
                let d = NodeId(d);
                if d == primary {
                    continue;
                }
                assert!(
                    p_primary > col(d),
                    "{}: primary column {:.3} not hottest vs {d:?} {:.3}",
                    spec.name,
                    p_primary,
                    col(d)
                );
            }
        }
    }

    #[test]
    fn sharp_apps_make_primary_hottest_from_every_source() {
        // Blackscholes' master-worker shape is sharp enough that the
        // primary dominates from every individual source too (Fig. 1(a)).
        let m = model(AppSpec::blackscholes());
        let primary = AppSpec::blackscholes().primary;
        for src in 0..16u16 {
            let src = NodeId(src);
            if src == primary {
                continue;
            }
            let p_primary = m.dest_probability(src, primary);
            for d in 0..16u16 {
                let d = NodeId(d);
                if d == src || d == primary {
                    continue;
                }
                assert!(p_primary >= m.dest_probability(src, d));
            }
        }
    }

    #[test]
    fn traffic_decays_with_distance() {
        let m = model(AppSpec::blackscholes());
        // From router 15 (far corner), nearer routers get more traffic than
        // farther ones (primary excepted).
        let mesh = Mesh::paper();
        let src = NodeId(15);
        let p_near = m.dest_probability(src, NodeId(14)); // 1 hop
        let p_far = m.dest_probability(src, NodeId(3)); // 3+ hops, not primary
        assert!(p_near > p_far, "{p_near} vs {p_far}");
        let _ = mesh;
    }

    #[test]
    fn generation_is_deterministic() {
        let run = |seed| {
            let mut m = AppModel::new(AppSpec::ferret(), Mesh::paper(), seed);
            let mut out = Vec::new();
            for c in 0..100 {
                m.poll(c, &mut out);
            }
            out.len()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn mem_addresses_stay_in_the_apps_range() {
        let mut m = model(AppSpec::fft());
        let mut out = Vec::new();
        for c in 0..200 {
            m.poll(c, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|p| p.mem_addr & 0xFF00_0000 == AppSpec::fft().mem_base));
    }

    #[test]
    fn bursts_gate_injection() {
        let spec = AppSpec {
            burst_period: 10,
            burst_len: 5,
            rate: 1.0,
            ..AppSpec::blackscholes()
        };
        let mut m = model(spec);
        let mut on = Vec::new();
        let mut off = Vec::new();
        m.poll(2, &mut on); // inside burst
        m.poll(7, &mut off); // outside burst
        assert!(!on.is_empty());
        assert!(off.is_empty());
    }

    #[test]
    fn vc_pinning_restricts_vcs() {
        let mut m = model(AppSpec::blackscholes()).with_vcs(vec![1, 3]);
        let mut out = Vec::new();
        for c in 0..100 {
            m.poll(c, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.vc.0 == 1 || p.vc.0 == 3));
    }

    #[test]
    fn four_presets_have_distinct_primaries() {
        let primaries: Vec<_> = AppSpec::all().iter().map(|s| s.primary).collect();
        let mut dedup = primaries.clone();
        dedup.dedup();
        assert_eq!(primaries.len(), 4);
        assert_eq!(dedup.len(), 4);
    }
}
