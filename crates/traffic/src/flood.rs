//! Flood-based denial-of-service traffic: rogue threads on compromised
//! cores inject at line rate toward victim routers — the software-level
//! attack model of the paper's related work ([12], [14]) that the TASP
//! trojan is contrasted with, and the workload for the XY-vs-adaptive
//! routing comparison in §III-A.

use crate::Cursor;
use noc_sim::{Codec, Reader, SnapshotError, TrafficSource};
use noc_types::{CoreId, Mesh, NodeId, Packet, PacketId, VcId};
use rand::Rng;

/// A set of compromised cores flooding one or more victim routers.
#[derive(Debug)]
pub struct FloodAttack {
    mesh: Mesh,
    /// The rogue cores.
    attackers: Vec<CoreId>,
    /// Flood destinations (round-robin per attacker).
    victims: Vec<NodeId>,
    /// Injection rate per rogue core (packets/cycle; 1.0 = line rate).
    rate: f64,
    packet_len: u8,
    /// Attack window.
    from: u64,
    until: u64,
    cursor: Cursor,
    /// Offset so flood ids never collide with background traffic.
    id_offset: u64,
}

impl FloodAttack {
    /// A flood from `attackers` toward `victims` at line rate.
    pub fn new(mesh: Mesh, attackers: Vec<CoreId>, victims: Vec<NodeId>, seed: u64) -> Self {
        assert!(!attackers.is_empty() && !victims.is_empty());
        Self {
            mesh,
            attackers,
            victims,
            rate: 1.0,
            packet_len: 4,
            from: 0,
            until: u64::MAX,
            cursor: Cursor::new(seed),
            id_offset: 1 << 48,
        }
    }

    /// Throttle the flood below line rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.rate = rate;
        self
    }

    /// Restrict the attack to `[from, until)`.
    pub fn window(mut self, from: u64, until: u64) -> Self {
        self.from = from;
        self.until = until;
        self
    }

    /// Packets issued so far.
    pub fn packets_issued(&self) -> u64 {
        self.cursor.next_packet
    }
}

impl TrafficSource for FloodAttack {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.cursor.polled = self.cursor.polled.max(cycle);
        if cycle < self.from || cycle >= self.until {
            return;
        }
        for (i, core) in self.attackers.iter().enumerate() {
            if !self.cursor.rng.gen_bool(self.rate) {
                continue;
            }
            let src = self.mesh.router_of_core(*core);
            let dest = self.victims[(self.cursor.next_packet as usize + i) % self.victims.len()];
            if dest == src {
                continue;
            }
            let id = PacketId(self.id_offset + self.cursor.next_packet);
            self.cursor.next_packet += 1;
            out.push(Packet::new(
                id,
                src,
                dest,
                VcId((id.0 % 4) as u8),
                self.cursor.rng.gen(),
                (core.0 % self.mesh.concentration() as u16) as u8,
                self.packet_len,
                cycle,
            ));
        }
    }

    fn done(&self) -> bool {
        self.until != u64::MAX && self.cursor.polled + 1 >= self.until
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        if now >= self.until {
            // Attack over: `poll` only moves the watermark and `done()`
            // is already final.
            return None;
        }
        // Before the window opens `poll` returns without touching the
        // RNG, so the quiet lead-in is skippable up to `from`. Clamp to
        // `until - 1` so a window that never opens (`from >= until`)
        // still stops at the cycle where `done()` flips.
        Some(self.from.max(now).min(self.until - 1))
    }

    fn skip_to(&mut self, to: u64) {
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

/// Combine a background workload with a flood attack into one source.
pub struct WithFlood<S> {
    /// The legitimate workload.
    pub background: S,
    /// The attack traffic layered on top.
    pub flood: FloodAttack,
}

impl<S: TrafficSource> TrafficSource for WithFlood<S> {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.background.poll(cycle, out);
        self.flood.poll(cycle, out);
    }
    fn done(&self) -> bool {
        self.background.done() && self.flood.done()
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        // The combined source can act whenever either part can: the
        // earlier of the two horizons (a `None` part never acts again).
        match (
            self.background.next_injection_at(now),
            self.flood.next_injection_at(now),
        ) {
            (None, None) => None,
            (Some(h), None) | (None, Some(h)) => Some(h),
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    fn skip_to(&mut self, to: u64) {
        self.background.skip_to(to);
        self.flood.skip_to(to);
    }

    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.background.save_cursor(out);
        self.flood.save_cursor(out);
    }

    fn load_cursor(&mut self, input: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.background.load_cursor(input)?;
        self.flood.load_cursor(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack() -> FloodAttack {
        FloodAttack::new(
            Mesh::paper(),
            vec![CoreId(20), CoreId(21)],
            vec![NodeId(0)],
            1,
        )
    }

    #[test]
    fn floods_at_line_rate_toward_victims() {
        let mut f = attack();
        let mut out = Vec::new();
        for c in 0..50 {
            f.poll(c, &mut out);
        }
        assert_eq!(out.len(), 100, "2 attackers × 50 cycles at line rate");
        assert!(out.iter().all(|p| p.dest == NodeId(0)));
        assert!(
            out.iter().all(|p| p.src == NodeId(5)),
            "cores 20/21 sit on router 5"
        );
    }

    #[test]
    fn window_bounds_the_attack() {
        let mut f = attack().window(10, 20);
        let mut out = Vec::new();
        f.poll(5, &mut out);
        assert!(out.is_empty());
        f.poll(15, &mut out);
        assert_eq!(out.len(), 2);
        assert!(!f.done());
        f.poll(25, &mut out);
        assert_eq!(out.len(), 2, "no injection past the window");
        assert!(f.done());
    }

    #[test]
    fn ids_are_offset_out_of_background_space() {
        let mut f = attack();
        let mut out = Vec::new();
        f.poll(0, &mut out);
        assert!(out.iter().all(|p| p.id.0 >= 1 << 48));
    }

    #[test]
    fn rate_throttles() {
        let mut f = attack().with_rate(0.1);
        let mut out = Vec::new();
        for c in 0..200 {
            f.poll(c, &mut out);
        }
        assert!(out.len() < 100, "{}", out.len());
        assert!(!out.is_empty());
    }
}
