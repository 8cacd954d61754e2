//! Traffic generation: synthetic patterns and application-trace models.
//!
//! The paper drives its simulator with "real traffic distributions from the
//! PARSEC and SPLASH-2 benchmark suites". Those gate-level traces are not
//! redistributable, so this crate provides **seeded synthetic models** whose
//! src×dest distributions reproduce the *shape* the paper reports for them
//! (Fig. 1): a primary router acting as the application's master, traffic
//! mass decaying with hop distance from it, and a handful of hot links.
//! DESIGN.md §2 records the substitution argument.
//!
//! Every generator implements [`noc_sim::TrafficSource`] and is fully
//! deterministic given its seed.

pub mod app;
pub mod flood;
pub mod matrix;
pub mod synthetic;
pub mod trace;

pub use app::{AppModel, AppSpec};
pub use flood::FloodAttack;
pub use matrix::TrafficMatrix;
pub use synthetic::{Pattern, SyntheticTraffic};
pub use trace::{Recorder, Replay, Trace};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything polling mutates in an RNG-driven source ([`AppModel`],
/// [`FloodAttack`], [`SyntheticTraffic`]): its checkpoint cursor.
#[derive(Debug)]
pub(crate) struct Cursor {
    /// Highest cycle polled so far (drives `done`).
    pub(crate) polled: u64,
    pub(crate) rng: StdRng,
    pub(crate) next_packet: u64,
}

impl Cursor {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            polled: 0,
            rng: StdRng::seed_from_u64(seed),
            next_packet: 0,
        }
    }
}

noc_sim::codec_struct!(Cursor {
    polled,
    rng,
    next_packet
});

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Reader, TrafficSource};
    use noc_types::Mesh;

    fn polled(src: &mut dyn TrafficSource, cycles: u64) {
        let mut out = Vec::new();
        for c in 0..cycles {
            src.poll(c, &mut out);
        }
    }

    #[test]
    fn cursor_round_trips_and_rejects_short_or_foreign_bytes() {
        let mut a = SyntheticTraffic::new(Mesh::paper(), Pattern::UniformRandom, 0.3, 7);
        polled(&mut a, 50);
        let mut cursor = Vec::new();
        a.save_cursor(&mut cursor);
        assert_eq!(cursor.len(), 48, "polled, four RNG words, next packet");

        let fresh = || SyntheticTraffic::new(Mesh::paper(), Pattern::UniformRandom, 0.3, 7);
        let mut b = fresh();
        let mut r = Reader::new(&cursor);
        b.load_cursor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.packets_issued(), a.packets_issued());

        // A truncated cursor, and the one-word cursor a `Replay` writes,
        // both fail loudly and leave the source where it was.
        let mut c = fresh();
        for bad in [&cursor[..cursor.len() - 1], &cursor[..8]] {
            assert!(c.load_cursor(&mut Reader::new(bad)).is_err());
        }
        assert_eq!(c.packets_issued(), 0);
    }
}
