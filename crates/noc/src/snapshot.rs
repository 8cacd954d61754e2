//! Crash-safe checkpoint/restore: versioned, checksummed serialization of
//! the complete simulator state with bit-identical resume.
//!
//! # Format
//!
//! A snapshot file is `magic ‖ crc64 ‖ body` ([`seal`]) where the body is
//! `version ‖ config_hash ‖ cycle ‖ payload ‖ user_data`. The CRC-64
//! (ECMA-182, reflected — the CRC-64/XZ parameterisation) covers the
//! entire body and is verified *before* the version field is even looked
//! at, so any bit flip or truncation anywhere in the file surfaces as
//! [`SnapshotError::Corrupt`] rather than a bogus version diagnosis. A
//! CRC-clean body whose version differs from [`SNAPSHOT_VERSION`] is
//! rejected with [`SnapshotError::VersionMismatch`]; the payload encoding
//! is only ever interpreted under its own version.
//!
//! # Codec
//!
//! Every byte format of the workspace — the payload, traffic-source
//! cursors, the campaign stall log, sweep results, fuzz progress — goes
//! through one trait, [`Codec`]: one `encode` and one `decode` per type,
//! with the field list written once through [`crate::codec_struct!`] and
//! [`crate::codec_enum!`]. Integers are little-endian (`usize` as `u64`), `bool`
//! is one byte, `Option` is a `bool` flag then the value, sequences and
//! strings are a `u64` length then the items, fixed arrays and tuples are
//! their items in order. State whose shape the configuration fixes
//! (router ports, VC counts, link and router counts) decodes in place
//! through `Shaped`, which checks every length and presence bit against
//! the simulator it is restored into.
//!
//! # Exactness
//!
//! The payload serialises every field of [`Simulator`] that influences
//! future cycles: router pipeline state (input VCs, detectors, descramble
//! holding areas, arbiter pointers, crossbar moves), output retransmission
//! buffers with credit and L-Ob state, link word-caches and in-flight
//! wires, per-link fault layers including trojan runtime and RNG streams,
//! quarantine and watchdog state, statistics, events, metrics, and the
//! trace ring. A restored simulator therefore continues bit-identically —
//! same golden fingerprints, same trace stream, same stats — at every
//! thread count (the parallel engine is stateless between cycles and is
//! re-planned after restore).
//!
//! Deliberately *not* serialised: the attached [`crate::trace::TraceSink`]
//! (an open file handle cannot be checkpointed — restore preserves the
//! simulator's current sink, or leaves none), and transient per-cycle
//! scratch buffers, which are empty at every cycle boundary.
//!
//! # Atomicity and rotation
//!
//! [`write_atomic`] writes to a temporary sibling, fsyncs, renames into
//! place and fsyncs the directory, so a crash mid-write never leaves a
//! truncated file under the final name. [`Checkpointer`] keeps a rotation
//! of the K most recent checkpoints and, on load, falls back across the
//! rotation past any file that fails validation.

use crate::arbiter::RoundRobin;
use crate::config::{SimConfig, TraceConfig};
use crate::error::SimError;
use crate::fault::{LinkFaults, StuckWires};
use crate::input::{DelayedEntry, InputUnit, InputVc, PendingScramble, VcState};
use crate::invariants::Violation;
use crate::link::LinkLanes;
use crate::message::{AckKind, AckMsg, LinkFlit, ObfWire, SimEvent, TraceEvent, TraceOutcome};
use crate::metrics::{Counter, Gauge, LinkMetrics, MetricsRegistry, PowHistogram, RouterMetrics};
use crate::output::{OutputUnit, RetxEntry, SlotState};
use crate::router::{Router, StMove};
use crate::routing::{RouteTables, Routing, TopoRoutes};
use crate::sim::Simulator;
use crate::stats::{SimStats, Snapshot as StatsSnapshot};
use crate::trace::{Record, TraceRecorder};
use crate::watchdog::{StallKind, StallReport};
use noc_ecc::Codeword;
use noc_mitigation::{
    DetectorState, FaultClass, FaultRecordState, LobModule, LobPlan, ThreatDetector,
};
use noc_trojan::{FieldMatch, TargetSpec, TaspConfig, TaspHt, TaspState, TaspStats};
use noc_types::{Direction, Flit, FlitId, FlitKind, Header, LinkId, NodeId, PacketId, Port, VcId};
use rand::rngs::StdRng;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::path::{Path, PathBuf};

/// Version of the snapshot payload encoding this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File magic: identifies a snapshot before any other byte is trusted.
const MAGIC: [u8; 8] = *b"NOCSNAP\0";

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a snapshot could not be loaded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes fail structural validation: bad magic, CRC mismatch,
    /// truncation, trailing garbage, or an impossible field value.
    Corrupt(String),
    /// The CRC-clean file was written by a different payload version.
    VersionMismatch {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The snapshot was taken under a different simulator configuration
    /// (config hashes differ — restoring would silently corrupt state).
    ConfigMismatch {
        /// Config hash recorded in the snapshot.
        found: u64,
        /// Config hash of the simulator being restored.
        expected: u64,
    },
    /// An I/O error while reading or writing the snapshot file.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, this build reads {expected}")
            }
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot config hash {found:#018x} != simulator config hash {expected:#018x}"
            ),
            SnapshotError::Io(what) => write!(f, "snapshot io: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// Cursor over encoded bytes that turns underruns and malformed values
/// into [`SnapshotError::Corrupt`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Reject trailing bytes once decoding claims to be done.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes", self.buf.len())))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.buf = rest;
        Ok(*head)
    }

    #[cold]
    fn short(&self, n: usize) -> SnapshotError {
        corrupt(format!(
            "short read: need {n} bytes, {} left",
            self.buf.len()
        ))
    }

    /// A `u64` length prefix.
    #[inline]
    fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::decode(self)
    }

    /// Capacity to reserve for `n` decoded items: a hostile length prefix
    /// never allocates more than the bytes left could hold, nor more than
    /// `1 << 20` items.
    #[inline]
    fn prealloc(&self, n: usize) -> usize {
        n.min(self.buf.len()).min(1 << 20)
    }
}

/// One byte format, encoded and decoded by the same field list.
///
/// `decode` reads exactly what `encode` wrote and rejects any byte
/// `encode` could not have produced.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value off the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;

    /// The encoding of `self` as a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a value that must span all of `bytes`.
    fn decode_all(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decode over an existing value: the same bytes and errors as
    /// [`Codec::decode`], but collections refill their allocation instead
    /// of replacing it. On error the value is left partly decoded.
    fn decode_in_place(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        *self = Self::decode(r)?;
        Ok(())
    }

    /// Encode a run of items (a byte-copy for `u8`).
    #[doc(hidden)]
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Append `n` decoded items to `dst` (a byte-copy for `u8`).
    #[doc(hidden)]
    fn decode_extend(
        r: &mut Reader<'_>,
        n: usize,
        dst: &mut Vec<Self>,
    ) -> Result<(), SnapshotError> {
        dst.reserve(r.prealloc(n));
        for _ in 0..n {
            dst.push(Self::decode(r)?);
        }
        Ok(())
    }
}

/// Implement [`Codec`] for a struct from its field list: the fields are
/// encoded and decoded in the order given. Fields after `skip` are not
/// serialised and decode to the given value.
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),* $(,)? } $(skip { $($skip:ident: $value:expr),* $(,)? })?) => {
        impl $crate::snapshot::Codec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::snapshot::Codec::encode(&self.$field, out);)*
            }
            #[inline]
            fn decode(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty {
                    $($field: $crate::snapshot::Codec::decode(r)?,)*
                    $($($skip: $value,)*)?
                })
            }
            fn decode_in_place(
                &mut self,
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::Codec::decode_in_place(&mut self.$field, r)?;)*
                $($(self.$skip = $value;)*)?
                Ok(())
            }
        }
    };
}

/// Implement [`Codec`] for an enum: a `u8` tag, then the variant's fields
/// in the order given. Unknown tags decode as corruption.
#[macro_export]
macro_rules! codec_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),* $(,)? }) => {
        impl $crate::snapshot::Codec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::snapshot::Codec::encode($field, out);)*)?
                    })*
                }
            }
            #[inline]
            fn decode(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match <u8 as $crate::snapshot::Codec>::decode(r)? {
                    $($tag => $ty::$variant $({
                        $($field: $crate::snapshot::Codec::decode(r)?),*
                    })?,)*
                    t => {
                        return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                            "{} tag {t}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
}

impl Codec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.array::<1>()?[0])
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_extend(
        r: &mut Reader<'_>,
        n: usize,
        dst: &mut Vec<Self>,
    ) -> Result<(), SnapshotError> {
        dst.extend_from_slice(r.take(n)?);
        Ok(())
    }
}

macro_rules! codec_le {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

codec_le!(u16, u32, u64, u128);

impl Codec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(u64::decode(r)? as usize)
    }
}

/// IEEE-754 bit pattern: an exact round trip.
impl Codec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Codec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bool byte {b}"))),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(if bool::decode(r)? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

impl<T: Codec> Codec for Box<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_slice(self, out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut items = Vec::new();
        items.decode_in_place(r)?;
        Ok(items)
    }
    fn decode_in_place(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        self.clear();
        T::decode_extend(r, n, self)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        let (front, back) = self.as_slices();
        T::encode_slice(front, out);
        T::encode_slice(back, out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Vec::decode(r).map(VecDeque::from)
    }
    fn decode_in_place(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        self.clear();
        self.reserve(r.prealloc(n));
        for _ in 0..n {
            self.push_back(T::decode(r)?);
        }
        Ok(())
    }
}

impl Codec for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        String::from_utf8(Vec::decode(r)?).map_err(|_| corrupt("string is not utf-8"))
    }
}

/// Fixed arrays carry no length prefix: their size is the type's.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut items = [T::default(); N];
        for item in items.iter_mut() {
            *item = T::decode(r)?;
        }
        Ok(items)
    }
}

macro_rules! codec_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$i.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )*};
}

codec_tuple! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Entries in key order, so equal maps encode to equal bytes.
impl<K, V, S> Codec for HashMap<K, V, S>
where
    K: Codec + Ord + Hash,
    V: Codec,
    S: BuildHasher + Default,
{
    fn encode(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.len().encode(out);
        for (k, v) in entries {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut map = HashMap::default();
        map.decode_in_place(r)?;
        Ok(map)
    }
    fn decode_in_place(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        self.clear();
        self.reserve(r.prealloc(n));
        for _ in 0..n {
            let (k, v) = Codec::decode(r)?;
            self.insert(k, v);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Configuration-shaped state, decoded in place
// ---------------------------------------------------------------------

/// State whose shape the configuration fixes — per-port units, per-VC
/// tables, router and link counts, which output ports exist — encoded
/// like a [`Codec`] value but decoded *into* a simulator built from the
/// same configuration. Every length prefix and presence bit is checked
/// against that simulator instead of trusted.
trait Shaped {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

fn expect_len(r: &mut Reader<'_>, want: usize, what: &str) -> Result<(), SnapshotError> {
    let n = r.len()?;
    if n == want {
        Ok(())
    } else {
        Err(corrupt(format!("{what}: length {n} != {want}")))
    }
}

/// Decode a length-prefixed sequence of values into `dst`, whose length
/// the configuration fixes: a length mismatch is corruption, not a
/// resize.
fn decode_into<T: Codec>(
    r: &mut Reader<'_>,
    dst: &mut [T],
    what: &str,
) -> Result<(), SnapshotError> {
    expect_len(r, dst.len(), what)?;
    dst.iter_mut().try_for_each(|slot| slot.decode_in_place(r))
}

impl<T: Shaped> Shaped for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        expect_len(r, self.len(), std::any::type_name::<T>())?;
        self.iter_mut().try_for_each(|item| item.decode_into(r))
    }
}

impl<T: Shaped, const N: usize> Shaped for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|item| item.decode_into(r))
    }
}

/// The presence bit must agree with the configuration (a mesh-edge
/// router has no output unit toward the edge).
impl<T: Shaped> Shaped for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let present = bool::decode(r)?;
        match (present, self.as_mut()) {
            (true, Some(v)) => v.decode_into(r),
            (false, None) => Ok(()),
            (got, _) => Err(corrupt(format!(
                "presence {got} disagrees with the configuration"
            ))),
        }
    }
}

/// Implement [`Shaped`] from a field list. Each field is `val` (any
/// [`Codec`] value, decoded in place), `len` (a sequence of values whose
/// length the configuration fixes, see [`decode_into`]) or `shaped`
/// (nested [`Shaped`] state). The optional `check` runs once all fields
/// are in.
macro_rules! shaped {
    ($ty:ty { $($mode:ident $field:ident),* $(,)? } $(check |$s:ident| $check:expr)?) => {
        impl Shaped for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(shaped!(@encode $mode, self.$field, out);)*
            }
            fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
                $(shaped!(@decode $mode, self.$field, r, $field);)*
                $(let $s = &*self; $check?;)?
                Ok(())
            }
        }
    };
    (@encode shaped, $place:expr, $out:ident) => { Shaped::encode(&$place, $out) };
    (@encode $mode:ident, $place:expr, $out:ident) => { Codec::encode(&$place, $out) };
    (@decode val, $place:expr, $r:ident, $f:ident) => { Codec::decode_in_place(&mut $place, $r)? };
    (@decode len, $place:expr, $r:ident, $f:ident) => {
        decode_into($r, &mut $place, stringify!($f))?
    };
    (@decode shaped, $place:expr, $r:ident, $f:ident) => { Shaped::decode_into(&mut $place, $r)? };
}

// ---------------------------------------------------------------------
// Hashes and framing
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash (the repo's golden-fingerprint hash).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a simulator configuration, for snapshot compatibility checks.
///
/// The thread count is masked out first: it selects an execution strategy,
/// not a semantic configuration — a snapshot taken at 8 threads restores
/// bit-identically at 1, and vice versa.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut c = cfg.clone();
    c.threads = None;
    fnv64(format!("{c:?}").as_bytes())
}

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 lookup tables: `tables[0]` is the classic byte-at-a-time
/// table; `tables[k]` advances a byte through `k` further zero bytes so
/// eight input bytes fold into the CRC with eight independent lookups.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all-ones),
/// slice-by-8: checksumming must stay a rounding error next to the
/// simulation itself (the bench gate bounds checkpointing at < 1% of
/// sim time), and the byte-at-a-time loop was the dominant cost of
/// `SimSnapshot::to_bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = crc ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        crc = CRC64_TABLES[7][(v & 0xff) as usize]
            ^ CRC64_TABLES[6][((v >> 8) & 0xff) as usize]
            ^ CRC64_TABLES[5][((v >> 16) & 0xff) as usize]
            ^ CRC64_TABLES[4][((v >> 24) & 0xff) as usize]
            ^ CRC64_TABLES[3][((v >> 32) & 0xff) as usize]
            ^ CRC64_TABLES[2][((v >> 40) & 0xff) as usize]
            ^ CRC64_TABLES[1][((v >> 48) & 0xff) as usize]
            ^ CRC64_TABLES[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frame `body` as `magic ‖ crc64(body) ‖ body`: the one checksummed
/// container of snapshots, sweep results and fuzz progress.
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(magic);
    crc64(body).encode(&mut out);
    out.extend_from_slice(body);
    out
}

/// Check a [`seal`]ed frame and return its body. The CRC is verified
/// before any byte of the body is interpreted.
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], SnapshotError> {
    if bytes.len() < magic.len() + 8 {
        return Err(corrupt("file shorter than header"));
    }
    let (head, body) = bytes.split_at(magic.len() + 8);
    if head[..magic.len()] != magic[..] {
        return Err(corrupt("bad magic"));
    }
    let stored = u64::decode_all(&head[magic.len()..])?;
    let computed = crc64(body);
    if stored != computed {
        return Err(corrupt(format!(
            "crc mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(body)
}

/// Write `bytes` to `path` atomically: temp sibling → `sync_all` →
/// rename, plus a best-effort fsync of the parent directory, so a crash
/// at any point leaves either the previous file or the complete new one
/// — and a completed rename survives the crash.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// SimSnapshot
// ---------------------------------------------------------------------

/// A complete simulator state capture.
///
/// Produced by [`Simulator::snapshot`], consumed by
/// [`Simulator::restore`]. The `user_data` section is an opaque blob for
/// the campaign/fuzz drivers (traffic-source cursors, progress records);
/// the simulator itself never interprets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    pub(crate) payload: Vec<u8>,
    pub(crate) config_hash: u64,
    pub(crate) cycle: u64,
    pub(crate) user_data: Vec<u8>,
}

impl SimSnapshot {
    /// Simulation cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Hash of the configuration the snapshot was taken under.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// The driver-owned opaque section.
    pub fn user_data(&self) -> &[u8] {
        &self.user_data
    }

    /// The encoded simulator state. Two snapshots of bit-identical
    /// simulators have equal payloads, which is what the determinism
    /// tests compare.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Replace the driver-owned opaque section (traffic cursors, progress
    /// bookkeeping — anything the *driver* needs to resume alongside the
    /// simulator).
    pub fn set_user_data(&mut self, data: Vec<u8>) {
        self.user_data = data;
    }

    /// Serialise to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.payload.len() + self.user_data.len() + 64);
        (SNAPSHOT_VERSION, self.config_hash, self.cycle).encode(&mut body);
        self.payload.encode(&mut body);
        self.user_data.encode(&mut body);
        seal(&MAGIC, &body)
    }

    /// Parse the on-disk format. The CRC is verified before anything else
    /// is interpreted: any flip or truncation anywhere in the file is
    /// [`SnapshotError::Corrupt`], and only a CRC-clean body can be
    /// diagnosed as a version mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(unseal(&MAGIC, bytes)?);
        let version = u32::decode(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let (config_hash, cycle, payload, user_data) = Codec::decode(&mut r)?;
        r.finish()?;
        Ok(Self {
            payload,
            config_hash,
            cycle,
            user_data,
        })
    }

    /// Write atomically through [`write_atomic`].
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, &self.to_bytes())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
    }

    /// Read and validate a snapshot file.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------

/// Rotating on-disk checkpoint store: keeps the `keep` most recent
/// `ckpt-<cycle>.snap` files in a directory and loads the newest one that
/// validates, falling back across the rotation past corrupt files.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    keep: usize,
}

impl Checkpointer {
    /// A checkpointer writing into `dir`, keeping the `keep` (≥ 1) most
    /// recent checkpoints.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `snap` as `ckpt-<cycle>.snap` (atomically) and prune the
    /// oldest checkpoints beyond the rotation size. Returns the path
    /// written.
    pub fn save(&self, snap: &SimSnapshot) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.dir.display())))?;
        let path = self.dir.join(format!("ckpt-{:012}.snap", snap.cycle()));
        snap.write_atomic(&path)?;
        let mut files = self.checkpoint_files()?;
        files.sort();
        while files.len() > self.keep {
            let victim = files.remove(0);
            let _ = std::fs::remove_file(victim);
        }
        Ok(path)
    }

    /// Load the most recent checkpoint that validates. Skips (but leaves
    /// in place) any file that fails CRC/version/parse checks — the
    /// fallback rotation. Returns `Ok(None)` when the directory is
    /// missing or holds no valid checkpoint.
    pub fn load_latest(&self) -> Result<Option<(PathBuf, SimSnapshot)>, SnapshotError> {
        let mut files = match self.checkpoint_files() {
            Ok(files) => files,
            Err(_) if !self.dir.exists() => return Ok(None),
            Err(e) => return Err(e),
        };
        files.sort();
        for path in files.into_iter().rev() {
            if let Ok(snap) = SimSnapshot::read(&path) {
                return Ok(Some((path, snap)));
            }
        }
        Ok(None)
    }

    fn checkpoint_files(&self) -> Result<Vec<PathBuf>, SnapshotError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.dir.display())))?;
        let mut files = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ckpt-") && name.ends_with(".snap") {
                files.push(path);
            }
        }
        // Zero-padded cycle numbers make lexicographic order the cycle
        // order: the last entry is always the newest checkpoint.
        files.sort();
        Ok(files)
    }
}

// ---------------------------------------------------------------------
// Value types
// ---------------------------------------------------------------------

macro_rules! codec_newtype {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Codec::decode(r).map($ty)
            }
        }
    )*};
}

codec_newtype!(NodeId, LinkId, FlitId, PacketId, VcId, Codeword, Counter);

impl Codec for Direction {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.index() as u8).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let i = u8::decode(r)?;
        Direction::ALL
            .get(i as usize)
            .copied()
            .ok_or_else(|| corrupt(format!("direction {i}")))
    }
}

/// The dense port index. Whether the port exists on the router is a
/// configuration question, checked by `Router::check_ports`.
impl Codec for Port {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.index() as u8).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Port::from_index(u8::decode(r)? as usize))
    }
}

/// Stored as its label, so the plan ladder can change representation
/// without changing the format.
impl Codec for LobPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let label = String::decode(r)?;
        LobPlan::from_label(&label).ok_or_else(|| corrupt(format!("lob plan label {label:?}")))
    }
}

impl Codec for StdRng {
    fn encode(&self, out: &mut Vec<u8>) {
        self.state().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Codec::decode(r).map(StdRng::from_state)
    }
}

/// The trace ring holds records as their canonical JSONL lines.
impl Codec for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_jsonl().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Record::from_jsonl(&String::decode(r)?).ok_or_else(|| corrupt("trace record jsonl"))
    }
}

// Field-by-field, not `Header::pack()`: the packed wire form aliases
// coordinates mod 16 and would not round-trip large meshes.
codec_struct!(Header {
    src,
    dest,
    vc,
    mem_addr,
    thread,
    len
});
codec_struct!(Flit {
    id,
    packet,
    kind,
    seq,
    header,
    word
});
codec_enum!(FlitKind { 0 => Head, 1 => Body, 2 => Tail, 3 => Single });
codec_struct!(ObfWire {
    plan,
    attempt,
    partner
});
codec_enum!(FaultClass { 0 => None, 1 => Transient, 2 => Permanent, 3 => HardwareTrojan });

codec_struct!(StallReport { cycle, kind, resident_flits, queued_flits, delivered_flits }
    // Wall-clock telemetry is not simulation state: a restored run
    // re-arms (or not) its own telemetry plane.
    skip { heartbeat: None });
codec_enum!(StallKind {
    0 => GlobalDeadlock { idle_cycles },
    1 => CreditStall { router, dir, oldest_age },
    2 => RetxLivelock { router, dir, flit, attempts },
});
codec_struct!(Violation { router, what });

codec_enum!(SimEvent {
    0 => PacketDelivered { packet, src, dest, injected_at, delivered_at },
    1 => BistRan { link, passed, cycle },
    2 => LinkClassified { link, class, cycle },
    3 => ObfuscationSucceeded { link, plan, cycle },
    4 => RetryBudgetEscalated { link, flit, attempts, cycle },
    5 => LinkQuarantined { link, dropped_packets, dropped_flits, cycle },
    6 => WatchdogTripped { report },
});
codec_enum!(TraceEvent {
    0 => Injected { cycle, flit, core },
    1 => Launched { cycle, flit, link, obfuscated, attempt },
    2 => Delivered { cycle, flit, link, outcome },
    3 => Ejected { cycle, flit, router },
});
codec_enum!(TraceOutcome { 0 => Clean, 1 => CorrectedSingleBit, 2 => Nacked { lob_requested } });

/// One tag byte, 0 for `None`: the poisoned-error slot predates the
/// `Option` flag convention.
impl Codec for Option<SimError> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(SimError::Stalled(report)) => {
                out.push(1);
                report.encode(out);
            }
            Some(SimError::MeshDisconnected { cycle, dead }) => {
                out.push(2);
                cycle.encode(out);
                dead.encode(out);
            }
            Some(SimError::InvariantViolations { cycle, violations }) => {
                out.push(3);
                cycle.encode(out);
                violations.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Some(match u8::decode(r)? {
            0 => return Ok(None),
            1 => SimError::Stalled(Codec::decode(r)?),
            2 => SimError::MeshDisconnected {
                cycle: Codec::decode(r)?,
                dead: Codec::decode(r)?,
            },
            3 => SimError::InvariantViolations {
                cycle: Codec::decode(r)?,
                violations: Codec::decode(r)?,
            },
            t => return Err(corrupt(format!("sim error tag {t}"))),
        }))
    }
}

codec_struct!(StatsSnapshot {
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
});
codec_struct!(SimStats {
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
});

/// `Topo` interleaves each entry's direction with its VC class; the
/// table shapes are checked against the mesh by `Simulator::check_decoded`.
impl Codec for Routing {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Routing::Xy => out.push(0),
            Routing::Table(tables) => {
                out.push(1);
                tables.next.encode(out);
            }
            Routing::OddEven => out.push(2),
            Routing::Topo(t) => {
                out.push(3);
                t.next.len().encode(out);
                for (row, classes) in t.next.iter().zip(&t.class) {
                    row.len().encode(out);
                    for (entry, class) in row.iter().zip(classes) {
                        entry.encode(out);
                        class.encode(out);
                    }
                }
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::decode(r)? {
            0 => Routing::Xy,
            1 => Routing::Table(RouteTables {
                next: Codec::decode(r)?,
            }),
            2 => Routing::OddEven,
            3 => {
                let rows: Vec<Vec<(Option<Direction>, u8)>> = Codec::decode(r)?;
                if let Some(&(_, c)) = rows.iter().flatten().find(|(_, c)| *c > 2) {
                    return Err(corrupt(format!("topo table vc class {c}")));
                }
                let (next, class) = rows.into_iter().map(|row| row.into_iter().unzip()).unzip();
                Routing::Topo(TopoRoutes::from_parts(next, class))
            }
            t => return Err(corrupt(format!("routing tag {t}"))),
        })
    }
}

codec_struct!(FaultRecordState {
    faults,
    syndromes,
    obf_attempts,
    clean_after_obf
});
codec_struct!(DetectorState {
    records,
    total_faults,
    total_retransmissions,
    bist_requests,
    lob_escalations,
    bist_passed,
});

codec_enum!(VcState { 0 => Idle, 1 => Routing, 2 => VcAlloc, 3 => Active });
codec_struct!(InputVc {
    fifo,
    state,
    route,
    out_vc,
    packet,
    wire_packet,
    expected_seq,
    since
});
codec_struct!(DelayedEntry {
    ready,
    vc,
    flit,
    order
});
codec_struct!(PendingScramble {
    flit,
    vc,
    partner,
    arrived,
    penalty,
    order
});
codec_enum!(SlotState { 0 => NeedSend, 1 => AwaitAck });
codec_struct!(RetxEntry {
    flit,
    vc,
    state,
    attempts,
    nacks,
    obf,
    sent_at,
    entered_at
});
codec_struct!(StMove {
    flit,
    out_port,
    out_vc,
    granted_at
});

/// A standalone arbiter (the output's send arbiter): pointer and width.
/// `select_send` rebuilds the arbiter (resetting the pointer) whenever
/// its width differs from `total_capacity()`, so the width must survive
/// the round trip too.
impl Codec for RoundRobin {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.next, self.n).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let (next, n) = Codec::decode(r)?;
        if n == 0 || next >= n {
            return Err(corrupt(format!("arbiter pointer {next}/{n}")));
        }
        Ok(RoundRobin { next, n })
    }
}

codec_struct!(AckMsg { flit, kind });
codec_enum!(AckKind { 0 => Ack { obf_success }, 1 => Nack { lob_attempt } });
codec_struct!(LinkFlit {
    flit,
    codeword,
    wire_word,
    vc,
    obf
});
codec_struct!(StuckWires {
    stuck_one,
    stuck_zero
});
codec_struct!(LinkFaults {
    transient_bit_prob,
    stuck,
    trojan,
    rng,
    transient_flips,
    trojan_injections
});

/// One tag byte, 0 for `None`, as for the poisoned-error slot.
impl<T: Codec + Copy> Codec for Option<FieldMatch<T>> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(FieldMatch::Exact(v)) => {
                out.push(1);
                v.encode(out);
            }
            Some(FieldMatch::Range(range)) => {
                out.push(2);
                (*range.start(), *range.end()).encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::decode(r)? {
            0 => None,
            1 => Some(FieldMatch::Exact(T::decode(r)?)),
            2 => {
                let (start, end) = Codec::decode(r)?;
                Some(FieldMatch::Range(start..=end))
            }
            t => return Err(corrupt(format!("field match tag {t}"))),
        })
    }
}

codec_struct!(TargetSpec { src, dest, vc, mem });
codec_struct!(TaspConfig {
    target,
    y_bits,
    wire_bits,
    cooldown
});
codec_enum!(TaspState { 0 => Idle, 1 => Active, 2 => Attacking });
codec_struct!(TaspStats {
    inspections,
    sightings,
    injections
});

/// The manufactured configuration, then the runtime state restored onto
/// a fresh instance of that design.
impl Codec for TaspHt {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config().encode(out);
        let runtime = (
            self.kill_switch(),
            self.state(),
            self.last_injection(),
            self.stats(),
            self.payload_state(),
            self.payload_injections(),
        );
        runtime.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut ht = TaspHt::new(TaspConfig::decode(r)?);
        let (killsw, state, last_injection, stats, payload_state, payload_injections) =
            Codec::decode(r)?;
        ht.restore_runtime(
            killsw,
            state,
            last_injection,
            stats,
            payload_state,
            payload_injections,
        );
        Ok(ht)
    }
}

codec_struct!(Gauge {
    current,
    high_water
});
codec_struct!(PowHistogram {
    buckets,
    count,
    max
});
codec_struct!(LinkMetrics {
    flits,
    retransmissions,
    ecc_corrected,
    ecc_uncorrectable,
    nacks,
    bist_scans,
    lob_selections,
    delivery_attempts,
});
codec_struct!(RouterMetrics {
    ejected_flits,
    injection_stalls,
    input_occupancy,
    retx_occupancy,
    buffer_high_water,
});

// ---------------------------------------------------------------------
// Shaped state
// ---------------------------------------------------------------------

/// A router's VC or switch arbiter: only the pointer is state, the width
/// is the configuration's.
impl Shaped for RoundRobin {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next.encode(out);
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let next = usize::decode(r)?;
        if next >= self.n {
            return Err(corrupt(format!("arbiter pointer {next}/{}", self.n)));
        }
        self.next = next;
        Ok(())
    }
}

/// The detector's runtime records; its thresholds are configuration.
impl Shaped for ThreatDetector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.export_state().encode(out);
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.import_state(DetectorState::decode(r)?);
        Ok(())
    }
}

impl Shaped for LobModule {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.logged_plan(), self.attempts(), self.successes()).encode(out);
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let (logged, attempts, successes) = Codec::decode(r)?;
        self.restore(logged, attempts, successes);
        Ok(())
    }
}

shaped!(InputUnit {
    len vcs,
    shaped detector,
    val delayed,
    val pending_scrambles,
    val seen_words,
    val seen_head,
    val next_order,
    val reported_class,
    val occupancy_high_water,
} check |unit| if unit.seen_head > unit.seen_words.len() {
    Err(corrupt("seen_head beyond ring"))
} else {
    Ok(())
});

shaped!(OutputUnit {
    val entries,
    len vc_owner,
    len credits,
    shaped lob,
    val send_rr,
    val last_progress,
    val protected_dests,
    val flits_sent,
    val retransmissions,
    val sab_credit_seen,
});

shaped!(Router {
    shaped inputs,
    shaped outputs,
    shaped va_arb,
    shaped sa_arb,
    val st_pending,
    val pending_to_output,
} check |router| router.check_ports());

impl Router {
    /// Every decoded route and crossbar move names a port this router has.
    fn check_ports(&self) -> Result<(), SnapshotError> {
        let ports = self.inputs.len();
        let routes = self
            .inputs
            .iter()
            .flat_map(|u| u.vcs.iter().filter_map(|vc| vc.route));
        let moves = self.st_pending.iter().map(|m| m.out_port);
        match routes.chain(moves).find(|p| p.index() >= ports) {
            Some(p) => Err(corrupt(format!("port index {} >= {ports}", p.index()))),
            None => Ok(()),
        }
    }
}

/// Link `i` of the SoA pool, in the field order of the per-link struct it
/// replaced: the in-flight wire with its arrival cycle, the ACK and
/// credit return queues, the fault layer, the carried-flit count.
impl Shaped for LinkLanes {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for i in 0..self.len() {
            self.flits[i].map(|f| (self.arrive_at[i], f)).encode(out);
            self.acks[i].encode(out);
            self.credits[i].encode(out);
            self.faults[i].encode(out);
            self.flits_carried[i].encode(out);
        }
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        expect_len(r, self.len(), "links")?;
        for i in 0..self.len() {
            let wire: Option<(u64, LinkFlit)> = Codec::decode(r)?;
            self.arrive_at[i] = wire.map_or(u64::MAX, |(at, _)| at);
            self.flits[i] = wire.map(|(_, f)| f);
            self.acks[i].decode_in_place(r)?;
            self.credits[i].decode_in_place(r)?;
            self.faults[i].decode_in_place(r)?;
            self.flits_carried[i].decode_in_place(r)?;
        }
        Ok(())
    }
}

shaped!(MetricsRegistry { len links, len routers });

/// The trace ring. The attached sink is the live simulator's property,
/// not the snapshot's: a restore keeps it, or closes it when the snapshot
/// was taken untraced.
impl Shaped for Option<TraceRecorder> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(t) = self {
            (t.capacity, t.emitted, t.dropped).encode(out);
            t.buf.encode(out);
        }
    }
    fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        if !bool::decode(r)? {
            if let Some(t) = self.as_mut() {
                t.close_sink();
            }
            *self = None;
            return Ok(());
        }
        let (capacity, emitted, dropped): (usize, u64, u64) = Codec::decode(r)?;
        let buf = Codec::decode(r)?;
        let t = self.get_or_insert_with(|| TraceRecorder::new(TraceConfig { capacity }));
        t.capacity = capacity.max(1);
        t.emitted = emitted;
        t.dropped = dropped;
        t.buf = buf;
        Ok(())
    }
}

shaped!(Simulator {
    val cycle,
    val next_flit_id,
    val birth,
    val stats,
    val events,
    val trace,
    val last_progress_cycle,
    val pending_quarantine,
    val poisoned,
    val watchdog_armed_at,
    val snap_base,
    len router_active,
    len link_dead,
    val sabotage_eject_seen,
    len inj_rr,
    len inj_queues,
    val dead_links,
    val routing,
    shaped metrics,
    shaped tracer,
    shaped routers,
    shaped links,
} check |sim| sim.check_decoded());

impl Simulator {
    /// Cross-field checks on a decoded payload: dead links in range and
    /// mirrored by `link_dead` (both are serialised, so their agreement
    /// doubles as an end-to-end decode check), route tables shaped like
    /// the mesh.
    fn check_decoded(&self) -> Result<(), SnapshotError> {
        if let Some(l) = self
            .dead_links
            .iter()
            .find(|l| l.index() >= self.link_dead.len())
        {
            return Err(corrupt(format!("dead link {} out of range", l.0)));
        }
        let marked = self.link_dead.iter().filter(|d| **d).count();
        if marked != self.dead_links.len()
            || self.dead_links.iter().any(|l| !self.link_dead[l.index()])
        {
            return Err(corrupt("dead_links / link_dead mirror disagree"));
        }
        let n = self.mesh.routers();
        let table = match &self.routing {
            Routing::Table(t) => Some(&t.next),
            Routing::Topo(t) => Some(&t.next),
            Routing::Xy | Routing::OddEven => None,
        };
        if table.is_some_and(|rows| rows.len() != n || rows.iter().any(|row| row.len() != n)) {
            return Err(corrupt(format!("route table is not {n}x{n}")));
        }
        Ok(())
    }

    /// Capture the complete simulator state as a [`SimSnapshot`].
    ///
    /// The capture is exact: restoring it (into this simulator or a fresh
    /// one built from an equal configuration) and stepping forward
    /// produces bit-identical cycles, statistics, events, and trace
    /// records — at every thread count. Legal at any cycle boundary.
    pub fn snapshot(&self) -> SimSnapshot {
        let mut payload = Vec::with_capacity(64 * 1024);
        Shaped::encode(self, &mut payload);
        SimSnapshot {
            payload,
            config_hash: config_hash(&self.cfg),
            cycle: self.cycle,
            user_data: Vec::new(),
        }
    }

    /// Restore a [`SimSnapshot`] into this simulator, replacing all
    /// runtime state. The simulator must have been built from a
    /// configuration whose [`config_hash`] matches the snapshot's.
    ///
    /// The attached trace sink (if any) is preserved; the sharding plan is
    /// kept and re-planned, so the current thread count carries over.
    ///
    /// # Errors
    ///
    /// On [`SnapshotError::ConfigMismatch`] the simulator is untouched.
    /// On any other error the simulator's state is unspecified (the
    /// decode mutates in place): discard it and rebuild — which is what
    /// [`Checkpointer::load_latest`]-driven resume loops do anyway.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapshotError> {
        let expected = config_hash(&self.cfg);
        if snap.config_hash != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: snap.config_hash,
                expected,
            });
        }
        let mut r = Reader::new(&snap.payload);
        self.decode_into(&mut r)?;
        r.finish()?;
        if self.cycle != snap.cycle {
            return Err(corrupt("header/payload cycle disagree"));
        }
        self.poll_buf.clear();
        self.flit_scratch.clear();
        // The codec wrote the authoritative per-VC structs directly; the
        // derived SoA lanes must be re-derived, and the restored routing
        // function may differ from whatever the RC memos were filled
        // under — a fresh epoch invalidates them lazily.
        let cycle = self.cycle;
        for r in self.routers.iter_mut() {
            r.rebuild_lanes(cycle);
        }
        self.routing_epoch = self.routing_epoch.wrapping_add(1);
        let threads = self.plans.len().max(1);
        self.set_threads(threads);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{NoTraffic, TrafficSource};
    use noc_types::Packet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Inject a fixed list of packets at their `created_at` cycles.
    struct ListSource {
        packets: Vec<Packet>,
    }

    impl TrafficSource for ListSource {
        fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
            let mut i = 0;
            while i < self.packets.len() {
                if self.packets[i].created_at == cycle {
                    out.push(self.packets.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        fn done(&self) -> bool {
            self.packets.is_empty()
        }
    }

    fn pkt(id: u64, cycle: u64, src: u16, dest: u16, len: u8) -> Packet {
        Packet::new(
            PacketId((id << 32) | cycle),
            NodeId(src),
            NodeId(dest),
            VcId((id % 2) as u8),
            (id * 64) as u32,
            (id % 4) as u8,
            len,
            cycle,
        )
    }

    fn burst(n: u64, from_cycle: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                pkt(
                    i + 1,
                    from_cycle + i,
                    (i % 16) as u16,
                    ((i * 7 + 3) % 16) as u16,
                    1 + (i % 4) as u8,
                )
            })
            .collect()
    }

    /// A unique scratch directory (no timestamps: deterministic tests).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("noc-snap-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc64_xz_check_vector() {
        // The CRC-64/XZ reference check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let mut sim = Simulator::new(SimConfig::paper());
        sim.run(
            200,
            &mut ListSource {
                packets: burst(24, 0),
            },
        );
        let mut snap = sim.snapshot();
        snap.set_user_data(b"cursor bytes".to_vec());
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.cycle(), snap.cycle());
        assert_eq!(back.config_hash(), snap.config_hash());
        assert_eq!(back.user_data(), b"cursor bytes");
        assert_eq!(back.payload, snap.payload);
    }

    #[test]
    fn restored_sim_resumes_bit_identically() {
        let cfg = SimConfig::paper();
        let mut reference = Simulator::new(cfg.clone());
        reference.run(
            250,
            &mut ListSource {
                packets: burst(32, 0),
            },
        );
        let snap = reference.snapshot();

        // The restored copy must re-produce the reference exactly, at
        // every thread count, with and without continued injection.
        for threads in [1usize, 2, 4, 8] {
            let mut resumed = Simulator::new(cfg.clone());
            resumed.set_threads(threads);
            resumed.restore(&snap).unwrap();
            assert_eq!(resumed.snapshot().payload, snap.payload, "t={threads}");

            let mut golden = Simulator::new(cfg.clone());
            golden.restore(&snap).unwrap();
            let mut a = ListSource {
                packets: burst(8, 260),
            };
            let mut b = ListSource {
                packets: burst(8, 260),
            };
            golden.run(300, &mut a);
            resumed.run(300, &mut b);
            assert_eq!(
                resumed.snapshot().payload,
                golden.snapshot().payload,
                "diverged at t={threads}"
            );
        }
    }

    #[test]
    fn uninterrupted_equals_checkpoint_resume() {
        let cfg = SimConfig::paper();
        let mut straight = Simulator::new(cfg.clone());
        straight.run(
            500,
            &mut ListSource {
                packets: burst(40, 0),
            },
        );

        let mut first = Simulator::new(cfg.clone());
        let mut src = ListSource {
            packets: burst(40, 0),
        };
        first.run(230, &mut src);
        let snap = snap_through_disk(&first);
        let mut second = Simulator::new(cfg);
        second.restore(&snap).unwrap();
        second.run(270, &mut src);
        assert_eq!(second.snapshot().payload, straight.snapshot().payload);
        assert_eq!(
            format!("{:?}", second.stats()),
            format!("{:?}", straight.stats())
        );
    }

    /// Round-trip a snapshot through the atomic on-disk format.
    fn snap_through_disk(sim: &Simulator) -> SimSnapshot {
        let dir = scratch_dir("disk");
        let path = dir.join("s.snap");
        sim.snapshot().write_atomic(&path).unwrap();
        let snap = SimSnapshot::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        snap
    }

    #[test]
    fn trojan_and_fault_state_survives_restore() {
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
        let cfg = SimConfig::paper();
        let mut sim = Simulator::new(cfg.clone());
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let faults = sim.link_faults_mut(link);
        faults.transient_bit_prob = 1e-3;
        faults.trojan = Some(TaspHt::new(TaspConfig::new(TargetSpec::dest(3))));
        sim.run(
            400,
            &mut ListSource {
                packets: burst(48, 0),
            },
        );
        let snap = sim.snapshot();

        let mut resumed = Simulator::new(cfg);
        let link2 = resumed.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let f2 = resumed.link_faults_mut(link2);
        f2.transient_bit_prob = 1e-3;
        f2.trojan = Some(TaspHt::new(TaspConfig::new(TargetSpec::dest(3))));
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.snapshot().payload, snap.payload);

        sim.run(200, &mut NoTraffic);
        resumed.run(200, &mut NoTraffic);
        assert_eq!(resumed.snapshot().payload, sim.snapshot().payload);
    }

    #[test]
    fn corruption_is_detected_never_panics() {
        let mut sim = Simulator::new(SimConfig::paper());
        sim.run(
            120,
            &mut ListSource {
                packets: burst(12, 0),
            },
        );
        let bytes = sim.snapshot().to_bytes();

        // Truncation at every interesting boundary.
        for cut in [0, 1, 7, 8, 15, 16, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        // Single-bit flips across the whole file (sampled stride to keep
        // the test fast) must be caught by the CRC.
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match SimSnapshot::from_bytes(&bad) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_typed_after_crc_passes() {
        let sim = Simulator::new(SimConfig::paper());
        let mut bytes = sim.snapshot().to_bytes();
        // Patch the version field inside the body, then re-seal the CRC so
        // only the version check can fire.
        let body_at = MAGIC.len() + 8;
        bytes[body_at..body_at + 4].copy_from_slice(&(SNAPSHOT_VERSION + 9).to_le_bytes());
        let crc = crc64(&bytes[body_at..]);
        let crc_at = MAGIC.len();
        bytes[crc_at..crc_at + 8].copy_from_slice(&crc.to_le_bytes());
        match SimSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 9);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn config_mismatch_is_rejected_and_leaves_sim_untouched() {
        let mut donor = Simulator::new(SimConfig::paper());
        donor.run(
            50,
            &mut ListSource {
                packets: burst(4, 0),
            },
        );
        let snap = donor.snapshot();

        let mut other = Simulator::new(SimConfig::paper_unprotected());
        let before = other.snapshot().payload;
        match other.restore(&snap) {
            Err(SnapshotError::ConfigMismatch { .. }) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(other.snapshot().payload, before);
    }

    #[test]
    fn thread_count_does_not_change_config_hash() {
        let mut a = SimConfig::paper();
        let mut b = SimConfig::paper();
        a.threads = Some(1);
        b.threads = Some(8);
        assert_eq!(config_hash(&a), config_hash(&b));
        assert_ne!(
            config_hash(&SimConfig::paper()),
            config_hash(&SimConfig::paper_unprotected())
        );
    }

    #[test]
    fn checkpointer_rotates_and_falls_back_past_corrupt_files() {
        let dir = scratch_dir("rot");
        let ck = Checkpointer::new(&dir, 3);
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: burst(20, 0),
        };
        for _ in 0..5 {
            sim.run(40, &mut src);
            ck.save(&sim.snapshot()).unwrap();
        }
        let files = ck.checkpoint_files().unwrap();
        assert_eq!(files.len(), 3, "{files:?}");

        let (_, latest) = ck.load_latest().unwrap().unwrap();
        assert_eq!(latest.cycle(), 200);

        // Corrupt the newest checkpoint: load_latest must fall back to
        // the previous one instead of failing.
        std::fs::write(files.last().unwrap(), b"garbage").unwrap();
        let (_, fallback) = ck.load_latest().unwrap().unwrap();
        assert_eq!(fallback.cycle(), 160);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointer_empty_or_missing_dir_is_none() {
        let dir = scratch_dir("empty");
        assert!(Checkpointer::new(&dir, 2).load_latest().unwrap().is_none());
        let missing = dir.join("not-created");
        assert!(Checkpointer::new(&missing, 2)
            .load_latest()
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot a simulator bent by `bend` into a state the codec must
    /// refuse, and require the restore into a healthy twin to fail with
    /// an error naming `what`.
    fn rejects(bend: impl FnOnce(&mut Simulator), what: &str) {
        let mut sim = Simulator::new(SimConfig::paper());
        sim.run(
            60,
            &mut ListSource {
                packets: burst(8, 0),
            },
        );
        bend(&mut sim);
        let mut twin = Simulator::new(SimConfig::paper());
        match twin.restore(&sim.snapshot()) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: got {msg}"),
            other => panic!("{what}: expected a corrupt-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_every_impossible_value() {
        rejects(
            |s| s.routers[0].inputs[0].vcs[0].route = Some(Port::Local(9)),
            "port index 13 >= 8",
        );
        rejects(|s| s.routers[3].va_arb[1].next = 10_000, "arbiter pointer");
        rejects(|s| s.routers[3].sa_arb[0].next = 10_000, "arbiter pointer");
        rejects(
            |s| s.routers[5].outputs[0].as_mut().unwrap().send_rr.n = 0,
            "arbiter pointer",
        );
        rejects(|s| s.routers[2].inputs[1].seen_head = 999, "seen_head");
        rejects(|s| s.inj_rr.push(0), "inj_rr: length");
        rejects(
            |s| {
                s.routers[0].outputs[0].as_mut().unwrap().credits.pop();
            },
            "credits: length",
        );
        rejects(|s| s.routers.truncate(15), "length 15 != 16");
        rejects(|s| s.routers[0].outputs[0] = None, "presence");
        rejects(|s| s.dead_links.push(LinkId(9_999)), "out of range");
        rejects(|s| s.dead_links.push(LinkId(3)), "mirror disagree");
        rejects(
            |s| s.routing = Routing::Table(RouteTables { next: vec![] }),
            "route table",
        );
        rejects(
            |s| {
                let n = s.mesh.routers();
                s.routing = Routing::Topo(TopoRoutes::from_parts(
                    vec![vec![None; n]; n],
                    vec![vec![3; n]; n],
                ))
            },
            "topo table vc class 3",
        );

        let sim = Simulator::new(SimConfig::paper());
        let mut snap = sim.snapshot();
        snap.payload.push(0);
        let mut twin = Simulator::new(SimConfig::paper());
        assert_eq!(
            twin.restore(&snap),
            Err(corrupt("1 trailing bytes")),
            "trailing bytes"
        );
    }

    #[test]
    fn bad_tags_and_hostile_lengths_are_errors_not_panics() {
        assert!(FlitKind::decode_all(&[4]).is_err());
        assert!(SimEvent::decode_all(&[7]).is_err());
        assert!(Routing::decode_all(&[4]).is_err());
        assert!(Option::<SimError>::decode_all(&[4]).is_err());
        assert!(Option::<FieldMatch<u8>>::decode_all(&[3]).is_err());
        assert!(bool::decode_all(&[2]).is_err());
        assert!(Direction::decode_all(&[5]).is_err());
        assert!(LobPlan::decode_all(&"no-such-plan".to_string().encoded()).is_err());
        // A length prefix claiming 2^64 - 1 items reserves no more than
        // the bytes that follow, then runs out of them.
        let hostile = u64::MAX.encoded();
        assert!(Vec::<Flit>::decode_all(&hostile).is_err());
        assert!(Vec::<u8>::decode_all(&hostile).is_err());
        assert!(String::decode_all(&hostile).is_err());
        assert!(HashMap::<PacketId, u64>::decode_all(&hostile).is_err());
    }

    #[test]
    fn stall_report_codec_roundtrip() {
        let report = StallReport {
            cycle: 12345,
            kind: StallKind::RetxLivelock {
                router: NodeId(5),
                dir: Direction::East,
                flit: FlitId(99),
                attempts: 64,
            },
            resident_flits: 19,
            queued_flits: 7,
            delivered_flits: 3,
            heartbeat: None,
        };
        let back = StallReport::decode_all(&report.encoded()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    /// Pins the bytes of the tags no natural run leaves at a cycle
    /// boundary: every `SimError` held in `poisoned`, the retry-budget
    /// event, and all three stall kinds. The end-to-end states live in
    /// `crates/core/tests/golden_snapshot_bytes.rs`.
    #[test]
    fn hand_set_tags_keep_their_bytes() {
        let stall = |kind| StallReport {
            cycle: 77,
            kind,
            resident_flits: 5,
            queued_flits: 2,
            delivered_flits: 40,
            heartbeat: None,
        };
        let kinds = [
            StallKind::GlobalDeadlock { idle_cycles: 900 },
            StallKind::CreditStall {
                router: NodeId(6),
                dir: Direction::South,
                oldest_age: 601,
            },
            StallKind::RetxLivelock {
                router: NodeId(5),
                dir: Direction::East,
                flit: FlitId(99),
                attempts: 24,
            },
        ];
        let errors = [
            SimError::Stalled(Box::new(stall(kinds[2]))),
            SimError::MeshDisconnected {
                cycle: 81,
                dead: vec![LinkId(3), LinkId(7)],
            },
            SimError::InvariantViolations {
                cycle: 96,
                violations: vec![Violation {
                    router: 2,
                    what: "credit leak".into(),
                }],
            },
        ];
        let mut got = Vec::new();
        for error in errors {
            let mut sim = Simulator::new(SimConfig::paper());
            sim.run(
                40,
                &mut ListSource {
                    packets: burst(6, 0),
                },
            );
            sim.events.push(SimEvent::RetryBudgetEscalated {
                link: LinkId(4),
                flit: FlitId(12),
                attempts: 6,
                cycle: 30,
            });
            for kind in kinds {
                sim.events.push(SimEvent::WatchdogTripped {
                    report: stall(kind),
                });
            }
            sim.poisoned = Some(error);
            let bytes = sim.snapshot().to_bytes();
            let mut back = Simulator::new(SimConfig::paper());
            back.restore(&SimSnapshot::from_bytes(&bytes).unwrap())
                .unwrap();
            assert_eq!(back.snapshot().to_bytes(), bytes);
            got.push((bytes.len(), fnv64(&bytes)));
        }
        assert_eq!(got, PINNED, "the snapshot byte format changed");
    }

    const PINNED: [(usize, u64); 3] = [
        (53895, 0x498d_fe2e_566f_eac9),
        (53867, 0xc2db_f337_16e3_b5dd),
        (53884, 0x3950_3312_ea2b_462d),
    ];

    #[test]
    fn post_mortem_snapshot_written_on_stall() {
        use crate::fault::LinkFaults;
        use crate::watchdog::WatchdogConfig;
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};

        let dir = scratch_dir("pm");
        let mut cfg = SimConfig::paper_unprotected();
        cfg.watchdog = Some(WatchdogConfig {
            global_stall_cycles: 200,
            credit_stall_cycles: u64::MAX,
            retx_attempt_limit: u32::MAX,
        });
        let mut sim = Simulator::new(cfg.clone());
        sim.set_post_mortem_dir(Some(dir.clone()));
        // An armed trojan with no mitigation starves the targeted flow:
        // the watchdog must trip and drop a post-mortem snapshot.
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
        let faults = std::mem::replace(sim.link_faults_mut(link), LinkFaults::healthy(0));
        *sim.link_faults_mut(link) = faults.with_trojan(ht);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 2)],
        };
        let result = sim.run_to_quiescence_guarded(5_000, &mut src);
        assert!(result.is_err(), "expected a stall, got {result:?}");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(files.len(), 1, "one post-mortem snapshot");
        let snap = SimSnapshot::read(&files[0].path()).unwrap();
        let mut twin = Simulator::new(cfg);
        twin.restore(&snap).unwrap();
        assert_eq!(twin.cycle(), snap.cycle());
        assert_eq!(twin.snapshot().payload, snap.payload);
        std::fs::remove_dir_all(&dir).ok();
    }
}
