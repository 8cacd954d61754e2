//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and operation id. Calls made
//! once per simulated cycle (`Simulator::step`, `skip_idle_cycles`) get
//! one aggregated span per operation instead of one per call: it runs
//! from the first call's start to the last call's end and carries the
//! summed busy time and the call count. A layer's self time is a span's
//! busy time minus the busy time of its children, in thread-seconds (a
//! span whose children run on `threads` worker threads offers
//! `threads ×` its duration).

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<u32>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub threads: u32,
}

/// Accumulates one per-cycle call site for one operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallAgg {
    first_ns: Option<u64>,
    last_ns: u64,
    busy_ns: u64,
    calls: u64,
}

impl CallAgg {
    /// Run `f`, timing it only when `on`.
    #[inline]
    pub fn time<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        self.first_ns.get_or_insert(t0);
        self.last_ns = t1;
        self.busy_ns += t1 - t0;
        self.calls += 1;
        r
    }
}

/// The spans of one pass (or of one worker's share of it).
#[derive(Debug, Default)]
pub struct Spans {
    pub on: bool,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            list: Vec::new(),
        }
    }

    /// Open a span; returns its id (meaningless when tracing is off).
    pub fn begin(&mut self, name: &'static str, op: Option<u32>, parent: Option<usize>) -> usize {
        if self.on {
            let t = now_ns();
            self.list.push(Span {
                name,
                op,
                parent,
                start_ns: t,
                end_ns: t,
                busy_ns: 0,
                calls: 1,
                threads: 1,
            });
        }
        self.list.len().wrapping_sub(1)
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            let t = now_ns();
            let s = &mut self.list[id];
            s.end_ns = t;
            s.busy_ns = t - s.start_ns;
        }
    }

    /// Mark a span as offering `threads` worker threads for its duration.
    pub fn set_threads(&mut self, id: usize, threads: u32) {
        if self.on {
            self.list[id].threads = threads;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: Option<u32>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Record an aggregated call site as one span.
    pub fn push_agg(&mut self, name: &'static str, op: Option<u32>, parent: usize, agg: &CallAgg) {
        if let (true, Some(first)) = (self.on, agg.first_ns) {
            self.list.push(Span {
                name,
                op,
                parent: Some(parent),
                start_ns: first,
                end_ns: agg.last_ns,
                busy_ns: agg.busy_ns,
                calls: agg.calls,
                threads: 1,
            });
        }
    }

    /// Append `other` (recorded elsewhere, e.g. on a worker thread),
    /// hanging its roots under `parent`.
    pub fn adopt(&mut self, other: Spans, parent: usize) {
        if !self.on {
            return;
        }
        let offset = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }

    /// Self time per span name, seconds (thread-seconds).
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p] += s.busy_ns * u64::from(s.threads);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.list.iter().zip(child) {
            let own = (s.busy_ns * u64::from(s.threads)).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total calls per span name.
    pub fn calls(&self, name: &str) -> u64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// One JSON object per span.
    pub fn to_json_lines(&self, pass: usize, out: &mut String) {
        use std::fmt::Write as _;
        for (id, s) in self.list.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"threads\":{}}}",
                s.name,
                opt(s.op.map(|o| o as usize)),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                s.threads
            );
        }
    }
}
