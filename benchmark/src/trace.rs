//! Driver-side spans: one per call into the library, recorded in memory
//! and written out when the child ends. Spans inside the library are a
//! later issue.

use crate::json::Json;
use std::time::Instant;

/// Every span the driver records. A root (`Slice`, `Step`, `Solve`)
/// holds the calls made on behalf of one fixed-work slice; trees are two
/// levels deep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Slice,
    PostAm,
    PostSend,
    PostRecv,
    TxProgress,
    RxProgress,
    CompPop,
    Step,
    ExchangeCounts,
    A2avDispatch,
    A2avCombine,
    Allreduce,
    Solve,
}

pub const NAMES: [&str; 13] = [
    "slice",
    "post_am",
    "post_send",
    "post_recv",
    "tx_progress",
    "rx_progress",
    "comp_pop",
    "step",
    "exchange_counts",
    "a2av_dispatch",
    "a2av_combine",
    "allreduce",
    "solve",
];

/// What the workload loops are generic over, so the untraced run
/// compiles the probe calls away.
pub trait Probe {
    fn enter(&mut self, name: Name);
    fn exit(&mut self);
    /// The operation (message sequence number, step) later spans belong to.
    fn op(&mut self, id: u64);
}

pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: Name) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn op(&mut self, _: u64) {}
}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    parent: u32,
    op: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub sum_ns: u64,
    pub count: u64,
}

/// One finished root span with its children summed by name.
#[derive(Clone)]
pub struct Root {
    pub name: Name,
    pub dur_ns: u64,
    pub children: [Agg; NAMES.len()],
}

impl Root {
    pub fn child_ns(&self) -> u64 {
        self.children.iter().map(|a| a.sum_ns).sum()
    }

    /// The root's own time: its duration minus what its children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns())
    }
}

struct Open {
    name: Name,
    start_ns: u64,
    /// Where the span sits in `spans`, if it was kept.
    idx: Option<u32>,
}

/// Raw spans kept for the trace file; later ones only feed the sums.
const RAW_SPANS: usize = 20_000;

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    cur: [Agg; NAMES.len()],
    pub roots: Vec<Root>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(RAW_SPANS),
            open: Vec::with_capacity(8),
            cur: [Agg::default(); NAMES.len()],
            roots: Vec::with_capacity(4096),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Duration of one call of `name`, in ns: the best root's mean.
    /// Zero when the span never occurred.
    pub fn call_ns(&self, name: Name) -> f64 {
        self.best(name, |a| a.count)
    }

    /// Time in `name` per unit of work, in the best root: its sum
    /// divided by `per_root` (messages or steps in a root).
    pub fn ns_per(&self, name: Name, per_root: u64) -> f64 {
        self.best(name, |_| per_root)
    }

    fn best(&self, name: Name, denom: impl Fn(&Agg) -> u64) -> f64 {
        self.roots
            .iter()
            .map(|r| r.children[name as usize])
            .filter(|a| a.count > 0 && denom(a) > 0)
            .map(|a| a.sum_ns as f64 / denom(&a) as f64)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Largest relative gap between a root's duration and the sum of
    /// its self time and its children. Zero unless spans overlap or a
    /// child outlives its parent.
    pub fn worst_self_gap(&self) -> f64 {
        self.roots
            .iter()
            .map(|r| {
                let covered = r.self_ns() + r.child_ns();
                (covered as f64 - r.dur_ns as f64).abs() / r.dur_ns.max(1) as f64
            })
            .fold(0.0, f64::max)
    }

    pub fn to_json(&self) -> Json {
        let roots = self.roots.iter().map(|r| {
            let children =
                NAMES.iter().zip(r.children.iter()).filter(|(_, a)| a.count > 0).map(|(n, a)| {
                    (
                        *n,
                        Json::obj([("sum_ns", Json::Int(a.sum_ns)), ("count", Json::Int(a.count))]),
                    )
                });
            Json::obj([
                ("name", Json::str(NAMES[r.name as usize])),
                ("dur_ns", Json::Int(r.dur_ns)),
                ("self_ns", Json::Int(r.self_ns())),
                ("children", Json::obj(children)),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(NAMES[s.name as usize])),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    if s.parent == u32::MAX { Json::Num(-1.0) } else { Json::Int(s.parent as u64) },
                ),
                ("op_id", Json::Int(s.op)),
            ])
        });
        Json::obj([
            ("roots", Json::Arr(roots.collect())),
            ("raw_spans_kept", Json::Int(self.spans.len() as u64)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

impl Probe for Recorder {
    #[inline]
    fn enter(&mut self, name: Name) {
        let idx = (self.spans.len() < RAW_SPANS).then(|| {
            let parent = self.open.last().and_then(|o| o.idx).unwrap_or(u32::MAX);
            self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now();
        self.open.push(Open { name, start_ns, idx });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now();
        let o = self.open.pop().expect("exit without enter");
        if let Some(i) = o.idx {
            let s = &mut self.spans[i as usize];
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
        let dur = end_ns - o.start_ns;
        if self.open.is_empty() {
            let children = std::mem::replace(&mut self.cur, [Agg::default(); NAMES.len()]);
            self.roots.push(Root { name: o.name, dur_ns: dur, children });
        } else {
            let a = &mut self.cur[o.name as usize];
            a.sum_ns += dur;
            a.count += 1;
        }
    }

    #[inline]
    fn op(&mut self, id: u64) {
        self.op = id;
    }
}
