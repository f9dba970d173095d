//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side, around each call into a
//! layer's public functions; one id per op. Stats a call returns (for
//! example `SessionStats::sat_time`) are attributed as virtual children
//! of the open span, clamped to the time its real children leave over, so
//! a span's self time is its duration minus everything attributed below
//! it. The root span of an op is named [`OP`]; its self time is the op
//! wall time no layer span covers (`obs.unattributed_ms`). By
//! construction the layer self times of an op plus its unattributed time
//! add up to the op's wall time.
//!
//! When tracing is off every method is a no-op apart from running the
//! closure of [`Tracer::span`].

use qb_obs::SpanEvent;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of an op's root span.
pub const OP: &str = "op";

/// Accumulated time of one span name (or attributed share).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans or attributions recorded under this name.
    pub calls: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
}

struct Frame {
    name: &'static str,
    op: u64,
    start: Instant,
    children_ns: u64,
    attributed: Vec<(&'static str, u64)>,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    spans: Vec<SpanEvent>,
    layers: BTreeMap<&'static str, Layer>,
    op_walls_ns: Vec<u64>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            layers: BTreeMap::new(),
            op_walls_ns: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        self.begin_at(name, op, Instant::now());
    }

    /// Opens a span that started at `start`.
    pub fn begin_at(&mut self, name: &'static str, op: u64, start: Instant) {
        if self.on {
            self.stack.push(Frame {
                name,
                op,
                start,
                children_ns: 0,
                attributed: Vec::new(),
            });
        }
    }

    /// Attributes `ns` of the open span's time to `name` (a stat the
    /// call returned), as a virtual child.
    pub fn attribute(&mut self, name: &'static str, ns: u64) {
        if let Some(frame) = self.stack.last_mut() {
            frame.attributed.push((name, ns));
        }
    }

    /// Closes the innermost span now.
    pub fn end(&mut self) {
        self.end_at(Instant::now());
    }

    /// Closes the innermost span at `end`.
    pub fn end_at(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        let frame = self.stack.pop().expect("end without a matching begin");
        let dur = end.saturating_duration_since(frame.start).as_nanos() as u64;
        let mut left = dur.saturating_sub(frame.children_ns);
        for (name, ns) in frame.attributed {
            let share = ns.min(left);
            left -= share;
            let layer = self.layers.entry(name).or_default();
            layer.calls += 1;
            layer.self_ns += share;
            layer.total_ns += share;
        }
        let layer = self.layers.entry(frame.name).or_default();
        layer.calls += 1;
        layer.self_ns += left;
        layer.total_ns += dur;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if frame.name == OP {
            self.op_walls_ns.push(dur);
        }
        self.spans.push(SpanEvent {
            name: frame.name,
            label: format!("op{}", frame.op),
            start_ns: frame.start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur,
            depth: self.stack.len() as u32,
            tid: 1,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.begin(name, op);
        let out = f(self);
        self.end();
        out
    }

    /// One layer's totals (zero when it never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per call of `name`, milliseconds (0 when it never ran).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let l = self.layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.self_ns as f64 / l.calls as f64 / 1e6
        }
    }

    /// Mean duration per call of `name`, milliseconds (0 when it never ran).
    pub fn mean_total_ms(&self, name: &str) -> f64 {
        let l = self.layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.calls as f64 / 1e6
        }
    }

    /// Wall times of the completed ops, nanoseconds.
    pub fn op_walls_ns(&self) -> &[u64] {
        &self.op_walls_ns
    }

    /// Sum of every op's wall time minus the sum of the self times of the
    /// spans under op roots: zero unless spans were opened outside ops or
    /// the self-time accounting is broken. Reported so that a run shows
    /// its layers add up.
    pub fn reconcile_ns(&self) -> i128 {
        let walls: u128 = self.op_walls_ns.iter().map(|&w| w as u128).sum();
        let covered: u128 = self
            .layers
            .iter()
            .filter(|(name, _)| !is_side_measurement(name))
            .map(|(_, l)| l.self_ns as u128)
            .sum();
        walls as i128 - covered as i128
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn chrome_trace(&self) -> String {
        qb_obs::chrome_trace(&self.spans)
    }
}

/// Spans recorded outside any op (side measurements on the same
/// programs, such as the separate `symbolic_execute` call); they are not
/// part of any op's wall time.
pub fn is_side_measurement(name: &str) -> bool {
    name.starts_with("side.")
}
