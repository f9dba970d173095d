//! What a run measures, and how it is reported.

use crate::cold::OpCounts;
use crate::gen::{Family, Program};
use crate::oracle::{self, Reported};
use crate::stats::{self, Tail};
use crate::trace::{Tracer, OP};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Least set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Set-up repeats until this much time has gone into it (a cheap set-up
/// is repeated more often, so that its median is steady), up to
/// [`SETUP_REPEATS_MAX`] times.
pub const SETUP_MIN_S: f64 = 1.0;

/// Most set-ups per run.
pub const SETUP_REPEATS_MAX: usize = 100_000;

/// End-to-end metrics, with their units. The last two are carried by the
/// result's `failed`/`attempted` and `correct` members as well.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "op/s"),
    ("max_ok_rps", "req/s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
    ("wrong_verdicts", "count"),
];

/// End-to-end metrics that are never zero, which the result line carries
/// in `metrics` (the two others are zero on a healthy run).
pub const REPORTED_END_TO_END: usize = 6;

/// Per-layer metrics of the traced run: name, unit, which way is better.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("lang.parse_ms", "ms", "lower"),
    ("lang.elaborate_ms", "ms", "lower"),
    ("lang.calls", "count", "higher"),
    ("core.session_new_ms.sat", "ms", "lower"),
    ("core.session_new_ms.bdd", "ms", "lower"),
    ("core.session_new_ms.auto", "ms", "lower"),
    ("core.session_new_calls", "count", "higher"),
    ("core.symbolic_ms", "ms", "lower"),
    ("core.verify_target_ms", "ms", "lower"),
    ("core.cofactor_ms", "ms", "lower"),
    ("core.cofactor_hit_ratio", "ratio", "higher"),
    ("core.decision_hit_ratio", "ratio", "higher"),
    ("core.apply_edit_ms", "ms", "lower"),
    ("core.apply_edit_calls", "count", "higher"),
    ("core.edit_reuse_ratio", "ratio", "higher"),
    ("core.parallel_ms.jobs1", "ms", "lower"),
    ("core.parallel_ms.jobs2", "ms", "lower"),
    ("formula.encode_ms", "ms", "lower"),
    ("formula.arena_nodes_peak", "count", "lower"),
    ("formula.arena_collections", "count", "lower"),
    ("sat.solve_ms", "ms", "lower"),
    ("sat.roots", "count", "higher"),
    ("sat.propagations", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.ns_per_prop", "ns", "lower"),
    ("bdd.solve_ms", "ms", "lower"),
    ("bdd.resident_nodes_peak", "count", "lower"),
    ("bdd.fallback_ratio", "ratio", "lower"),
    ("bdd.translation_hit_ratio", "ratio", "higher"),
    ("serve.requests", "count", "higher"),
    ("serve.rtt_ms.unix", "ms", "lower"),
    ("serve.rtt_ms.tcp", "ms", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.load_ms", "ms", "lower"),
    ("serve.gen_lag_ms", "ms", "lower"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.shed_ratio.mailbox_full", "ratio", "lower"),
    ("serve.shed_ratio.deadline", "ratio", "lower"),
    ("serve.shed_ratio.brownout", "ratio", "lower"),
    ("serve.shed_ratio.breaker", "ratio", "lower"),
    ("serve.session_evictions", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.unattributed_ms", "ms", "lower"),
];

/// Is `name` a valid metric name: starts with a letter or digit, at most
/// 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whole passes are done: at least two, an even number when traced
/// (which alternates untraced and traced passes), and `seconds` spent.
pub fn passes_done(pass: usize, traced: bool, start: Instant, seconds: f64) -> bool {
    pass >= 2 && (!traced || pass.is_multiple_of(2)) && start.elapsed().as_secs_f64() >= seconds
}

/// Compact, order-preserving rendering of a verdict list.
pub fn verdict_digest(got: &[Reported]) -> String {
    got.iter()
        .filter(|r| r.verdict != "safe")
        .map(|r| format!("{}={}", r.name, r.verdict))
        .collect::<Vec<_>>()
        .join(",")
}

/// Checks the generator's known-answer rule against Definition 3.1 at
/// small widths, for every combination of modifications. Returns the
/// number of disagreements (0 when the rule holds).
pub fn oracle_self_check() -> usize {
    let mut disagreements = 0;
    for (family, widths) in [
        (Family::Adder, &[4usize, 5, 6][..]),
        (Family::Mcx, &[4, 5][..]),
    ] {
        for &width in widths {
            let base = Program::base(family, width);
            let verified = match family {
                Family::Adder => width - 1,
                Family::Mcx => 1,
            };
            for k in 1..=verified {
                // On MCX, mutant target 0 stands for `t`.
                let j = 1 + (k + width) % base.trusted();
                let targets = match family {
                    Family::Adder => vec![j],
                    Family::Mcx => vec![j, 0],
                };
                for (bits, w) in (0..8u8).flat_map(|b| targets.iter().map(move |&w| (b, w))) {
                    let mut p = base.clone();
                    p.mid = (bits & 1 != 0).then_some(j);
                    p.mutant = (bits & 2 != 0).then_some((k.min(width - 1), w));
                    p.tail =
                        (bits & 4 != 0).then_some((1 + k % p.trusted(), 1 + (k + 1) % p.trusted()));
                    if p.tail.is_some_and(|(a, b)| a == b) {
                        p.tail = None;
                    }
                    let elaborated = qb_lang::parse(&p.source())
                        .and_then(|ast| qb_lang::elaborate(&ast))
                        .expect("generated programs elaborate");
                    disagreements += oracle::exact_disagreements(&p, &elaborated)
                        .expect("self-check widths are small");
                }
            }
        }
    }
    disagreements
}

/// Everything one run measured.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    setup_s: Vec<f64>,
    /// Latencies of untraced ops, milliseconds (on `daemon-mix`, the
    /// lowest rate of the ladder).
    pub lat_ms: Vec<f64>,
    /// Latencies of traced ops, milliseconds.
    pub traced_lat_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were shed, returned `unknown` or timed out.
    pub failed: u64,
    /// Verdicts that differ from the known answer.
    pub wrong: u64,
    /// Ops completed (failed or not) in the measured phase.
    pub completed: u64,
    measured_s: f64,
    /// Set by daemon-mix; closed loops report their goodput.
    pub max_ok_rps: Option<f64>,
    /// Overrides `completed / measured` (daemon-mix: the probe's rate).
    pub ops_per_s: Option<f64>,
    /// Sample count the tail percentile is chosen by (closed loops: two
    /// passes, which every run completes); `None`: all samples.
    pub tail_basis: Option<usize>,
    rss_mb: f64,
    layers: Vec<(&'static str, f64)>,
    digest: u64,
    digest_ops: u64,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            setup_s: Vec::new(),
            lat_ms: Vec::new(),
            traced_lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            completed: 0,
            measured_s: 0.0,
            max_ok_rps: None,
            ops_per_s: None,
            tail_basis: None,
            rss_mb: 0.0,
            layers: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            digest_ops: 0,
            notes: Vec::new(),
        }
    }

    /// Runs `setup` at least [`SETUP_REPEATS`] times and until
    /// [`SETUP_MIN_S`] have gone into it, timing each, and keeps the last
    /// result. The previous result is dropped before the next set-up
    /// starts, outside the timed region. `setup` returns its state and
    /// the number of wrong verdicts it saw. Then, untimed, checks the
    /// generator's known-answer rule ([`oracle_self_check`]) once.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> (T, usize)) -> T {
        let mut last = None;
        while self.setup_s.len() < SETUP_REPEATS
            || (self.setup_s.iter().sum::<f64>() < SETUP_MIN_S
                && self.setup_s.len() < SETUP_REPEATS_MAX)
        {
            drop(last.take());
            let t = Instant::now();
            let (state, wrong) = setup();
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.wrong += wrong as u64;
            last = Some(state);
        }
        self.wrong += oracle_self_check() as u64;
        last.expect("at least one set-up")
    }

    /// Records one op.
    pub fn op(&mut self, ms: f64, ok: bool, wrong: usize, traced: bool) {
        self.attempted += 1;
        self.completed += 1;
        self.failed += u64::from(!ok);
        self.wrong += wrong as u64;
        if traced {
            self.traced_lat_ms.push(ms);
        } else {
            self.lat_ms.push(ms);
        }
    }

    /// Folds one op's identity and verdicts into the run digest.
    pub fn digest(&mut self, text: &str) {
        for b in text.bytes().chain([b'\n']) {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x100_0000_01b3);
        }
        self.digest_ops += 1;
    }

    /// Length of the measured phase.
    pub fn measured(&mut self, elapsed: Duration) {
        self.measured_s = elapsed.as_secs_f64();
    }

    /// Records this process's peak resident set.
    pub fn peak_rss_self(&mut self) {
        self.rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    }

    /// Records the peak resident set of process `pid`.
    pub fn peak_rss_of(&mut self, pid: u32) {
        self.rss_mb = peak_rss_mb(&pid.to_string()).unwrap_or(0.0);
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    /// Closes the run: derives the tracing metrics and the report.
    pub fn finish(mut self, tracer: &Tracer) -> Report {
        if tracer.on() {
            let ops = tracer.op_walls_ns().len().max(1) as f64;
            self.layer(
                "obs.unattributed_ms",
                tracer.layer(OP).self_ns as f64 / ops / 1e6,
            );
            if !self.lat_ms.is_empty() && !self.traced_lat_ms.is_empty() {
                let ratio = stats::median(&self.traced_lat_ms) / stats::median(&self.lat_ms);
                self.layer("obs.trace_overhead_ratio", ratio);
            }
            let walls: f64 = tracer.op_walls_ns().iter().map(|&w| w as f64).sum();
            self.notes.push(format!(
                "trace: {} ops, layer self times + unattributed = op wall time within {} ns of {:.3} ms",
                tracer.op_walls_ns().len(),
                tracer.reconcile_ns(),
                walls / 1e6
            ));
        }
        let trace = tracer.on().then(|| tracer.chrome_trace());
        Report {
            outcome: self,
            trace,
        }
    }
}

/// Fills the per-layer metrics of the verifier layers from the traced
/// ops' spans and counters. Times are means per call (per op for the
/// attributed shares, which occur once per sweep).
pub fn core_layers(out: &mut Outcome, tracer: &Tracer, counts: &OpCounts) {
    out.layer("lang.parse_ms", tracer.mean_self_ms("lang.parse"));
    out.layer("lang.elaborate_ms", tracer.mean_self_ms("lang.elaborate"));
    out.layer("lang.calls", tracer.layer("lang.parse").calls as f64);
    for (metric, span) in [
        ("core.session_new_ms.sat", "core.session_new.sat"),
        ("core.session_new_ms.bdd", "core.session_new.bdd"),
        ("core.session_new_ms.auto", "core.session_new.auto"),
    ] {
        out.layer(metric, tracer.mean_total_ms(span));
    }
    let new_calls: u64 = ["sat", "bdd", "auto"]
        .iter()
        .map(|b| tracer.layer(&format!("core.session_new.{b}")).calls)
        .sum();
    out.layer("core.session_new_calls", new_calls as f64);
    out.layer("core.symbolic_ms", tracer.mean_total_ms("side.symbolic"));
    out.layer(
        "core.verify_target_ms",
        tracer.mean_self_ms("core.verify_targets"),
    );
    out.layer("core.cofactor_ms", tracer.mean_self_ms("core.cofactor"));
    out.layer(
        "core.cofactor_hit_ratio",
        ratio(counts.cofactor_hits, counts.cofactor_lookups),
    );
    out.layer(
        "core.decision_hit_ratio",
        ratio(counts.decision_hits, counts.root_queries),
    );
    out.layer("core.apply_edit_ms", tracer.mean_self_ms("core.apply_edit"));
    out.layer(
        "core.apply_edit_calls",
        tracer.layer("core.apply_edit").calls as f64,
    );
    out.layer(
        "core.parallel_ms.jobs1",
        tracer.mean_total_ms("side.parallel.jobs1"),
    );
    out.layer(
        "core.parallel_ms.jobs2",
        tracer.mean_total_ms("core.parallel.jobs2"),
    );
    out.layer("formula.encode_ms", tracer.mean_self_ms("formula.encode"));
    out.layer("formula.arena_nodes_peak", counts.arena_nodes_peak as f64);
    out.layer("formula.arena_collections", counts.arena_collections as f64);
    out.layer("sat.solve_ms", tracer.mean_self_ms("sat.solve"));
    out.layer("sat.roots", counts.root_queries as f64);
    out.layer("sat.propagations", counts.propagations as f64);
    out.layer("sat.conflicts", counts.conflicts as f64);
    out.layer(
        "sat.ns_per_prop",
        if counts.propagations == 0 {
            0.0
        } else {
            counts.sat_solve_ns as f64 / counts.propagations as f64
        },
    );
    out.layer("bdd.solve_ms", tracer.mean_self_ms("bdd.solve"));
    out.layer("bdd.resident_nodes_peak", counts.bdd_nodes_peak as f64);
    out.layer(
        "bdd.fallback_ratio",
        ratio(counts.bdd_fallbacks, counts.auto_roots),
    );
    out.layer(
        "bdd.translation_hit_ratio",
        ratio(counts.bdd_translation_hits, counts.bdd_translation_lookups),
    );
    out.notes.push(format!(
        "counts: propagations {} conflicts {} decision hits {} / {} roots",
        counts.propagations, counts.conflicts, counts.decision_hits, counts.root_queries
    ));
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `VmHWM` of `/proc/<pid>/status`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A finished run, ready to print.
pub struct Report {
    outcome: Outcome,
    /// Chrome trace-event JSON of the traced run's spans.
    pub trace: Option<String>,
}

impl Report {
    /// The run's verdicts all matched the known answers.
    pub fn correct(&self) -> bool {
        self.outcome.wrong == 0
    }

    /// The end-to-end values, in [`END_TO_END`] order, and the tail pick.
    pub fn end_to_end(&self) -> (Vec<f64>, Option<Tail>) {
        let o = &self.outcome;
        let tail = stats::tail_by(&o.lat_ms, o.tail_basis.unwrap_or(o.lat_ms.len()));
        let p50 = if o.lat_ms.is_empty() {
            0.0
        } else {
            stats::median(&o.lat_ms)
        };
        let measured = o.measured_s.max(f64::MIN_POSITIVE);
        let ok = o.completed.saturating_sub(o.failed) as f64;
        let values = vec![
            if o.setup_s.is_empty() {
                0.0
            } else {
                stats::median(&o.setup_s)
            },
            p50,
            tail.map_or(0.0, |t| t.value),
            o.ops_per_s.unwrap_or(o.completed as f64 / measured),
            o.max_ok_rps.unwrap_or(ok / measured),
            o.rss_mb,
            ratio(o.failed, o.attempted),
            o.wrong as f64,
        ];
        (values, tail)
    }

    /// The human-readable report followed by the result line.
    pub fn render(&self, traced: bool) -> String {
        let o = &self.outcome;
        let (values, tail) = self.end_to_end();
        let mut s = String::new();
        let _ = writeln!(s, "workload {}", o.workload);
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            let _ = writeln!(s, "  {name:<16} {v:>14.4} {unit}");
        }
        let _ = writeln!(
            s,
            "  setups: {}, {:.6} s to {:.6} s",
            o.setup_s.len(),
            o.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            o.setup_s.iter().copied().fold(0.0, f64::max)
        );
        let _ = writeln!(
            s,
            "  digest {:016x} over {} ops; measured {:.3} s",
            o.digest, o.digest_ops, o.measured_s
        );
        for note in &o.notes {
            let _ = writeln!(s, "  {note}");
        }
        let tail_json = match tail {
            Some(t) => format!(
                "{{\"percentile\": {}, \"value_ms\": {}, \"beyond\": {}, \"samples\": {}}}",
                t.percentile, t.value, t.beyond, t.samples
            ),
            None => "null".to_string(),
        };
        let _ = writeln!(
            s,
            "{{\"workload\": \"{}\", \"op_tail\": {tail_json}, \"fail_frac\": {}, \"wrong_verdicts\": {}, \"digest\": \"{:016x}\"}}",
            o.workload, values[6], o.wrong, o.digest
        );
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    let v = o
                        .layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v);
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(v)
                    )
                })
                .collect()
        } else {
            END_TO_END[..REPORTED_END_TO_END]
                .iter()
                .zip(&values)
                .map(|((name, unit), v)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(*v)
                    )
                })
                .collect()
        };
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            o.attempted.max(1),
            o.failed,
            metrics.join(", ")
        );
        s
    }
}

/// A finite JSON number (non-finite values print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
