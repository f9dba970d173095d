//! `cold-verify`: one-shot verifications in a closed loop, one client.
//!
//! An op is source text → `parse` → `elaborate` → `VerifySession::new` →
//! `verify_targets` over every `borrow` qubit, as `qborrow verify` runs
//! it; ops drawn with `jobs` = 2 call `verify_program_parallel` instead.
//! No cache, edit or serving layer runs.

use crate::gen::{Family, Program};
use crate::oracle::{self, Reported};
use crate::rng::Rng;
use crate::run::{self, Outcome, Report};
use crate::trace::{Tracer, OP};
use qb_core::{BackendKind, InitialValue, QubitVerdict, VerifyOptions, VerifySession};
use qb_lang::{ElaboratedProgram, QubitKind};
use std::time::{Duration, Instant};

/// Width strata of the regular ops: each pass has one op at the middle of
/// each stratum for every (family, backend) cell. The width is not drawn
/// from the seed: MCX under SAT swings by up to 20× between neighbouring
/// widths (on a 2-core x86-64 box, mcx-110 0.64 s, mcx-111 4.3 s, mcx-113
/// 0.19 s), so a drawn width would let the seed set a run's cost.
pub const STRATA: [(usize, usize); 8] = [
    (32, 43),
    (44, 55),
    (56, 67),
    (68, 79),
    (80, 91),
    (92, 103),
    (104, 115),
    (116, 128),
];

/// Adder width past the BDD/SAT crossover (on a 2-core x86-64 box,
/// adder-208 still favours BDD, 1.6 s vs 3.5 s SAT; adder-224 favours SAT,
/// 3.9 s vs 5.3 s BDD). Each pass runs it under `auto`, which picks BDD
/// first, and under `sat`.
pub const CROSSOVER_WIDTH: usize = 224;

const BACKENDS: [BackendKind; 3] = [BackendKind::Sat, BackendKind::Bdd, BackendKind::Auto];

/// One cold verification.
#[derive(Debug, Clone)]
pub struct ColdOp {
    /// The program, for its known answer.
    pub program: Program,
    /// Its source text, all the verifier sees.
    pub source: String,
    /// Decision backend.
    pub backend: BackendKind,
    /// 1: one session; 2: `verify_program_parallel` with two workers.
    pub jobs: usize,
}

/// The ops of one pass — 50, so that a percentile always lands on the
/// same op whether a run completes two passes or three: per (family,
/// backend), one op per width stratum, two of them with an injected unsafe
/// CNOT and two others with `jobs` = 2; plus the crossover adder,
/// unmodified, under `auto` and `sat`. Which strata carry
/// the mutants and the `jobs` = 2 ops is fixed per backend (a mutant on a
/// wide SAT adder costs fifty times one on a narrow adder), so that every
/// pass, whatever the seed, costs about the same; the seed draws the
/// mutants' qubits and the order.
pub fn draw_pass(rng: &mut Rng) -> Vec<ColdOp> {
    let mut ops = Vec::new();
    for family in [Family::Adder, Family::Mcx] {
        for (b, backend) in BACKENDS.into_iter().enumerate() {
            let n = STRATA.len();
            let mutants = [(1 + b) % n, (5 + b) % n];
            let parallel = [(3 + b) % n, (7 + b) % n];
            for (s, &(lo, hi)) in STRATA.iter().enumerate() {
                let mut program = Program::base(family, (lo + hi) / 2);
                if mutants.contains(&s) {
                    program.mutant = Some(program.draw_mutant(rng));
                }
                ops.push(ColdOp {
                    source: program.source(),
                    program,
                    backend,
                    jobs: if parallel.contains(&s) { 2 } else { 1 },
                });
            }
        }
    }
    for backend in [BackendKind::Auto, BackendKind::Sat] {
        let program = Program::base(Family::Adder, CROSSOVER_WIDTH);
        ops.push(ColdOp {
            source: program.source(),
            program,
            backend,
            jobs: 1,
        });
    }
    ops
}

/// Initial values as `verify_program` assigns them.
pub fn initial_values(program: &ElaboratedProgram) -> Vec<InitialValue> {
    (0..program.num_qubits())
        .map(|q| match program.qubit_kinds[q] {
            QubitKind::Clean => InitialValue::Zero,
            QubitKind::BorrowedDirty | QubitKind::TrustedDirty => InitialValue::Free,
        })
        .collect()
}

/// Span name of a session construction under `backend`.
pub fn session_new_span(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Sat => "core.session_new.sat",
        BackendKind::Bdd => "core.session_new.bdd",
        BackendKind::Auto => "core.session_new.auto",
        BackendKind::Anf => "core.session_new.anf",
    }
}

/// Library verdicts in the oracle's terms.
pub fn reported(program: &ElaboratedProgram, verdicts: &[QubitVerdict]) -> Vec<Reported> {
    verdicts
        .iter()
        .map(|v| Reported {
            name: program.qubit_name(v.qubit).to_string(),
            verdict: v.verdict.name().to_string(),
            witness: v
                .counterexample
                .as_ref()
                .and_then(|c| c.basis_assignment.clone()),
        })
        .collect()
}

/// Counters one op leaves behind, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// SAT propagations.
    pub propagations: u64,
    /// SAT conflicts.
    pub conflicts: u64,
    /// Decision-cache hits.
    pub decision_hits: u64,
    /// Condition roots queried (decision lookups).
    pub root_queries: u64,
    /// Cofactor-memo hits.
    pub cofactor_hits: u64,
    /// Cofactor-memo lookups (hits + entries built).
    pub cofactor_lookups: u64,
    /// Largest formula arena seen.
    pub arena_nodes_peak: u64,
    /// Arena collections.
    pub arena_collections: u64,
    /// Largest BDD residency seen.
    pub bdd_nodes_peak: u64,
    /// Auto roots that fell back from BDD to SAT.
    pub bdd_fallbacks: u64,
    /// Auto roots decided (BDD attempts).
    pub auto_roots: u64,
    /// BDD translation-cache hits.
    pub bdd_translation_hits: u64,
    /// BDD translation-cache lookups (hits + entries).
    pub bdd_translation_lookups: u64,
    /// SAT solve time, ns (`sat_time − encode_time`).
    pub sat_solve_ns: u64,
}

impl OpCounts {
    /// Adds `other` (peaks take the maximum).
    pub fn add(&mut self, other: &OpCounts) {
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.decision_hits += other.decision_hits;
        self.root_queries += other.root_queries;
        self.cofactor_hits += other.cofactor_hits;
        self.cofactor_lookups += other.cofactor_lookups;
        self.arena_nodes_peak = self.arena_nodes_peak.max(other.arena_nodes_peak);
        self.arena_collections += other.arena_collections;
        self.bdd_nodes_peak = self.bdd_nodes_peak.max(other.bdd_nodes_peak);
        self.bdd_fallbacks += other.bdd_fallbacks;
        self.auto_roots += other.auto_roots;
        self.bdd_translation_hits += other.bdd_translation_hits;
        self.bdd_translation_lookups += other.bdd_translation_lookups;
        self.sat_solve_ns += other.sat_solve_ns;
    }
}

/// Runs `verify_targets` on `session` inside a `core.verify_targets` span
/// and attributes the time its stats account for to the lower layers.
/// Returns the verdicts and the counters the sweep added.
pub fn traced_sweep(
    tracer: &mut Tracer,
    op: u64,
    session: &mut VerifySession,
    targets: &[usize],
    backend: BackendKind,
) -> (Result<Vec<QubitVerdict>, qb_core::VerifyError>, OpCounts) {
    if !tracer.on() {
        return (session.verify_targets(targets), OpCounts::default());
    }
    let before = session.stats();
    tracer.begin("core.verify_targets", op);
    let verdicts = session.verify_targets(targets);
    let after = session.stats();
    let encode = after.encode_time.saturating_sub(before.encode_time);
    let sat = after.sat_time.saturating_sub(before.sat_time);
    tracer.attribute(
        "core.cofactor",
        nanos(after.cofactor_time.saturating_sub(before.cofactor_time)),
    );
    tracer.attribute("formula.encode", nanos(encode));
    tracer.attribute("sat.solve", nanos(sat.saturating_sub(encode)));
    tracer.attribute(
        "bdd.solve",
        nanos(after.bdd_time.saturating_sub(before.bdd_time)),
    );
    tracer.end();
    let roots = after
        .root_latency
        .count()
        .saturating_sub(before.root_latency.count());
    let decision_hits = after.decision_hits - before.decision_hits;
    let cofactor_hits = after.cofactor_hits - before.cofactor_hits;
    let cofactor_built = after
        .cofactor_memo_entries
        .saturating_sub(before.cofactor_memo_entries) as u64;
    let translation_hits = after.bdd_translation_hits - before.bdd_translation_hits;
    let counts = OpCounts {
        propagations: after.solver_propagations - before.solver_propagations,
        conflicts: after.solver_conflicts - before.solver_conflicts,
        decision_hits,
        root_queries: roots,
        cofactor_hits,
        cofactor_lookups: cofactor_hits + cofactor_built,
        arena_nodes_peak: after.arena_nodes as u64,
        arena_collections: after.arena_collections - before.arena_collections,
        bdd_nodes_peak: after.bdd_resident_nodes as u64,
        bdd_fallbacks: after.bdd_fallbacks - before.bdd_fallbacks,
        auto_roots: if backend == BackendKind::Auto {
            roots.saturating_sub(decision_hits)
        } else {
            0
        },
        bdd_translation_hits: translation_hits,
        bdd_translation_lookups: translation_hits
            + after
                .bdd_cached_translations
                .saturating_sub(before.bdd_cached_translations) as u64,
        sat_solve_ns: nanos(sat.saturating_sub(encode)),
    };
    (verdicts, counts)
}

/// Nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Result of one op.
struct Done {
    ok: bool,
    wrong: usize,
    counts: OpCounts,
    /// Cheap digest of the verdicts, for the determinism check.
    digest: String,
}

fn run_op(tracer: &mut Tracer, id: u64, op: &ColdOp) -> Done {
    let source = &op.source;
    let opts = VerifyOptions {
        backend: op.backend,
        ..VerifyOptions::default()
    };
    tracer.begin(OP, id);
    let done = (|| {
        let ast = tracer
            .span("lang.parse", id, |_| qb_lang::parse(source))
            .ok()?;
        let program = tracer
            .span("lang.elaborate", id, |_| qb_lang::elaborate(&ast))
            .ok()?;
        let targets = program.qubits_to_verify();
        let (verdicts, counts) = if op.jobs == 1 {
            let initial = initial_values(&program);
            let mut session = tracer
                .span(session_new_span(op.backend), id, |_| {
                    VerifySession::new(&program.circuit, &initial, &opts)
                })
                .ok()?;
            let (verdicts, counts) = traced_sweep(tracer, id, &mut session, &targets, op.backend);
            (verdicts.ok()?, counts)
        } else {
            let report = tracer
                .span("core.parallel.jobs2", id, |_| {
                    qb_core::verify_program_parallel(&program, &opts, op.jobs)
                })
                .ok()?;
            (report.verdicts, OpCounts::default())
        };
        Some((program, verdicts, counts))
    })();
    tracer.end();
    match done {
        None => Done {
            ok: false,
            wrong: 0,
            counts: OpCounts::default(),
            digest: "error".into(),
        },
        Some((program, verdicts, counts)) => {
            let got = reported(&program, &verdicts);
            let unknown = got.iter().any(|r| r.verdict == "unknown");
            let digest = run::verdict_digest(&got);
            Done {
                ok: !unknown,
                wrong: oracle::wrong_verdicts(&op.program, &program, &got),
                counts,
                digest,
            }
        }
    }
}

/// Side measurements of the traced run, on the same programs but outside
/// every op: a separate `symbolic_execute` (so that session construction
/// minus symbolic execution is the base encoding), and for `jobs` = 2
/// ops the same program under `jobs` = 1.
fn side_measurements(tracer: &mut Tracer, id: u64, op: &ColdOp) {
    let Ok(program) = qb_lang::parse(&op.source).and_then(|ast| qb_lang::elaborate(&ast)) else {
        return;
    };
    let opts = VerifyOptions {
        backend: op.backend,
        ..VerifyOptions::default()
    };
    if op.jobs == 1 {
        let initial = initial_values(&program);
        tracer.span("side.symbolic", id, |_| {
            std::hint::black_box(
                qb_core::symbolic_execute(&program.circuit, &initial, opts.simplify).ok(),
            )
        });
    } else {
        tracer.span("side.parallel.jobs1", id, |_| {
            std::hint::black_box(qb_core::verify_program_parallel(&program, &opts, 1).ok())
        });
    }
}

/// Runs the workload: whole passes until `seconds` have elapsed. The
/// traced run alternates untraced and traced passes over the same ops, so
/// that the tracing overhead compares like with like.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut out = Outcome::new("cold-verify");
    let ops = out.setup(|| {
        let mut rng = Rng::new(seed, 1);
        (draw_pass(&mut rng), 0)
    });
    let mut rng = Rng::new(seed, 2);
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(traced);
    let mut counts = OpCounts::default();
    let start = Instant::now();
    let mut pass = 0;
    let mut id = 0u64;
    loop {
        let trace_this = traced && pass % 2 == 1;
        let mut order: Vec<usize> = (0..ops.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            let op = &ops[i];
            let t = Instant::now();
            let done = if trace_this {
                run_op(&mut tracer, id, op)
            } else {
                run_op(&mut untraced, id, op)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.op(ms, done.ok, done.wrong, trace_this);
            if pass == 0 {
                out.digest(&format!(
                    "{}:{}:{}",
                    op.program.label(),
                    op.backend.name(),
                    done.digest
                ));
            } else if pass == 1 && trace_this {
                let c = &done.counts;
                out.digest(&format!(
                    "{} {} {}",
                    c.propagations, c.conflicts, c.decision_hits
                ));
            }
            if trace_this {
                counts.add(&done.counts);
                side_measurements(&mut tracer, id, op);
            }
            id += 1;
        }
        pass += 1;
        if run::passes_done(pass, traced, start, seconds) {
            break;
        }
    }
    out.measured(start.elapsed());
    out.tail_basis = Some(2 * ops.len());
    out.peak_rss_self();
    if traced {
        run::core_layers(&mut out, &tracer, &counts);
    }
    out.finish(&tracer)
}
