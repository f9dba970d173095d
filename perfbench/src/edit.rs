//! `edit-loop`: seeded edits to warm sessions in a closed loop, one
//! thread — the editor and `qborrow watch` path.
//!
//! Set-up builds warm sessions (constructed and swept once) for
//! adder-128 and MCX-128 under `sat`, `bdd` and `auto` (see [`SESSIONS`]
//! for the one exception). An op is: parse
//! and elaborate the edited source → `apply_edit` → `verify_targets` over
//! every target. The decision cache, cofactor memo, encoder scope rollback
//! and arena/BDD collection do most of the work.

use crate::cold::{self, initial_values, reported, traced_sweep, OpCounts};
use crate::gen::{Family, Program};
use crate::oracle;
use crate::rng::Rng;
use crate::run::{self, Outcome, Report};
use crate::trace::{Tracer, OP};
use qb_core::{BackendKind, VerifyOptions, VerifySession};
use std::time::Instant;

/// The warm sessions: adder-128 and MCX-128 under every backend, except
/// that the SAT adder that takes every edit kind is adder-64. At
/// adder-128 a SAT session's condition roots (about 8.3k) overflow the
/// decision cache, so every re-verify re-solves from scratch (1–8 s per
/// op on a 2-core x86-64 box) — too slow for every edit kind in every
/// pass. [`CLIFF`] keeps that case measured.
pub const SESSIONS: [(Family, usize, BackendKind); 6] = [
    (Family::Adder, 64, BackendKind::Sat),
    (Family::Adder, 128, BackendKind::Bdd),
    (Family::Adder, 128, BackendKind::Auto),
    (Family::Mcx, 128, BackendKind::Sat),
    (Family::Mcx, 128, BackendKind::Bdd),
    (Family::Mcx, 128, BackendKind::Auto),
];

/// The adder-128 SAT session, past the decision-cache cliff: it takes
/// one structural no-op edit per pass, which a cache that held its roots
/// would answer without solving.
pub const CLIFF: (Family, usize, BackendKind) = (Family::Adder, 128, BackendKind::Sat);

/// The kinds of edit. Every pass sends each kind to each of [`SESSIONS`]
/// once, followed (not necessarily next) by the edit that takes the
/// session back to its base program, so each op's cost depends on its
/// kind and not on edits the seed happened to pile up before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Add a trailing `CNOT[q[i], q[j]]`.
    Suffix,
    /// Add an identity pair between compute and uncompute.
    Mid,
    /// Add the injected unsafe CNOT.
    Mutant,
    /// Change only a comment: a structural no-op.
    Noop,
    /// Return to the base program (removes what the previous edit added).
    Revert,
}

/// The kinds that modify the base program.
pub const KINDS: [EditKind; 4] = [
    EditKind::Suffix,
    EditKind::Mid,
    EditKind::Mutant,
    EditKind::Noop,
];

impl EditKind {
    /// Short name used in the digest.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Suffix => "suffix",
            EditKind::Mid => "mid",
            EditKind::Mutant => "mutant",
            EditKind::Noop => "noop",
            EditKind::Revert => "revert",
        }
    }

    /// The next program: `base` with this kind's modification (drawn from
    /// `rng`), or `base` itself for [`EditKind::Noop`] and
    /// [`EditKind::Revert`]. The revision comment always moves on, so
    /// every edit sends new text.
    pub fn apply(self, base: &Program, current: &Program, rng: &mut Rng) -> Program {
        let mut next = base.clone();
        next.revision = current.revision + 1;
        match self {
            EditKind::Suffix => next.tail = Some(base.draw_tail(rng)),
            EditKind::Mid => next.mid = Some(base.draw_trusted(rng)),
            EditKind::Mutant => next.mutant = Some(base.draw_mutant(rng)),
            EditKind::Noop | EditKind::Revert => {}
        }
        next
    }
}

/// One pass: for each of [`SESSIONS`], the four kinds in seeded order,
/// each followed by a revert (twice over for the MCX sessions); the
/// sessions' sequences interleaved in seeded order. Then one no-op edit to
/// [`CLIFF`] (session index `SESSIONS.len()`).
///
/// MCX edits cost a few milliseconds, adder edits ten to a thousand times
/// more. The MCX rounds are doubled so that the median op lies well
/// inside the MCX class rather than on its border with the adder class,
/// where it would jump between the two with the seed.
pub fn draw_pass(rng: &mut Rng) -> Vec<(usize, EditKind)> {
    let mut queues: Vec<Vec<EditKind>> = SESSIONS
        .iter()
        .map(|&(family, _, _)| {
            let rounds = if family == Family::Mcx { 2 } else { 1 };
            let mut seq = Vec::new();
            for _ in 0..rounds {
                let mut kinds = KINDS;
                rng.shuffle(&mut kinds);
                seq.extend(kinds.iter().flat_map(|&k| [EditKind::Revert, k]));
            }
            seq
        })
        .collect();
    let mut order = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&s| !queues[s].is_empty())
            .collect();
        let s = live[rng.below(live.len())];
        order.push((s, queues[s].pop().expect("live queue")));
    }
    order.push((SESSIONS.len(), EditKind::Noop));
    order
}

/// A warm session and the program it currently holds.
pub struct Warm {
    /// The program the session was built for.
    pub base: Program,
    /// The program the session verifies now.
    pub program: Program,
    /// Its backend.
    pub backend: BackendKind,
    /// The session.
    pub session: VerifySession,
}

/// Builds and sweeps the warm sessions: [`SESSIONS`], then [`CLIFF`].
/// Returns them and the number of wrong verdicts of the warm-up sweeps.
pub fn warm_up() -> (Vec<Warm>, usize) {
    let mut warm = Vec::new();
    let mut wrong = 0;
    for (family, width, backend) in SESSIONS.into_iter().chain([CLIFF]) {
        let program = Program::base(family, width);
        let elaborated = qb_lang::parse(&program.source())
            .and_then(|ast| qb_lang::elaborate(&ast))
            .expect("generated programs elaborate");
        let opts = VerifyOptions {
            backend,
            ..VerifyOptions::default()
        };
        let mut session =
            VerifySession::new(&elaborated.circuit, &initial_values(&elaborated), &opts)
                .expect("generated programs are classical");
        let verdicts = session
            .verify_targets(&elaborated.qubits_to_verify())
            .expect("warm-up sweep");
        wrong += oracle::wrong_verdicts(&program, &elaborated, &reported(&elaborated, &verdicts));
        warm.push(Warm {
            base: program.clone(),
            program,
            backend,
            session,
        });
    }
    (warm, wrong)
}

struct Done {
    ok: bool,
    wrong: usize,
    counts: OpCounts,
    digest: String,
    reuse: Option<(usize, usize)>,
}

fn run_op(tracer: &mut Tracer, id: u64, warm: &mut Warm, next: Program) -> Done {
    let source = next.source();
    tracer.begin(OP, id);
    let done = (|| {
        let ast = tracer
            .span("lang.parse", id, |_| qb_lang::parse(&source))
            .ok()?;
        let program = tracer
            .span("lang.elaborate", id, |_| qb_lang::elaborate(&ast))
            .ok()?;
        let encode_before = tracer.on().then(|| warm.session.stats().encode_time);
        tracer.begin("core.apply_edit", id);
        let edit = warm.session.apply_edit(&program.circuit);
        if let Some(before) = encode_before {
            let encode = warm.session.stats().encode_time.saturating_sub(before);
            tracer.attribute("formula.encode", cold::nanos(encode));
        }
        tracer.end();
        let edit = edit.ok()?;
        let targets = program.qubits_to_verify();
        let (verdicts, counts) =
            traced_sweep(tracer, id, &mut warm.session, &targets, warm.backend);
        Some((program, verdicts.ok()?, counts, edit))
    })();
    tracer.end();
    match done {
        None => Done {
            ok: false,
            wrong: 0,
            counts: OpCounts::default(),
            digest: "error".into(),
            reuse: None,
        },
        Some((program, verdicts, counts, edit)) => {
            let got = reported(&program, &verdicts);
            let unknown = got.iter().any(|r| r.verdict == "unknown");
            let wrong = oracle::wrong_verdicts(&next, &program, &got);
            warm.program = next;
            Done {
                ok: !unknown,
                wrong,
                counts,
                digest: run::verdict_digest(&got),
                reuse: Some((edit.permanent_prefix, edit.new_gates)),
            }
        }
    }
}

/// Runs the workload: whole passes (every edit kind to every session,
/// in seeded order) until `seconds` have elapsed; see
/// [`crate::cold::run`] for the traced run's alternation.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut out = Outcome::new("edit-loop");
    let mut warm = out.setup(warm_up);
    let mut rng = Rng::new(seed, 3);
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(traced);
    let mut counts = OpCounts::default();
    let (mut kept, mut new_gates) = (0usize, 0usize);
    let start = Instant::now();
    let mut pass = 0;
    let mut id = 0u64;
    loop {
        let trace_this = traced && pass % 2 == 1;
        let order = draw_pass(&mut rng);
        for (s, kind) in order {
            let w = &mut warm[s];
            let next = kind.apply(&w.base, &w.program, &mut rng);
            let label = format!("{}:{}:{}", next.label(), w.backend.name(), kind.name());
            let t = Instant::now();
            let done = if trace_this {
                run_op(&mut tracer, id, w, next)
            } else {
                run_op(&mut untraced, id, w, next)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.op(ms, done.ok, done.wrong, trace_this);
            if pass == 0 {
                out.digest(&format!("{label}:{}", done.digest));
            } else if pass == 1 && trace_this {
                let c = &done.counts;
                out.digest(&format!(
                    "{} {} {}",
                    c.propagations, c.conflicts, c.decision_hits
                ));
            }
            if trace_this {
                counts.add(&done.counts);
                if let Some((k, n)) = done.reuse {
                    kept += k;
                    new_gates += n;
                }
            }
            id += 1;
        }
        pass += 1;
        if run::passes_done(pass, traced, start, seconds) {
            break;
        }
    }
    out.measured(start.elapsed());
    out.tail_basis = Some(2 * draw_pass(&mut Rng::new(seed, 3)).len());
    out.peak_rss_self();
    if traced {
        run::core_layers(&mut out, &tracer, &counts);
        out.layer(
            "core.edit_reuse_ratio",
            run::ratio(kept as u64, new_gates as u64),
        );
    }
    out.finish(&tracer)
}
