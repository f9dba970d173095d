//! Self-tests of the benchmark: its known-answer rule, its statistics, its
//! metric names, its open-loop timing and its determinism.

use perfbench::cold::{self, initial_values};
use perfbench::daemon::{self, OpKind, Planned, PlannedOp, Transport};
use perfbench::gen::{Family, Program};
use perfbench::oracle;
use perfbench::rng::Rng;
use perfbench::run::{self, END_TO_END, PER_LAYER};
use perfbench::stats;
use qb_core::{BackendKind, VerifyOptions, VerifySession};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn elaborate(p: &Program) -> qb_lang::ElaboratedProgram {
    qb_lang::parse(&p.source())
        .and_then(|ast| qb_lang::elaborate(&ast))
        .expect("generated programs elaborate")
}

#[test]
fn mutant_rule_matches_definition_3_1_at_small_width() {
    assert_eq!(run::oracle_self_check(), 0);
    // Each single mutant breaks exactly its own a_k, by the exact check.
    for k in 1..5 {
        let mut p = Program::base(Family::Adder, 5);
        p.mutant = Some((k, 2));
        let e = elaborate(&p);
        let unsafe_names: Vec<String> = e
            .qubits_to_verify()
            .into_iter()
            .filter(|&q| {
                !qb_core::exact::classical_circuit_safely_uncomputes(&e.circuit, q).unwrap()
            })
            .map(|q| e.qubit_name(q).to_string())
            .collect();
        assert_eq!(unsafe_names, vec![format!("a[{k}]")]);
        assert_eq!(p.known_unsafe(), unsafe_names);
    }
}

#[test]
fn exact_check_catches_a_wrong_rule() {
    // A rule that blamed the wrong qubit must disagree with the oracle.
    let mut p = Program::base(Family::Adder, 5);
    p.mutant = Some((2, 1));
    let e = elaborate(&p);
    let mut wrong = p.clone();
    wrong.mutant = Some((3, 1));
    assert_eq!(oracle::exact_disagreements(&p, &e), Some(0));
    assert_eq!(oracle::exact_disagreements(&wrong, &e), Some(2));
}

#[test]
fn witnesses_replay_and_wrong_verdicts_are_counted() {
    let mut p = Program::base(Family::Mcx, 5);
    p.mutant = Some(p.draw_mutant(&mut Rng::new(1, 0)));
    let e = elaborate(&p);
    let mut session =
        VerifySession::new(&e.circuit, &initial_values(&e), &VerifyOptions::default()).unwrap();
    let verdicts = session.verify_targets(&e.qubits_to_verify()).unwrap();
    let got = cold::reported(&e, &verdicts);
    assert_eq!(oracle::wrong_verdicts(&p, &e, &got), 0);
    // The same verdicts against the unmutated program are all wrong.
    assert_eq!(
        oracle::wrong_verdicts(&Program::base(Family::Mcx, 5), &e, &got),
        1
    );
    // A witness that does not refute is caught.
    let mut forged = got.clone();
    forged[0].witness = forged[0].witness.clone().map(|w| vec![false; w.len()]);
    let q = e.qubits_to_verify()[0];
    if !oracle::witness_refutes(&e.circuit, q, forged[0].witness.as_deref().unwrap()) {
        assert_eq!(oracle::wrong_verdicts(&p, &e, &forged), 1);
    }
}

#[test]
fn tail_keeps_ten_samples_beyond_and_records_its_pick() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = stats::tail(&samples).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (90.0, 90.0, 10, 100)
    );
    // One sample fewer and p90 keeps only nine beyond: fall back to p75.
    let t = stats::tail(&samples[..99]).unwrap();
    assert_eq!(t.percentile, 75.0);
    assert!(t.beyond >= stats::TAIL_MIN_BEYOND);
    // Ties at the percentile do not count as beyond it.
    let mut tied = vec![5.0; 95];
    tied.extend((1..=10).map(|i| 5.0 + f64::from(i)));
    let t = stats::tail(&tied).unwrap();
    assert!(t.beyond >= 10 && t.value >= 5.0);
    assert!(stats::tail(&[1.0; 15]).is_none());
}

#[test]
fn metric_names_use_the_allowed_characters() {
    for name in END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
    {
        assert!(run::valid_metric_name(name), "{name}");
    }
    for bad in [
        "",
        "_lead",
        "has space",
        "slash/no",
        "x".repeat(65).as_str(),
        "ünïcode",
    ] {
        assert!(!run::valid_metric_name(bad), "{bad}");
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let json = qb_serve::Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END[..run::REPORTED_END_TO_END]
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}

/// A server that answers newline requests in order, stalling `stall`
/// before its first answer.
fn stalling_server(mut conn: UnixStream, n: usize, stall: Duration) {
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for i in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if i == 0 {
            std::thread::sleep(stall);
        }
        writeln!(conn, "{{\"ok\":true,\"request_id\":{}}}", i + 1).unwrap();
    }
}

#[test]
fn open_loop_times_from_the_due_time_so_a_stall_delays_later_ops() {
    let (mut client, server) = UnixStream::pair().unwrap();
    let period = Duration::from_millis(10);
    let plan: Vec<PlannedOp> = (0..6)
        .map(|i| PlannedOp {
            due: period * i,
            kind: OpKind::Verify,
            requests: vec![Planned {
                line: format!("{{\"cmd\":\"status\",\"n\":{i}}}"),
                expect: None,
                span: "serve.rtt.unix",
            }],
        })
        .collect();
    let stall = Duration::from_millis(150);
    let srv = std::thread::spawn(move || stalling_server(server, 6, stall));
    let start = Instant::now();
    let seen = daemon::drive(
        &mut client,
        Transport::Unix,
        start,
        &plan,
        Duration::from_secs(5),
    );
    srv.join().unwrap();
    assert_eq!(seen.responses.len(), 6);
    for (i, (op, sent)) in plan.iter().zip(&seen.sent).enumerate() {
        let due = start + op.due;
        let sent = sent.expect("every op was sent");
        // Sent on time: the stall did not hold the sender back...
        assert!(
            sent >= due && sent - due < Duration::from_millis(50),
            "op {i} sent late"
        );
        // ...but every op waited for the stalled one, from its due time.
        let answered = seen.responses[i].0;
        assert!(
            answered - due + op.due >= stall,
            "op {i} did not absorb the stall"
        );
    }
    let lat: Vec<f64> = plan
        .iter()
        .zip(&seen.responses)
        .map(|(op, (at, _))| (*at - (start + op.due)).as_secs_f64() * 1e3)
        .collect();
    assert!(lat[1] > 100.0 && lat[5] > 80.0, "{lat:?}");
}

#[test]
fn closed_loop_keeps_its_window_and_stops_sending_at_the_end() {
    let (mut client, server) = UnixStream::pair().unwrap();
    let plan: Vec<PlannedOp> = (0..50)
        .map(|i| PlannedOp {
            due: Duration::ZERO,
            kind: OpKind::Verify,
            requests: vec![Planned {
                line: format!("{{\"cmd\":\"status\",\"n\":{i}}}"),
                expect: None,
                span: "serve.rtt.unix",
            }],
        })
        .collect();
    // Answers each request in order, 20 ms after reading it, until EOF.
    let srv = std::thread::spawn(move || {
        let mut conn = server;
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        let mut id = 0;
        while reader.read_line(&mut line).unwrap() > 0 {
            std::thread::sleep(Duration::from_millis(20));
            id += 1;
            writeln!(conn, "{{\"ok\":true,\"request_id\":{id}}}").unwrap();
            line.clear();
        }
    });
    let window = 2;
    let until = Instant::now() + Duration::from_millis(200);
    let seen = daemon::drive_closed(
        &mut client,
        Transport::Unix,
        &plan,
        window,
        until,
        Duration::from_secs(5),
    );
    drop(client);
    srv.join().unwrap();
    let sent: Vec<Instant> = seen.sent.iter().map_while(|s| *s).collect();
    // Stopped at the end: about 200 ms / 20 ms ops were sent, not all 50,
    // none after `until`, and every one sent was answered.
    assert!((5..=15).contains(&sent.len()), "{} sent", sent.len());
    assert!(seen.sent[sent.len()..].iter().all(Option::is_none));
    assert!(sent.iter().all(|&t| t < until));
    assert_eq!(seen.responses.len(), sent.len());
    // Kept the window: op i went out only after op i - window was answered.
    for (i, (sent, answered)) in sent[window..].iter().zip(&seen.responses).enumerate() {
        assert!(*sent >= answered.0, "op {} overran the window", i + window);
    }
}

#[test]
fn backlog_detection_needs_latency_to_grow() {
    let steady = vec![5.0; 40];
    assert!(!daemon::backlog_grows(&steady));
    let growing: Vec<f64> = (0..40).map(|i| 5.0 + 40.0 * f64::from(i)).collect();
    assert!(daemon::backlog_grows(&growing));
}

#[test]
fn frames_round_trip_on_both_transports() {
    for t in [Transport::Unix, Transport::Tcp] {
        let mut buf = t.frame("{\"a\":1}");
        buf.extend(t.frame("{\"b\":2}"));
        let partial = buf.split_off(buf.len() - 3);
        assert_eq!(t.unframe(&mut buf), vec!["{\"a\":1}".to_string()]);
        buf.extend(partial);
        assert_eq!(t.unframe(&mut buf), vec!["{\"b\":2}".to_string()]);
        assert!(buf.is_empty());
    }
}

#[test]
fn same_seed_same_draw_and_different_seed_different_draw() {
    let labels = |seed| -> Vec<String> {
        cold::draw_pass(&mut Rng::new(seed, 1))
            .iter()
            .map(|op| {
                format!(
                    "{}:{}:{}:{:?}",
                    op.program.label(),
                    op.backend.name(),
                    op.jobs,
                    op.program.mutant
                )
            })
            .collect()
    };
    assert_eq!(labels(7), labels(7));
    assert_ne!(labels(7), labels(8));
    let edits = |seed| {
        let mut rng = Rng::new(seed, 3);
        (0..3)
            .flat_map(|_| perfbench::edit::draw_pass(&mut rng))
            .collect::<Vec<_>>()
    };
    assert_eq!(edits(7), edits(7));
    assert_ne!(edits(7), edits(8));
}

#[test]
fn solver_counts_repeat_exactly_for_the_same_input() {
    // Each session gets its own randomly seeded HashMaps, so equal counts
    // across sessions show the counts do not depend on iteration order.
    let counts = |backend| {
        let mut p = Program::base(Family::Adder, 20);
        p.mutant = Some(p.draw_mutant(&mut Rng::new(3, 0)));
        let e = elaborate(&p);
        let opts = VerifyOptions {
            backend,
            ..VerifyOptions::default()
        };
        let mut s = VerifySession::new(&e.circuit, &initial_values(&e), &opts).unwrap();
        let targets = e.qubits_to_verify();
        s.verify_targets(&targets).unwrap();
        let mut edited = p.clone();
        edited.tail = Some((1, 2));
        s.apply_edit(&elaborate(&edited).circuit).unwrap();
        let v = s.verify_targets(&targets).unwrap();
        let st = s.stats();
        (
            st.solver_propagations,
            st.solver_conflicts,
            st.decision_hits,
            run::verdict_digest(&cold::reported(&e, &v)),
        )
    };
    for backend in [BackendKind::Sat, BackendKind::Auto] {
        let first = counts(backend);
        for _ in 0..3 {
            assert_eq!(counts(backend), first, "{backend}");
        }
    }
}

#[test]
fn layer_self_times_and_unattributed_add_up_to_the_op_wall_time() {
    use perfbench::trace::{Tracer, OP};
    let mut t = Tracer::new(true);
    let at = Instant::now();
    let ms = |n: u64| at + Duration::from_millis(n);
    t.begin_at(OP, 0, ms(0));
    t.begin_at("core.verify_targets", 0, ms(2));
    // A stat claiming more than the span leaves is clamped to it.
    t.attribute("sat.solve", 3_000_000);
    t.attribute("bdd.solve", 9_000_000);
    t.end_at(ms(10));
    t.end_at(ms(12));
    assert_eq!(t.reconcile_ns(), 0);
    assert_eq!(t.layer(OP).self_ns, 4_000_000);
    assert_eq!(t.layer("sat.solve").self_ns, 3_000_000);
    assert_eq!(t.layer("bdd.solve").self_ns, 5_000_000);
    assert_eq!(t.layer("core.verify_targets").self_ns, 0);
    assert_eq!(t.op_walls_ns(), &[12_000_000]);
    assert!(t.chrome_trace().contains("core.verify_targets"));
}
