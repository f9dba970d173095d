//! `daemon-mix`: an open loop on a fixed arrival schedule against the real
//! `qborrow serve` binary.
//!
//! The daemon runs in its own process with a small `--max-sessions`. This
//! process drives it over one Unix and one TCP connection, one thread
//! each (two threads in all), pipelining requests: a thread sends each op
//! when it is due and, between sends, waits for responses in `ppoll` until
//! the next due time — no busy polling. Each op is timed from when it was
//! due, so a stall delays every op behind it.
//!
//! During the first step the load process and the daemon share one CPU
//! ([`Cpus`]). On a small virtual machine, a thread woken on an idle
//! virtual CPU waits until the host runs that CPU again, and how long
//! depends on what the host's other tenants do. A request crosses four
//! threads of two processes, so at a low rate across two CPUs the
//! latencies measured that wait more than the daemon: a pipe ping-pong
//! between two processes lost 1–17% of its CPU time to the host (steal
//! time) from one minute to the next, against about 1% when both sat on
//! one CPU, and daemon-mix's median latency doubled between runs as steal
//! went from 0.5% to 13.5%. On one CPU a hand-off between threads wakes
//! no other CPU. Set-up (daemon start and warm loads) is such a string of
//! round trips too and runs on the same CPU. The probe and the rungs keep
//! every CPU busy, so they run on all of them, and the capacity measured
//! is the machine's.
//!
//! The mix is mostly warm re-verifies of loaded programs, some edits
//! (each followed by a verify), and a few loads of new structural
//! variants (each followed by a verify), which force session
//! construction and LRU eviction. The shares ([`DECK`]), the widths
//! ([`WARM`], [`VARIANT_BACKEND`]) and the rates are assumptions, not measured
//! traffic: no client in the repository sends a mix. Every verify
//! carries a deadline equal to [`LATENCY_LIMIT_MS`]. Each connection owns
//! its own programs, so the order in which one program's requests are
//! handled, and hence every known answer, is fixed by the send order.
//!
//! A run has three phases: a first step at [`BASE_RATE`], which gives the
//! latencies; a closed-loop probe, which gives the daemon's capacity on
//! the mix (`ops_per_s`); and rungs at [`RUNGS`] shares of that capacity,
//! which give `max_ok_rps`. The first two alternate in [`ROUNDS`]
//! segments, the probe first: it fills the session table, so that every
//! variant load of the first step evicts a session. (With the first step
//! first, whose early loads evict nothing, its load latencies split into
//! 7.1–8.6 ms and 9.9–13.5 ms, and the p95 sat at the jump.)

use crate::cold::nanos;
use crate::edit::{EditKind, KINDS};
use crate::gen::{Family, Program};
use crate::oracle::{self, Reported};
use crate::rng::Rng;
use crate::run::{self, Outcome, Report};
use crate::stats;
use crate::trace::{Tracer, OP};
use qb_core::BackendKind;
use qb_serve::{Client, Json, Request};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Latency limit on `op_tail_ms`, and the deadline of every verify.
pub const LATENCY_LIMIT_MS: u64 = 500;

/// Offered load of the first step, ops per second over both connections.
/// `op_p50_ms` and `op_tail_ms` are taken from it.
pub const BASE_RATE: f64 = 50.0;

/// Share of the run the first step takes, so that the latencies reported
/// from it rest on 400 ops in a 20 s run.
pub const FIRST_STEP_SHARE: f64 = 0.4;

/// Share of the run the closed-loop probe takes. Its rate moves by up to
/// a fifth between segments a few seconds apart as the host's load
/// changes, so it gets most of what the first step leaves.
pub const PROBE_SHARE: f64 = 0.45;

/// The first step and the probe run in this many alternating segments.
/// The speed the host gives this process changes from one second to the
/// next (a rung's median latency moved by up to 2x against the first
/// step's in the same run), so a phase spread over the run reads steadier
/// than one in a single block.
pub const ROUNDS: usize = 4;

/// Requests each connection keeps in flight during the probe: enough to
/// keep both CPUs busy, few enough that no verify's deadline is at risk.
pub const PROBE_WINDOW: usize = 4;

/// Ops each connection plans per second of the probe, more than the
/// daemon completes; the ops not sent by the end are dropped.
const PROBE_PLAN_PER_S: f64 = 2000.0;

/// Offered load of the rungs above the first step, as shares of the
/// capacity the probe measured. A fixed ladder would have to stop short
/// of the knee, which moves with the load other tenants put on the host
/// (410–830 op/s on two shared cores), and then reads the same for a
/// faster and a slower daemon. The top rung stays well clear of the
/// knee, because the host can slow down between the probe and a rung: at
/// 0.85 of capacity some verifies missed their deadline, and in a noisy
/// hour a few ops failed at 0.45 and 0.6. The rungs split what the first
/// step and the probe leave of the run.
pub const RUNGS: [f64; 3] = [0.2, 0.3, 0.4];

/// Length of each rung, as a share of the run.
pub fn rung_share() -> f64 {
    (1.0 - FIRST_STEP_SHARE - PROBE_SHARE) / RUNGS.len() as f64
}

/// `--max-sessions` of the daemon: the six warm programs and 26 slots
/// for variants, so variant loads evict. The victim is the least recently
/// used session; with fewer slots, the loads one connection sends while
/// the other waits on a slow op at the probe's rate can outnumber the
/// slots and evict a warm program, after which its verifies fail
/// `not_loaded` (8 slots did).
pub const MAX_SESSIONS: usize = 32;

/// Per connection: the warm programs it owns (family, width, backend).
/// The adders' warm verifies cost alike (on one core: adder-36 auto 2.4
/// ms, adder-40 bdd 2.8 ms, adder-44 bdd 3.3 ms at the median) and those
/// of the two MCX programs about 0.7 ms. In the deck the MCX programs
/// take 26% of the ops and the adders and edits 66%, so the median op
/// lies well inside the adders' band. With a SAT adder-24 (1.4 ms) in
/// place of adder-38 it sat in the gap between that program and the
/// rest and moved by a quarter between seeds. SAT adders are left out:
/// their unsafe-CNOT edit re-solves the broken carry (cold: adder-24 72
/// ms, adder-32 130 ms), and the daemon sheds verifies queued behind it.
pub const WARM: [[(Family, usize, BackendKind); 3]; 2] = [
    [
        (Family::Adder, 38, BackendKind::Auto),
        (Family::Adder, 40, BackendKind::Bdd),
        (Family::Mcx, 32, BackendKind::Auto),
    ],
    [
        (Family::Adder, 36, BackendKind::Auto),
        (Family::Mcx, 40, BackendKind::Sat),
        (Family::Adder, 44, BackendKind::Bdd),
    ],
];

/// Backend of every variant load: the daemon's default. Variants are
/// adders of one width, [`VARIANT_WIDTH`] ([`PROBE_VARIANT_WIDTH`] in the
/// probe, so that the probe never loads a structure the steps after it
/// load: a second load of a resident structure is aliased to its session
/// and costs 2 ms instead of 10). The trailing CNOT that makes each
/// variant new is drawn from the seed, and never repeats a structure
/// within a run. Loads are the dearest ops (about 8–12 ms against 0.5–4
/// ms for most others) and hold 8% of them, so `op_tail_ms` (p95) lands
/// inside the loads, at the 38th percentile of their latencies. One width
/// and one backend keep that class narrow. With widths cycling through
/// 24–28 the p95 sat near the edge between two widths' loads and moved by
/// a quarter between seeds; under SAT the same loads took 2–40 ms, with
/// the cost set by the drawn CNOT, and an MCX-16 variant with a CNOT on
/// `q[2]` took 240 ms against 34 ms at the median.
const VARIANT_BACKEND: BackendKind = BackendKind::Auto;

/// Width of the variant adders loaded by the steps.
const VARIANT_WIDTH: usize = 26;

/// Width of the variant adders loaded by the probe.
const PROBE_VARIANT_WIDTH: usize = 30;

/// Op mix per 25 ops, shuffled: 20 warm verifies (7, 7 and 6 of the
/// connection's three programs), one edit to each program, 2 variant
/// loads. Each entry is the op and the index of the program it touches.
/// The mix is the same in every deck, so the median op does not move
/// between programs whose warm verifies cost differently. The shares
/// (80/12/8) are assumed: the repository's only editing client, `qborrow
/// watch`, sends an edit and a verify per file change and nothing else,
/// so it gives no ratio of reads to writes.
const DECK: [(OpKind, usize); 25] = {
    let mut deck = [(OpKind::Verify, 0); 25];
    let mut i = 0;
    while i < 20 {
        deck[i].1 = i % 3;
        i += 1;
    }
    deck[20] = (OpKind::Edit, 0);
    deck[21] = (OpKind::Edit, 1);
    deck[22] = (OpKind::Edit, 2);
    deck[23] = (OpKind::Load, 0);
    deck[24] = (OpKind::Load, 0);
    deck
};

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Re-verify a warm program.
    Verify,
    /// Edit a warm program, then verify it.
    Edit,
    /// Load a new structural variant, then verify it.
    Load,
}

/// The two transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Newline-delimited JSON over the Unix socket.
    Unix,
    /// Length-prefixed JSON over TCP.
    Tcp,
}

impl Transport {
    fn rtt_span(self) -> &'static str {
        match self {
            Transport::Unix => "serve.rtt.unix",
            Transport::Tcp => "serve.rtt.tcp",
        }
    }

    /// Frames one request line.
    pub fn frame(self, line: &str) -> Vec<u8> {
        match self {
            Transport::Unix => format!("{line}\n").into_bytes(),
            Transport::Tcp => {
                let len = u32::try_from(line.len()).expect("request fits a frame");
                let mut frame = len.to_be_bytes().to_vec();
                frame.extend_from_slice(line.as_bytes());
                frame
            }
        }
    }

    /// Splits complete frames off the front of `buf`.
    pub fn unframe(self, buf: &mut Vec<u8>) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match self {
                Transport::Unix => {
                    let Some(end) = buf.iter().position(|&b| b == b'\n') else {
                        break;
                    };
                    let line: Vec<u8> = buf.drain(..=end).collect();
                    out.push(String::from_utf8_lossy(&line[..end]).into_owned());
                }
                Transport::Tcp => {
                    if buf.len() < 4 {
                        break;
                    }
                    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    if buf.len() < 4 + len {
                        break;
                    }
                    let frame: Vec<u8> = buf.drain(..4 + len).collect();
                    out.push(String::from_utf8_lossy(&frame[4..]).into_owned());
                }
            }
        }
        out
    }
}

/// One request of an op, with what its response must say.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request line.
    pub line: String,
    /// For a verify: the program the daemon holds when it handles it.
    pub expect: Option<Program>,
    /// Span name of this request's round trip.
    pub span: &'static str,
}

/// One op on the schedule.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// When it is due, from the start of the step.
    pub due: Duration,
    /// What it does.
    pub kind: OpKind,
    /// Its requests, sent back to back.
    pub requests: Vec<Planned>,
}

/// What a connection saw: per op its send instant; every response with
/// its arrival instant.
#[derive(Debug)]
pub struct Observed {
    /// Send instant of each op, in schedule order (`None`: never sent).
    pub sent: Vec<Option<Instant>>,
    /// Responses in arrival order.
    pub responses: Vec<(Instant, String)>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;

/// Blocks until `fd` is readable or `timeout` passes; `true` when
/// readable. `ppoll` sleeps on a high-resolution timer, where a socket
/// read timeout is rounded to the kernel tick and would make sends late
/// by milliseconds.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; one
    // descriptor is passed, and a null signal mask means "unchanged".
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// A CPU set, as `sched_setaffinity` takes it.
type CpuMask = [u64; 16];

/// The CPUs this process may run on, and the first of them.
pub struct Cpus {
    all: CpuMask,
    one: CpuMask,
    /// The CPU of [`Cpus::pin`].
    pub first: usize,
}

impl Cpus {
    /// The calling thread's CPU set.
    pub fn of_this_thread() -> io::Result<Cpus> {
        let mut all = [0u64; 16];
        // SAFETY: `all` is a live buffer of the size passed; pid 0 is the
        // calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&all), all.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let first = (0..all.len() * 64)
            .find(|&c| all[c / 64] & (1 << (c % 64)) != 0)
            .ok_or_else(|| io::Error::other("empty CPU set"))?;
        let mut one = [0u64; 16];
        one[first / 64] = 1 << (first % 64);
        Ok(Cpus { all, one, first })
    }

    /// Confines every thread of the processes `pids` to the first CPU.
    /// Threads they start afterwards inherit it.
    pub fn pin(&self, pids: &[u32]) -> io::Result<()> {
        set_affinity(pids, &self.one)
    }

    /// Lets every thread of the processes `pids` run on all the CPUs again.
    pub fn unpin(&self, pids: &[u32]) -> io::Result<()> {
        set_affinity(pids, &self.all)
    }
}

fn set_affinity(pids: &[u32], mask: &CpuMask) -> io::Result<()> {
    for pid in pids {
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let Some(tid) = task?
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
            else {
                continue;
            };
            // SAFETY: `mask` is a live, properly sized CPU set. A thread
            // that exited since the listing makes the call fail with
            // ESRCH, which is ignored.
            if unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) } != 0 {
                let e = io::Error::last_os_error();
                if e.raw_os_error() != Some(3) {
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

/// Drives one connection through `plan`: sends each op when due (never
/// early), reads responses in between, and after the last op waits up to
/// `drain` for the remaining responses.
pub fn drive<S: Read + Write + AsRawFd>(
    stream: &mut S,
    transport: Transport,
    start: Instant,
    plan: &[PlannedOp],
    drain: Duration,
) -> Observed {
    let expected: usize = plan.iter().map(|op| op.requests.len()).sum();
    let mut seen = Observed {
        sent: vec![None; plan.len()],
        responses: Vec::with_capacity(expected),
    };
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        if next < plan.len() && now >= start + plan[next].due {
            seen.sent[next] = Some(now);
            if !send(stream, transport, &plan[next]) {
                break;
            }
            next += 1;
            continue;
        }
        if seen.responses.len() >= expected && next == plan.len() {
            break;
        }
        let wake = if next < plan.len() {
            start + plan[next].due
        } else {
            *drain_until.get_or_insert(now + drain)
        };
        if next == plan.len() && now >= wake {
            break;
        }
        match wait_readable(stream.as_raw_fd(), wake.saturating_duration_since(now)) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => break,
        }
        if !receive(stream, transport, &mut buf, &mut chunk, &mut seen) {
            break;
        }
    }
    seen
}

/// Drives one connection through `plan` in a closed loop: sends the next
/// op as soon as no more than `window` requests would be in flight (or
/// none are), stops sending at `until`, then waits up to `drain` for the
/// remaining responses.
pub fn drive_closed<S: Read + Write + AsRawFd>(
    stream: &mut S,
    transport: Transport,
    plan: &[PlannedOp],
    window: usize,
    until: Instant,
    drain: Duration,
) -> Observed {
    let mut seen = Observed {
        sent: vec![None; plan.len()],
        responses: Vec::new(),
    };
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut next, mut requests) = (0, 0);
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        let open = next < plan.len() && now < until;
        let in_flight = requests - seen.responses.len().min(requests);
        if open && (in_flight == 0 || in_flight + plan[next].requests.len() <= window) {
            seen.sent[next] = Some(now);
            if !send(stream, transport, &plan[next]) {
                break;
            }
            requests += plan[next].requests.len();
            next += 1;
            continue;
        }
        if !open && in_flight == 0 {
            break;
        }
        let wake = if open {
            until
        } else {
            *drain_until.get_or_insert(now + drain)
        };
        if now >= wake {
            break;
        }
        match wait_readable(stream.as_raw_fd(), wake - now) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => break,
        }
        if !receive(stream, transport, &mut buf, &mut chunk, &mut seen) {
            break;
        }
    }
    seen
}

/// Sends an op's requests back to back; `false` when the connection failed.
fn send<S: Write>(stream: &mut S, transport: Transport, op: &PlannedOp) -> bool {
    let mut bytes = Vec::new();
    for r in &op.requests {
        bytes.extend(transport.frame(&r.line));
    }
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

/// Reads what the connection holds and moves each complete response, with
/// its arrival instant, to `seen`; `false` when the connection is closed
/// or failed.
fn receive<S: Read>(
    stream: &mut S,
    transport: Transport,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
    seen: &mut Observed,
) -> bool {
    match stream.read(chunk) {
        Ok(0) => false,
        Ok(n) => {
            let at = Instant::now();
            buf.extend_from_slice(&chunk[..n]);
            for line in transport.unframe(buf) {
                seen.responses.push((at, line));
            }
            true
        }
        Err(e) => e.kind() == io::ErrorKind::Interrupted,
    }
}

/// A `qborrow serve` child process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    addr: String,
}

impl Daemon {
    /// Starts the daemon and waits until both listeners accept.
    pub fn start(qborrow: &Path, dir: &Path, tag: usize) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join(format!("d{}-{tag}.sock", std::process::id()));
        // Reserve a free port, release it, hand it to the daemon.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(qborrow)
            .args(["serve", "--socket"])
            .arg(&socket)
            .args([
                "--tcp",
                &addr,
                "--max-sessions",
                &MAX_SESSIONS.to_string(),
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            socket,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        // Polled every millisecond: the wait is part of `setup_s`.
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "qborrow serve exited early: {status}"
                )));
            }
            if UnixStream::connect(&daemon.socket).is_ok()
                && TcpStream::connect(&daemon.addr).is_ok()
            {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("qborrow serve did not start listening"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A synchronous client over the Unix socket.
    pub fn client(&self) -> io::Result<Client> {
        Client::connect(&self.socket)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills what is left.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A warm program as this process tracks it.
#[derive(Debug, Clone)]
struct Tracked {
    name: String,
    base: Program,
    current: Program,
    backend: BackendKind,
    /// Edits sent so far; the kind of the next one cycles through
    /// [`KINDS`], each followed by a revert.
    edits: usize,
}

fn warm_programs(conn: usize) -> Vec<Tracked> {
    WARM[conn]
        .iter()
        .map(|&(family, width, backend)| {
            let base = Program::base(family, width);
            Tracked {
                name: format!("{}{}-{}", family.name(), width, backend.name()),
                current: base.clone(),
                base,
                backend,
                edits: 0,
            }
        })
        .collect()
}

fn verify_line(name: &str) -> String {
    Request::Verify {
        name: name.to_string(),
        targets: None,
        deadline_ms: Some(LATENCY_LIMIT_MS),
        trace: false,
    }
    .to_line()
}

/// Loads and sweeps every warm program once (cold), over both
/// transports. Returns the number of wrong verdicts.
fn warm_up(daemon: &Daemon) -> io::Result<usize> {
    let mut wrong = 0;
    for (conn, mut client) in [
        (0, daemon.client()?),
        (1, Client::connect_tcp(&daemon.addr)?),
    ] {
        for w in warm_programs(conn) {
            let load = client.load_with(&w.name, &w.current.source(), Some(w.backend.name()))?;
            if load.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(io::Error::other(format!("load {} failed: {load}", w.name)));
            }
            let v = client.verify(&w.name, None)?;
            wrong += check_verify(&v, &w.current, &mut HashMap::new()).1;
        }
    }
    Ok(wrong)
}

/// What the load process keeps between steps: the programs each
/// connection owns, the seeded stream, the count of variants loaded, the
/// prefix of their names, their width and the structures loaded so far.
#[derive(Clone)]
struct Mix {
    warm: [Vec<Tracked>; 2],
    rng: Rng,
    variants: usize,
    prefix: String,
    variant_width: usize,
    loaded: HashSet<Program>,
}

/// What settling responses accumulates: trace op ids, elaborated expected
/// programs (for witness replay), and the warm-verify round-trip split
/// per transport.
#[derive(Default)]
struct Ledger {
    next_id: u64,
    elaborated: HashMap<String, qb_lang::ElaboratedProgram>,
    split: [RttSplit; 2],
}

/// Checks one verify response against `expect`: (ok, wrong verdicts).
fn check_verify(
    response: &Json,
    expect: &Program,
    elaborated: &mut HashMap<String, qb_lang::ElaboratedProgram>,
) -> (bool, usize) {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return (false, 0);
    }
    let Some(verdicts) = response.get("verdicts").and_then(Json::as_arr) else {
        return (false, 0);
    };
    let got: Vec<Reported> = verdicts
        .iter()
        .map(|v| Reported {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            verdict: v
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            witness: v
                .get("witness")
                .and_then(Json::as_arr)
                .map(|bits| bits.iter().map(|b| b.as_bool().unwrap_or(false)).collect()),
        })
        .collect();
    if got.iter().any(|r| r.verdict == "unknown") {
        return (false, 0);
    }
    let source = expect.source();
    let program = elaborated.entry(source.clone()).or_insert_with(|| {
        qb_lang::parse(&source)
            .and_then(|ast| qb_lang::elaborate(&ast))
            .expect("generated programs elaborate")
    });
    (true, oracle::wrong_verdicts(expect, program, &got))
}

/// Plans one connection's ops, one per due time in `dues`.
fn plan_ops(mix: &mut Mix, conn: usize, dues: impl Iterator<Item = Duration>) -> Vec<PlannedOp> {
    let Mix {
        warm,
        rng,
        variants,
        prefix,
        variant_width,
        loaded,
    } = mix;
    let warm = &mut warm[conn];
    let transport = if conn == 0 {
        Transport::Unix
    } else {
        Transport::Tcp
    };
    let rtt = transport.rtt_span();
    let mut plan = Vec::new();
    let mut deck = Vec::new();
    for due in dues {
        if deck.is_empty() {
            deck = DECK.to_vec();
            rng.shuffle(&mut deck);
        }
        let (kind, program) = deck.pop().expect("refilled deck");
        let requests = match kind {
            OpKind::Verify => {
                let w = &warm[program];
                vec![Planned {
                    line: verify_line(&w.name),
                    expect: Some(w.current.clone()),
                    span: rtt,
                }]
            }
            OpKind::Edit => {
                let w = &mut warm[program];
                let edit = if w.edits.is_multiple_of(2) {
                    KINDS[(w.edits / 2) % KINDS.len()]
                } else {
                    EditKind::Revert
                };
                w.edits += 1;
                w.current = edit.apply(&w.base, &w.current, rng);
                let line = Request::Edit {
                    name: w.name.clone(),
                    source: w.current.source(),
                    backend: None,
                }
                .to_line();
                vec![
                    Planned {
                        line,
                        expect: None,
                        span: "serve.edit",
                    },
                    Planned {
                        line: verify_line(&w.name),
                        expect: Some(w.current.clone()),
                        span: rtt,
                    },
                ]
            }
            OpKind::Load => {
                let mut program = Program::base(Family::Adder, *variant_width);
                loop {
                    program.tail = Some(program.draw_tail(rng));
                    if loaded.insert(program.clone()) {
                        break;
                    }
                }
                let name = format!("{prefix}{conn}-{variants}");
                *variants += 1;
                let line = Request::Load {
                    name: name.clone(),
                    source: program.source(),
                    backend: Some(VARIANT_BACKEND.name().to_string()),
                }
                .to_line();
                vec![
                    Planned {
                        line,
                        expect: None,
                        span: "serve.load",
                    },
                    Planned {
                        line: verify_line(&name),
                        expect: Some(program),
                        span: rtt,
                    },
                ]
            }
        };
        plan.push(PlannedOp {
            due,
            kind,
            requests,
        });
    }
    plan
}

/// One finished op.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Latency from due to the last response, milliseconds (`None`:
    /// a response never came).
    pub ms: Option<f64>,
    /// Every response was `ok` and no verdict was `unknown`.
    pub ok: bool,
    /// Wrong verdicts.
    pub wrong: usize,
    /// The op and its verdicts, for the determinism digest.
    pub digest: String,
    /// Why the op failed: the first failing response's error code,
    /// `unknown`, or `missing` (`None`: it did not fail).
    pub failure: Option<String>,
}

/// Matches a connection's responses to its requests and checks them.
/// The daemon numbers requests in arrival order (`request_id`), and one
/// connection's requests arrive in send order, so sorting the responses
/// by `request_id` lines them up with the requests.
fn settle(
    plan: &[PlannedOp],
    seen: &Observed,
    start: Instant,
    transport: Transport,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<OpResult> {
    let mut responses: Vec<(i64, Instant, Json)> = seen
        .responses
        .iter()
        .filter_map(|(at, line)| {
            let json = Json::parse(line).ok()?;
            let id = json.get("request_id").and_then(Json::as_i64)?;
            Some((id, *at, json))
        })
        .collect();
    responses.sort_by_key(|(id, _, _)| *id);
    let mut it = responses.into_iter();
    let mut results = Vec::with_capacity(plan.len());
    for (op, sent) in plan.iter().zip(&seen.sent) {
        let due = start + op.due;
        let got: Vec<(Instant, Json)> = op
            .requests
            .iter()
            .map_while(|_| it.next().map(|(_, at, json)| (at, json)))
            .collect();
        let (Some(sent), true) = (sent, got.len() == op.requests.len()) else {
            results.push(OpResult {
                ms: None,
                ok: false,
                wrong: 0,
                digest: format!("{:?}:missing", op.kind),
                failure: Some("missing".to_string()),
            });
            continue;
        };
        let mut ok = true;
        let mut wrong = 0;
        let mut failure = None;
        let mut digest = format!("{:?}", op.kind);
        for (req, (_, json)) in op.requests.iter().zip(&got) {
            if let Some(program) = &req.expect {
                digest.push_str(&format!(":{}:{}", program.label(), verdict_summary(json)));
            }
            match &req.expect {
                Some(program) => {
                    let (fine, bad) = check_verify(json, program, &mut ledger.elaborated);
                    ok &= fine;
                    wrong += bad;
                }
                None => ok &= json.get("ok").and_then(Json::as_bool) == Some(true),
            }
            if !ok && failure.is_none() {
                failure = Some(match json.get("code").and_then(Json::as_str) {
                    Some(code) => code.to_string(),
                    None if json.get("ok").and_then(Json::as_bool) == Some(true) => {
                        "unknown".to_string()
                    }
                    None => "error".to_string(),
                });
            }
        }
        let end = got.last().map(|(at, _)| *at).expect("op has requests");
        if tracer.on() {
            let id = ledger.next_id;
            ledger.next_id += 1;
            tracer.begin_at(OP, id, due);
            tracer.begin_at("serve.gen_lag", id, due);
            tracer.end_at(*sent);
            let mut from = *sent;
            for (req, (at, json)) in op.requests.iter().zip(&got) {
                let (queue, handle) = daemon_split(json);
                tracer.begin_at(req.span, id, from);
                tracer.attribute("serve.queue", queue);
                tracer.attribute("serve.handle", handle);
                tracer.end_at(*at);
                if op.kind == OpKind::Verify {
                    let rtt = nanos(at.saturating_duration_since(from));
                    ledger.split[transport as usize].add(rtt, queue, handle);
                }
                from = *at;
            }
            tracer.end_at(end);
        }
        results.push(OpResult {
            ms: Some(end.saturating_duration_since(due).as_secs_f64() * 1e3),
            ok,
            wrong,
            digest,
            failure,
        });
    }
    results
}

/// The daemon's own split of a request: (queue wait, handling), in ns.
/// A response's `queue_ns` is stamped when the request finishes, so for
/// requests a session actor handled it includes `handle_ns`; the wait is
/// the difference.
pub fn daemon_split(response: &Json) -> (u64, u64) {
    let field = |k: &str| response.get(k).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    let handle = field("handle_ns");
    (field("queue_ns").saturating_sub(handle), handle)
}

/// The unsafe and unknown verdicts of a verify response, or its error code.
fn verdict_summary(response: &Json) -> String {
    match response.get("verdicts").and_then(Json::as_arr) {
        Some(verdicts) => verdicts
            .iter()
            .filter(|v| v.get("verdict").and_then(Json::as_str) != Some("safe"))
            .map(|v| {
                format!(
                    "{}={}",
                    v.get("name").and_then(Json::as_str).unwrap_or("?"),
                    v.get("verdict").and_then(Json::as_str).unwrap_or("?")
                )
            })
            .collect::<Vec<_>>()
            .join(","),
        None => response
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("error")
            .to_string(),
    }
}

/// Round trips of warm verifies on one transport, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttSplit {
    n: u64,
    rtt_ns: u64,
    queue_ns: u64,
    handle_ns: u64,
}

impl RttSplit {
    fn add(&mut self, rtt: u64, queue: u64, handle: u64) {
        self.n += 1;
        self.rtt_ns += rtt;
        self.queue_ns += queue;
        self.handle_ns += handle;
    }

    fn render(&self, transport: &str) -> String {
        let n = self.n.max(1) as f64 * 1e6;
        let (rtt, queue, handle) = (
            self.rtt_ns as f64 / n,
            self.queue_ns as f64 / n,
            self.handle_ns as f64 / n,
        );
        format!(
            "warm verify round trip at {BASE_RATE} op/s over {transport}: {rtt:.3} ms = queue {queue:.3} + handle {handle:.3} + transport {:.3} ({} requests)",
            rtt - queue - handle,
            self.n
        )
    }
}

/// Results of one ladder step.
struct Step {
    rate: f64,
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    ok: u64,
    elapsed_s: f64,
    backlog: bool,
    digests: Vec<String>,
    failures: Vec<String>,
}

impl Step {
    /// Ops that did not fail, per second of the step.
    fn achieved(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// One step from the segments of a step that ran in rounds.
    fn merge(segments: Vec<Step>) -> Step {
        let mut it = segments.into_iter();
        let mut all = it.next().expect("at least one segment");
        for s in it {
            all.lat_ms.extend(s.lat_ms);
            all.attempted += s.attempted;
            all.failed += s.failed;
            all.wrong += s.wrong;
            all.ok += s.ok;
            all.elapsed_s += s.elapsed_s;
            all.backlog |= s.backlog;
            all.digests.extend(s.digests);
            all.failures.extend(s.failures);
        }
        all
    }

    fn tail_ms(&self) -> f64 {
        stats::tail(&self.lat_ms).map_or(f64::INFINITY, |t| t.value)
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0 && !self.backlog && self.tail_ms() <= LATENCY_LIMIT_MS as f64
    }
}

/// Does latency from due grow through the step? Compares the median of
/// the last quarter of ops with that of the first quarter.
pub fn backlog_grows(lat_ms: &[f64]) -> bool {
    let q = lat_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let early = stats::median(&lat_ms[..q]);
    let late = stats::median(&lat_ms[lat_ms.len() - q..]);
    late > early + LATENCY_LIMIT_MS as f64 / 2.0
}

fn run_step(
    daemon: &Daemon,
    rate: f64,
    duration: Duration,
    mix: &mut Mix,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> io::Result<Step> {
    let period = Duration::from_secs_f64(2.0 / rate);
    let plans: Vec<Vec<PlannedOp>> = (0..2)
        .map(|conn| {
            let offset = period.mul_f64(conn as f64 / 2.0);
            let dues = (0u32..)
                .map(|i| offset + period * i)
                .take_while(|&due| due < duration);
            plan_ops(mix, conn, dues)
        })
        .collect();
    let mut unix = UnixStream::connect(&daemon.socket)?;
    let mut tcp = TcpStream::connect(&daemon.addr)?;
    tcp.set_nodelay(true)?;
    let drain = Duration::from_millis(LATENCY_LIMIT_MS * 20);
    let start = Instant::now() + Duration::from_millis(20);
    let (seen_unix, seen_tcp) = std::thread::scope(|s| {
        let tcp_plan = &plans[1];
        let tcp_thread = s.spawn(move || drive(&mut tcp, Transport::Tcp, start, tcp_plan, drain));
        let seen_unix = drive(&mut unix, Transport::Unix, start, &plans[0], drain);
        (seen_unix, tcp_thread.join().expect("tcp driver thread"))
    });
    let mut results = settle(
        &plans[0],
        &seen_unix,
        start,
        Transport::Unix,
        tracer,
        ledger,
    );
    results.extend(settle(
        &plans[1],
        &seen_tcp,
        start,
        Transport::Tcp,
        tracer,
        ledger,
    ));
    // Order by due time, interleaving the connections as scheduled.
    let mut timed: Vec<(Duration, &OpResult)> = plans
        .iter()
        .flatten()
        .map(|op| op.due)
        .zip(&results)
        .collect();
    timed.sort_by_key(|(due, _)| *due);
    let lat_ms: Vec<f64> = timed
        .iter()
        .map(|(_, r)| r.ms.unwrap_or(f64::INFINITY))
        .collect();
    let failed = results.iter().filter(|r| !r.ok).count() as u64;
    Ok(Step {
        rate,
        backlog: backlog_grows(&lat_ms),
        ok: results.len() as u64 - failed,
        elapsed_s: elapsed_s(start, [&seen_unix, &seen_tcp]),
        lat_ms,
        attempted: results.len() as u64,
        failed,
        wrong: results.iter().map(|r| r.wrong as u64).sum(),
        digests: timed.iter().map(|(_, r)| r.digest.clone()).collect(),
        failures: results.iter().filter_map(|r| r.failure.clone()).collect(),
    })
}

/// Seconds from `start` to the last response.
fn elapsed_s(start: Instant, seen: [&Observed; 2]) -> f64 {
    seen.iter()
        .flat_map(|s| &s.responses)
        .map(|(at, _)| *at)
        .max()
        .unwrap_or(start)
        .saturating_duration_since(start)
        .as_secs_f64()
}

/// The closed-loop probe: both connections keep [`PROBE_WINDOW`] requests
/// in flight for `duration`, on a copy of the mix. Its achieved rate is
/// the daemon's capacity on the mix. Afterwards every warm program the
/// probe edited is put back to what `mix` holds, so the steps after the
/// probe continue from `mix` as if it had not run, and their op sequence
/// does not depend on how many ops the probe completed.
fn run_probe(
    daemon: &Daemon,
    duration: Duration,
    round: usize,
    mix: &Mix,
    ledger: &mut Ledger,
) -> io::Result<Step> {
    let mut probe = mix.clone();
    probe.prefix = format!("probe{round}.");
    probe.variant_width = PROBE_VARIANT_WIDTH;
    let n = (PROBE_PLAN_PER_S * duration.as_secs_f64()).ceil() as usize;
    let plans: Vec<Vec<PlannedOp>> = (0..2)
        .map(|conn| plan_ops(&mut probe, conn, std::iter::repeat_n(Duration::ZERO, n)))
        .collect();
    let mut unix = UnixStream::connect(&daemon.socket)?;
    let mut tcp = TcpStream::connect(&daemon.addr)?;
    tcp.set_nodelay(true)?;
    let drain = Duration::from_millis(LATENCY_LIMIT_MS * 20);
    let start = Instant::now();
    let until = start + duration;
    let (seen_unix, seen_tcp) = std::thread::scope(|s| {
        let tcp_plan = &plans[1];
        let tcp_thread = s.spawn(move || {
            drive_closed(
                &mut tcp,
                Transport::Tcp,
                tcp_plan,
                PROBE_WINDOW,
                until,
                drain,
            )
        });
        let seen_unix = drive_closed(
            &mut unix,
            Transport::Unix,
            &plans[0],
            PROBE_WINDOW,
            until,
            drain,
        );
        (seen_unix, tcp_thread.join().expect("tcp driver thread"))
    });
    let mut untraced = Tracer::new(false);
    let mut results = Vec::new();
    for (conn, seen) in [&seen_unix, &seen_tcp].into_iter().enumerate() {
        let sent = seen.sent.iter().take_while(|s| s.is_some()).count();
        let transport = [Transport::Unix, Transport::Tcp][conn];
        results.extend(settle(
            &plans[conn][..sent],
            seen,
            start,
            transport,
            &mut untraced,
            ledger,
        ));
    }
    resync(daemon, mix, &probe)?;
    let failed = results.iter().filter(|r| !r.ok).count() as u64;
    Ok(Step {
        rate: 0.0,
        backlog: false,
        ok: results.len() as u64 - failed,
        elapsed_s: elapsed_s(start, [&seen_unix, &seen_tcp]),
        lat_ms: Vec::new(),
        attempted: results.len() as u64,
        failed,
        wrong: results.iter().map(|r| r.wrong as u64).sum(),
        digests: Vec::new(),
        failures: results.iter().filter_map(|r| r.failure.clone()).collect(),
    })
}

/// Edits each warm program whose source the probe changed back to the
/// source `mix` holds for it.
fn resync(daemon: &Daemon, mix: &Mix, probe: &Mix) -> io::Result<()> {
    let mut client = daemon.client()?;
    for (ours, theirs) in mix.warm.iter().flatten().zip(probe.warm.iter().flatten()) {
        if ours.current != theirs.current {
            let r = client.edit(&ours.name, &ours.current.source())?;
            if r.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(io::Error::other(format!(
                    "re-syncing {} after the probe failed: {r}",
                    ours.name
                )));
            }
        }
    }
    Ok(())
}

/// Runs the workload: [`ROUNDS`] rounds of a probe segment and a
/// first-step segment at [`BASE_RATE`], then the rungs, each phase its
/// share of `seconds`. In the traced run each first-step segment runs
/// untraced and then traced, for the tracing-overhead ratio; the probe is
/// never traced.
pub fn run(seed: u64, seconds: f64, traced: bool, qborrow: &Path) -> io::Result<Report> {
    let mut out = Outcome::new("daemon-mix");
    let cpus = Cpus::of_this_thread()?;
    // Set-up is a string of round trips like the first step, so it runs on
    // one CPU too; the daemons it starts inherit that CPU.
    cpus.pin(&[std::process::id()])?;
    let dir = PathBuf::from(".bench_run");
    let mut tag = 0;
    let daemon = out.setup(|| {
        tag += 1;
        let started = Daemon::start(qborrow, &dir, tag).and_then(|d| warm_up(&d).map(|w| (d, w)));
        match started {
            Ok((d, wrong)) => (Some(d), wrong),
            Err(e) => {
                eprintln!("perfbench: daemon set-up failed: {e}");
                (None, 0)
            }
        }
    });
    let daemon = daemon.ok_or_else(|| io::Error::other("daemon set-up failed"))?;
    let pids = [std::process::id(), daemon.pid()];
    let mut mix = Mix {
        warm: [warm_programs(0), warm_programs(1)],
        rng: Rng::new(seed, 4),
        variants: 0,
        prefix: "variant".to_string(),
        variant_width: VARIANT_WIDTH,
        loaded: HashSet::new(),
    };
    let mut tracer = Tracer::new(traced);
    let mut untraced = Tracer::new(false);
    let mut ledger = Ledger::default();
    let segment = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let start = Instant::now();
    let (mut base, mut base_traced, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        cpus.unpin(&pids)?;
        let probe_len = segment(PROBE_SHARE);
        probes.push(run_probe(&daemon, probe_len, round, &mix, &mut ledger)?);
        let first = segment(FIRST_STEP_SHARE);
        cpus.pin(&pids)?;
        base.push(run_step(
            &daemon,
            BASE_RATE,
            first,
            &mut mix,
            &mut untraced,
            &mut ledger,
        )?);
        if traced {
            base_traced.push(run_step(
                &daemon,
                BASE_RATE,
                first,
                &mut mix,
                &mut tracer,
                &mut ledger,
            )?);
        }
    }
    cpus.unpin(&pids)?;
    // The round-trip split is reported at the first step's rate, where
    // nothing queues behind the load of the rungs.
    let split = ledger.split;
    let probe = Step::merge(probes);
    let mut steps = vec![Step::merge(base)];
    if traced {
        let step = Step::merge(base_traced);
        out.traced_lat_ms = step.lat_ms.clone();
        steps.push(step);
    }
    let rung_len = Duration::from_secs_f64(seconds * rung_share());
    for share in RUNGS {
        let rate = (share * probe.achieved()).max(BASE_RATE);
        let t = if traced { &mut tracer } else { &mut untraced };
        steps.push(run_step(&daemon, rate, rung_len, &mut mix, t, &mut ledger)?);
    }
    out.measured(start.elapsed());
    let status = daemon.client()?.status()?;
    out.peak_rss_of(daemon.pid());
    daemon.shutdown();

    for d in &steps[0].digests {
        out.digest(d);
    }
    out.notes.push(format!(
        "first step: load process and daemon on CPU {}",
        cpus.first
    ));
    out.notes.push(format!(
        "probe, {PROBE_WINDOW} requests in flight per connection: {:.2} ok op/s, failed {}/{}",
        probe.achieved(),
        probe.failed,
        probe.attempted
    ));
    let mut best: Option<&Step> = None;
    let mut failures = BTreeMap::new();
    for s in std::iter::once(&probe).chain(&steps) {
        out.attempted += s.attempted;
        out.failed += s.failed;
        out.wrong += s.wrong;
        out.completed += s.attempted;
        for f in &s.failures {
            *failures.entry(f.as_str()).or_insert(0) += 1;
        }
    }
    if !failures.is_empty() {
        out.notes
            .push(format!("failed ops by reason: {failures:?}"));
    }
    for s in &steps {
        out.notes.push(format!(
            "step {:>7.1} op/s: achieved {:.2} ok op/s, p50 {:.3} ms, tail {:.3} ms, failed {}/{}, backlog {}, {}",
            s.rate,
            s.achieved(),
            stats::median(&s.lat_ms),
            s.tail_ms(),
            s.failed,
            s.attempted,
            if s.backlog { "growing" } else { "steady" },
            if s.meets_limit() { "meets limit" } else { "misses limit" },
        ));
        if s.meets_limit() && best.is_none_or(|b| s.rate > b.rate) {
            best = Some(s);
        }
    }
    out.lat_ms = steps[0].lat_ms.clone();
    out.max_ok_rps = Some(best.map_or(0.0, Step::achieved));
    out.ops_per_s = Some(probe.achieved());
    out.notes.push(split[0].render("unix"));
    out.notes.push(split[1].render("tcp"));
    if traced {
        serve_layers(&mut out, &tracer, &status);
    }
    Ok(out.finish(&tracer))
}

fn serve_layers(out: &mut Outcome, tracer: &Tracer, status: &Json) {
    let requests: u64 = [
        "serve.rtt.unix",
        "serve.rtt.tcp",
        "serve.load",
        "serve.edit",
    ]
    .iter()
    .map(|s| tracer.layer(s).calls)
    .sum();
    let transport_ns: u64 = [
        "serve.rtt.unix",
        "serve.rtt.tcp",
        "serve.load",
        "serve.edit",
    ]
    .iter()
    .map(|s| tracer.layer(s).self_ns)
    .sum();
    let per_request = |ns: u64| ns as f64 / requests.max(1) as f64 / 1e6;
    out.layer("serve.requests", requests as f64);
    out.layer("serve.rtt_ms.unix", tracer.mean_total_ms("serve.rtt.unix"));
    out.layer("serve.rtt_ms.tcp", tracer.mean_total_ms("serve.rtt.tcp"));
    out.layer(
        "serve.queue_ms",
        per_request(tracer.layer("serve.queue").self_ns),
    );
    out.layer(
        "serve.handle_ms",
        per_request(tracer.layer("serve.handle").self_ns),
    );
    out.layer("serve.transport_ms", per_request(transport_ns));
    out.layer("serve.load_ms", tracer.mean_total_ms("serve.load"));
    out.layer("serve.gen_lag_ms", tracer.mean_total_ms("serve.gen_lag"));
    let sheds = |reason: &str| {
        status
            .get("sheds")
            .and_then(|s| s.get(reason))
            .and_then(Json::as_i64)
            .unwrap_or(0)
            .max(0) as u64
    };
    let total = requests.max(1);
    out.layer(
        "serve.shed_ratio",
        run::ratio(
            status
                .get("sheds_total")
                .and_then(Json::as_i64)
                .unwrap_or(0)
                .max(0) as u64,
            total,
        ),
    );
    for (metric, reason) in [
        ("serve.shed_ratio.mailbox_full", "mailbox_full"),
        ("serve.shed_ratio.deadline", "deadline"),
        ("serve.shed_ratio.brownout", "brownout"),
        ("serve.shed_ratio.breaker", "breaker"),
    ] {
        out.layer(metric, run::ratio(sheds(reason), total));
    }
    out.layer(
        "serve.session_evictions",
        status
            .get("session_evictions")
            .and_then(Json::as_i64)
            .unwrap_or(0) as f64,
    );
}
