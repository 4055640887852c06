//! `wire_shared`: many analysts sharing one dataset over the wire.
//!
//! A `NetServer` runs on loopback inside the benchmark process over Case-1
//! data. One client connection keeps `OPEN` sessions open and advances a
//! seeded-random one per step; when a session finishes, the next open takes
//! its place. Seven of every eight opens draw from a hot set of eight
//! queries, so most views are served from the shared cache, which is sized
//! to hold the hot set. The hot tier holds fewer sessions than are open, so
//! steps keep suspending and resuming sessions through the warm tier.
//! Occupancy stays below shed level L1, so any refusal or degraded view
//! counts as a failure.
//!
//! One connection, not one per core: with two, an open waits on the
//! session manager's lock whenever the other connection is serializing a
//! warm-tier snapshot under it, which happens about half the time, so the
//! median open flipped between the waiting and the free mode from run to
//! run.

use crate::calib::Kernel;
use crate::check::{answer, compare_sample, Ledger, Outcome};
use crate::cold::{measured_budget, rerun_budget};
use crate::gen::{case1, member_queries, sub_seed, wire_opens, Choice, DATA_SEED};
use crate::layers::{fill_common, LayerSamples, MIN_REPLAYS};
use crate::report::{p50, unstamp, Measured, Report, Stamped};
use crate::session::{note_head, MajorHead};
use crate::stats::pct_or_zero;
use crate::trace::{cpu_ms_since, cpu_now, Timer, Tracer};
use crate::Args;
use hinn::core::{CachePolicy, DatasetHandle, Parallelism, SearchConfig, SearchOutcome, Step};
use hinn::metrics::PrecisionRecall;
use hinn::net::{DoneSummary, NetClient, NetServer, NetServerConfig, Reply, Request, ServerHandle};
use hinn::obs::SessionRecorder;
use hinn::serve::{ServeConfig, SessionId, SessionManager};
use hinn::user::UserResponse;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 5000;
/// Sessions the client keeps open.
const OPEN: usize = 64;
const HOT: usize = 8;
/// The wire user's separator: this share of the query cell's density.
const F: f64 = 0.5;
/// Three eighths of the open sessions: five submits in eight resume a
/// warm session, so `view_ms.p50` rests on the resume path. At exactly
/// half, the median would sit on the boundary between resumed and
/// resident submits.
const MAX_RESIDENT: usize = 24;
const MAX_SESSIONS: usize = 256;
/// The shared cache, sized to hold the hot set: its views' projections
/// and profiles fit with room to spare (measured: larger capacities do
/// not raise the hit share), while whole-data coordinate arrays, the
/// largest entries, stay few.
const CACHE: CachePolicy = CachePolicy {
    projection_capacity: 512,
    profile_capacity: 512,
    gamma_capacity: 4096,
    coords_capacity: 64,
};
const SETUP_REPS: usize = 9;
/// Fresh (non-hot) queries re-run in process beside the hot set.
const CHECK_FRESH: usize = 16;
/// Calls the in-process `SessionManager` replay re-issues.
const REPLAY_OPS: usize = 3000;
const PINGS: usize = 200;
const SOCKET_DEADLINE: Duration = Duration::from_secs(60);
/// Longest warm-up before the clock starts regardless.
const WARMUP_CAP: Duration = Duration::from_secs(30);
/// Wall-clock cap on a measured window, in multiples of its CPU time.
const WALL_CAP: u32 = 3;
/// Client calls per reference-kernel sample.
const KERNEL_EVERY: usize = 16;
const TENANT: &str = "analysts";

fn serve_config(par: Parallelism) -> ServeConfig {
    let search = SearchConfig {
        cache: CACHE,
        ..crate::cold::config(par)
    };
    ServeConfig::new(search)
        .with_max_resident(MAX_RESIDENT)
        .with_warm_capacity(MAX_SESSIONS)
        .with_max_sessions(MAX_SESSIONS)
}

fn respond(query_density: f64) -> UserResponse {
    UserResponse::Threshold(F * query_density)
}

/// One call the client made, by open sequence number.
#[derive(Clone, Copy)]
enum Op {
    Open(usize),
    Submit(usize),
}

/// Run control shared by the main thread and the client.
#[derive(Default)]
struct Control {
    stop: AtomicBool,
    /// Calls made while set are traced (the recorder is installed).
    traced: AtomicBool,
    completed: AtomicUsize,
}

/// What the client connection measured.
struct ClientLog {
    tracer: Tracer,
    first_view_ms: Vec<Stamped>,
    view_ms: Vec<Stamped>,
    /// One entry per completed session, stamped with its last call.
    session_ms: Vec<Stamped>,
    /// Reference-kernel samples, one every `KERNEL_EVERY` calls.
    calib_ms: Vec<Stamped>,
    /// Process CPU from one call to the next, kernel samples excluded.
    work_ms: Vec<Stamped>,
    /// `(query row, outcome)` in completion order.
    done: Vec<(usize, Outcome)>,
    /// Query row of each open, by open sequence number.
    opened: Vec<usize>,
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

struct Live {
    seq: usize,
    session: u64,
    major: usize,
    minor: usize,
    query_density: f64,
    ms: f64,
}

fn wire_outcome(query: usize, d: &DoneSummary) -> Outcome {
    Outcome {
        query,
        neighbors: d.neighbors.clone(),
        prob_bits: d.probabilities.iter().map(|p| p.to_bits()).collect(),
    }
}

/// Drive the connection until told to stop, then close its open sessions.
fn client(
    addr: SocketAddr,
    points: &[Vec<f64>],
    opens: &[usize],
    seed: u64,
    control: &Control,
    origin: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        tracer: Tracer::new(true, origin),
        first_view_ms: Vec::new(),
        view_ms: Vec::new(),
        session_ms: Vec::new(),
        calib_ms: Vec::new(),
        work_ms: Vec::new(),
        done: Vec::new(),
        opened: Vec::new(),
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut quiet = Tracer::new(false, origin);
    let mut conn = NetClient::new(addr).with_deadlines(SOCKET_DEADLINE, SOCKET_DEADLINE);
    let mut choice = Choice::new(seed);
    let mut live: Vec<Live> = Vec::new();
    let kernel = Kernel::default();
    // The client's root span opens with its first traced call.
    let mut root: Option<Timer> = None;
    // The wall-clock and CPU start of the current call's piece of work.
    let mut piece: Option<(Instant, Duration)> = None;
    while !control.stop.load(Ordering::SeqCst) {
        if let Some((at, cpu)) = piece.take() {
            log.work_ms.push((at, cpu_ms_since(cpu)));
        }
        if log.ops.len().is_multiple_of(KERNEL_EVERY) {
            log.calib_ms.push((Instant::now(), kernel.sample_ms()));
        }
        let now = Instant::now();
        piece = Some((now, cpu_now()));
        let traced = control.traced.load(Ordering::SeqCst);
        if traced && root.is_none() {
            root = Some(log.tracer.begin("client", 0, None));
        }
        let parent = root.as_ref().and_then(Timer::id);
        let t = if traced { &mut log.tracer } else { &mut quiet };
        if live.len() < OPEN {
            let seq = log.opened.len();
            let q = opens[seq % opens.len()];
            log.opened.push(q);
            log.ops.push(Op::Open(seq));
            let request = Request::Open {
                tenant: TENANT.to_string(),
                query: points[q].clone(),
            };
            let (reply, ms) = t.time("net.open", seq as u64, parent, || conn.call(&request));
            log.first_view_ms.push((now, ms));
            match reply {
                Ok(Reply::View(v)) if v.shed == 0 => live.push(Live {
                    seq,
                    session: v.session,
                    major: v.major,
                    minor: v.minor,
                    query_density: v.query_density,
                    ms,
                }),
                Ok(Reply::Done(d)) => {
                    log.session_ms.push((now, ms));
                    log.attempted += 1;
                    log.done.push((q, wire_outcome(q, &d)));
                    control.completed.fetch_add(1, Ordering::SeqCst);
                }
                other => {
                    log.attempted += 1;
                    log.failed += 1;
                    log.errors.push(format!("open of query {q}: {other:?}"));
                }
            }
            continue;
        }
        let j = choice.below(live.len());
        let s = &live[j];
        log.ops.push(Op::Submit(s.seq));
        let (response, _) = t.time("user.respond", s.seq as u64, parent, || {
            respond(s.query_density)
        });
        let request = Request::Submit {
            session: s.session,
            major: s.major,
            minor: s.minor,
            response,
        };
        let (reply, ms) = t.time("net.submit", s.seq as u64, parent, || conn.call(&request));
        log.view_ms.push((now, ms));
        let s = &mut live[j];
        s.ms += ms;
        match reply {
            Ok(Reply::View(v)) if v.shed == 0 => {
                s.major = v.major;
                s.minor = v.minor;
                s.query_density = v.query_density;
            }
            Ok(Reply::Done(d)) => {
                let s = live.swap_remove(j);
                let q = log.opened[s.seq];
                log.session_ms.push((now, s.ms));
                log.attempted += 1;
                log.done.push((q, wire_outcome(q, &d)));
                control.completed.fetch_add(1, Ordering::SeqCst);
            }
            other => {
                let s = live.swap_remove(j);
                log.attempted += 1;
                log.failed += 1;
                log.errors
                    .push(format!("submit to session {}: {other:?}", s.session));
            }
        }
    }
    if let Some((at, cpu)) = piece {
        log.work_ms.push((at, cpu_ms_since(cpu)));
    }
    if let Some(r) = root {
        log.tracer.end(r);
    }
    // Sessions cut off by the clock are closed, not counted.
    for s in live {
        if !matches!(
            conn.call(&Request::Close { session: s.session }),
            Ok(Reply::Closed { .. })
        ) {
            log.errors
                .push(format!("close of session {} failed", s.session));
            log.failed += 1;
        }
    }
    log
}

/// The windows of a run: `[measured, traced, end)`; untraced runs have no
/// traced window (`traced == end`).
#[derive(Clone, Copy)]
struct Windows {
    measured: Instant,
    traced: Instant,
    end: Instant,
}

impl Windows {
    /// The samples of one window.
    fn pick(&self, log: &ClientLog, traced: bool) -> Measured {
        let (lo, hi) = if traced {
            (self.traced, self.end)
        } else {
            (self.measured, self.traced)
        };
        let pick = |samples: &[Stamped]| -> Vec<Stamped> {
            samples
                .iter()
                .filter(|(t, _)| *t >= lo && *t < hi)
                .copied()
                .collect()
        };
        Measured {
            setup_s: Vec::new(),
            first_view_ms: pick(&log.first_view_ms),
            view_ms: pick(&log.view_ms),
            session_ms: pick(&log.session_ms),
            work_ms: pick(&log.work_ms),
            calib_ms: pick(&log.calib_ms),
        }
    }
}

/// Sleep until the process has spent `cpu` of CPU time since `from` — the
/// client and the server do all of it, this thread only polls — or
/// `WALL_CAP` times as long has passed on the wall clock. Measuring a
/// CPU-time window makes a run on a busy host see the same calls as one
/// on an idle host.
fn spend((wall, start): (Instant, Duration), cpu: Duration) {
    while cpu_now().saturating_sub(start) < cpu && wall.elapsed() < WALL_CAP * cpu {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run the client against `server`. Its open sessions all start at once,
/// so the clock starts only after a work-defined warm-up: `OPEN / 2`
/// sessions have completed (half the open population has turned over), or
/// `WARMUP_CAP` has passed. The measured window then lasts `seconds` of
/// process CPU time; a traced run spends the second half of it with the
/// recorder installed.
#[allow(clippy::too_many_arguments)]
fn drive_client(
    server: &ServerHandle,
    points: &[Vec<f64>],
    opens: &[usize],
    seed: u64,
    seconds: Duration,
    recorder: Option<&Arc<SessionRecorder>>,
    origin: Instant,
    report: &mut Report,
) -> (ClientLog, Windows) {
    let control = Control::default();
    std::thread::scope(|scope| {
        let addr = server.addr();
        let control = &control;
        let handle = scope.spawn(move || client(addr, points, opens, seed, control, origin));
        let started = Instant::now();
        while control.completed.load(Ordering::SeqCst) < OPEN / 2 && started.elapsed() < WARMUP_CAP
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        report.note(format!(
            "warm-up: {:.2} s, {} sessions completed",
            started.elapsed().as_secs_f64(),
            control.completed.load(Ordering::SeqCst)
        ));
        let measured = (Instant::now(), cpu_now());
        let (traced, guard) = match recorder {
            Some(r) => {
                spend(measured, seconds / 2);
                let guard = hinn::obs::install(r.clone());
                control.traced.store(true, Ordering::SeqCst);
                (Some(Instant::now()), Some(guard))
            }
            None => (None, None),
        };
        spend(measured, seconds);
        control.stop.store(true, Ordering::SeqCst);
        let end = Instant::now();
        let log = handle.join().expect("client thread panicked");
        drop(guard);
        let traced = traced.unwrap_or(end);
        (
            log,
            Windows {
                measured: measured.0,
                traced,
                end,
            },
        )
    })
}

/// Run `query` to `Done` in process through `manager`, answering every
/// view as the wire user does.
fn run_in_process(manager: &SessionManager, query: &[f64]) -> Result<SearchOutcome, String> {
    let (id, mut step) = manager.open(query).map_err(|e| e.to_string())?;
    loop {
        match step {
            Step::Done(o) => return Ok(*o),
            Step::NeedResponse(view) => {
                step = manager
                    .submit(id, respond(view.profile().query_density()))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
}

pub fn run(args: &Args) -> crate::Outcome {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut m = Measured::default();
    let par = measured_budget();

    let data = case1(N, DATA_SEED);
    // The hot set and the stream of fresh queries are properties of the
    // corpus, like the dataset; the run seed draws the open mix (which hot
    // query, where in each block the fresh one falls) and the stepping
    // order. With seed-drawn fresh queries, whose cold sessions carry the
    // costly views, view_ms.p95 and session_ms.p50 spread over a fifth of
    // their medians across seeds.
    let members = member_queries(&data, DATA_SEED);
    let (hot, fresh) = members.split_at(HOT);
    let opens = wire_opens(hot, fresh, 50_000, sub_seed(args.seed, 3));

    let net_config = NetServerConfig::new(serve_config(par))
        .with_max_connections(4)
        .with_tenant_quota(2 * OPEN)
        .with_deadlines(SOCKET_DEADLINE, SOCKET_DEADLINE);
    let kernel = Kernel::default();
    let mut open_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let ((bound, open_ms, setup_ms), k) = kernel.bracket(|| {
            let t = tracer.begin("setup", 0, None);
            let (handle, open_ms) =
                tracer.time("data.open", 0, t.id(), || DatasetHandle::new(&data.points));
            let handle = handle.expect("Case-1 rows form a valid dataset");
            let (bound, _) = tracer.time("net.bind", 0, t.id(), || {
                NetServer::bind(net_config.clone(), handle)
            });
            (bound, open_ms, tracer.end(t))
        });
        server = Some(bound.expect("loopback bind"));
        open_s.push(open_ms / 1e3);
        m.setup_s.push(setup_ms / 1e3 * k);
    }
    let server = server.expect("at least one set-up repetition");

    let recorder = Arc::new(SessionRecorder::new());
    let (log, windows) = drive_client(
        &server,
        &data.points,
        &opens,
        sub_seed(args.seed, 4),
        args.seconds,
        args.trace.then_some(&recorder),
        origin,
        &mut report,
    );

    // Every completed session, warm-up included: each query must always
    // get the same answer, whatever cache state or tier served it.
    ledger.attempted = log.attempted;
    ledger.failed = log.failed;
    for e in log.errors.iter().take(5) {
        report.note(format!("wire failure: {e}"));
    }
    let mut by_query: BTreeMap<usize, Outcome> = BTreeMap::new();
    for (q, o) in &log.done {
        ledger.record(o);
        let first = by_query.entry(*q).or_insert_with(|| o.clone());
        ledger.check(first == o, || {
            format!("query {q}: two wire sessions disagree")
        });
    }
    let untraced = windows.pick(&log, false);
    m.first_view_ms = untraced.first_view_ms;
    m.view_ms = untraced.view_ms;
    m.session_ms = untraced.session_ms;
    m.work_ms = untraced.work_ms;
    m.calib_ms = untraced.calib_ms;
    report.note(format!(
        "measured window: {:.2} s wall, {:.2} s CPU",
        (windows.traced - windows.measured).as_secs_f64(),
        m.cpu_s()
    ));

    // In-process re-run of the hot set and the first fresh queries through
    // a `SessionManager` under the default thread budget: bit for bit the
    // wire's `DoneSummary`. Their natural neighbors give the quality score.
    let check_manager = SessionManager::new(
        serve_config(rerun_budget()),
        DatasetHandle::new(&data.points).expect("Case-1 rows form a valid dataset"),
    )
    .expect("serve config is valid");
    let fresh_done = by_query
        .keys()
        .filter(|q| !hot.contains(q))
        .copied()
        .take(CHECK_FRESH);
    let sample: Vec<usize> = hot.iter().copied().chain(fresh_done).collect();
    let mut wire_side = Vec::new();
    let mut process_side = Vec::new();
    for &q in &sample {
        let Some(w) = by_query.get(&q) else {
            ledger.check(false, || {
                format!("hot query {q} never completed over the wire")
            });
            continue;
        };
        match run_in_process(&check_manager, &data.points[q]) {
            Ok(o) => {
                wire_side.push(w.clone());
                process_side.push(Outcome::of(q, &o));
                let relevant = data.cluster_members(data.labels[q].expect("member query"));
                ledger
                    .scores
                    .push(PrecisionRecall::compute(&answer(&o), &relevant));
            }
            Err(e) => ledger.check(false, || format!("in-process re-run of query {q}: {e}")),
        }
    }
    compare_sample(&mut ledger, "wire vs in-process", &wire_side, &process_side);

    if args.trace {
        let traced = windows.pick(&log, true);
        let telemetry = recorder.report();
        let mut conn =
            NetClient::new(server.addr()).with_deadlines(SOCKET_DEADLINE, SOCKET_DEADLINE);
        for _ in 0..PINGS {
            let (pong, _) = tracer.time("net.ping", 0, None, || conn.call(&Request::Ping));
            ledger.check(matches!(pong, Ok(Reply::Pong)), || {
                "ping was not answered".into()
            });
        }
        drop(conn);
        report.set("net.ping_ms.p50", p50(&tracer.durations_ms("net.ping")));
        let serve_ms = replay_serve(&mut report, &mut ledger, par, &data.points, &log);
        report.set(
            "net.overhead_ms.p50",
            p50(&unstamp(&traced.view_ms)) - p50(&serve_ms),
        );
        let submits = traced.view_ms.len();
        report.set(
            "serve.resume_share",
            telemetry.counter("session.resumed") as f64 / submits.max(1) as f64,
        );
        let refused: u64 = [
            "net.refused.overload",
            "net.refused.quota",
            "net.refused.fairness",
            "net.conn.refused",
        ]
        .iter()
        .map(|c| telemetry.counter(c))
        .sum();
        report.set("net.refused", refused as f64);
        report.set("data.open_s", p50(&open_s));
        report.set("host.kernel_ms.p50", p50(&unstamp(&m.calib_ms)));
        report.set(
            "trace.overhead",
            traced.sessions_per_cpu_s() / m.sessions_per_cpu_s(),
        );
        tracer.absorb(log.tracer);
        fill_common(&mut report, &tracer, &telemetry);
    } else {
        report.end_to_end(&m, &ledger);
    }
    ServerHandle::shutdown(server);
    crate::Outcome {
        report,
        ledger,
        tracer,
        params: vec![
            ("data".into(), "case1".into()),
            ("n".into(), N.to_string()),
            ("connections".into(), "1".into()),
            ("open_sessions".into(), OPEN.to_string()),
            ("hot_queries".into(), HOT.to_string()),
            ("hot_share".into(), "7/8".into()),
            ("user_f".into(), F.to_string()),
            ("max_resident".into(), MAX_RESIDENT.to_string()),
            ("max_sessions".into(), MAX_SESSIONS.to_string()),
            ("cache".into(), format!("{CACHE:?}")),
            ("setup_reps".into(), SETUP_REPS.to_string()),
        ],
    }
}

/// Re-issue the wire's first `REPLAY_OPS` calls against an in-process
/// `SessionManager` with the server's configuration: the serve layer
/// without the network. Returns the submit latencies.
fn replay_serve(
    report: &mut Report,
    ledger: &mut Ledger,
    par: Parallelism,
    points: &[Vec<f64>],
    log: &ClientLog,
) -> Vec<f64> {
    let config = serve_config(par);
    let manager = SessionManager::new(
        config.clone(),
        DatasetHandle::new(points).expect("Case-1 rows form a valid dataset"),
    )
    .expect("serve config is valid");
    // open seq → (session, pending view's query density, first views)
    let mut live: BTreeMap<usize, (SessionId, f64, Vec<MajorHead>)> = BTreeMap::new();
    let mut open_ms = Vec::new();
    let mut submit_ms = Vec::new();
    let mut samples = LayerSamples::default();
    for &op in log.ops.iter().take(REPLAY_OPS) {
        let (seq, stepped, mut heads) = match op {
            Op::Open(seq) => {
                let t = cpu_now();
                let opened = manager.open(&points[log.opened[seq]]);
                open_ms.push(cpu_ms_since(t));
                (seq, opened, Vec::new())
            }
            Op::Submit(seq) => {
                let Some((id, qd, heads)) = live.remove(&seq) else {
                    continue;
                };
                let t = cpu_now();
                let stepped = manager.submit(id, respond(qd));
                submit_ms.push(cpu_ms_since(t));
                (seq, stepped.map(|step| (id, step)), heads)
            }
        };
        match stepped {
            Ok((id, Step::NeedResponse(view))) => {
                let qd = view.profile().query_density();
                note_head(&mut heads, &view, &respond(qd));
                live.insert(seq, (id, qd, heads));
            }
            Ok((_, Step::Done(_))) => {
                if samples.find_ms.len() < MIN_REPLAYS {
                    let q = log.opened[seq];
                    for h in &heads {
                        samples.replay(ledger, &config.search, points, &points[q], h);
                    }
                }
            }
            Err(e) => ledger.check(false, || format!("serve replay: {e}")),
        }
    }
    report.set("serve.open_ms.p50", p50(&open_ms));
    report.set("serve.submit_ms.p50", p50(&submit_ms));
    report.set("serve.submit_ms.p99", pct_or_zero(&submit_ms, 0.99));
    samples.fill(report);
    submit_ms
}
