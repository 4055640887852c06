//! `session_cold`: the paper's protocol as one analyst sees it.
//!
//! One client, in process, drives `SessionEngine::start`/`submit` with a
//! `HeuristicUser` answering every view, over Case-1 data at the paper's
//! Table-1 setting (N = 5000, d = 20, axis-parallel, support 25). Every
//! session has a distinct cluster-member query, the full candidate set and
//! its own fresh cache, so all time lands in projection, KDE, meaning and
//! the par layer.

use crate::calib::Kernel;
use crate::check::{answer, compare_sample, Ledger, Outcome};
use crate::gen::{case1, member_queries, sub_seed, DATA_SEED};
use crate::layers::{fill_common, LayerSamples, MIN_REPLAYS};
use crate::report::{p50, unstamp, Measured, Report};
use crate::session::{drive, SessionRun};
use crate::trace::{cpu_now, Tracer};
use crate::Args;
use hinn::core::{DatasetHandle, Parallelism, ProjectionMode, SearchConfig, SessionEngine};
use hinn::metrics::PrecisionRecall;
use hinn::obs::SessionRecorder;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 5000;
const SETUP_REPS: usize = 9;
/// Sessions every run completes whatever its length: the quality sample
/// and the prefix the re-run check draws from.
const QUALITY_SESSIONS: usize = 100;
/// Sessions re-run under the default thread budget.
const RERUN: usize = 3;

pub fn config(par: Parallelism) -> SearchConfig {
    SearchConfig {
        parallelism: par,
        ..SearchConfig::default()
            .with_support(25)
            .with_mode(ProjectionMode::AxisParallel)
    }
}

/// The thread budget every measured session runs under: one thread. On
/// the 2-core Xeon VM this benchmark was tuned on, the default budget (two
/// threads there) made this workload's latencies swing up to threefold
/// between runs minutes apart (`first_view_ms.p50` from 31 to 106 ms) as
/// thread wake-ups slowed with the host's load, while one thread held
/// steady. The default budget still runs on every run, in the determinism
/// re-run, and the traced run reports its cost as `par.default_slowdown`.
pub fn measured_budget() -> Parallelism {
    Parallelism::serial()
}

/// The budget of the determinism re-run: the default budget
/// (`HINN_THREADS`, else every core) when it is parallel, else two threads.
pub fn rerun_budget() -> Parallelism {
    let default = Parallelism::default();
    if default.is_serial() {
        Parallelism::fixed(2)
    } else {
        default
    }
}

pub fn run(args: &Args) -> crate::Outcome {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut quiet = Tracer::new(false, origin);
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut m = Measured::default();

    let data = case1(N, DATA_SEED);
    let kernel = Kernel::default();
    let mut handle = None;
    let mut open_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((h, ms), k) = kernel
            .bracket(|| tracer.time("data.open", 0, None, || DatasetHandle::new(&data.points)));
        open_s.push(ms / 1e3);
        m.setup_s.push(ms / 1e3 * k);
        handle = Some(h.expect("Case-1 rows form a valid dataset"));
    }
    let handle = handle.expect("at least one set-up repetition");

    let queries = member_queries(&data, sub_seed(args.seed, 2));
    let cfg = config(measured_budget());
    let recorder = Arc::new(SessionRecorder::new());
    let mut sample: Vec<Outcome> = Vec::new();
    let mut kept: Vec<(usize, SessionRun)> = Vec::new();
    // Traced runs alternate traced and untraced sessions, so both halves
    // see the same mix and `trace.overhead` compares like with like.
    let (mut cpu, mut done) = ([0.0f64; 2], [0usize; 2]);
    // The loop runs for `--seconds` of process CPU time, so a run on a
    // busy host does the same sessions as one on an idle host, only later.
    let start = Instant::now();
    let deadline = cpu_now() + args.seconds;
    let mut i = 0;
    while i < queries.len() && (cpu_now() < deadline || i < QUALITY_SESSIONS) {
        let q = queries[i];
        m.calib_ms.push((Instant::now(), kernel.sample_ms()));
        let began = Instant::now();
        let traced = args.trace && i % 2 == 1;
        let t0 = cpu_now();
        let result = {
            let _guard = traced.then(|| hinn::obs::install(recorder.clone()));
            let t = if traced { &mut tracer } else { &mut quiet };
            drive(t, i as u64 + 1, || {
                SessionEngine::start(cfg.clone(), &handle, &data.points[q])
            })
        };
        let spent = cpu_now() - t0;
        cpu[usize::from(traced)] += spent.as_secs_f64();
        m.work_ms.push((began, spent.as_secs_f64() * 1e3));
        ledger.op(result.is_ok());
        match result {
            Ok(run) => {
                done[usize::from(traced)] += 1;
                m.push_session(began, &run);
                let o = Outcome::of(q, &run.outcome);
                ledger.record(&o);
                if i < QUALITY_SESSIONS {
                    let relevant = data.cluster_members(data.labels[q].expect("member query"));
                    ledger
                        .scores
                        .push(PrecisionRecall::compute(&answer(&run.outcome), &relevant));
                    sample.push(o);
                }
                if args.trace
                    && kept.iter().map(|(_, r)| r.heads.len()).sum::<usize>() < MIN_REPLAYS
                {
                    kept.push((q, run));
                }
            }
            Err(e) => report.note(format!("session {i} failed: {e}")),
        }
        i += 1;
    }
    report.note(format!(
        "measured loop: {:.2} s wall, {:.2} s CPU",
        start.elapsed().as_secs_f64(),
        m.cpu_s()
    ));

    // Determinism: the first sessions again, under the re-run budget,
    // with the program's par counters recorded when tracing.
    let alt = config(rerun_budget());
    let par_recorder = Arc::new(SessionRecorder::new());
    let (mut rerun, mut rerun_ms, mut rerun_views) = (Vec::new(), 0.0, 0);
    {
        let _guard = args.trace.then(|| hinn::obs::install(par_recorder.clone()));
        for &q in &queries[..RERUN] {
            let run = drive(&mut quiet, 0, || {
                SessionEngine::start(alt.clone(), &handle, &data.points[q])
            });
            if let Ok(run) = run {
                rerun_ms += run.session_ms;
                rerun_views += run.view_ms.len();
                rerun.push(Outcome::of(q, &run.outcome));
            }
        }
    }
    compare_sample(
        &mut ledger,
        "thread-budget re-run",
        &sample[..RERUN.min(sample.len())],
        &rerun,
    );
    let measured_ms: f64 = unstamp(&m.session_ms[..RERUN.min(m.session_ms.len())])
        .iter()
        .sum();
    report.note(format!(
        "default budget ({} threads) vs measured budget: {:.3}x session time over {RERUN} sessions",
        alt.parallelism.threads(),
        rerun_ms / measured_ms
    ));

    if args.trace {
        report.set("data.open_s", p50(&open_s));
        report.set("host.kernel_ms.p50", p50(&unstamp(&m.calib_ms)));
        let mut samples = LayerSamples::default();
        for (q, run) in &kept {
            for head in &run.heads {
                samples.replay(&mut ledger, &cfg, &data.points, &data.points[*q], head);
            }
        }
        samples.fill(&mut report);
        fill_common(&mut report, &tracer, &recorder.report());
        let par = par_recorder.report();
        let per_view = |name| par.counter(name) as f64 / rerun_views.max(1) as f64;
        report.set("par.parallel_per_view", per_view("par.parallel"));
        report.set("par.workers_per_view", per_view("par.workers"));
        report.set("par.default_slowdown", rerun_ms / measured_ms);
        let sps = |k: usize| done[k] as f64 / cpu[k];
        report.set("trace.overhead", sps(1) / sps(0));
    } else {
        report.end_to_end(&m, &ledger);
    }
    crate::Outcome {
        report,
        ledger,
        tracer,
        params: vec![
            ("data".into(), "case1".into()),
            ("n".into(), N.to_string()),
            ("d".into(), "20".into()),
            ("support".into(), "25".into()),
            ("mode".into(), "axis_parallel".into()),
            ("candidates".into(), "full".into()),
            ("threads".into(), cfg.parallelism.threads().to_string()),
            ("setup_reps".into(), SETUP_REPS.to_string()),
            ("quality_sessions".into(), QUALITY_SESSIONS.to_string()),
        ],
    }
}
