//! `stream_ingest`: writes beside reads.
//!
//! A `DatasetHandle` opens over Case-1 rows and sessions seed their
//! candidates from the HNSW graph. Each round appends a batch, tombstones
//! some ids, then runs sessions pinned to the new epoch. The schedule is
//! fixed by the seed and `--seconds` (see [`shape`] and `gen::StreamPlan`),
//! so every run does the same work whatever its speed.

use crate::calib::Kernel;
use crate::check::{answer, compare_sample, Ledger, Outcome};
use crate::cold::{measured_budget, rerun_budget};
use crate::gen::{case1, sub_seed, StreamPlan, StreamShape, DATA_SEED};
use crate::layers::{fill_common, LayerSamples, MIN_REPLAYS};
use crate::report::{p50, unstamp, Measured, Report};
use crate::session::{drive, SessionRun};
use crate::stats::pct_or_zero;
use crate::trace::{cpu_ms_since, cpu_now, Tracer};
use crate::Args;
use hinn::baselines::{knn_indices_cols_batch, Metric};
use hinn::core::{
    CandidateSource, DatasetHandle, EpochSnapshot, Parallelism, SearchConfig, SessionEngine,
};
use hinn::data::ColumnStore;
use hinn::index::{Hnsw, HnswParams};
use hinn::metrics::PrecisionRecall;
use hinn::obs::SessionRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The schedule: one round per second of `--seconds` (a round costs about
/// a second of CPU on the 2-core Xeon VM this was tuned on), so the work a
/// run measures follows from its arguments, never from the host's speed.
/// Five sessions per round put the graph extension an append triggers into
/// one first view in five: the p90 of `first_view_ms` rests on extensions,
/// the p50 on warm seeding, and 20 rounds leave ten samples beyond p90.
fn shape(seconds: Duration) -> StreamShape {
    StreamShape {
        initial: 10_000,
        rounds: seconds.as_secs().max(1) as usize,
        batch: 500,
        deletes: 125,
        sessions_per_round: 5,
    }
}
/// Wall-clock cap on the measured loop, in multiples of `--seconds`: only a
/// host far slower than usual stops the schedule early.
const WALL_CAP: u32 = 5;
const BUDGET: usize = 2000;
const SETUP_REPS: usize = 5;
/// Queries per `knn_indices_cols_batch` call in the baseline replay.
const COLS_BATCH: usize = 4;

pub fn config(par: Parallelism) -> SearchConfig {
    crate::cold::config(par).with_candidate_source(CandidateSource::hnsw(BUDGET))
}

/// Open a handle over `rows` and warm the HNSW graph with one session
/// open, up to the state where the first measured session can start.
fn set_up(
    tracer: &mut Tracer,
    cfg: &SearchConfig,
    rows: &[Vec<f64>],
    query: &[f64],
) -> (DatasetHandle, f64, f64) {
    let t = tracer.begin("setup", 0, None);
    let (handle, open_ms) = tracer.time("data.open", 0, t.id(), || DatasetHandle::new(rows));
    let handle = handle.expect("Case-1 rows form a valid dataset");
    let (warm, _) = tracer.time("index.warm", 0, t.id(), || {
        SessionEngine::start(cfg.clone(), &handle, query)
    });
    warm.expect("warm-up session opens");
    let total_ms = tracer.end(t);
    (handle, open_ms / 1e3, total_ms / 1e3)
}

pub fn run(args: &Args) -> crate::Outcome {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut quiet = Tracer::new(false, origin);
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut m = Measured::default();
    let par = measured_budget();
    let cfg = config(par);

    let shape = shape(args.seconds);
    let plan = StreamPlan::generate(shape, args.seed);
    // Earlier repetitions open their own datasets of the same shape: the
    // graph registry is keyed by content, so reopening the same rows
    // would find the graph already built.
    let kernel = Kernel::default();
    let mut open_s = Vec::new();
    for rep in 1..SETUP_REPS {
        let other = case1(shape.initial, sub_seed(DATA_SEED, 100 + rep as u64));
        let ((_, o, s), k) =
            kernel.bracket(|| set_up(&mut tracer, &cfg, &other.points, &other.points[0]));
        open_s.push(o);
        m.setup_s.push(s * k);
    }
    let first_query = &plan.rows[plan.rounds[0].queries[0]];
    let ((handle, o, s), k) =
        kernel.bracket(|| set_up(&mut tracer, &cfg, &plan.rows[..plan.initial], first_query));
    open_s.push(o);
    m.setup_s.push(s * k);

    let recorder = Arc::new(SessionRecorder::new());
    let mut kept: Vec<(Arc<EpochSnapshot>, usize, SessionRun)> = Vec::new();
    let mut last_round: Vec<(Arc<EpochSnapshot>, Outcome)> = Vec::new();
    let (mut cpu, mut done) = ([0.0f64; 2], [0usize; 2]);
    let mut expected_len = plan.initial;
    let start = Instant::now();
    let deadline = start + WALL_CAP * args.seconds;
    let mut sid = 0u64;
    for (r, round) in plan.rounds.iter().enumerate() {
        if Instant::now() >= deadline {
            report.note(format!(
                "time ran out after {r} of {} rounds",
                plan.rounds.len()
            ));
            break;
        }
        // Traced runs alternate traced and untraced rounds.
        let traced = args.trace && r % 2 == 1;
        let t_round = cpu_now();
        let round_began = Instant::now();
        let _guard = traced.then(|| hinn::obs::install(recorder.clone()));
        let t = if traced { &mut tracer } else { &mut quiet };
        let epoch_before = handle.epoch();
        let (appended, _) = t.time("data.append", 0, None, || {
            handle.append(&plan.rows[round.append.clone()])
        });
        ledger.op(appended.is_ok());
        let (deleted, _) = t.time("data.delete", 0, None, || handle.delete(&round.delete));
        ledger.op(deleted.is_ok());
        expected_len += round.append.len() - round.delete.len();
        let snap = handle.snapshot();
        ledger.check(
            snap.epoch() == epoch_before + (round.append.len() + round.delete.len()) as u64
                && snap.len() == expected_len,
            || {
                format!(
                    "round {r}: epoch {} / {} rows after ingest",
                    snap.epoch(),
                    snap.len()
                )
            },
        );
        let alive_ids = snap.alive_ids();
        let mut round_kernel_ms = 0.0;
        for &q in &round.queries {
            sid += 1;
            let pass_ms = kernel.sample_ms();
            m.calib_ms.push((Instant::now(), pass_ms));
            round_kernel_ms += pass_ms;
            let began = Instant::now();
            let result = drive(t, sid, || {
                SessionEngine::start_at(cfg.clone(), snap.clone(), &plan.rows[q])
            });
            ledger.op(result.is_ok());
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    report.note(format!("round {r} session {sid} failed: {e}"));
                    continue;
                }
            };
            done[usize::from(traced)] += 1;
            m.push_session(began, &run);
            // Dense (epoch) ids back to global row ids.
            let mut o = Outcome::of(q, &run.outcome);
            o.neighbors.iter_mut().for_each(|n| *n = alive_ids[*n]);
            ledger.record(&o);
            let label = plan.labels[q];
            let relevant: Vec<usize> = alive_ids
                .iter()
                .filter(|&&g| plan.labels[g] == label)
                .copied()
                .collect();
            let got: Vec<usize> = answer(&run.outcome).iter().map(|&n| alive_ids[n]).collect();
            ledger
                .scores
                .push(PrecisionRecall::compute(&got, &relevant));
            if r + 1 == plan.rounds.len() {
                last_round.push((snap.clone(), o));
            }
            if args.trace && kept.iter().map(|(.., k)| k.heads.len()).sum::<usize>() < MIN_REPLAYS {
                kept.push((snap.clone(), q, run));
            }
        }
        let spent_ms = cpu_ms_since(t_round) - round_kernel_ms;
        cpu[usize::from(traced)] += spent_ms / 1e3;
        m.work_ms.push((round_began, spent_ms));
    }
    report.note(format!(
        "measured loop: {:.2} s wall, {:.2} s CPU",
        start.elapsed().as_secs_f64(),
        m.cpu_s()
    ));

    // Determinism: the last round's sessions again, under the default
    // budget (their epoch's graph is still registered).
    let alt = config(rerun_budget());
    let rerun: Vec<Outcome> = last_round
        .iter()
        .filter_map(|(snap, o)| {
            drive(&mut quiet, 0, || {
                SessionEngine::start_at(alt.clone(), snap.clone(), &plan.rows[o.query])
            })
            .ok()
            .map(|r| {
                let ids = snap.alive_ids();
                let mut again = Outcome::of(o.query, &r.outcome);
                again.neighbors.iter_mut().for_each(|n| *n = ids[*n]);
                again
            })
        })
        .collect();
    let timed: Vec<Outcome> = last_round.iter().map(|(_, o)| o.clone()).collect();
    compare_sample(&mut ledger, "thread-budget re-run", &timed, &rerun);

    if args.trace {
        report.set("data.open_s", p50(&open_s));
        report.set("host.kernel_ms.p50", p50(&unstamp(&m.calib_ms)));
        report.set(
            "data.append_ms.p50",
            p50(&tracer.durations_ms("data.append")),
        );
        report.set(
            "data.append_ms.p90",
            pct_or_zero(&tracer.durations_ms("data.append"), 0.9),
        );
        report.set(
            "data.delete_ms.p50",
            p50(&tracer.durations_ms("data.delete")),
        );
        let mut samples = LayerSamples::default();
        for (snap, q, run) in &kept {
            for head in &run.heads {
                samples.replay(&mut ledger, &cfg, &snap.rows(), &plan.rows[*q], head);
            }
        }
        samples.fill(&mut report);
        index_layers(&mut report, &mut ledger, &plan, &handle.snapshot(), par);
        fill_common(&mut report, &tracer, &recorder.report());
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
            ("initial_rows".into(), shape.initial.to_string()),
            ("rounds".into(), shape.rounds.to_string()),
            ("batch".into(), shape.batch.to_string()),
            ("deletes".into(), shape.deletes.to_string()),
            (
                "sessions_per_round".into(),
                shape.sessions_per_round.to_string(),
            ),
            ("candidates".into(), format!("hnsw:{BUDGET}")),
            ("setup_reps".into(), SETUP_REPS.to_string()),
        ],
    }
}

/// The index and candidate layers, replayed on the run's own inputs: the
/// graph built over the opening rows and extended batch by batch, HNSW
/// search at the session budget against the exact top-k, and the exact
/// seeders the index must beat, all on the session queries.
fn index_layers(
    report: &mut Report,
    ledger: &mut Ledger,
    plan: &StreamPlan,
    last: &EpochSnapshot,
    par: Parallelism,
) {
    let params = HnswParams::default();
    let t = cpu_now();
    let mut graph = Hnsw::build(plan.rows[..plan.initial].to_vec(), params);
    report.set("index.build_s", cpu_ms_since(t) / 1e3);
    let mut extend_ms = Vec::new();
    for round in &plan.rounds {
        let t = cpu_now();
        graph = graph.extended(&plan.rows[..round.append.end]);
        extend_ms.push(cpu_ms_since(t));
    }
    report.set("index.extend_ms.p50", p50(&extend_ms));

    // Search quality and cost over every appended row (global ids), the
    // graph's own id space.
    let queries: Vec<&[f64]> = plan
        .rounds
        .iter()
        .flat_map(|r| r.queries.iter().map(|&q| plan.rows[q].as_slice()))
        .collect();
    let appended = ColumnStore::from_rows(&plan.rows[..graph.len()]);
    let mut knn_ms = Vec::new();
    let mut recall = Vec::new();
    let mut cols_ms = Vec::new();
    for chunk in queries.chunks(COLS_BATCH) {
        let t = cpu_now();
        let exact = knn_indices_cols_batch(&appended, chunk, BUDGET, Metric::L2);
        cols_ms.push(cpu_ms_since(t) / chunk.len() as f64);
        for (q, truth) in chunk.iter().zip(&exact) {
            let t = cpu_now();
            let approx = graph.knn_with_ef(q, BUDGET, params.ef_search);
            knn_ms.push(cpu_ms_since(t));
            recall.push(PrecisionRecall::compute(&approx, truth).recall);
        }
    }
    report.set("index.knn_ms.p50", p50(&knn_ms));
    report.set(
        "index.recall",
        recall.iter().sum::<f64>() / recall.len() as f64,
    );
    report.set("candidates.cols_batch_ms.p50", p50(&cols_ms));

    // The seeders as sessions call them, on the last epoch's alive rows.
    let rows = last.rows();
    let hnsw = CandidateSource::hnsw(BUDGET);
    let linear = CandidateSource::Linear { budget: BUDGET };
    let mut seed_ms = Vec::new();
    let mut linear_ms = Vec::new();
    for q in &queries {
        let t = cpu_now();
        let got = hnsw.top_k(par, &rows, q, BUDGET);
        seed_ms.push(cpu_ms_since(t));
        let t = cpu_now();
        let want = linear.top_k(par, &rows, q, BUDGET);
        linear_ms.push(cpu_ms_since(t));
        ledger.check(got.len() == BUDGET && want.len() == BUDGET, || {
            format!(
                "seeders returned {} / {} of {BUDGET} ids",
                got.len(),
                want.len()
            )
        });
    }
    // The first HNSW call builds the content-keyed graph; the median is
    // over warm calls.
    report.set("candidates.seed_ms.p50", p50(&seed_ms));
    report.set("candidates.linear_seed_ms.p50", p50(&linear_ms));
}
