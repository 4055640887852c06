//! The metric catalog and the run's output.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step.

use crate::calib;
use crate::check::Ledger;
use crate::session::SessionRun;
use crate::stats::{beyond, pct_or_zero, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_view_ms.p50", "ms"),
    ("first_view_ms.p90", "ms"),
    ("view_ms.p50", "ms"),
    ("view_ms.p95", "ms"),
    ("session_ms.p50", "ms"),
    ("sessions_per_cpu_s", "1/s"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.open_s", "s"),
    ("data.append_ms.p50", "ms"),
    ("data.append_ms.p90", "ms"),
    ("data.delete_ms.p50", "ms"),
    ("index.build_s", "s"),
    ("index.extend_ms.p50", "ms"),
    ("index.knn_ms.p50", "ms"),
    ("index.recall", "ratio"),
    ("candidates.seed_ms.p50", "ms"),
    ("candidates.linear_seed_ms.p50", "ms"),
    ("candidates.cols_batch_ms.p50", "ms"),
    ("projection.find_ms.p50", "ms"),
    ("projection.find_ms.p90", "ms"),
    ("kde.profile_ms.p50", "ms"),
    ("kde.select_ms.p50", "ms"),
    ("meaning.update_ms.p50", "ms"),
    ("user.respond_ms.p50", "ms"),
    ("engine.start_ms.p50", "ms"),
    ("engine.submit_ms.p50", "ms"),
    ("serve.open_ms.p50", "ms"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.submit_ms.p99", "ms"),
    ("serve.resume_share", "ratio"),
    ("cache.hit_share", "ratio"),
    ("cache.evictions", "count"),
    ("net.ping_ms.p50", "ms"),
    ("net.overhead_ms.p50", "ms"),
    ("net.refused", "count"),
    ("par.parallel_per_view", "count/view"),
    ("par.workers_per_view", "count/view"),
    ("par.default_slowdown", "ratio"),
    ("bench.self_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.kernel_ms.p50", "ms"),
];

/// A sample stamped with the wall-clock start of what it measured.
pub type Stamped = (Instant, f64);

/// The values of stamped samples.
pub fn unstamp(samples: &[Stamped]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// The timings and outcomes of one untraced measurement loop, in process
/// CPU time as measured (the report scales them to the reference speed,
/// set-up excepted).
#[derive(Default)]
pub struct Measured {
    /// One entry per set-up repetition, already at the reference speed
    /// (`calib::Kernel::bracket`).
    pub setup_s: Vec<f64>,
    pub first_view_ms: Vec<Stamped>,
    pub view_ms: Vec<Stamped>,
    /// One entry per completed session.
    pub session_ms: Vec<Stamped>,
    /// Process CPU milliseconds of the measurement loop, piece by piece
    /// (a session, a round or a client call), kernel samples excluded.
    pub work_ms: Vec<Stamped>,
    /// Reference-kernel samples (`calib::Kernel`) taken over the loop, in
    /// time order.
    pub calib_ms: Vec<Stamped>,
}

impl Measured {
    /// Process CPU seconds of the measurement loop, unscaled.
    pub fn cpu_s(&self) -> f64 {
        unstamp(&self.work_ms).iter().sum::<f64>() / 1e3
    }

    /// Completed sessions per unscaled CPU second.
    pub fn sessions_per_cpu_s(&self) -> f64 {
        self.session_ms.len() as f64 / self.cpu_s()
    }

    /// Record an in-process session that started at `began`.
    pub fn push_session(&mut self, began: Instant, run: &SessionRun) {
        self.first_view_ms.push((began, run.first_ms));
        self.view_ms
            .extend(run.view_ms.iter().map(|&ms| (began, ms)));
        self.session_ms.push((began, run.session_ms));
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric values by name, plus free-form lines for the log.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Fill the end-to-end metrics from a measurement loop: every time is
    /// scaled to the reference speed (`calib::scale_local`).
    pub fn end_to_end(&mut self, m: &Measured, ledger: &Ledger) {
        let pr = ledger.mean_scores();
        let kernel = unstamp(&m.calib_ms);
        let work_s = calib::scale_local(&m.calib_ms, &m.work_ms)
            .iter()
            .sum::<f64>()
            / 1e3;
        let first_view = calib::scale_local(&m.calib_ms, &m.first_view_ms);
        let view = calib::scale_local(&m.calib_ms, &m.view_ms);
        let session = calib::scale_local(&m.calib_ms, &m.session_ms);
        let p = |s: &[f64], q| percentile(s, q).unwrap_or(f64::NAN);
        self.set("setup_s", p(&m.setup_s, 0.5));
        self.set("first_view_ms.p50", p(&first_view, 0.5));
        self.set("first_view_ms.p90", p(&first_view, 0.9));
        self.set("view_ms.p50", p(&view, 0.5));
        self.set("view_ms.p95", p(&view, 0.95));
        self.set("session_ms.p50", p(&session, 0.5));
        self.set("sessions_per_cpu_s", m.session_ms.len() as f64 / work_s);
        self.note(format!(
            "calibration: kernel p50 {:.4} ms over {} samples (reference {} ms)",
            p(&kernel, 0.5),
            kernel.len(),
            calib::REF_KERNEL_MS
        ));
        self.note(format!(
            "unscaled CPU: first_view_ms.p50 {:.4}, view_ms.p50 {:.4}, session_ms.p50 {:.4}, sessions_per_cpu_s {:.4}",
            p(&unstamp(&m.first_view_ms), 0.5),
            p(&unstamp(&m.view_ms), 0.5),
            p(&unstamp(&m.session_ms), 0.5),
            m.sessions_per_cpu_s()
        ));
        self.set("precision", pr.precision);
        self.set("recall", pr.recall);
        self.set("peak_rss_mb", peak_rss_mb());
        for (name, s, q) in [
            ("first_view_ms.p90", &first_view, 0.9),
            ("view_ms.p95", &view, 0.95),
            ("session_ms.p50", &session, 0.5),
        ] {
            self.note(format!(
                "samples {name}: n={} beyond={}{}",
                s.len(),
                beyond(s, q),
                if beyond(s, q) < 10 {
                    " (SHORT RUN)"
                } else {
                    ""
                }
            ));
        }
        self.note(format!(
            "samples setup_s: n={} {:.4?} quality sessions: n={}",
            m.setup_s.len(),
            m.setup_s,
            ledger.scores.len()
        ));
    }

    /// The final JSON line for `catalog`. Every catalog metric must be
    /// present (per-layer ones default to 0: no work on this workload),
    /// finite, and nothing outside the catalog may be set.
    pub fn result_json(
        &self,
        catalog: &[(&str, &str)],
        ledger: &mut Ledger,
        layers: bool,
    ) -> String {
        for name in self.values.keys() {
            ledger.check(catalog.iter().any(|(n, _)| n == name), || {
                format!("metric {name} is not in the catalog")
            });
        }
        let mut metrics = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if layers => 0.0,
                None => f64::NAN,
            };
            ledger.check(v.is_finite(), || format!("metric {name} is {v}"));
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            ledger.correct(),
            ledger.attempted,
            ledger.failed,
            metrics.join(", ")
        )
    }
}

/// Median helper for per-layer samples (0 when the layer did no work).
pub fn p50(s: &[f64]) -> f64 {
    pct_or_zero(s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly these metrics with these units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = compact.matches("\"name\":").count();
        // Workloads carry names too.
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut ledger = Ledger::default();
        let r = Report::default();
        let json = r.result_json(&END_TO_END[..1], &mut ledger, false);
        assert!(!ledger.correct());
        assert!(json.starts_with("{\"correct\": false"));
    }

    #[test]
    fn idle_layers_report_zero() {
        let mut ledger = Ledger::default();
        let r = Report::default();
        let json = r.result_json(&PER_LAYER[..1], &mut ledger, true);
        assert!(ledger.correct());
        assert!(json.contains("\"data.open_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
