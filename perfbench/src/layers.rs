//! Per-layer replays: the first view of each major iteration, rebuilt
//! through the public layer functions on the inputs that view exposed.

use crate::check::Ledger;
use crate::report::{p50, Report};
use crate::session::MajorHead;
use crate::stats::pct_or_zero;
use crate::trace::{cpu_ms_since, cpu_now, self_times, Tracer};
use hinn::core::counts::PreferenceCounts;
use hinn::core::meaning::iteration_probabilities;
use hinn::core::projection::find_query_centered_projection_with;
use hinn::core::SearchConfig;
use hinn::kde::VisualProfile;
use hinn::linalg::Subspace;
use hinn::obs::TelemetryReport;
use hinn::user::UserResponse;

/// Replays needed for `projection.find_ms.p90` to rest on ten samples.
pub const MIN_REPLAYS: usize = 100;

/// Per-call timings of the replayed layers.
#[derive(Default)]
pub struct LayerSamples {
    pub find_ms: Vec<f64>,
    pub profile_ms: Vec<f64>,
    pub select_ms: Vec<f64>,
    pub meaning_ms: Vec<f64>,
}

impl LayerSamples {
    /// Rebuild one major's first view: projection search over the alive
    /// rows in the full space, the visual profile, the user's density
    /// connect, and the meaningfulness update that view's picks feed.
    /// `rows` is the session's dataset in its own id space.
    pub fn replay(
        &mut self,
        ledger: &mut Ledger,
        config: &SearchConfig,
        rows: &[Vec<f64>],
        query: &[f64],
        head: &MajorHead,
    ) {
        let d = query.len();
        let s_eff = config.effective_support(d).min(rows.len());
        let alive: Vec<Vec<f64>> = head.original_ids.iter().map(|&i| rows[i].clone()).collect();
        let t = cpu_now();
        let proj = find_query_centered_projection_with(
            config.parallelism,
            &alive,
            query,
            &Subspace::full(d),
            s_eff,
            config.projection_mode,
        );
        self.find_ms.push(cpu_ms_since(t));
        let xy = |p: &[f64]| {
            let c = proj.projection.project(p);
            [c[0], c[1]]
        };
        let pts2d: Vec<[f64; 2]> = alive.iter().map(|p| xy(p)).collect();
        let t = cpu_now();
        let built = VisualProfile::try_build_with(
            config.parallelism,
            pts2d,
            xy(query),
            config.grid_n,
            config.bandwidth_scale,
        );
        self.profile_ms.push(cpu_ms_since(t));
        let Ok((profile, _)) = built else {
            ledger.check(false, || "replayed view: profile build failed".to_string());
            return;
        };
        ledger.check(
            profile.query_density().to_bits() == head.query_density.to_bits(),
            || "replayed view differs from the view the session showed".to_string(),
        );
        let picked: Vec<usize> = match head.response {
            UserResponse::Threshold(tau) => {
                let t = cpu_now();
                let rows_picked = profile.select(tau, config.corner_rule);
                self.select_ms.push(cpu_ms_since(t));
                rows_picked.iter().map(|&r| head.original_ids[r]).collect()
            }
            _ => Vec::new(),
        };
        let mut counts = PreferenceCounts::new(rows.len());
        counts.record_view(&picked, config.weight(0));
        let t = cpu_now();
        let probs = iteration_probabilities(&counts, &head.original_ids);
        self.meaning_ms.push(cpu_ms_since(t));
        std::hint::black_box(probs);
    }

    pub fn fill(&self, report: &mut Report) {
        report.set("projection.find_ms.p50", p50(&self.find_ms));
        report.set("projection.find_ms.p90", pct_or_zero(&self.find_ms, 0.9));
        report.set("kde.profile_ms.p50", p50(&self.profile_ms));
        report.set("kde.select_ms.p50", p50(&self.select_ms));
        report.set("meaning.update_ms.p50", p50(&self.meaning_ms));
        report.note(format!("samples layer replays: n={}", self.find_ms.len()));
    }
}

/// Metrics read off the benchmark's own spans and the program's cache
/// counters.
pub fn fill_common(report: &mut Report, tracer: &Tracer, telemetry: &TelemetryReport) {
    report.set(
        "user.respond_ms.p50",
        p50(&tracer.durations_ms("user.respond")),
    );
    report.set(
        "engine.start_ms.p50",
        p50(&tracer.durations_ms("engine.start")),
    );
    report.set(
        "engine.submit_ms.p50",
        p50(&tracer.durations_ms("engine.submit")),
    );
    let cache = telemetry.cache_stats();
    if cache.lookups() > 0 {
        report.set(
            "cache.hit_share",
            cache.hits as f64 / cache.lookups() as f64,
        );
    }
    report.set("cache.evictions", cache.evictions as f64);
    // Time inside a session (or client-thread) root that no timed call
    // covers: the benchmark's own bookkeeping between calls.
    let spans = tracer.spans();
    let own = self_times(spans);
    let (mut root_ns, mut self_ns) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(own) {
        if s.parent.is_none() && matches!(s.name, "session" | "client") {
            root_ns += s.dur_ns();
            self_ns += o;
        }
    }
    if root_ns > 0 {
        report.set("bench.self_share", self_ns as f64 / root_ns as f64);
    }
}
