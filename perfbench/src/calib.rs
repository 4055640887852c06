//! A fixed reference kernel that measures how fast the host runs right now,
//! and the scale that turns a run's CPU times into reference-speed times.
//!
//! On the shared 2-core Xeon VM this benchmark was tuned on, the CPU time
//! of the same session drifted by half within minutes (first view 11.8 to
//! 18.2 ms on one seed) as other tenants loaded the host. The kernel is the
//! benchmark's own code, not the program's: squared distances from a few
//! queries to a fixed 20-dimensional point set held in columns, each folded
//! through `exp` — the shape of the program's hottest loops (projection
//! scans and KDE). Its cost moves only with the host's speed, and moved in
//! step with the sessions' (their ratio held within a few percent while
//! both drifted by half). A run samples it between sessions and scales
//! each end-to-end time by [`REF_KERNEL_MS`] over the median of the samples
//! nearest to it in time ([`scale_local`]): the times a run reports are
//! what they would have been on the host at the reference speed. A change
//! to the program moves its times and not the kernel's, so it shows in
//! full. Set-up repetitions are scaled one by one ([`Kernel::bracket`]).

use crate::report::{unstamp, Stamped};
use crate::stats::percentile;
use crate::trace::thread_cpu_now;
use std::hint::black_box;

/// The kernel's cost at the reference speed: about its median on that VM
/// when the host was quiet.
pub const REF_KERNEL_MS: f64 = 0.5;

const DIM: usize = 20;
const POINTS: usize = 4096;
const QUERIES: usize = 8;

/// The kernel's fixed inputs.
pub struct Kernel {
    /// `DIM` columns of `POINTS` coordinates each.
    cols: Vec<Vec<f64>>,
    queries: Vec<[f64; DIM]>,
}

impl Default for Kernel {
    fn default() -> Self {
        // A Weyl sequence: fixed, well spread, no generator state.
        let mut x = 0.5f64;
        let mut next = || {
            x = (x + 0.618_033_988_749_895) % 1.0;
            x
        };
        let cols = (0..DIM)
            .map(|_| (0..POINTS).map(|_| next()).collect())
            .collect();
        let queries = (0..QUERIES)
            .map(|_| std::array::from_fn(|_| next()))
            .collect();
        Self { cols, queries }
    }
}

impl Kernel {
    /// One pass: every query against every point. Returns a checksum so
    /// the work cannot be optimised away.
    pub fn pass(&self) -> f64 {
        let mut dist = vec![0.0f64; POINTS];
        let mut total = 0.0;
        for q in &self.queries {
            dist.fill(0.0);
            for (col, &qd) in self.cols.iter().zip(q) {
                for (d, &c) in dist.iter_mut().zip(col) {
                    let t = c - qd;
                    *d += t * t;
                }
            }
            total += dist.iter().map(|&d| (-4.0 * d).exp()).sum::<f64>();
        }
        total
    }

    /// CPU milliseconds of one pass on the calling thread, timed after
    /// an untimed pass has brought the inputs back into cache (between
    /// samples the workload evicts them, by different amounts on
    /// different workloads).
    pub fn sample_ms(&self) -> f64 {
        black_box(self.pass());
        let t = thread_cpu_now();
        black_box(self.pass());
        thread_cpu_now().saturating_sub(t).as_secs_f64() * 1e3
    }
}

impl Kernel {
    /// Run `f` between two sets of `BRACKET` kernel samples; returns its
    /// result and the reference-speed factor of those samples. For set-up,
    /// which is too short to share the run's factor: the host's speed can
    /// move by half within seconds.
    pub fn bracket<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let mut samples: Vec<f64> = (0..BRACKET).map(|_| self.sample_ms()).collect();
        let out = f();
        samples.extend((0..BRACKET).map(|_| self.sample_ms()));
        (out, scale(&samples).expect("bracket takes samples"))
    }
}

/// Kernel samples on each side of a bracketed call.
const BRACKET: usize = 3;

/// The factor that turns CPU times into reference-speed times:
/// [`REF_KERNEL_MS`] over the median kernel sample. `None` without samples.
pub fn scale(samples_ms: &[f64]) -> Option<f64> {
    percentile(samples_ms, 0.5).map(|p50| REF_KERNEL_MS / p50)
}

/// Kernel samples, nearest in time, that set one timing's factor.
const LOCAL: usize = 9;

/// `samples` at the reference speed, each scaled by the factor of the
/// `LOCAL` kernel samples nearest to it in time (`kernel` in time order):
/// the host's speed moves within a run, so each timing is scaled by the
/// speed the host ran at around it. NaN without kernel samples.
pub fn scale_local(kernel: &[Stamped], samples: &[Stamped]) -> Vec<f64> {
    samples
        .iter()
        .map(|&(t, v)| {
            let at = kernel.partition_point(|&(k, _)| k < t);
            let lo = at
                .saturating_sub(LOCAL / 2)
                .min(kernel.len().saturating_sub(LOCAL));
            let near = unstamp(&kernel[lo..(lo + LOCAL).min(kernel.len())]);
            scale(&near).map_or(f64::NAN, |k| v * k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn scale_is_reference_over_median() {
        assert_eq!(scale(&[]), None);
        assert_eq!(scale(&[1.0, 0.25, 9.0]), Some(REF_KERNEL_MS));
        assert_eq!(scale(&[4.0, 0.25, 0.25]), Some(REF_KERNEL_MS / 0.25));
    }

    #[test]
    fn local_scale_follows_the_host_speed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The host runs at reference speed for 20 samples, then at half.
        let kernel: Vec<Stamped> = (0..40)
            .map(|i| {
                (
                    at(10 * i),
                    if i < 20 {
                        REF_KERNEL_MS
                    } else {
                        2.0 * REF_KERNEL_MS
                    },
                )
            })
            .collect();
        let samples = [
            (at(5), 8.0),
            (at(100), 8.0),
            (at(300), 16.0),
            (at(395), 16.0),
        ];
        assert_eq!(scale_local(&kernel, &samples), vec![8.0; 4]);
        assert!(scale_local(&[], &samples).iter().all(|v| v.is_nan()));
        // Fewer kernel samples than the window: all of them count.
        let few = [(at(0), REF_KERNEL_MS), (at(10), 4.0 * REF_KERNEL_MS)];
        let got = scale_local(&few, &[(at(5), 1.0)]);
        assert_eq!(got, vec![1.0]);
    }

    #[test]
    fn kernel_is_deterministic() {
        let a = Kernel::default().pass();
        let b = Kernel::default().pass();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a.is_finite() && a > 0.0);
    }
}
