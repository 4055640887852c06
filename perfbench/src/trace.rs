//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into the program (open/start, submit,
//! respond, append/delete, ping) is timed through a [`Tracer`]. Timing
//! always happens — the end-to-end metrics come from it — but spans are
//! kept only when tracing is on: then each call leaves a [`Span`] with its
//! session id and parent in memory, and the whole set is written out once
//! the run ends. No span is recorded inside the program itself.
//!
//! A call's measured cost is the CPU time the whole process spent while it
//! ran ([`cpu_now`]), not the wall-clock time: on a shared host the wall
//! clock also counts the time the process waited for a core, which swung
//! the same run's latencies by half between runs. Spans keep wall-clock
//! positions too, so their nesting and self time stay on one timeline.

use std::io::Write;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn cpu_clock(clock_id: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere, the wall clock since the first call stands in for both.
#[cfg(not(target_os = "linux"))]
fn cpu_clock(_clock_id: i32) -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// CPU time consumed so far by this process, all threads, user and system
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time spent runnable but not running —
/// waiting for a core, or stolen by the hypervisor — is not counted.
pub fn cpu_now() -> Duration {
    cpu_clock(2)
}

/// Process CPU milliseconds spent since `start` (a [`cpu_now`] reading).
pub fn cpu_ms_since(start: Duration) -> f64 {
    cpu_now().saturating_sub(start).as_secs_f64() * 1e3
}

/// CPU time consumed so far by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_now() -> Duration {
    cpu_clock(3)
}

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// The session the call belongs to (0 for calls outside any session).
    pub session: u64,
    /// What was called, e.g. `engine.submit`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// Process CPU time spent between start and end, in nanoseconds.
    pub cpu_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open timing, closed by [`Tracer::end`].
pub struct Timer {
    cpu: Duration,
    idx: Option<usize>,
}

impl Timer {
    /// The span id children should name as their parent (`None` when
    /// tracing is off).
    pub fn id(&self) -> Option<usize> {
        self.idx
    }
}

/// Times calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span clock starts at `origin` (share one origin
    /// across threads so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Start timing `name`.
    pub fn begin(&mut self, name: &'static str, session: u64, parent: Option<usize>) -> Timer {
        let idx = self.enabled.then(|| {
            let id = self.spans.len();
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                session,
                name,
                start_ns,
                end_ns: start_ns,
                cpu_ns: 0,
            });
            id
        });
        Timer {
            cpu: cpu_now(),
            idx,
        }
    }

    /// Stop `timer`; returns the process CPU milliseconds it spanned.
    pub fn end(&mut self, timer: Timer) -> f64 {
        let cpu = cpu_now().saturating_sub(timer.cpu);
        if let Some(i) = timer.idx {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans[i].cpu_ns = cpu.as_nanos() as u64;
        }
        cpu.as_secs_f64() * 1e3
    }

    /// Time `f` as one span; returns its result and the process CPU
    /// milliseconds it took.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t = self.begin(name, session, parent);
        let out = f();
        (out, self.end(t))
    }

    /// Append another tracer's spans (ids and parents shifted).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Process CPU milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_ns as f64 / 1e6)
            .collect()
    }

    /// Write the spans as JSON lines, one span per line, with self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"session\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"self_ns\":{own}}}",
                s.id, s.session, s.name, s.start_ns, s.end_ns, s.cpu_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (work
/// on parallel threads under one parent) and may run past the parent's
/// edges; only the union of their intervals inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(lo), b.min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (hi - lo) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: "t",
            start_ns,
            end_ns,
            cpu_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 20),
            span(2, Some(0), 50, 80),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10,40) ∪ [30,60) ∪ [55,70) = [10,70): 60 covered of 100.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 55, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child nested inside another sibling adds nothing.
        let nested = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(0), 20, 30),
        ];
        assert_eq!(self_times(&nested)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 50, 120),
            span(2, Some(0), 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, ms) = t.time("x", 0, None, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_shifts_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.begin("session", 1, None);
        a.end(root);
        let mut b = Tracer::new(true, origin);
        let r = b.begin("session", 2, None);
        let c = b.begin("engine.submit", 2, r.id());
        b.end(c);
        b.end(r);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
    }
}
