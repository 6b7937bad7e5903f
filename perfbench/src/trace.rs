//! In-memory spans around the benchmark's calls into each layer, exported
//! as Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! A span records its name, the request or task it serves, its parent,
//! and both clocks: CPU time (the host clock of every host metric and of
//! self time) and wall time (the viewer's time axis and per-call
//! durations). Self time is a span's CPU time minus the CPU time its
//! children cover. Spans nest strictly because the
//! benchmark is single-threaded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::probe::CpuClock;

/// Marks a span with no task or request.
pub const NO_ID: u64 = u64::MAX;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `edgellm.step`.
    pub name: &'static str,
    /// Task, request or call id; [`NO_ID`] when none applies.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// CPU nanoseconds at open and close.
    pub cpu_ns: (u64, u64),
    /// Wall microseconds since the tracer started, at open and close.
    pub wall_us: (f64, f64),
    /// CPU nanoseconds covered by direct children.
    pub child_cpu_ns: u64,
}

impl Span {
    /// CPU seconds inside the span.
    pub fn cpu_secs(&self) -> f64 {
        (self.cpu_ns.1 - self.cpu_ns.0) as f64 * 1e-9
    }

    /// CPU seconds inside the span and outside its children.
    pub fn self_secs(&self) -> f64 {
        (self.cpu_ns.1 - self.cpu_ns.0).saturating_sub(self.child_cpu_ns) as f64 * 1e-9
    }
}

/// An open span, returned by [`Tracer::begin`] and consumed by
/// [`Tracer::end`].
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder; disabled tracers cost one branch per call.
pub struct Tracer {
    clock: Option<CpuClock>,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            clock: None,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Result<Self, String> {
        Ok(Tracer {
            clock: Some(CpuClock::open()?),
            ..Tracer::off()
        })
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let Some(clock) = self.clock.as_mut() else {
            return Open(None);
        };
        let cpu = clock.read_ns().expect("schedstat was readable at open");
        let wall = self.epoch.elapsed().as_secs_f64() * 1e6;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            cpu_ns: (cpu, cpu),
            wall_us: (wall, wall),
            child_cpu_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let clock = self.clock.as_mut().expect("open spans imply a clock");
        let cpu = clock.read_ns().expect("schedstat was readable at open");
        let wall = self.epoch.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[idx];
        span.cpu_ns.1 = cpu;
        span.wall_us.1 = wall;
        let dur = cpu - span.cpu_ns.0;
        if let Some(p) = span.parent {
            self.spans[p].child_cpu_ns += dur;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.begin(name, id);
        let out = f(self);
        self.end(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall seconds of every span with this name, in opening order.
    ///
    /// Per-call durations are taken on the wall clock: schedstat CPU time
    /// advances in scheduler ticks (a few ms), too coarse for one call.
    /// Sums over many spans, such as self times, use CPU time.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.wall_us.1 - s.wall_us.0) * 1e-6)
            .collect()
    }

    /// Total self CPU seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.self_secs();
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span on
    /// one thread, with the id, parent and CPU times as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let id = if s.id == NO_ID { -1 } else { s.id as i64 };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"id\":{id},\"cpu_us\":{:.3},\"self_cpu_us\":{:.3}}}}}",
                s.name,
                s.wall_us.0,
                s.wall_us.1 - s.wall_us.0,
                s.cpu_secs() * 1e6,
                s.self_secs() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(iters: u64) {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut tr = Tracer::on().unwrap();
        tr.span("root", NO_ID, |tr| {
            burn(200_000);
            for id in 0..3 {
                tr.span("child", id, |tr| {
                    burn(100_000);
                    tr.span("leaf", id, |_| burn(100_000));
                });
            }
        });
        let root = tr.spans()[0].cpu_secs();
        let sum: f64 = tr.self_times().values().sum();
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        assert_eq!(tr.durations("child").len(), 3);
        assert_eq!(tr.spans()[2].parent, Some(1));
        let json = tr.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", 1, |_| 5), 5);
        assert!(tr.spans().is_empty());
    }
}
