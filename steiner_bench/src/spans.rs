//! In-memory spans around the benchmark's calls into each layer, written
//! out once at exit as Chrome-trace JSON (load it in Perfetto or
//! `chrome://tracing`). Spans nest by containment: a `setup` span holds
//! its `load` and `partition` spans, a pass span holds its operations.

use std::time::{Duration, Instant};
use stgraph::json::Json;

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    /// Seed-set index for solve spans, so a slow operation can be traced
    /// back to its input.
    set: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that began at `start` and lasted `dur`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        set: Option<usize>,
    ) {
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            set,
        });
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, start.elapsed(), None);
        out
    }

    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut event = Json::obj()
                    .with("name", s.name)
                    .with("cat", "steiner_bench")
                    .with("ph", "X")
                    .with("ts", s.start_us)
                    .with("dur", s.dur_us)
                    .with("pid", 0u64)
                    .with("tid", 0u64);
                if let Some(set) = s.set {
                    event.insert("args", Json::obj().with("seed_set", set));
                }
                event
            })
            .collect::<Vec<_>>();
        Json::obj()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms")
    }
}
