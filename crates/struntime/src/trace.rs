//! Per-rank event tracing with a lock-free hot path.
//!
//! Every [`crate::Comm`] optionally carries a [`TraceBuffer`]: a
//! fixed-capacity ring of [`TraceEvent`]s written only by the owning rank
//! thread. Recording an event is one relaxed load, one plain slot write,
//! and one release store — no locks, no allocation, no syscalls — so
//! instrumentation can sit inside the traversal drain loop without
//! perturbing the schedules the stress suite explores. When the ring
//! wraps, the *oldest* events are overwritten and the drop count is
//! reported, so a trace always holds the most recent window.
//!
//! Tracing is off by default ([`TraceConfig::Off`]): a `Comm` then holds
//! no buffer and every record call is a branch on `Option::None`. The
//! `check` feature is unrelated — traces work identically on release
//! builds.
//!
//! Under fault injection the channel layer emits two extra instant
//! events on the affected rank's lane: `"retransmit"` when an unacked
//! batch's timer expires and the batch is reshipped, and `"dedup_drop"`
//! when the receiver discards a redelivered copy (both carry the wire
//! sequence number as their argument; see [`crate::channels`]). They make
//! recovery traffic visible in the timeline without touching the
//! per-phase message counters.
//!
//! Counters share the ring: a [`TraceEventKind::Counter`] event holds
//! one sampled value (queue depth and bytes, visits, stale drops, the
//! memory ledger's total, unacked reliability batches and bytes, solver
//! values such as arena bytes). The traversal samples its counters every
//! 256 executed visits and once at its end, and [`crate::Comm::set_phase`]
//! takes a boundary sample, so every phase span holds at least one.
//! The cadence is keyed to the visit count, never to the clock, so a
//! traced run makes the same scheduling decisions as an untraced one.
//!
//! Buffers are drained at world teardown into a [`TraceDump`]
//! (chronological per-rank event lists), which renders to the Chrome
//! Trace Event Format via [`TraceDump::to_chrome_trace`] — load the JSON
//! in `about:tracing` or [Perfetto](https://ui.perfetto.dev) to see one
//! lane per rank.
//!
//! ## Flight recorder
//!
//! When the [`FLIGHT_RECORDER_DIR_ENV`] environment variable names a
//! directory and the world traces, a failed run (a rank panic, an expired
//! deadline, an audit or phase failure) writes its drained trace there as
//! `FLIGHT_<reason>_<n>.json`: the Chrome trace with a
//! `struntime.flight = {reason, schema}` object, so the same viewers and
//! `xtask analyze` read it.
//!
//! ## Safety argument (single-writer ring)
//!
//! Slot cells are `UnsafeCell` so the writer needs no lock. The
//! discipline: only the rank thread running the current job's `Comm`
//! writes; the drain (`TraceBuffer::take`) runs only once every rank
//! has reported that job — after the scoped threads are joined
//! (`World::run_config`) or while resident threads are parked between
//! jobs (`PersistentWorld`). The happens-before edge from the writer is
//! the thread join or the results-channel receive, plus the release
//! store on `count`. A failed job reports only after its rank has
//! unwound, so the edge holds on the failure path too. There is never a concurrent
//! reader/writer pair on the same slot.

use std::cell::UnsafeCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stgraph::json::Json;

/// Default ring capacity (events per rank) for [`TraceConfig::ring`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Environment variable naming the directory flight-recorder dumps are
/// written to. Unset (the common case) disables all dump writing.
pub const FLIGHT_RECORDER_DIR_ENV: &str = "FLIGHT_RECORDER_DIR";

/// Version of the flight dump's `struntime.flight` object. Version 1 was
/// a gauge time series of its own; version 2 is the Chrome trace.
pub const FLIGHT_SCHEMA_VERSION: u64 = 2;

/// Whether (and how) a world records trace events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No tracing: ranks carry no buffer, record calls are a null check.
    #[default]
    Off,
    /// Record into a per-rank ring holding the last `capacity` events.
    Ring {
        /// Events retained per rank before the oldest are overwritten.
        capacity: usize,
    },
}

impl TraceConfig {
    /// Ring tracing at [`DEFAULT_RING_CAPACITY`].
    pub fn ring() -> TraceConfig {
        TraceConfig::Ring {
            capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Whether any events will be recorded.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceConfig::Off)
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (Chrome `ph: "B"`).
    SpanBegin,
    /// The most recent open span with this name closed (Chrome `ph: "E"`).
    SpanEnd,
    /// A point event with a numeric argument (Chrome `ph: "i"`).
    Instant,
    /// A causal lineage edge: the visit of message `arg2` (0 for traversal
    /// seeds) pushed a new message with id `arg`. Recorded on the pushing
    /// rank; exported as a Chrome flow start (`ph: "s"`) so Perfetto draws
    /// an arrow from the push to the matching [`TraceEventKind::Visit`].
    Spawn,
    /// Message `arg` was dequeued and consumed on this rank: visited when
    /// `arg2` is 0, dropped unvisited by the stale-relaxation filter when
    /// `arg2` is 1. Exported as a Chrome flow finish (`ph: "f"`,
    /// `bp: "e"`) carrying `args.stale`.
    Visit,
    /// The counter `name` holds the value `arg` from here until its next
    /// sample (Chrome `ph: "C"`, one track per counter and rank).
    Counter,
}

/// One recorded event. `ts_us` is microseconds since the world's trace
/// epoch (shared by all ranks, so lanes align). `arg` is a free numeric
/// payload for instants (queue depth, batch size, target vertex) and the
/// message id for lineage events and the value of counters; `arg2` is
/// the parent message id of a
/// [`TraceEventKind::Spawn`] and the stale flag of a
/// [`TraceEventKind::Visit`]; both zero for spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static label; span begin/end pairs share it, lineage events carry
    /// the phase label of the channel the message travelled on.
    pub name: &'static str,
    /// Span begin, span end, instant, or lineage spawn/visit.
    pub kind: TraceEventKind,
    /// Microseconds since the world's shared trace epoch.
    pub ts_us: u64,
    /// Numeric payload: instants' and counters' value, lineage events'
    /// message id.
    pub arg: u64,
    /// Second payload: a spawn's parent message id (0 = traversal seed).
    pub arg2: u64,
}

const EMPTY_EVENT: TraceEvent = TraceEvent {
    name: "",
    kind: TraceEventKind::Instant,
    ts_us: 0,
    arg: 0,
    arg2: 0,
};

/// One rank's event ring. See the module docs for the single-writer
/// safety discipline.
pub struct TraceBuffer {
    rank: usize,
    epoch: Instant,
    capacity: usize,
    /// Total events ever recorded; `count % capacity` is the next slot.
    count: AtomicU64,
    slots: Box<[UnsafeCell<TraceEvent>]>,
}

// SAFETY: all fields are owned values (`Box`, atomics, `Copy` types) with
// no thread-affine state; moving the buffer to another thread transfers
// exclusive ownership of the slot storage with it.
unsafe impl Send for TraceBuffer {}
// SAFETY: slots are written only by the owning rank thread and read only
// after a happens-before edge from that thread (join or channel recv),
// ordered by the release store / acquire load on `count`. `TraceEvent`
// is `Copy` with no interior pointers.
unsafe impl Sync for TraceBuffer {}

impl TraceBuffer {
    pub(crate) fn new(rank: usize, capacity: usize, epoch: Instant) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            rank,
            epoch,
            capacity,
            count: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(EMPTY_EVENT))
                .collect(),
        }
    }

    /// Records one event. Must only be called from the owning rank thread.
    pub(crate) fn record(&self, kind: TraceEventKind, name: &'static str, arg: u64) {
        self.record2(kind, name, arg, 0);
    }

    /// Records one event with both payload words (lineage spawns carry
    /// the parent id in `arg2`). Same single-writer contract as `record`.
    pub(crate) fn record2(&self, kind: TraceEventKind, name: &'static str, arg: u64, arg2: u64) {
        self.write(TraceEvent {
            name,
            kind,
            ts_us: self.now_us(),
            arg,
            arg2,
        });
    }

    /// Records one sample of several counters under one timestamp (one
    /// clock read). Same single-writer contract as `record`.
    pub(crate) fn record_counters(&self, counters: &[(&'static str, u64)]) {
        let ts_us = self.now_us();
        for &(name, arg) in counters {
            self.write(TraceEvent {
                name,
                kind: TraceEventKind::Counter,
                ts_us,
                arg,
                arg2: 0,
            });
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn write(&self, event: TraceEvent) {
        let n = self.count.load(Ordering::Relaxed);
        let slot = (n % self.capacity as u64) as usize;
        // SAFETY: single-writer discipline (module docs) — no other
        // thread accesses this slot while the rank thread is live.
        unsafe {
            *self.slots[slot].get() = event;
        }
        self.count.store(n + 1, Ordering::Release);
    }

    /// Reads the ring into a chronological event list, resetting it when
    /// `reset` is set. Must not race `record` (see module docs for when
    /// that holds).
    pub(crate) fn read(&self, reset: bool) -> RankTrace {
        let n = self.count.load(Ordering::Acquire);
        let kept = n.min(self.capacity as u64) as usize;
        let mut events = Vec::with_capacity(kept);
        // Oldest surviving event first: when wrapped, that is slot
        // `n % capacity` (the one the next write would overwrite).
        let start = if n > self.capacity as u64 {
            (n % self.capacity as u64) as usize
        } else {
            0
        };
        for i in 0..kept {
            let slot = (start + i) % self.capacity;
            // SAFETY: the writer is quiescent per the drain contract.
            events.push(unsafe { *self.slots[slot].get() });
        }
        if reset {
            self.count.store(0, Ordering::Release);
        }
        RankTrace {
            rank: self.rank,
            dropped: n - kept as u64,
            events,
        }
    }
}

/// A no-op guard that records a [`TraceEventKind::SpanEnd`] when dropped.
/// Owns its buffer handle so it can outlive borrows of the `Comm` that
/// created it (phases hand the `Comm` to sub-calls while the guard is
/// live).
pub struct TraceSpan {
    buf: Option<(Arc<TraceBuffer>, &'static str)>,
}

impl TraceSpan {
    pub(crate) fn begin(buf: Option<&Arc<TraceBuffer>>, name: &'static str) -> TraceSpan {
        match buf {
            Some(buf) => {
                buf.record(TraceEventKind::SpanBegin, name, 0);
                TraceSpan {
                    buf: Some((Arc::clone(buf), name)),
                }
            }
            None => TraceSpan { buf: None },
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((buf, name)) = &self.buf {
            buf.record(TraceEventKind::SpanEnd, name, 0);
        }
    }
}

/// One rank's drained trace, chronological.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: usize,
    /// Events lost to ring overwrite (oldest-first eviction).
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// All ranks' traces from one world (or one drain of a persistent
/// world). Empty when the world ran with [`TraceConfig::Off`].
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Per-rank traces, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

impl TraceDump {
    /// Whether nothing was recorded (tracing off, or no events).
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.events.is_empty())
    }

    /// Total surviving events across ranks.
    pub fn num_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Total events lost to ring overwrite across ranks. Non-zero means
    /// the trace window is truncated and lineage analysis over it is
    /// incomplete (the analyzer downgrades coverage errors to warnings).
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped).sum()
    }

    /// Renders the dump in the Chrome Trace Event Format (JSON object
    /// form). Open the result in `about:tracing` or Perfetto: one lane
    /// (thread) per rank under a single process, span begin/end pairs as
    /// nested slices, instants as thread-scoped marks carrying their
    /// numeric argument as `args.v`, counters as `ph: "C"` samples with
    /// `args.v` and the rank as `id` (one track per counter and rank).
    /// Lineage spawns/visits become flow events (`ph: "s"` / `ph: "f"`,
    /// `cat: "lineage"`) keyed by the message id, so viewers draw causal
    /// arrows between rank lanes; the spawn carries its parent message id
    /// as `args.parent`. A top-level `struntime` object (ignored by trace
    /// viewers) records per-rank ring-overflow drop counts so downstream
    /// analyzers can tell a truncated trace from a complete one.
    pub fn to_chrome_trace(&self) -> String {
        self.chrome_json(None).to_string()
    }

    /// The flight-recorder document: the Chrome trace with
    /// `struntime.flight = {reason, schema}`.
    pub fn flight_json(&self, reason: &str) -> Json {
        self.chrome_json(Some(reason))
    }

    fn chrome_json(&self, flight_reason: Option<&str>) -> Json {
        let mut events = Json::arr();
        events.push(
            Json::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", 0u64)
                .with("tid", 0u64)
                .with("args", Json::obj().with("name", "struntime world")),
        );
        for rt in &self.ranks {
            events.push(
                Json::obj()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 0u64)
                    .with("tid", rt.rank)
                    .with(
                        "args",
                        Json::obj().with("name", format!("rank {}", rt.rank)),
                    ),
            );
        }
        for rt in &self.ranks {
            for ev in &rt.events {
                let mut e = Json::obj()
                    .with("name", ev.name)
                    .with(
                        "ph",
                        match ev.kind {
                            TraceEventKind::SpanBegin => "B",
                            TraceEventKind::SpanEnd => "E",
                            TraceEventKind::Instant => "i",
                            TraceEventKind::Spawn => "s",
                            TraceEventKind::Visit => "f",
                            TraceEventKind::Counter => "C",
                        },
                    )
                    .with("ts", ev.ts_us)
                    .with("pid", 0u64)
                    .with("tid", rt.rank);
                match ev.kind {
                    TraceEventKind::Instant => {
                        e.insert("s", "t"); // thread-scoped instant
                        e.insert("args", Json::obj().with("v", ev.arg));
                    }
                    TraceEventKind::Counter => {
                        e.insert("id", rt.rank);
                        e.insert("args", Json::obj().with("v", ev.arg));
                    }
                    TraceEventKind::Spawn => {
                        e.insert("cat", "lineage");
                        e.insert("id", ev.arg);
                        e.insert("args", Json::obj().with("parent", ev.arg2));
                    }
                    TraceEventKind::Visit => {
                        e.insert("cat", "lineage");
                        e.insert("id", ev.arg);
                        e.insert("bp", "e"); // bind to enclosing slice
                        e.insert("args", Json::obj().with("stale", ev.arg2));
                    }
                    TraceEventKind::SpanBegin | TraceEventKind::SpanEnd => {}
                }
                events.push(e);
            }
        }
        let mut dropped = Json::arr();
        for rt in &self.ranks {
            dropped.push(rt.dropped);
        }
        let mut meta = Json::obj()
            .with("lineage_schema", 1u64)
            .with("dropped", dropped);
        if let Some(reason) = flight_reason {
            meta.insert(
                "flight",
                Json::obj()
                    .with("reason", reason)
                    .with("schema", FLIGHT_SCHEMA_VERSION),
            );
        }
        Json::obj()
            .with("traceEvents", events)
            .with("struntime", meta)
    }
}

static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes a flight-recorder dump into `dir` as `FLIGHT_<reason>_<n>.json`
/// (`n` is a process-global counter so repeated dumps never collide).
/// Returns the path written.
pub fn write_flight_dump(dump: &TraceDump, reason: &str, dir: &Path) -> std::io::Result<PathBuf> {
    let n = FLIGHT_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("FLIGHT_{reason}_{n}.json"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, dump.flight_json(reason).to_string())?;
    Ok(path)
}

/// Writes a flight-recorder dump if the [`FLIGHT_RECORDER_DIR_ENV`]
/// environment variable is set and the world traced; a no-op otherwise.
/// The guard is "no rank lanes" (tracing off), not "no events": a world
/// that dies before its first event still leaves a dump, because an
/// empty-but-present record is itself diagnostic. Write errors are
/// reported to stderr rather than propagated — the flight recorder must
/// never turn a diagnosable failure into a different failure.
pub fn write_flight_dump_env(dump: &TraceDump, reason: &str) -> Option<PathBuf> {
    if dump.ranks.is_empty() {
        return None;
    }
    let dir = std::env::var_os(FLIGHT_RECORDER_DIR_ENV)?;
    match write_flight_dump(dump, reason, Path::new(&dir)) {
        Ok(path) => {
            eprintln!("flight recorder: wrote {} ({reason})", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: failed to write dump ({reason}): {e}");
            None
        }
    }
}

/// Builds the per-rank buffers for a world, or `None` when tracing is
/// off. The caller passes the world's epoch ([`crate::Shared`] owns it)
/// so trace timestamps, lineage send times, and metrics all share one
/// clock and cross-rank lanes align.
pub(crate) fn make_buffers(
    p: usize,
    config: TraceConfig,
    epoch: Instant,
) -> Option<Vec<Arc<TraceBuffer>>> {
    match config {
        TraceConfig::Off => None,
        TraceConfig::Ring { capacity } => Some(
            (0..p)
                .map(|rank| Arc::new(TraceBuffer::new(rank, capacity, epoch)))
                .collect(),
        ),
    }
}

/// Reads every buffer into a [`TraceDump`] (empty when tracing is off),
/// resetting the rings when `reset` is set.
pub(crate) fn drain_buffers(buffers: &Option<Vec<Arc<TraceBuffer>>>, reset: bool) -> TraceDump {
    match buffers {
        None => TraceDump::default(),
        Some(bufs) => TraceDump {
            ranks: bufs.iter().map(|b| b.read(reset)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let buf = TraceBuffer::new(0, 8, Instant::now());
        buf.record(TraceEventKind::SpanBegin, "a", 0);
        buf.record(TraceEventKind::Instant, "q", 5);
        buf.record(TraceEventKind::SpanEnd, "a", 0);
        let t = buf.read(true);
        assert_eq!(t.dropped, 0);
        let names: Vec<_> = t.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "q", "a"]);
        assert!(t.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(t.events[1].arg, 5);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let buf = TraceBuffer::new(1, 4, Instant::now());
        for i in 0..10u64 {
            buf.record(TraceEventKind::Instant, "x", i);
        }
        let t = buf.read(true);
        assert_eq!(t.dropped, 6);
        let args: Vec<_> = t.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9]);
    }

    #[test]
    fn read_resets_the_ring_only_when_asked() {
        let buf = TraceBuffer::new(0, 4, Instant::now());
        buf.record(TraceEventKind::Instant, "x", 1);
        assert_eq!(buf.read(false).events.len(), 1);
        assert_eq!(buf.read(true).events.len(), 1);
        assert_eq!(buf.read(true).events.len(), 0);
        buf.record(TraceEventKind::Instant, "y", 2);
        let t = buf.read(true);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "y");
    }

    #[test]
    fn span_guard_records_begin_and_end() {
        let buf = Arc::new(TraceBuffer::new(0, 8, Instant::now()));
        {
            let _span = TraceSpan::begin(Some(&buf), "phase");
            buf.record(TraceEventKind::Instant, "inside", 0);
        }
        let t = buf.read(true);
        assert_eq!(t.events[0].kind, TraceEventKind::SpanBegin);
        assert_eq!(t.events[1].name, "inside");
        assert_eq!(t.events[2].kind, TraceEventKind::SpanEnd);
        assert_eq!(t.events[2].name, "phase");
    }

    #[test]
    fn disabled_span_is_a_no_op() {
        let _span = TraceSpan::begin(None, "nothing");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rank_lanes() {
        let epoch = Instant::now();
        let bufs: Vec<_> = (0..2)
            .map(|r| Arc::new(TraceBuffer::new(r, 16, epoch)))
            .collect();
        bufs[0].record(TraceEventKind::SpanBegin, "voronoi", 0);
        bufs[0].record(TraceEventKind::SpanEnd, "voronoi", 0);
        bufs[1].record(TraceEventKind::Instant, "queue_depth", 3);
        let dump = drain_buffers(&Some(bufs), true);
        let text = dump.to_chrome_trace();
        let doc = stgraph::json::parse(&text).expect("chrome trace must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // 1 process_name + 2 thread_name + 3 events.
        assert_eq!(events.len(), 6);
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
            .collect();
        assert_eq!(tids, vec![0, 1]);
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .expect("instant present");
        assert_eq!(
            instant
                .get("args")
                .and_then(|a| a.get("v"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn off_config_produces_empty_dump() {
        assert!(!TraceConfig::Off.is_enabled());
        assert!(TraceConfig::ring().is_enabled());
        let dump = drain_buffers(&make_buffers(4, TraceConfig::Off, Instant::now()), true);
        assert!(dump.is_empty());
        assert_eq!(dump.num_events(), 0);
        assert_eq!(dump.total_dropped(), 0);
    }

    #[test]
    fn lineage_events_export_as_flow_events() {
        let epoch = Instant::now();
        let bufs: Vec<_> = (0..2)
            .map(|r| Arc::new(TraceBuffer::new(r, 16, epoch)))
            .collect();
        // Rank 0 visits seed 7 and spawns message 9 from it; rank 1
        // receives and visits message 9.
        bufs[0].record2(TraceEventKind::Visit, "voronoi", 7, 0);
        bufs[0].record2(TraceEventKind::Spawn, "voronoi", 9, 7);
        bufs[1].record2(TraceEventKind::Visit, "voronoi", 9, 0);
        let dump = drain_buffers(&Some(bufs), true);
        let text = dump.to_chrome_trace();
        let doc = stgraph::json::parse(&text).expect("chrome trace must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let spawn = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .expect("flow start present");
        assert_eq!(spawn.get("cat").and_then(|c| c.as_str()), Some("lineage"));
        assert_eq!(spawn.get("id").and_then(|i| i.as_u64()), Some(9));
        assert_eq!(
            spawn
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(7)
        );
        let finishes: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .collect();
        assert_eq!(finishes.len(), 2);
        assert!(finishes
            .iter()
            .all(|e| e.get("bp").and_then(|b| b.as_str()) == Some("e")));
    }

    #[test]
    fn dropped_counts_surface_in_dump_and_chrome_header() {
        let epoch = Instant::now();
        let bufs: Vec<_> = (0..2)
            .map(|r| Arc::new(TraceBuffer::new(r, 4, epoch)))
            .collect();
        for i in 0..10u64 {
            bufs[0].record(TraceEventKind::Instant, "x", i);
        }
        bufs[1].record(TraceEventKind::Instant, "y", 0);
        let dump = drain_buffers(&Some(bufs), true);
        assert_eq!(dump.total_dropped(), 6);
        let doc = stgraph::json::parse(&dump.to_chrome_trace()).expect("parses");
        let dropped = doc
            .get("struntime")
            .and_then(|s| s.get("dropped"))
            .and_then(|d| d.as_arr())
            .expect("struntime.dropped array");
        let counts: Vec<u64> = dropped.iter().filter_map(|d| d.as_u64()).collect();
        assert_eq!(counts, vec![6, 0]);
    }

    #[test]
    fn counters_export_one_track_per_rank() {
        let epoch = Instant::now();
        let bufs: Vec<_> = (0..2)
            .map(|r| Arc::new(TraceBuffer::new(r, 8, epoch)))
            .collect();
        bufs[1].record(TraceEventKind::Counter, "queue_depth", 42);
        let doc = stgraph::json::parse(&drain_buffers(&Some(bufs), true).to_chrome_trace())
            .expect("parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .expect("counter present");
        assert_eq!(
            counter.get("name").and_then(|n| n.as_str()),
            Some("queue_depth")
        );
        assert_eq!(counter.get("tid").and_then(|t| t.as_u64()), Some(1));
        assert_eq!(counter.get("id").and_then(|t| t.as_u64()), Some(1));
        let v = counter.get("args").and_then(|a| a.get("v"));
        assert_eq!(v.and_then(|v| v.as_u64()), Some(42));
    }

    #[test]
    fn flight_dump_writes_the_trace_with_its_reason() {
        let buf = Arc::new(TraceBuffer::new(0, 8, Instant::now()));
        buf.record(TraceEventKind::Counter, "visits", 3);
        let dump = drain_buffers(&Some(vec![buf]), true);
        let dir = std::env::temp_dir().join(format!("struntime_flight_{}", std::process::id()));
        let path = write_flight_dump(&dump, "unit_test", &dir).expect("dump writes");
        let name = path.file_name().and_then(|n| n.to_str()).unwrap();
        assert!(name.starts_with("FLIGHT_unit_test_"), "{name}");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        std::fs::remove_dir_all(&dir).ok();
        let doc = stgraph::json::parse(&text).expect("dump parses");
        let flight = doc.get("struntime").and_then(|s| s.get("flight"));
        let field = |k: &str| flight.and_then(|f| f.get(k)).cloned();
        assert_eq!(
            field("reason").as_ref().and_then(|r| r.as_str()),
            Some("unit_test")
        );
        assert_eq!(
            field("schema").and_then(|v| v.as_u64()),
            Some(FLIGHT_SCHEMA_VERSION)
        );
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")));
        // Tracing off: no lanes, so the environment-gated writer is a no-op.
        assert_eq!(write_flight_dump_env(&TraceDump::default(), "off"), None);
    }
}
