//! Per-rank time-series telemetry: a step-keyed gauge sampler feeding a
//! bounded ring, plus the flight recorder built on top of it.
//!
//! Every [`crate::Comm`] optionally carries a [`TelemetrySampler`]: a
//! fixed set of [`Gauge`]s (queue depth and bytes, arena / collective /
//! reliability-buffer memory, acked and unacked batches, stale drops,
//! executed visits, total tracked memory, fault counters) mirrored in
//! relaxed atomics, snapshotted into a fixed-capacity ring of
//! [`TelemetrySample`]s. The sampling cadence is keyed to the traversal
//! *step counter* (executed visits), never to wall clock, so a sampled
//! run makes exactly the same scheduling decisions as an unsampled one:
//! telemetry-on and telemetry-off solves stay bit-identical, and the
//! cadence is stable under the schedule perturber and fault injection.
//! Phase transitions force a boundary sample regardless of cadence so
//! the Gantt view always sees every phase.
//!
//! Telemetry is off by default ([`TelemetryConfig::Off`]): a `Comm` then
//! holds no sampler and every hook is a branch on `Option::None`. The
//! per-visit cost when enabled is a handful of relaxed atomic stores;
//! the ring write happens only on the cadence (every
//! `sample_every`-th visit, rounded to a power of two).
//!
//! Two consumers sit on top:
//!
//! - the **monitor** thread (CLI `--monitor`): reads each rank's live
//!   atomic gauge mirror ~10×/s and renders a heartbeat line to stderr.
//!   This is the one place telemetry touches the wall clock — rendering
//!   only, never sampling.
//! - the **flight recorder**: when the `FLIGHT_RECORDER_DIR` environment
//!   variable is set, the drained time-series is written as structured
//!   JSON (`FLIGHT_<reason>_<n>.json`) on a rank panic, an audit
//!   failure, or fault-budget exhaustion, so a failed run is diagnosable
//!   after the fact.
//!
//! ## Safety argument (single-writer ring)
//!
//! Ring slots are `UnsafeCell` so the writer needs no lock, exactly like
//! [`crate::trace::TraceBuffer`]. The discipline: only the rank thread
//! that owns the `Comm` writes ring slots (via `record_sample`, called
//! from the step hook and phase transitions); the monitor thread reads
//! only the *atomic* gauge mirror, never the ring. The drain
//! ([`TelemetrySampler::read`]) runs after the rank threads are joined or
//! while resident threads are parked between jobs, with the
//! happens-before edge established by the join or the results-channel
//! receive plus the release store / acquire load on `count`. There is never a concurrent
//! reader/writer pair on the same slot.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stgraph::json::Json;

/// Default sampling cadence: one ring sample per this many executed
/// visits (rounded up to a power of two at sampler construction).
pub const DEFAULT_SAMPLE_EVERY: u32 = 256;

/// Samples retained per rank before the oldest are overwritten.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 1024;

/// Environment variable naming the directory flight-recorder dumps are
/// written to. Unset (the common case) disables all dump writing.
pub const FLIGHT_RECORDER_DIR_ENV: &str = "FLIGHT_RECORDER_DIR";

/// Schema version of the flight-recorder JSON envelope.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// Phase value meaning "no phase marked yet".
pub const NO_PHASE: u64 = u64::MAX;

/// Whether (and how) a world samples telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryConfig {
    /// No telemetry: ranks carry no sampler, every hook is a null check.
    #[default]
    Off,
    /// Sample the gauge set into a per-rank ring every `sample_every`
    /// executed visits (plus forced samples at phase boundaries).
    Ring {
        /// Visits between ring samples; rounded up to a power of two.
        sample_every: u32,
        /// Render a live per-rank heartbeat line to stderr while the
        /// world runs (the CLI `--monitor` flag).
        monitor: bool,
    },
}

impl TelemetryConfig {
    /// Ring sampling at [`DEFAULT_SAMPLE_EVERY`], no monitor.
    pub fn ring() -> TelemetryConfig {
        TelemetryConfig::Ring {
            sample_every: DEFAULT_SAMPLE_EVERY,
            monitor: false,
        }
    }

    /// Whether any samples will be recorded.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TelemetryConfig::Off)
    }

    /// Whether the live heartbeat thread should run.
    pub fn monitor_enabled(&self) -> bool {
        matches!(self, TelemetryConfig::Ring { monitor: true, .. })
    }
}

/// Number of fixed gauges ([`Gauge::ALL`]).
pub const NUM_GAUGES: usize = 11;

/// The fixed gauge set every sample snapshots. Extension values with
/// dynamic labels go through [`TelemetrySampler::set_named`] instead and
/// surface as final values, not time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Visitor-queue entries pending on this rank.
    QueueDepth,
    /// Deep bytes held by the visitor queue.
    QueueBytes,
    /// Bytes held by the solver's per-rank scratch arena.
    ArenaBytes,
    /// Bytes held by collective slots and buffers (from the memory
    /// ledger's `collective_*` labels).
    CollectiveBytes,
    /// Sequenced batches shipped but not yet acknowledged.
    UnackedBatches,
    /// Payload bytes held in the reliability (unacked) buffers.
    ReliabilityBytes,
    /// Sequenced batches acknowledged so far.
    AckedBatches,
    /// Dominated relaxations dropped by the stale filter so far.
    StaleDrops,
    /// Visit callbacks executed so far (the sampling step counter).
    Visits,
    /// Current total of the rank's memory ledger.
    MemTotalBytes,
    /// World-wide fault injections observed so far (drops + dups +
    /// delays + stalls).
    FaultsInjected,
}

impl Gauge {
    /// All gauges, in the order samples store them.
    pub const ALL: [Gauge; NUM_GAUGES] = [
        Gauge::QueueDepth,
        Gauge::QueueBytes,
        Gauge::ArenaBytes,
        Gauge::CollectiveBytes,
        Gauge::UnackedBatches,
        Gauge::ReliabilityBytes,
        Gauge::AckedBatches,
        Gauge::StaleDrops,
        Gauge::Visits,
        Gauge::MemTotalBytes,
        Gauge::FaultsInjected,
    ];

    /// Stable key used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            Gauge::QueueDepth => "queue_depth",
            Gauge::QueueBytes => "queue_bytes",
            Gauge::ArenaBytes => "arena_bytes",
            Gauge::CollectiveBytes => "collective_bytes",
            Gauge::UnackedBatches => "unacked_batches",
            Gauge::ReliabilityBytes => "reliability_bytes",
            Gauge::AckedBatches => "acked_batches",
            Gauge::StaleDrops => "stale_drops",
            Gauge::Visits => "visits",
            Gauge::MemTotalBytes => "mem_total_bytes",
            Gauge::FaultsInjected => "faults_injected",
        }
    }
}

/// One ring snapshot: the step (visit count) it was taken at, the phase
/// marked at that time ([`NO_PHASE`] if none), and every gauge value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Executed-visit count on this rank when the sample was taken.
    pub step: u64,
    /// Phase index marked via [`TelemetrySampler::set_phase`], or
    /// [`NO_PHASE`].
    pub phase: u64,
    /// Gauge values, indexed by [`Gauge::ALL`] order.
    pub values: [u64; NUM_GAUGES],
}

const EMPTY_SAMPLE: TelemetrySample = TelemetrySample {
    step: 0,
    phase: NO_PHASE,
    values: [0; NUM_GAUGES],
};

/// One rank's sampler: live atomic gauge mirror + sample ring. See the
/// module docs for the single-writer safety discipline.
pub struct TelemetrySampler {
    rank: usize,
    /// `sample_every - 1` for the power-of-two cadence; 0 samples every
    /// step.
    mask: u64,
    sample_every: u32,
    capacity: usize,
    /// Live gauge mirror; written relaxed by the owning rank thread,
    /// read by the monitor thread.
    values: [AtomicU64; NUM_GAUGES],
    /// Current phase index ([`NO_PHASE`] before the first mark).
    phase: AtomicU64,
    /// Executed-visit counter driving the cadence.
    step: AtomicU64,
    /// Total samples ever recorded; `count % capacity` is the next slot.
    count: AtomicU64,
    slots: Box<[UnsafeCell<TelemetrySample>]>,
    /// Labelled extension gauges (final value only, not time series).
    /// Guards only named-gauge writes, never the ring hot path.
    named: Mutex<BTreeMap<&'static str, u64>>,
}

// SAFETY: all fields are owned values (`Box`, atomics, `Copy` types, a
// `Mutex`) with no thread-affine state; moving the sampler transfers
// exclusive ownership of the slot storage with it.
unsafe impl Send for TelemetrySampler {}
// SAFETY: ring slots are written only by the owning rank thread and read
// only after a happens-before edge from that thread (join), ordered by
// the release store / acquire load on `count`. The monitor thread reads
// only the atomic mirror, never the slots. `TelemetrySample` is `Copy`
// with no interior pointers.
unsafe impl Sync for TelemetrySampler {}

impl TelemetrySampler {
    pub(crate) fn new(rank: usize, sample_every: u32, capacity: usize) -> TelemetrySampler {
        let sample_every = sample_every.max(1).next_power_of_two();
        let capacity = capacity.max(1);
        TelemetrySampler {
            rank,
            mask: sample_every as u64 - 1,
            sample_every,
            capacity,
            values: std::array::from_fn(|_| AtomicU64::new(0)),
            phase: AtomicU64::new(NO_PHASE),
            step: AtomicU64::new(0),
            count: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(EMPTY_SAMPLE))
                .collect(),
            named: Mutex::new(BTreeMap::new()),
        }
    }

    /// The owning rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The effective (power-of-two) cadence.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Sets a gauge's live value.
    #[inline]
    pub fn set(&self, gauge: Gauge, v: u64) {
        self.values[gauge as usize].store(v, Ordering::Relaxed);
    }

    /// Adds to a gauge's live value.
    #[inline]
    pub fn add(&self, gauge: Gauge, delta: u64) {
        self.values[gauge as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts from a gauge's live value, saturating at zero (release
    /// estimates may be coarser than the matching adds, as in
    /// [`crate::MemoryTracker::release`]).
    #[inline]
    pub fn sub(&self, gauge: Gauge, delta: u64) {
        let _ =
            self.values[gauge as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// A gauge's live value (what the monitor thread reads).
    pub fn value(&self, gauge: Gauge) -> u64 {
        self.values[gauge as usize].load(Ordering::Relaxed)
    }

    /// The current phase mark ([`NO_PHASE`] if none).
    pub fn phase(&self) -> u64 {
        self.phase.load(Ordering::Relaxed)
    }

    /// Sets a labelled extension gauge (final value only).
    pub fn set_named(&self, label: &'static str, v: u64) {
        self.named.lock().insert(label, v);
    }

    /// Advances the step counter by one executed visit and reports
    /// whether this step is on the sampling cadence. Deterministic: the
    /// decision depends only on the visit count, never on time.
    #[inline]
    pub fn step_tick(&self) -> bool {
        let n = self.step.fetch_add(1, Ordering::Relaxed) + 1;
        n & self.mask == 1 || self.mask == 0
    }

    /// Marks a phase transition and forces a boundary sample so every
    /// phase appears in the ring even when it executes few visits. The
    /// boundary sample closes the *outgoing* phase at its end-state —
    /// gauge values carried across the boundary were built by the phase
    /// that ends here, so attributing them to the incoming phase would
    /// skew the per-phase peak watermarks. Must only be called from the
    /// owning rank thread.
    pub fn set_phase(&self, phase: u64) {
        let old = self.phase.load(Ordering::Relaxed);
        if old == NO_PHASE {
            self.phase.store(phase, Ordering::Relaxed);
            self.record_sample();
        } else {
            self.record_sample();
            self.phase.store(phase, Ordering::Relaxed);
        }
    }

    /// Snapshots the gauge mirror into the ring. Must only be called
    /// from the owning rank thread.
    pub fn record_sample(&self) {
        let sample = TelemetrySample {
            step: self.step.load(Ordering::Relaxed),
            phase: self.phase.load(Ordering::Relaxed),
            values: std::array::from_fn(|i| self.values[i].load(Ordering::Relaxed)),
        };
        let n = self.count.load(Ordering::Relaxed);
        let slot = (n % self.capacity as u64) as usize;
        // SAFETY: single-writer discipline (module docs) — no other
        // thread accesses this slot while the rank thread is live.
        unsafe {
            *self.slots[slot].get() = sample;
        }
        self.count.store(n + 1, Ordering::Release);
    }

    /// Reads the ring into a chronological sample list, resetting it
    /// when `reset` is set. Must not race `record_sample` (see module
    /// docs for when that holds).
    pub(crate) fn read(&self, reset: bool) -> RankTelemetry {
        let n = self.count.load(Ordering::Acquire);
        let kept = n.min(self.capacity as u64) as usize;
        let mut samples = Vec::with_capacity(kept);
        // Oldest surviving sample first: when wrapped, that is slot
        // `n % capacity` (the one the next write would overwrite).
        let start = if n > self.capacity as u64 {
            (n % self.capacity as u64) as usize
        } else {
            0
        };
        for i in 0..kept {
            let slot = (start + i) % self.capacity;
            // SAFETY: the writer is quiescent per the drain contract.
            samples.push(unsafe { *self.slots[slot].get() });
        }
        if reset {
            self.count.store(0, Ordering::Release);
        }
        RankTelemetry {
            rank: self.rank,
            dropped: n - kept as u64,
            samples,
            named: self
                .named
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// One rank's drained time series, chronological.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankTelemetry {
    /// The recording rank.
    pub rank: usize,
    /// Samples lost to ring overwrite (oldest-first eviction).
    pub dropped: u64,
    /// Surviving samples, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// Final values of labelled extension gauges.
    pub named: BTreeMap<String, u64>,
}

/// All ranks' time series from one world. Empty when the world ran with
/// [`TelemetryConfig::Off`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryDump {
    /// The effective (power-of-two) sampling cadence, 0 when off.
    pub sample_every: u32,
    /// Per-rank series, indexed by rank.
    pub ranks: Vec<RankTelemetry>,
}

impl TelemetryDump {
    /// Whether nothing was recorded (telemetry off, or no samples).
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.samples.is_empty())
    }

    /// Total surviving samples across ranks.
    pub fn num_samples(&self) -> usize {
        self.ranks.iter().map(|r| r.samples.len()).sum()
    }

    /// Per-phase maxima of every gauge across all ranks and samples,
    /// keyed by the phase index marked at sample time ([`NO_PHASE`] for
    /// unphased samples). This is what the report's per-phase
    /// peak-memory watermarks are computed from.
    pub fn phase_peaks(&self) -> BTreeMap<u64, [u64; NUM_GAUGES]> {
        let mut peaks: BTreeMap<u64, [u64; NUM_GAUGES]> = BTreeMap::new();
        for rt in &self.ranks {
            for s in &rt.samples {
                let entry = peaks.entry(s.phase).or_insert([0; NUM_GAUGES]);
                for (slot, v) in entry.iter_mut().zip(s.values.iter()) {
                    *slot = (*slot).max(*v);
                }
            }
        }
        peaks
    }

    /// Renders the time series as JSON, columnar per rank:
    /// `{"sample_every": .., "ranks": [{"rank": .., "dropped": ..,
    /// "steps": [..], "phases": [..], "gauges": {name: [..]},
    /// "named": {label: value}}]}`. Phases use `null` for unphased
    /// samples. This is the payload of the schema-v5 report `timeseries`
    /// field and the flight recorder's `timeseries` section.
    pub fn to_json(&self) -> Json {
        let mut ranks = Json::arr();
        for rt in &self.ranks {
            let mut steps = Json::arr();
            let mut phases = Json::arr();
            for s in &rt.samples {
                steps.push(s.step);
                if s.phase == NO_PHASE {
                    phases.push(Json::Null);
                } else {
                    phases.push(s.phase);
                }
            }
            let mut gauges = Json::obj();
            for g in Gauge::ALL {
                let mut col = Json::arr();
                for s in &rt.samples {
                    col.push(s.values[g as usize]);
                }
                gauges.insert(g.name(), col);
            }
            let mut named = Json::obj();
            for (label, v) in &rt.named {
                named.insert(label, *v);
            }
            ranks.push(
                Json::obj()
                    .with("rank", rt.rank)
                    .with("dropped", rt.dropped)
                    .with("steps", steps)
                    .with("phases", phases)
                    .with("gauges", gauges)
                    .with("named", named),
            );
        }
        Json::obj()
            .with("sample_every", u64::from(self.sample_every))
            .with("ranks", ranks)
    }

    /// Renders the flight-recorder envelope: the time series wrapped
    /// with the dump reason, validated by `check-reports`.
    pub fn flight_json(&self, reason: &str) -> Json {
        Json::obj()
            .with("schema_version", FLIGHT_SCHEMA_VERSION)
            .with("kind", "flight_recorder")
            .with("reason", reason)
            .with("num_ranks", self.ranks.len())
            .with("timeseries", self.to_json())
    }
}

/// Builds the per-rank samplers for a world, or `None` when telemetry is
/// off.
pub(crate) fn make_samplers(
    p: usize,
    config: TelemetryConfig,
) -> Option<Vec<Arc<TelemetrySampler>>> {
    match config {
        TelemetryConfig::Off => None,
        TelemetryConfig::Ring { sample_every, .. } => Some(
            (0..p)
                .map(|rank| {
                    Arc::new(TelemetrySampler::new(
                        rank,
                        sample_every,
                        DEFAULT_TELEMETRY_CAPACITY,
                    ))
                })
                .collect(),
        ),
    }
}

/// Collects every sampler's ring into a [`TelemetryDump`] (empty when
/// off), resetting the rings when `drain` is set.
pub(crate) fn dump_samplers(
    samplers: &Option<Vec<Arc<TelemetrySampler>>>,
    drain: bool,
) -> TelemetryDump {
    match samplers {
        None => TelemetryDump::default(),
        Some(s) => TelemetryDump {
            sample_every: s.first().map(|s| s.sample_every()).unwrap_or(0),
            ranks: s.iter().map(|s| s.read(drain)).collect(),
        },
    }
}

static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes a flight-recorder dump into `dir` as `FLIGHT_<reason>_<n>.json`
/// (`n` is a process-global counter so repeated dumps never collide).
/// Returns the path written.
pub fn write_flight_dump(
    dump: &TelemetryDump,
    reason: &str,
    dir: &Path,
) -> std::io::Result<PathBuf> {
    let n = FLIGHT_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("FLIGHT_{reason}_{n}.json"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, dump.flight_json(reason).to_pretty())?;
    Ok(path)
}

/// Writes a flight-recorder dump if the [`FLIGHT_RECORDER_DIR_ENV`]
/// environment variable is set and telemetry was recording; a no-op
/// otherwise. The guard is "no rank series" (telemetry off), not "no
/// samples": a world that dies before its first sample still leaves a
/// dump, because an empty-but-present record is itself diagnostic.
/// Write errors are reported to stderr rather than propagated — the
/// flight recorder must never turn a diagnosable failure into a
/// different failure.
pub fn write_flight_dump_env(dump: &TelemetryDump, reason: &str) -> Option<PathBuf> {
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

/// Renders one heartbeat line over all ranks from the live gauge
/// mirrors. Pure formatting; the monitor loop owns the clock.
pub(crate) fn render_heartbeat(samplers: &[Arc<TelemetrySampler>], elapsed_ms: u64) -> String {
    let mut line = format!("[mon {:>6.1}s]", elapsed_ms as f64 / 1000.0);
    for s in samplers {
        let phase = s.phase();
        let phase_str = if phase == NO_PHASE {
            "-".to_string()
        } else {
            format!("p{phase}")
        };
        line.push_str(&format!(
            " | r{} {} v={} q={}/{} mem={}",
            s.rank(),
            phase_str,
            fmt_count(s.value(Gauge::Visits)),
            fmt_count(s.value(Gauge::QueueDepth)),
            fmt_bytes(s.value(Gauge::QueueBytes)),
            fmt_bytes(s.value(Gauge::MemTotalBytes)),
        ));
    }
    line
}

fn fmt_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{}M", v / 1_000_000)
    } else if v >= 10_000 {
        format!("{}k", v / 1_000)
    } else {
        format!("{v}")
    }
}

fn fmt_bytes(v: u64) -> String {
    if v >= 10 << 20 {
        format!("{}MB", v >> 20)
    } else if v >= 10 << 10 {
        format!("{}KB", v >> 10)
    } else {
        format!("{v}B")
    }
}

/// The monitor loop: renders the heartbeat ~10×/s until `stop` is set,
/// then prints a final line. Runs on its own thread; reads only the
/// atomic gauge mirrors, so the sampled ranks never block on it.
pub(crate) fn monitor_loop(
    samplers: &[Arc<TelemetrySampler>],
    stop: &std::sync::atomic::AtomicBool,
) {
    // Heartbeat rendering is the one justified wall-clock consumer here:
    // the sampling cadence itself is step-keyed and stays deterministic.
    let started = std::time::Instant::now(); // stcheck: allow(wallclock): heartbeat rendering only; never feeds sampling.
    while !stop.load(Ordering::Acquire) {
        eprint!(
            "\r{}\x1b[K",
            render_heartbeat(samplers, started.elapsed().as_millis() as u64)
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!(
        "\r{}\x1b[K",
        render_heartbeat(samplers, started.elapsed().as_millis() as u64)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_eviction_keeps_newest_and_counts_drops() {
        let s = TelemetrySampler::new(1, 1, 4);
        for i in 0..10u64 {
            s.set(Gauge::Visits, i);
            s.record_sample();
        }
        let rt = s.read(true);
        assert_eq!(rt.dropped, 6);
        let kept: Vec<u64> = rt
            .samples
            .iter()
            .map(|smp| smp.values[Gauge::Visits as usize])
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn take_resets_the_ring() {
        let s = TelemetrySampler::new(0, 1, 4);
        s.record_sample();
        assert_eq!(s.read(true).samples.len(), 1);
        assert_eq!(s.read(true).samples.len(), 0);
    }

    #[test]
    fn cadence_is_power_of_two_and_step_keyed() {
        let s = TelemetrySampler::new(0, 100, 16); // rounds up to 128
        assert_eq!(s.sample_every(), 128);
        let fired: Vec<bool> = (0..300).map(|_| s.step_tick()).collect();
        let hits: Vec<usize> = fired
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(hits, vec![1, 129, 257], "fires at step 1 then every 128");
    }

    #[test]
    fn sample_every_one_fires_every_step() {
        let s = TelemetrySampler::new(0, 1, 8);
        assert!((0..5).all(|_| s.step_tick()));
    }

    #[test]
    fn phase_transition_forces_boundary_sample() {
        let s = TelemetrySampler::new(0, 1 << 20, 8);
        s.set_phase(3);
        let rt = s.read(true);
        assert_eq!(rt.samples.len(), 1);
        assert_eq!(rt.samples[0].phase, 3);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let s = TelemetrySampler::new(0, 1, 4);
        s.add(Gauge::UnackedBatches, 2);
        s.sub(Gauge::UnackedBatches, 5);
        assert_eq!(s.value(Gauge::UnackedBatches), 0);
    }

    #[test]
    fn dump_json_shape_is_columnar() {
        let s = TelemetrySampler::new(0, 1, 8);
        s.set(Gauge::QueueDepth, 7);
        s.set_named("vertex_state_bytes", 42);
        s.record_sample();
        let dump = dump_samplers(&Some(vec![Arc::new(TelemetrySampler::new(9, 1, 8))]), true);
        assert!(dump.is_empty());
        let dump = TelemetryDump {
            sample_every: 1,
            ranks: vec![s.read(true)],
        };
        let doc = stgraph::json::parse(&dump.to_json().to_string()).expect("parses");
        assert_eq!(doc.get("sample_every").and_then(|v| v.as_u64()), Some(1));
        let ranks = doc.get("ranks").and_then(|r| r.as_arr()).expect("ranks");
        assert_eq!(ranks.len(), 1);
        let r0 = &ranks[0];
        assert_eq!(r0.get("rank").and_then(|v| v.as_u64()), Some(0));
        let qd = r0
            .get("gauges")
            .and_then(|g| g.get("queue_depth"))
            .and_then(|c| c.as_arr())
            .expect("queue_depth column");
        assert_eq!(qd.len(), 1);
        assert_eq!(qd[0].as_u64(), Some(7));
        assert!(r0
            .get("phases")
            .and_then(|p| p.as_arr())
            .map(|p| p[0].is_null())
            .unwrap_or(false));
        assert_eq!(
            r0.get("named")
                .and_then(|n| n.get("vertex_state_bytes"))
                .and_then(|v| v.as_u64()),
            Some(42)
        );
    }

    #[test]
    fn phase_peaks_take_maxima_per_phase() {
        let s = TelemetrySampler::new(0, 1, 16);
        s.set_phase(0);
        s.set(Gauge::QueueBytes, 100);
        s.record_sample();
        s.set(Gauge::QueueBytes, 300);
        s.record_sample();
        s.set_phase(1);
        s.set(Gauge::QueueBytes, 200);
        s.record_sample();
        let dump = TelemetryDump {
            sample_every: 1,
            ranks: vec![s.read(true)],
        };
        let peaks = dump.phase_peaks();
        assert_eq!(peaks[&0][Gauge::QueueBytes as usize], 300);
        assert_eq!(peaks[&1][Gauge::QueueBytes as usize], 200);
    }

    #[test]
    fn flight_dump_writes_and_parses() {
        let s = TelemetrySampler::new(0, 1, 8);
        s.record_sample();
        let dump = TelemetryDump {
            sample_every: 1,
            ranks: vec![s.read(true)],
        };
        let dir =
            std::env::temp_dir().join(format!("struntime_flight_test_{}", std::process::id()));
        let path = write_flight_dump(&dump, "unit_test", &dir).expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let doc = stgraph::json::parse(&text).expect("dump parses");
        assert_eq!(
            doc.get("kind").and_then(|k| k.as_str()),
            Some("flight_recorder")
        );
        assert_eq!(
            doc.get("reason").and_then(|r| r.as_str()),
            Some("unit_test")
        );
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(FLIGHT_SCHEMA_VERSION)
        );
        assert!(doc.get("timeseries").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_line_mentions_every_rank() {
        let samplers: Vec<_> = (0..3)
            .map(|r| Arc::new(TelemetrySampler::new(r, 1, 4)))
            .collect();
        samplers[1].set(Gauge::Visits, 12_345);
        samplers[1].set_phase(2);
        let line = render_heartbeat(&samplers, 1500);
        assert!(line.contains("r0"), "line: {line}");
        assert!(line.contains("r1 p2 v=12k"), "line: {line}");
        assert!(line.contains("r2"), "line: {line}");
    }

    #[test]
    fn off_config_produces_empty_dump() {
        assert!(!TelemetryConfig::Off.is_enabled());
        assert!(TelemetryConfig::ring().is_enabled());
        assert!(!TelemetryConfig::ring().monitor_enabled());
        let dump = dump_samplers(&make_samplers(4, TelemetryConfig::Off), true);
        assert!(dump.is_empty());
        assert_eq!(dump.num_samples(), 0);
    }
}
