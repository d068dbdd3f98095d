//! Streaming latency metrics with a lock-free hot path.
//!
//! Every [`crate::Comm`] optionally carries a [`RankMetrics`]: per-phase
//! sets of log-bucketed (HDR-style) histograms for the five traversal
//! signals —
//!
//! - **message latency**: channel flush → drain on the receiving rank,
//! - **queue residency**: local enqueue → dequeue,
//! - **batch size**: visitors per flushed remote batch,
//! - **visit service time**: one visit-callback invocation,
//! - **stale-drop age**: local enqueue → stale-filter drop for dominated
//!   relaxations the filter kills unvisited.
//!
//! Recording a sample is a single relaxed `fetch_add` on an atomic
//! bucket counter — no locks, no allocation — so the instrumentation can
//! live inside the traversal drain loop. Like [`crate::TraceConfig`],
//! metrics are off by default ([`MetricsConfig::Off`]): a `Comm` then
//! holds no registry and every record site is a branch on
//! `Option::None`, leaving message counts and resulting trees
//! bit-identical to an uninstrumented run.
//!
//! Buckets are powers of two: bucket 0 holds the value 0 and bucket
//! `k >= 1` holds `[2^(k-1), 2^k - 1]`, so a reported quantile is exact
//! to within one log-bucket (a factor of two). Histograms are drained at
//! world teardown into a [`MetricsDump`], aggregated per rank x phase
//! with p50/p90/p99 via [`HistogramSnapshot::quantile`].
//!
//! Under fault injection (see [`crate::faults`]) message-latency samples
//! measure flush → *first accepted* delivery: a batch that was dropped
//! and retransmitted, or delayed in the injector's queue, records its
//! full recovery latency, while deduplicated redundant copies record
//! nothing. Fault-sweep histograms therefore show the reliability
//! protocol's latency cost directly; injection/recovery *counts* live in
//! [`crate::FaultStats`], not here.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stgraph::json::Json;

/// Whether a world records latency metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsConfig {
    /// No metrics: ranks carry no registry, record sites are a null check.
    #[default]
    Off,
    /// Record all five histogram families per rank x phase.
    On,
}

impl MetricsConfig {
    /// Whether any samples will be recorded.
    pub fn is_enabled(&self) -> bool {
        matches!(self, MetricsConfig::On)
    }
}

/// Number of histogram buckets: bucket 0 for the value 0, buckets
/// 1..=64 for `[2^(k-1), 2^k - 1]` (bucket 64 tops out at `u64::MAX`).
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a sample value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value a bucket can hold (the value a quantile reports).
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// One lock-free log-bucketed histogram. Writers use relaxed atomics;
/// snapshots are taken after rank threads quiesce (join or park), which
/// establishes the happens-before edge.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The five signals a traversal records per phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Channel flush -> drain, microseconds (remote batches only).
    MsgLatencyUs,
    /// Local enqueue -> dequeue, microseconds.
    QueueResidencyUs,
    /// Visitors per flushed remote batch.
    BatchSize,
    /// One visit-callback invocation, microseconds.
    VisitServiceUs,
    /// Enqueue -> pop-test drop, microseconds: how long a dead entry sat
    /// queued before the pop test dropped it unvisited (see
    /// `run_traversal_filtered`). Drops at queue admission record no
    /// sample: they never sat in the queue.
    StaleDropAgeUs,
}

impl MetricKind {
    /// All kinds, in the order snapshots store them.
    pub const ALL: [MetricKind; 5] = [
        MetricKind::MsgLatencyUs,
        MetricKind::QueueResidencyUs,
        MetricKind::BatchSize,
        MetricKind::VisitServiceUs,
        MetricKind::StaleDropAgeUs,
    ];

    /// Stable key used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::MsgLatencyUs => "msg_latency_us",
            MetricKind::QueueResidencyUs => "queue_residency_us",
            MetricKind::BatchSize => "batch_size",
            MetricKind::VisitServiceUs => "visit_service_us",
            MetricKind::StaleDropAgeUs => "stale_drop_age_us",
        }
    }
}

/// The five histograms for one rank x phase. The traversal fetches the
/// `Arc` once at loop entry, so the hot path never touches the registry
/// lock.
pub struct PhaseMetrics {
    hists: [Histogram; 5],
}

impl PhaseMetrics {
    fn new() -> PhaseMetrics {
        PhaseMetrics {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one sample into the given histogram family.
    #[inline]
    pub fn record(&self, kind: MetricKind, v: u64) {
        self.hists[kind as usize].record(v);
    }

    fn snapshot(&self) -> PhaseMetricsSnapshot {
        PhaseMetricsSnapshot {
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
        }
    }
}

/// One rank's metric registry: phase label -> histograms. The mutex
/// guards only registration (once per traversal), never sample writes.
pub struct RankMetrics {
    rank: usize,
    phases: Mutex<BTreeMap<&'static str, Arc<PhaseMetrics>>>,
}

impl RankMetrics {
    pub(crate) fn new(rank: usize) -> RankMetrics {
        RankMetrics {
            rank,
            phases: Mutex::new(BTreeMap::new()),
        }
    }

    /// The histogram set for a phase, created on first use.
    pub(crate) fn phase(&self, phase: &'static str) -> Arc<PhaseMetrics> {
        Arc::clone(
            self.phases
                .lock()
                .entry(phase)
                .or_insert_with(|| Arc::new(PhaseMetrics::new())),
        )
    }

    pub(crate) fn snapshot(&self) -> RankMetricsSnapshot {
        RankMetricsSnapshot {
            rank: self.rank,
            phases: self
                .phases
                .lock()
                .iter()
                .map(|(name, pm)| (name.to_string(), pm.snapshot()))
                .collect(),
        }
    }
}

/// Drained bucket counts of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `NUM_BUCKETS` counts (empty for a default snapshot).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported as the upper bound of
    /// the bucket holding the target sample — exact to within one
    /// log-bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
    }
}

/// Drained histograms of one rank x phase, indexed by [`MetricKind`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseMetricsSnapshot {
    /// One snapshot per [`MetricKind::ALL`] entry.
    pub hists: Vec<HistogramSnapshot>,
}

impl PhaseMetricsSnapshot {
    /// The histogram for one kind (empty snapshot if absent).
    pub fn hist(&self, kind: MetricKind) -> HistogramSnapshot {
        self.hists.get(kind as usize).cloned().unwrap_or_default()
    }

    /// Merges another phase snapshot kind-by-kind.
    pub fn merge(&mut self, other: &PhaseMetricsSnapshot) {
        if self.hists.len() < other.hists.len() {
            self.hists
                .resize(other.hists.len(), HistogramSnapshot::default());
        }
        for (i, h) in other.hists.iter().enumerate() {
            self.hists[i].merge(h);
        }
    }
}

/// One rank's drained metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankMetricsSnapshot {
    /// The recording rank.
    pub rank: usize,
    /// Phase label -> histograms.
    pub phases: BTreeMap<String, PhaseMetricsSnapshot>,
}

/// All ranks' metrics from one world. Empty when the world ran with
/// [`MetricsConfig::Off`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDump {
    /// Per-rank snapshots, indexed by rank.
    pub ranks: Vec<RankMetricsSnapshot>,
}

impl MetricsDump {
    /// Whether nothing was recorded (metrics off, or no samples).
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| {
            r.phases
                .values()
                .all(|p| p.hists.iter().all(|h| h.count() == 0))
        })
    }

    /// Merges all ranks into one phase -> histograms map.
    pub fn aggregate(&self) -> BTreeMap<String, PhaseMetricsSnapshot> {
        let mut out: BTreeMap<String, PhaseMetricsSnapshot> = BTreeMap::new();
        for r in &self.ranks {
            for (phase, pm) in &r.phases {
                out.entry(phase.clone()).or_default().merge(pm);
            }
        }
        out
    }

    /// Cross-rank aggregated quantiles as JSON:
    /// `{phase: {metric: {"p50": .., "p90": .., "p99": .., "count": ..}}}`.
    /// This is the payload of the schema-v2 `latency_quantiles` report
    /// field.
    pub fn quantiles_json(&self) -> Json {
        let mut phases = Json::obj();
        for (phase, pm) in self.aggregate() {
            let mut metrics = Json::obj();
            for kind in MetricKind::ALL {
                let h = pm.hist(kind);
                if h.count() == 0 {
                    continue;
                }
                metrics.insert(
                    kind.name(),
                    Json::obj()
                        .with("p50", h.quantile(0.50))
                        .with("p90", h.quantile(0.90))
                        .with("p99", h.quantile(0.99))
                        .with("count", h.count()),
                );
            }
            phases.insert(&phase, metrics);
        }
        phases
    }
}

/// Builds the per-rank registries for a world, or `None` when metrics
/// are off.
pub(crate) fn make_registries(p: usize, config: MetricsConfig) -> Option<Vec<Arc<RankMetrics>>> {
    match config {
        MetricsConfig::Off => None,
        MetricsConfig::On => Some(
            (0..p)
                .map(|rank| Arc::new(RankMetrics::new(rank)))
                .collect(),
        ),
    }
}

/// Drains every registry into a [`MetricsDump`] (empty when off).
pub(crate) fn drain_registries(regs: &Option<Vec<Arc<RankMetrics>>>) -> MetricsDump {
    match regs {
        None => MetricsDump::default(),
        Some(regs) => MetricsDump {
            ranks: regs.iter().map(|r| r.snapshot()).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_within_one_log_bucket_of_exact() {
        // A known distribution: 1..=1000. Exact p50 = 500, p90 = 900,
        // p99 = 990. The histogram answer must land in the same
        // power-of-two bucket as the exact answer.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        for (q, exact) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let est = s.quantile(q);
            assert_eq!(
                bucket_of(est),
                bucket_of(exact),
                "q={q}: estimate {est} not within one log-bucket of exact {exact}"
            );
            assert!(est >= exact, "bucket upper bound bounds the exact value");
            assert!(est < exact * 2, "upper bound within a factor of two");
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().quantile(0.5), u64::MAX);
    }

    #[test]
    fn merge_and_aggregate_sum_counts() {
        let a = Histogram::new();
        a.record(10);
        let b = Histogram::new();
        b.record(10);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);

        let ra = RankMetrics::new(0);
        ra.phase("voronoi").record(MetricKind::BatchSize, 8);
        let rb = RankMetrics::new(1);
        rb.phase("voronoi").record(MetricKind::BatchSize, 16);
        let dump = MetricsDump {
            ranks: vec![ra.snapshot(), rb.snapshot()],
        };
        assert!(!dump.is_empty());
        let agg = dump.aggregate();
        assert_eq!(agg["voronoi"].hist(MetricKind::BatchSize).count(), 2);
        let json = dump.quantiles_json();
        let bs = json
            .get("voronoi")
            .and_then(|p| p.get("batch_size"))
            .expect("batch_size present");
        assert_eq!(bs.get("count").and_then(|c| c.as_u64()), Some(2));
        assert!(bs.get("p50").and_then(|c| c.as_u64()).unwrap() >= 8);
    }

    #[test]
    fn off_config_produces_empty_dump() {
        assert!(!MetricsConfig::Off.is_enabled());
        assert!(MetricsConfig::On.is_enabled());
        let dump = drain_registries(&make_registries(4, MetricsConfig::Off));
        assert!(dump.is_empty());
        assert!(dump.quantiles_json().to_string().starts_with('{'));
    }
}
