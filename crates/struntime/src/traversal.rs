//! Asynchronous vertex-centric traversal driver with message aggregation.
//!
//! This is the runtime's equivalent of HavoqGT's `do_traversal()`: every
//! rank drains its inbound channel into a local [`VisitorQueue`] (FIFO,
//! priority, or bucketed), invokes the user's `visit` callback on each
//! dequeued visitor, and forwards the visitors the callback pushes —
//! locally for owned destinations, over the channel group otherwise.
//! Computation and communication overlap freely; there is no superstep
//! barrier.
//!
//! ## Aggregation
//!
//! Like HavoqGT, outgoing visitors are *aggregated*: per-destination
//! buffers fill up to [`TraversalOptions::batch_size`], are coalesced into
//! one flat byte buffer via the [`crate::wire`] codec (the encoded length
//! is what the channel layer charges as the batch's payload bytes — exact
//! wire size, no container headers), and ship as one network message;
//! whatever remains is flushed before a rank declares itself idle, so
//! aggregation never delays quiescence indefinitely. Counters still count
//! individual visitors, so Fig 6-style message statistics are batch-size
//! independent. Aggregation slightly loosens the priority discipline
//! across ranks (visitors inside a batch arrive together) — the same
//! "light-weight and best-effort only" caveat the paper attaches to its
//! prioritization.
//!
//! ## Stale-entry filtering
//!
//! [`run_traversal_filtered`] threads a staleness predicate through the
//! queue. Under the ordered disciplines (priority, bucketed) it is asked
//! at two points, and the [`StaleCheck`] argument says which:
//!
//! - **admission** ([`StaleCheck::Admit`]): before a visitor enters this
//!   rank's queue — each visitor a visit pushes to its own rank (drained
//!   after the visit returns) and each visitor of an inbound batch. A
//!   dominated relaxation never reaches the queue, the `pre_visit`
//!   filter of HavoqGT's visitor queue and the tentative-distance
//!   decrease-key emulation of delta-stepping;
//! - **pop** ([`StaleCheck::Pop`]): when an admitted visitor reaches the
//!   head of the queue ([`crate::queue::VisitorQueue::pop_stale_filtered`]),
//!   which catches visitors superseded while they waited.
//!
//! A visitor dropped at either point is counted in
//! [`TraversalStats::stale_dropped`], never visited, never re-forwarded,
//! and meets its terminal lineage `Visit` event (`stale = 1`). FIFO and
//! adversarial queues never consult the predicate. The plain entry points
//! use a constant-`false` predicate, so their exact processed counts
//! (which several tests pin) are unchanged.
//!
//! ## Termination
//!
//! Quiescence is detected with shared `sent` / `received` counters and an
//! idle-rank count (see [`crate::shared::Quiescence`]). `sent` is bumped
//! once per *batch* before it enters a channel and `received` when it is
//! drained, so `sent == received` implies no batch is in flight; ranks
//! flush their buffers before joining the idle set, so buffered visitors
//! can never hide from the detector. Rank 0 declares termination when it
//! observes, in order: `sent == received`, all ranks idle, and then
//! `sent`/`received` unchanged by a second read. A rank can only leave the
//! idle set by draining a batch, which bumps `received`; a working rank
//! can only create obligations by bumping `sent`. Both reads bracketing
//! the idle check being equal therefore proves no rank left idleness and
//! no new work appeared — the system is quiescent.
//!
//! ### Termination under an unreliable network
//!
//! With fault injection active ([`crate::faults`]), the channel layer
//! gives `sent` / `received` *acked-delivery* semantics without this
//! module changing a line: `sent` still counts logical batches at flush
//! time, but a batch only bumps `received` when its **first** copy is
//! delivered — acknowledgements are absorbed and duplicate deliveries
//! discarded below `ChannelGroup::try_recv_traced`,
//! and a dropped copy is retransmitted (exponential backoff, injector
//! bypass past `max_attempts`) until one lands. `sent == received`
//! therefore still means exactly "every logical batch was delivered
//! exactly once": a drop cannot fake quiescence (the missing bump keeps
//! `sent > received`, and the sender's empty polls while waiting for
//! `done` keep its retransmit timer running), and a duplicate cannot
//! overshoot it (the dedup window swallows the second bump). The
//! double-read argument above then applies verbatim. The audit layer
//! checks the same claim independently: retransmitted copies reuse their
//! ledger id, so the exactly-once check holds *across* the reliability
//! layer — and a mutant that disables retransmission is flagged as lost
//! batches (see `tests/fault_injection.rs`).
//!
//! ## Verification hooks
//!
//! Each of the protocol's sync points (channel send/recv inside the
//! group, idle-set entry/exit, the rank-0 double-read gap) consults the
//! rank's [`crate::SchedulePerturber`] when the world runs perturbed, and
//! with the `check` feature the traversal verifies the audit invariants of
//! [`crate::audit`] at termination: rank 0 opens an audit epoch before
//! work starts, each rank reports if it exits with queued visitors, sends
//! after `done` are flagged where they happen, and rank 0 closes the epoch
//! by checking for lost batches, counter balance, and full idle
//! accounting.

use crate::audit::{self, AuditViolation};
use crate::channels::{ChannelGroup, LineageSidecar};
use crate::metrics::{MetricKind, PhaseMetrics};
use crate::perturb::SyncPoint;
use crate::queue::{QueueKind, VisitorQueue};
use crate::trace::TraceEventKind;
use crate::wire::{decode_batch, encode_batch, DeepBytes, Wire};
use crate::Comm;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

/// Default visitors per network batch (HavoqGT-style aggregation).
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// Tuning knobs of one traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraversalOptions {
    /// Local queue discipline.
    pub queue: QueueKind,
    /// Visitors per network batch (`1` disables aggregation).
    pub batch_size: usize,
}

impl TraversalOptions {
    /// Options with the given queue and the default batch size.
    pub fn new(queue: QueueKind) -> Self {
        TraversalOptions {
            queue,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

/// Observability metadata carried next to each queued visitor: its
/// lineage id (`rank << 40 | seq`, 0 when observability is off or the
/// visitor arrived from an uninstrumented sender) and its local enqueue
/// time. All-zero — and never read — when neither tracing nor metrics
/// is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct VisitMeta {
    id: u64,
    enq_us: u64,
}

impl DeepBytes for VisitMeta {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Per-destination aggregation buffer: the visitor batch, a reusable
/// wire-encoding scratch buffer (capacity retained across flushes so the
/// steady state allocates nothing), plus (when observability is on) the
/// parallel lineage-id list that ships as the batch's [`LineageSidecar`].
struct OutBuf<V> {
    batch: Vec<V>,
    wire: Vec<u8>,
    ids: Vec<u64>,
}

impl<V> Default for OutBuf<V> {
    fn default() -> Self {
        OutBuf {
            batch: Vec::new(),
            wire: Vec::new(),
            ids: Vec::new(),
        }
    }
}

/// Per-rank lineage state for one traversal. `parent` is the id of the
/// visitor currently being visited (0 between visits, so seeds pushed by
/// `init` get parent 0 = root). The per-rank sequence counter lives on
/// the [`Comm`] so ids stay world-unique across phases.
struct Lineage {
    /// Tracing or metrics enabled — the single observability gate. When
    /// false no clock is read, no id assigned, no event recorded.
    enabled: bool,
    parent: u64,
}

impl Lineage {
    fn new(comm: &Comm) -> Lineage {
        Lineage {
            enabled: comm.observing(),
            parent: 0,
        }
    }

    /// Assigns the next lineage id and records the parent→child edge as
    /// a [`TraceEventKind::Spawn`]. Returns 0 when observability is off.
    fn spawn(&self, comm: &Comm, phase: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = comm.next_lineage_id();
        comm.trace_event2(TraceEventKind::Spawn, phase, id, self.parent);
        id
    }

    /// Records the terminal consumption of visitor `id` that the stale
    /// filter dropped (at admission or at pop): a `Visit` lineage event
    /// with arg2 = 1, so the causality DAG stays covered — every spawn
    /// still meets its end — while analyzers can tell drops from visits.
    fn stale_drop(&self, comm: &Comm, phase: &'static str, id: u64) {
        if self.enabled {
            comm.trace_event2(TraceEventKind::Visit, phase, id, 1);
        }
    }

    /// Current time against the world epoch, or 0 when observability is
    /// off (keeps the uninstrumented hot path free of clock reads).
    fn now_us(&self, comm: &Comm) -> u64 {
        if self.enabled {
            comm.now_us()
        } else {
            0
        }
    }
}

/// Handle the `visit` callback uses to emit follow-on visitors.
pub struct Pusher<'a, V: Send + 'static> {
    rank: usize,
    batch_size: usize,
    chan: &'a ChannelGroup<Vec<V>>,
    comm: &'a Comm,
    local: &'a mut Vec<(VisitMeta, V)>,
    outgoing: &'a mut Vec<OutBuf<V>>,
    lineage: &'a Lineage,
    metrics: &'a Option<Arc<PhaseMetrics>>,
}

impl<'a, V: Send + Clone + Wire + DeepBytes + 'static> Pusher<'a, V> {
    /// Routes visitor `v` to `dest`: the local queue when `dest` is this
    /// rank, a (buffered) network batch otherwise. When observability is
    /// on, the push also records a causal edge from the visitor being
    /// visited (the traversal threads it through) to the new message.
    pub fn push(&mut self, dest: usize, v: V) {
        let id = self.lineage.spawn(self.comm, self.chan.phase());
        if dest == self.rank {
            self.chan.count_local();
            let enq_us = self.lineage.now_us(self.comm);
            self.local.push((VisitMeta { id, enq_us }, v));
        } else {
            let buf = &mut self.outgoing[dest];
            buf.batch.push(v);
            if self.lineage.enabled {
                buf.ids.push(id);
            }
            if buf.batch.len() >= self.batch_size {
                flush_one(
                    self.comm,
                    self.chan,
                    buf,
                    dest,
                    self.lineage.enabled,
                    self.metrics.as_deref(),
                );
            }
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Records an instant trace event from inside a visit callback
    /// (e.g. a delegate broadcast). No-op when tracing is off.
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        self.comm.trace_instant(name, arg);
    }
}

fn flush_one<V: Send + Clone + Wire + DeepBytes + 'static>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    buffer: &mut OutBuf<V>,
    dest: usize,
    observing: bool,
    metrics: Option<&PhaseMetrics>,
) {
    if buffer.batch.is_empty() {
        return;
    }
    let q = &comm.shared().quiescence;
    if audit::is_active() && q.done.load(SeqCst) {
        // In the correct protocol no rank ships work after termination is
        // declared — a send here proves the detector fired early.
        comm.shared().audit.report(AuditViolation::SendAfterDone {
            src: comm.rank(),
            dest,
            phase: chan.phase(),
        });
    }
    // Count the in-flight batch before it enters the channel so the
    // quiescence detector can never observe sent < actual.
    q.sent.fetch_add(1, SeqCst);
    comm.trace_instant("batch_flush", buffer.batch.len() as u64);
    if let Some(m) = metrics {
        m.record(MetricKind::BatchSize, buffer.batch.len() as u64);
    }
    let lineage = if observing {
        Some(LineageSidecar {
            ids: std::mem::take(&mut buffer.ids).into_boxed_slice(),
            sent_us: comm.now_us(),
        })
    } else {
        None
    };
    // Coalesce the batch into one flat byte buffer: the encoded length is
    // the batch's *exact* wire size (what the channel layer charges), and
    // decoding it back before delivery makes the round-trip the wire
    // model — a lossy codec would corrupt the trees the tier-1 tests pin.
    // Both scratch buffers (`wire` here, `batch` via `clear`) keep their
    // capacity, so a steady-state flush allocates only the shipped Vec.
    buffer.wire.clear();
    encode_batch(&buffer.batch, &mut buffer.wire);
    let shipped = match decode_batch::<V>(&buffer.wire, buffer.batch.len()) {
        Some(v) => v,
        None => panic!(
            "wire codec violation: phase \"{phase}\": encode_batch produced \
             {len} bytes that decode_batch could not round-trip for visitor \
             type `{ty}` (the Wire impl's encoded_len/encode_into/decode_from \
             disagree)",
            phase = chan.phase(),
            len = buffer.wire.len(),
            ty = std::any::type_name::<V>(),
        ),
    };
    buffer.batch.clear();
    chan.send_batch_wire(dest, shipped, buffer.wire.len() as u64, lineage);
}

/// Per-rank statistics returned by [`run_traversal`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Visitors this rank processed (local + remote).
    pub processed: u64,
    /// Relaxations that never became visits: visitors the stale-entry
    /// filter of [`run_traversal_filtered`] dropped, either at admission
    /// (never queued) or at pop (queued, then dropped unvisited). Every
    /// visitor that reached this rank is therefore counted exactly once in
    /// `processed + stale_dropped`. Always 0 for the plain entry points and
    /// for the full-delivery disciplines.
    pub stale_dropped: u64,
    /// Peak length of this rank's local queue.
    pub peak_queue_len: usize,
    /// Peak bytes held by this rank's local queue buffers.
    pub peak_queue_bytes: usize,
}

/// Runs one asynchronous traversal to quiescence with default aggregation.
/// Collective: every rank of the world must call it with the same channel
/// group (by open order) and options. `init` seeds this rank's local
/// queue; `priority` keys the priority discipline (ignored under FIFO);
/// `visit` processes one visitor and may push more through the [`Pusher`].
pub fn run_traversal<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    queue: QueueKind,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    run_traversal_config(
        comm,
        chan,
        TraversalOptions::new(queue),
        priority,
        init,
        visit,
    )
}

/// [`run_traversal`] with explicit [`TraversalOptions`].
pub fn run_traversal_config<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<false, V, P, _, F>(
        comm,
        chan,
        options,
        priority,
        |_: StaleCheck, _: &V| false,
        init,
        visit,
        Duration::ZERO,
    )
}

/// Which check [`run_traversal_filtered`] asks its staleness predicate to
/// make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleCheck {
    /// The visitor is about to enter this rank's queue: a push a visit
    /// made to its own rank, or one visitor of an inbound batch. `true`
    /// drops it before it is queued.
    Admit,
    /// The visitor reached the head of the queue. `true` drops it
    /// unvisited.
    Pop,
}

/// [`run_traversal_config`] with a staleness predicate. Under the ordered
/// disciplines ([`QueueKind::filters_stale`]) the traversal calls
/// `stale(StaleCheck::Admit, v)` before it queues a visitor pushed to
/// this rank or received in a batch, and `stale(StaleCheck::Pop, v)` when
/// a queued visitor reaches the head of the queue. A `true` answer drops
/// the visitor unvisited and counts it in
/// [`TraversalStats::stale_dropped`] — the decrease-key emulation of
/// delta-stepping, generalized to a callback. Bootstrap visitors from
/// `init` are only checked at pop.
///
/// The predicate may keep state (the admission check typically records
/// the best candidate admitted so far), but its answers must be safe: a
/// dropped visitor's visit must be a no-op, or its effect implied by a
/// visitor that was admitted and is not dropped for the same reason.
/// Pop answers must be *monotone*: once a visitor is stale it stays stale
/// (labels only improve), so dropping it can never lose work a later
/// state would have needed. Under FIFO and adversarial disciplines the
/// predicate is never called and every visitor is delivered (those are
/// the full-delivery baselines the chaos matrix compares against).
#[allow(clippy::too_many_arguments)]
pub fn run_traversal_filtered<V, P, S, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    stale: S,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    S: FnMut(StaleCheck, &V) -> bool,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<false, V, P, S, F>(
        comm,
        chan,
        options,
        priority,
        stale,
        init,
        visit,
        Duration::ZERO,
    )
}

/// **Mutation-check variant, `check` builds only — never use for real
/// work.** Identical to [`run_traversal_config`] except the channel-drain
/// step deliberately reorders the idle-set exit after the `received`
/// bump (with `delay` dwelling in the window between them) — the exact
/// reordering the correct protocol forbids, reintroducing the
/// premature-termination race the double-read protocol exists to close.
/// Tests use it to prove the audit layer flags the race (lost batches,
/// counter mismatch, sends after `done`).
#[cfg(feature = "check")]
pub fn run_traversal_mutant_premature<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
    delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<true, V, P, _, F>(
        comm,
        chan,
        options,
        priority,
        |_: StaleCheck, _: &V| false,
        init,
        visit,
        delay,
    )
}

/// Queues `visitors` through the admission side of the stale filter:
/// with a predicate (`stale` is `Some` only under the ordered
/// disciplines), a visitor it marks stale is dropped before it is queued.
/// Returns the number dropped. Admission drops record no
/// `StaleDropAgeUs` sample: that histogram measures how long dropped
/// entries sat in the queue, and these never entered it.
fn admit<V, P, S>(
    queue: &mut VisitorQueue<(VisitMeta, V)>,
    visitors: impl Iterator<Item = (VisitMeta, V)>,
    priority: &P,
    mut stale: Option<&mut S>,
    comm: &Comm,
    phase: &'static str,
    lineage: &Lineage,
) -> u64
where
    V: DeepBytes,
    P: Fn(&V) -> u64,
    S: FnMut(StaleCheck, &V) -> bool,
{
    let mut dropped = 0;
    for (meta, v) in visitors {
        if let Some(stale) = stale.as_mut() {
            if stale(StaleCheck::Admit, &v) {
                lineage.stale_drop(comm, phase, meta.id);
                dropped += 1;
                continue;
            }
        }
        queue.push(priority(&v), (meta, v));
    }
    dropped
}

/// Adds `dropped` stale-filter drops to the rank's stats and telemetry.
fn count_stale(comm: &Comm, stats: &mut TraversalStats, dropped: u64) {
    if dropped > 0 {
        stats.stale_dropped += dropped;
        comm.telemetry_stale_drop(dropped);
    }
}

/// The traversal loop. `PREMATURE_MUTANT` selects the intentionally broken
/// drain ordering used by the audit mutation check (see
/// [`run_traversal_mutant_premature`]); production entry points
/// monomorphize with `false`, so the mutant branch compiles away.
#[allow(clippy::too_many_arguments)]
fn traversal_loop<const PREMATURE_MUTANT: bool, V, P, S, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    mut stale: S,
    init: impl IntoIterator<Item = V>,
    mut visit: F,
    mutant_delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    S: FnMut(StaleCheck, &V) -> bool,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    assert!(options.batch_size >= 1, "batch size must be positive");
    let q = &comm.shared().quiescence;
    let p = comm.num_ranks();
    let rank = comm.rank();

    // Fresh detector state; the barriers fence off the previous traversal.
    comm.barrier();
    let mut audit_epoch = 0;
    if rank == 0 {
        q.reset();
        if audit::is_active() {
            audit_epoch = comm.shared().audit.begin_epoch();
        }
    }
    comm.barrier();

    // Fetch the phase's histogram set once so recording inside the loop
    // never touches the registry lock; `lineage` gates every clock read
    // and id assignment so an unobserved run takes only `None` branches.
    let mut lineage = Lineage::new(comm);
    let metrics = comm.metrics_phase(chan.phase());

    let mut stats = TraversalStats::default();
    // The full-delivery disciplines never consult the predicate.
    let filters = options.queue.filters_stale();
    let mut queue: VisitorQueue<(VisitMeta, V)> = VisitorQueue::new(options.queue);
    for v in init {
        let pr = priority(&v);
        let id = lineage.spawn(comm, chan.phase());
        let enq_us = lineage.now_us(comm);
        queue.push(pr, (VisitMeta { id, enq_us }, v));
    }
    // Sample the peak right after seeding: with N init visitors the true
    // maximum is N, which the after-a-visit sample below would miss by
    // one (the Fig 8 memory numbers come from these peaks).
    stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
    stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());

    let mut local_buf: Vec<(VisitMeta, V)> = Vec::new();
    let mut outgoing: Vec<OutBuf<V>> = (0..p).map(|_| OutBuf::default()).collect();
    let mut idle = false;
    let traversal_span = comm.trace_span("traversal");

    loop {
        // Drain the inbound channel into the local queue. Leave the idle
        // set BEFORE acknowledging the batch: if `received` were bumped
        // first, the detector could observe `sent == received` while this
        // rank still counted as idle and held an unprocessed batch — a
        // premature-termination race.
        while let Some((batch, sidecar)) = chan.try_recv_traced() {
            if PREMATURE_MUTANT {
                // Intentionally wrong order (mutation check): acknowledge
                // the batch while still counted idle, and dwell in the
                // race window so the detector can misfire.
                q.received.fetch_add(1, SeqCst);
                std::thread::sleep(mutant_delay);
                if idle {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    idle = false;
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
            } else {
                if idle {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    idle = false;
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
                q.received.fetch_add(1, SeqCst);
            }
            let now = lineage.now_us(comm);
            if let (Some(m), Some(sc)) = (metrics.as_deref(), sidecar.as_ref()) {
                m.record(MetricKind::MsgLatencyUs, now.saturating_sub(sc.sent_us));
            }
            let inbound = batch.into_iter().enumerate().map(|(i, v)| {
                let id = sidecar
                    .as_ref()
                    .and_then(|sc| sc.ids.get(i).copied())
                    .unwrap_or(0);
                (VisitMeta { id, enq_us: now }, v)
            });
            let dropped = admit(
                &mut queue,
                inbound,
                &priority,
                filters.then_some(&mut stale),
                comm,
                chan.phase(),
                &lineage,
            );
            count_stale(comm, &mut stats, dropped);
        }
        // Sample the peak at drain time, before any visitor is popped:
        // the queue is at its true maximum right after an inbound batch
        // lands, a point the after-a-visit sample can never see.
        stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
        stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());

        // Pop through the stale filter: admitted entries that were
        // superseded while they waited die here without a visit. Their
        // queue residency is recorded as StaleDropAgeUs so the latency
        // histograms show how long dead relaxations sat in the queue.
        let (popped, dropped) = queue.pop_stale_filtered(|(meta, v)| {
            if !stale(StaleCheck::Pop, v) {
                return false;
            }
            lineage.stale_drop(comm, chan.phase(), meta.id);
            if let Some(m) = metrics.as_deref() {
                let now = lineage.now_us(comm);
                m.record(MetricKind::StaleDropAgeUs, now.saturating_sub(meta.enq_us));
            }
            true
        });
        count_stale(comm, &mut stats, dropped);
        if let Some((meta, v)) = popped {
            debug_assert!(!idle, "queue cannot be non-empty while idle");
            let visit_start = lineage.now_us(comm);
            if lineage.enabled {
                comm.trace_event2(TraceEventKind::Visit, chan.phase(), meta.id, 0);
            }
            if let Some(m) = metrics.as_deref() {
                m.record(
                    MetricKind::QueueResidencyUs,
                    visit_start.saturating_sub(meta.enq_us),
                );
            }
            // Every push inside this visit records `meta.id` as parent —
            // the causal edge the analyzer's DAG is built from.
            lineage.parent = meta.id;
            let mut pusher = Pusher {
                rank,
                batch_size: options.batch_size,
                chan,
                comm,
                local: &mut local_buf,
                outgoing: &mut outgoing,
                lineage: &lineage,
                metrics: &metrics,
            };
            visit(v, &mut pusher);
            lineage.parent = 0;
            if let Some(m) = metrics.as_deref() {
                m.record(
                    MetricKind::VisitServiceUs,
                    comm.now_us().saturating_sub(visit_start),
                );
            }
            stats.processed += 1;
            comm.fault_visit_tick();
            // Sample queue depth sparsely (every 256 visitors, starting
            // at the first) so the trace stays light on big runs but
            // tiny test graphs still get at least one sample.
            if stats.processed & 0xff == 1 {
                comm.trace_instant("queue_depth", queue.len() as u64);
            }
            let dropped = admit(
                &mut queue,
                local_buf.drain(..),
                &priority,
                filters.then_some(&mut stale),
                comm,
                chan.phase(),
                &lineage,
            );
            count_stale(comm, &mut stats, dropped);
            stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
            stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());
            // Telemetry step hook: advances the step-keyed sampling
            // cadence once per executed visit (a null check when
            // telemetry is off, like the sparse trace sample above).
            comm.telemetry_visit(queue.len(), queue.memory_bytes());
            continue;
        }

        // Local queue dry: flush aggregation buffers before going idle so
        // buffered visitors are visible to the quiescence detector.
        let mut flushed = false;
        for (dest, buffer) in outgoing.iter_mut().enumerate() {
            if !buffer.batch.is_empty() {
                flush_one(
                    comm,
                    chan,
                    buffer,
                    dest,
                    lineage.enabled,
                    metrics.as_deref(),
                );
                flushed = true;
            }
        }
        if flushed {
            continue; // Re-check the channel before idling.
        }

        // Locally quiet: join the idle set and watch for termination.
        if !idle {
            comm.pause(SyncPoint::IdleEnter);
            q.idle.fetch_add(1, SeqCst);
            idle = true;
            comm.trace_event(TraceEventKind::SpanBegin, "idle", 0);
        }
        if q.done.load(SeqCst) {
            break;
        }
        if rank == 0 {
            let s1 = q.sent.load(SeqCst);
            let r1 = q.received.load(SeqCst);
            if s1 == r1 && q.idle.load(SeqCst) == p {
                comm.pause(SyncPoint::DoubleRead);
                let s2 = q.sent.load(SeqCst);
                let r2 = q.received.load(SeqCst);
                if s1 == s2 && r1 == r2 {
                    q.done.store(true, SeqCst);
                    break;
                }
            }
        }
        std::thread::yield_now();
    }

    if idle {
        // Close the open idle span so begin/end events stay paired.
        comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
    }
    drop(traversal_span);

    if audit::is_active() && !queue.is_empty() {
        // A correct exit always drains the local queue first.
        comm.shared()
            .audit
            .report(AuditViolation::PrematureTermination {
                rank,
                queued: queue.len(),
            });
    }

    comm.memory()
        .record("visitor_queue_peak", stats.peak_queue_bytes);
    // No rank may reset the detector (next traversal) before all have left.
    comm.barrier();
    if rank == 0 && audit::is_active() {
        // All ranks have exited (post-barrier), so every ledger entry for
        // this epoch is final; any rank entering a *next* traversal blocks
        // on its opening barrier until rank 0 finishes here.
        comm.shared().audit.verify_quiescence(
            audit_epoch,
            p,
            q.sent.load(SeqCst),
            q.received.load(SeqCst),
            q.idle.load(SeqCst),
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    /// What one rank saw in [`admission_run`]: its stats, the visitors it
    /// visited (sorted), and the checks on which the predicate answered
    /// "stale".
    struct Seen {
        stats: TraversalStats,
        visited: Vec<u32>,
        stale_at: Vec<(StaleCheck, u32)>,
        asked: u64,
    }

    /// Two ranks; rank 0's single bootstrap `0` pushes `1..=4` to itself
    /// and `11..=14` to rank 1, and every other visitor is a leaf. The toy
    /// predicate calls even non-zero visitors stale — a fixed property,
    /// so it is monotone.
    fn admission_run(queue: QueueKind) -> Vec<Seen> {
        World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("admission");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            let mut visited = Vec::new();
            let mut stale_at = Vec::new();
            let mut asked = 0;
            let stats = run_traversal_filtered(
                comm,
                &chan,
                TraversalOptions::new(queue),
                |&v| u64::from(v),
                |check, &v| {
                    asked += 1;
                    let stale = v != 0 && v % 2 == 0;
                    if stale {
                        stale_at.push((check, v));
                    }
                    stale
                },
                init,
                |v, pusher| {
                    visited.push(v);
                    if v == 0 {
                        for i in 1..=4 {
                            pusher.push(0, i);
                            pusher.push(1, 10 + i);
                        }
                    }
                },
            );
            visited.sort_unstable();
            Seen {
                stats,
                visited,
                stale_at,
                asked,
            }
        })
        .results
    }

    #[test]
    fn ordered_queues_drop_stale_visitors_at_admission() {
        for queue in [QueueKind::Priority, QueueKind::Bucketed { delta: 2 }] {
            let seen = admission_run(queue);
            // Rank 0 rejects its own pushes 2 and 4 (local admission),
            // rank 1 the batch entries 12 and 14 (inbound admission).
            assert_eq!(seen[0].visited, vec![0, 1, 3], "{queue:?}");
            assert_eq!(seen[1].visited, vec![11, 13], "{queue:?}");
            let admit = |vs: [u32; 2]| vs.map(|v| (StaleCheck::Admit, v)).to_vec();
            assert_eq!(seen[0].stale_at, admit([2, 4]), "{queue:?}");
            assert_eq!(seen[1].stale_at, admit([12, 14]), "{queue:?}");
            for (r, s) in seen.iter().enumerate() {
                assert_eq!(s.stats.stale_dropped, 2, "{queue:?} rank {r}");
                assert_eq!(s.stats.processed, s.visited.len() as u64);
            }
        }
    }

    #[test]
    fn full_delivery_queues_never_consult_the_predicate() {
        for queue in [QueueKind::Fifo, QueueKind::Adversarial { seed: 3 }] {
            let seen = admission_run(queue);
            assert_eq!(seen[0].visited, vec![0, 1, 2, 3, 4], "{queue:?}");
            assert_eq!(seen[1].visited, vec![11, 12, 13, 14], "{queue:?}");
            for s in &seen {
                assert_eq!(s.stats.stale_dropped, 0, "{queue:?}");
                assert_eq!(s.asked, 0, "{queue:?}");
            }
            let processed: u64 = seen.iter().map(|s| s.stats.processed).sum();
            assert_eq!(processed, 9, "{queue:?}");
        }
    }

    /// A visitor whose codec is broken: `decode_from` rejects the bytes
    /// `encode_into` wrote, so the flush's round trip must fail.
    #[derive(Clone)]
    struct Undecodable(u32);

    impl Wire for Undecodable {
        fn encoded_len(&self) -> usize {
            4
        }
        fn encode_into(&self, out: &mut Vec<u8>) {
            self.0.encode_into(out);
        }
        fn decode_from(_: &[u8], _: &mut usize) -> Option<Self> {
            None
        }
    }

    impl DeepBytes for Undecodable {
        fn heap_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    #[should_panic(expected = "wire codec violation: phase \"codec_check\"")]
    fn flush_panics_on_a_codec_that_cannot_round_trip() {
        World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<Undecodable>>("codec_check");
            let init = if comm.rank() == 0 {
                vec![Undecodable(0)]
            } else {
                vec![]
            };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |v, pusher| {
                    if v.0 == 0 {
                        pusher.push(1, Undecodable(1));
                    }
                },
            );
        });
    }
}
