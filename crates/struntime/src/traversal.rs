//! Asynchronous vertex-centric traversal driver with message aggregation.
//!
//! This is the runtime's equivalent of HavoqGT's `do_traversal()`: every
//! rank drains its inbound channel into a local [`VisitorQueue`] (FIFO,
//! priority, or adversarial), invokes the user's `visit` callback on each
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
//! ## Queued entries and stale-entry filtering
//!
//! The type a rank queues (`Q`) can differ from the type it sends (`V`).
//! [`run_traversal_filtered`] takes three callbacks besides `visit`:
//!
//! - **admission** turns each visitor of an inbound batch into the entry
//!   this rank queues, or into nothing: `None` drops it before it is
//!   queued. This is the `pre_visit` filter of HavoqGT's visitor queue
//!   and the tentative-distance decrease-key emulation of delta-stepping;
//!   it runs under every discipline, since it is what makes the entry;
//! - **priority** keys an entry when it is queued;
//! - the **pop test** is asked about an entry when it reaches the head of
//!   the priority queue ([`crate::queue::VisitorQueue::pop_stale_filtered`]);
//!   `false` drops it unvisited.
//!
//! A queued entry need not carry what its visit needs. An entry may name
//! state the rank keeps (a vertex id, say), stand for that state's value
//! at pop time, and be live exactly while the state has work the entry
//! has not yet done; several entries can then stand for one piece of
//! state, and the first to pop does its work. Such a pop test is not
//! monotone: an entry whose state has no work left is dead, and turns live
//! again if the state gains work before the entry pops. It must be safe
//! instead: it may drop an entry only when dropping loses nothing that
//! another queued entry, or a visit already made, does not do.
//!
//! Drops are counted apart: [`TraversalStats::admission_dropped`] for
//! visitors turned away at admission, [`TraversalStats::pop_dropped`] for
//! entries the pop test dropped. A dropped visitor is never visited,
//! never re-forwarded, and meets its terminal lineage `Visit` event
//! (`stale = 1`).
//!
//! A visit queues entries on its own rank with [`Pusher::push_local`] and
//! sends visitors to other ranks with [`Pusher::send`]
//! ([`Pusher::push`] picks one by destination when `Q = V`). Local entries
//! skip admission, because the visit callback has already seen them: it
//! checks a follow-on entry before it exists, and one that would be
//! dropped it resolves with [`Pusher::prune`] instead. A pruned visitor
//! costs no lineage id, no message count, no buffer slot and no queue
//! entry, and is counted in [`TraversalStats::pruned_at_push`]. The
//! callback owns the safety argument: it must prune only visitors whose
//! visit would be a no-op or implied by another, and record for the local
//! entries it lets through whatever admission would have recorded (the
//! Voronoi kernel's argument is in `steiner::voronoi`).
//!
//! FIFO and adversarial queues never ask the pop test. The plain entry
//! points queue every visitor as itself (`Q = V`, admission always
//! `Some`), so their exact processed counts (which several tests pin) are
//! unchanged.
//!
//! ## Termination
//!
//! A one-rank world never polls its inbound channel: with no other rank
//! nothing can arrive, and the poll takes a channel lock per loop
//! iteration.
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
use std::time::{Duration, Instant};

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

/// What a queued visitor carries besides itself: its lineage id
/// (`rank << 40 | seq`, 0 when the visitor arrived from an
/// uninstrumented sender) and its local enqueue time. A type parameter of
/// the traversal loop: [`VisitMeta`] when the world observes
/// ([`Comm::observing`]), the zero-sized [`NoMeta`] otherwise, so an
/// unobserved queue entry holds only the visitor and its link.
trait QueueMeta: Copy + DeepBytes {
    /// Whether the world observes: the loop's observability gate, a
    /// constant per instantiation.
    const OBSERVED: bool;
    fn from_visit(meta: VisitMeta) -> Self;
    fn visit_meta(&self) -> VisitMeta;
}

/// The lineage metadata of an observed traversal's queue entry. Aligned
/// to 4 B, so beside a 4 B entry it adds exactly its 16 B.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, packed(4))]
struct VisitMeta {
    id: u64,
    enq_us: u64,
}

impl QueueMeta for VisitMeta {
    const OBSERVED: bool = true;
    #[inline]
    fn from_visit(meta: VisitMeta) -> Self {
        meta
    }
    #[inline]
    fn visit_meta(&self) -> VisitMeta {
        *self
    }
}

/// The metadata of an unobserved traversal's queue entry: none, since
/// nothing reads an id or a time when observability is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct NoMeta;

impl QueueMeta for NoMeta {
    const OBSERVED: bool = false;
    #[inline]
    fn from_visit(_: VisitMeta) -> Self {
        NoMeta
    }
    #[inline]
    fn visit_meta(&self) -> VisitMeta {
        VisitMeta::default()
    }
}

impl DeepBytes for VisitMeta {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl DeepBytes for NoMeta {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Bytes one priority-queue entry of queued type `Q` takes in the queue
/// arena of an observed (`true`) or unobserved traversal: the entry, its
/// lineage metadata (16 B, observed only) and its 4 B bucket-list link.
/// [`TraversalStats::peak_queue_bytes`] counts whole arena chunks of
/// these.
pub fn queue_entry_bytes<Q>(observed: bool) -> usize {
    if observed {
        VisitorQueue::<(VisitMeta, Q)>::ENTRY_BYTES
    } else {
        VisitorQueue::<(NoMeta, Q)>::ENTRY_BYTES
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
    fn new(enabled: bool) -> Lineage {
        Lineage { enabled, parent: 0 }
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

/// Handle the `visit` callback uses to emit follow-on visitors: entries
/// of type `Q` for this rank's queue, visitors of type `V` for other
/// ranks.
pub struct Pusher<'a, V: Send + 'static, Q = V> {
    rank: usize,
    batch_size: usize,
    chan: &'a ChannelGroup<Vec<V>>,
    comm: &'a Comm,
    local: &'a mut Vec<Q>,
    /// One entry per local push, parallel to `local`, when observing;
    /// empty otherwise.
    local_meta: &'a mut Vec<VisitMeta>,
    outgoing: &'a mut Vec<OutBuf<V>>,
    lineage: &'a Lineage,
    metrics: &'a Option<Arc<PhaseMetrics>>,
    pruned: u64,
}

impl<'a, V: Send + Clone + Wire + DeepBytes + 'static, Q> Pusher<'a, V, Q> {
    /// Queues entry `q` on this rank, unchecked: the visit callback has
    /// made admission's check itself (see "Queued entries and stale-entry
    /// filtering"). When observability is on, the push records a causal
    /// edge from the visitor being visited to the new entry.
    pub fn push_local(&mut self, q: Q) {
        let id = self.lineage.spawn(self.comm, self.chan.phase());
        if self.lineage.enabled {
            let enq_us = self.comm.now_us();
            self.local_meta.push(VisitMeta { id, enq_us });
        }
        self.local.push(q);
    }

    /// Sends visitor `v` to rank `dest`, another rank, through its
    /// (buffered) network batch; `dest` admits it on arrival.
    pub fn send(&mut self, dest: usize, v: V) {
        debug_assert_ne!(
            dest, self.rank,
            "a rank queues its own work with push_local"
        );
        let id = self.lineage.spawn(self.comm, self.chan.phase());
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

    /// Counts a follow-on visitor the visit callback did not push
    /// because a check of its own showed it could not do any work (see
    /// [`TraversalStats::pruned_at_push`]).
    pub fn prune(&mut self) {
        self.pruned += 1;
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

impl<V: Send + Clone + Wire + DeepBytes + 'static> Pusher<'_, V, V> {
    /// Routes visitor `v` to `dest` when a rank queues what it sends: the
    /// local queue when `dest` is this rank ([`Pusher::push_local`]), a
    /// (buffered) network batch otherwise ([`Pusher::send`]).
    pub fn push(&mut self, dest: usize, v: V) {
        if dest == self.rank {
            self.push_local(v);
        } else {
            self.send(dest, v);
        }
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
    /// Inbound visitors that admission turned away before they were
    /// queued (see [`run_traversal_filtered`]).
    pub admission_dropped: u64,
    /// Queued entries the pop test dropped unvisited. Every visitor that
    /// reached this rank, and every entry it queued, is counted exactly
    /// once in `processed`, `admission_dropped` or `pop_dropped`. Both
    /// drop counts are 0 for the plain entry points, and `pop_dropped`
    /// for the full-delivery disciplines.
    pub pop_dropped: u64,
    /// Follow-on visitors the visit callback resolved by a comparison and
    /// never pushed ([`Pusher::prune`]): they were never queued, sent or
    /// counted as messages, so they are not part of either drop count.
    pub pruned_at_push: u64,
    /// Peak length of this rank's local queue.
    pub peak_queue_len: usize,
    /// Peak bytes held by this rank's local queue buffers.
    pub peak_queue_bytes: usize,
}

impl TraversalStats {
    /// Relaxations that never became visits: drops at admission plus
    /// drops at pop.
    pub fn stale_dropped(&self) -> u64 {
        self.admission_dropped + self.pop_dropped
    }
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
    traversal::<false, V, V, P, _, _, F>(
        comm,
        chan,
        options,
        priority,
        Some,
        |_: &V| true,
        init,
        visit,
        Duration::ZERO,
    )
}

/// [`run_traversal_config`] with a queued type `Q` of its own, an
/// admission step and a pop test (see "Queued entries and stale-entry
/// filtering"). The traversal calls `admit(v)` for every visitor `v` of an
/// inbound batch and queues the entry it returns under `priority`; `None`
/// drops `v` unqueued and counts it in
/// [`TraversalStats::admission_dropped`]. Under the priority discipline
/// ([`QueueKind::filters_stale`]) it calls `live(q)` when entry `q`
/// reaches the head of the queue, and `false` drops `q` unvisited and
/// counts it in [`TraversalStats::pop_dropped`]. `init` entries and the
/// entries a visit queues with [`Pusher::push_local`] skip admission.
///
/// Admission may keep state (it typically records the best candidate
/// admitted so far) but must be safe: a dropped visitor's visit must be a
/// no-op, or its effect implied by an entry that was queued. So must the
/// pop test: an entry it drops must have no work left that another entry
/// or a past visit does not do. Under FIFO and adversarial disciplines the
/// pop test is never called, so a caller whose admission queues every
/// visitor gets full delivery (those are the baselines the chaos matrix
/// compares against).
#[allow(clippy::too_many_arguments)]
pub fn run_traversal_filtered<V, Q, P, A, L, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    admit: A,
    live: L,
    init: impl IntoIterator<Item = Q>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    Q: DeepBytes,
    P: Fn(&Q) -> u64,
    A: FnMut(V) -> Option<Q>,
    L: FnMut(&Q) -> bool,
    F: FnMut(Q, &mut Pusher<'_, V, Q>),
{
    traversal::<false, V, Q, P, A, L, F>(
        comm,
        chan,
        options,
        priority,
        admit,
        live,
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
    traversal::<true, V, V, P, _, _, F>(
        comm,
        chan,
        options,
        priority,
        Some,
        |_: &V| true,
        init,
        visit,
        delay,
    )
}

/// Runs [`traversal_loop`] with the queue-entry metadata the world needs:
/// [`VisitMeta`] when it observes, [`NoMeta`] otherwise.
#[allow(clippy::too_many_arguments)]
fn traversal<const PREMATURE_MUTANT: bool, V, Q, P, A, L, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    admit: A,
    live: L,
    init: impl IntoIterator<Item = Q>,
    visit: F,
    mutant_delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    Q: DeepBytes,
    P: Fn(&Q) -> u64,
    A: FnMut(V) -> Option<Q>,
    L: FnMut(&Q) -> bool,
    F: FnMut(Q, &mut Pusher<'_, V, Q>),
{
    if comm.observing() {
        traversal_loop::<PREMATURE_MUTANT, VisitMeta, V, Q, P, A, L, F>(
            comm,
            chan,
            options,
            priority,
            admit,
            live,
            init,
            visit,
            mutant_delay,
        )
    } else {
        traversal_loop::<PREMATURE_MUTANT, NoMeta, V, Q, P, A, L, F>(
            comm,
            chan,
            options,
            priority,
            admit,
            live,
            init,
            visit,
            mutant_delay,
        )
    }
}

/// The traversal loop. `PREMATURE_MUTANT` selects the intentionally broken
/// drain ordering used by the audit mutation check (see
/// [`run_traversal_mutant_premature`]); production entry points
/// monomorphize with `false`, so the mutant branch compiles away. `M` is
/// what a queue entry carries besides `Q` (see [`QueueMeta`]).
#[allow(clippy::too_many_arguments)]
fn traversal_loop<const PREMATURE_MUTANT: bool, M: QueueMeta, V, Q, P, A, L, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    mut admit: A,
    mut live: L,
    init: impl IntoIterator<Item = Q>,
    mut visit: F,
    mutant_delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    Q: DeepBytes,
    P: Fn(&Q) -> u64,
    A: FnMut(V) -> Option<Q>,
    L: FnMut(&Q) -> bool,
    F: FnMut(Q, &mut Pusher<'_, V, Q>),
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
    debug_assert_eq!(M::OBSERVED, comm.observing());
    let mut lineage = Lineage::new(M::OBSERVED);
    let metrics = if M::OBSERVED {
        comm.metrics_phase(chan.phase())
    } else {
        None
    };

    let mut stats = TraversalStats::default();
    let mut queue: VisitorQueue<(M, Q)> = VisitorQueue::new(options.queue);
    for q in init {
        let pr = priority(&q);
        let id = lineage.spawn(comm, chan.phase());
        let enq_us = lineage.now_us(comm);
        queue.push(pr, (M::from_visit(VisitMeta { id, enq_us }), q));
    }
    // Sample the peak right after seeding: with N init visitors the true
    // maximum is N, which the after-a-visit sample below would miss by
    // one (the Fig 8 memory numbers come from these peaks).
    stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
    stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());

    let mut local_buf: Vec<Q> = Vec::new();
    let mut local_meta: Vec<VisitMeta> = Vec::new();
    let mut outgoing: Vec<OutBuf<V>> = (0..p).map(|_| OutBuf::default()).collect();
    // When this rank joined the idle set, while it is in it: the spell
    // is charged to `Comm::wait_time` when it leaves or terminates.
    let mut idle: Option<Instant> = None;
    let traversal_span = comm.trace_span("traversal");

    // A one-rank world has no other sender, so nothing can arrive: it
    // skips the inbound poll, which takes a channel lock per iteration.
    let poll = || if p > 1 { chan.try_recv_traced() } else { None };

    loop {
        // Drain the inbound channel into the local queue. Leave the idle
        // set BEFORE acknowledging the batch: if `received` were bumped
        // first, the detector could observe `sent == received` while this
        // rank still counted as idle and held an unprocessed batch — a
        // premature-termination race.
        while let Some((batch, sidecar)) = poll() {
            if PREMATURE_MUTANT {
                // Intentionally wrong order (mutation check): acknowledge
                // the batch while still counted idle, and dwell in the
                // race window so the detector can misfire.
                q.received.fetch_add(1, SeqCst);
                std::thread::sleep(mutant_delay);
                if let Some(since) = idle.take() {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    comm.add_wait(since.elapsed());
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
            } else {
                if let Some(since) = idle.take() {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    comm.add_wait(since.elapsed());
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
                q.received.fetch_add(1, SeqCst);
            }
            let now = lineage.now_us(comm);
            if let (Some(m), Some(sc)) = (metrics.as_deref(), sidecar.as_ref()) {
                m.record(MetricKind::MsgLatencyUs, now.saturating_sub(sc.sent_us));
            }
            // Admission: each visitor becomes the entry this rank queues,
            // or is dropped before it is queued. Such drops record no
            // `StaleDropAgeUs` sample: that histogram measures how long
            // dropped entries sat in the queue, and these never entered it.
            for (i, v) in batch.into_iter().enumerate() {
                let id = sidecar
                    .as_ref()
                    .and_then(|sc| sc.ids.get(i).copied())
                    .unwrap_or(0);
                match admit(v) {
                    Some(q) => {
                        let meta = M::from_visit(VisitMeta { id, enq_us: now });
                        queue.push(priority(&q), (meta, q));
                    }
                    None => {
                        lineage.stale_drop(comm, chan.phase(), id);
                        stats.admission_dropped += 1;
                    }
                }
            }
            // Sample the peak as each batch lands, before any visitor is
            // popped: a point the after-a-visit sample can never see.
            // Between landings the queue only shrinks or is sampled after
            // a visit, so no other point can set a new peak.
            stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
            stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());
        }

        // Pop through the pop test: entries with no work left die here
        // without a visit. Their queue residency is recorded as
        // StaleDropAgeUs so the latency histograms show how long dead
        // entries sat in the queue.
        let (popped, dropped) = queue.pop_stale_filtered(|(meta, q)| {
            if live(q) {
                return false;
            }
            let meta = meta.visit_meta();
            lineage.stale_drop(comm, chan.phase(), meta.id);
            if let Some(m) = metrics.as_deref() {
                let now = lineage.now_us(comm);
                m.record(MetricKind::StaleDropAgeUs, now.saturating_sub(meta.enq_us));
            }
            true
        });
        stats.pop_dropped += dropped;
        if let Some((meta, q)) = popped {
            debug_assert!(idle.is_none(), "queue cannot be non-empty while idle");
            let meta = meta.visit_meta();
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
                local_meta: &mut local_meta,
                outgoing: &mut outgoing,
                lineage: &lineage,
                metrics: &metrics,
                pruned: 0,
            };
            visit(q, &mut pusher);
            stats.pruned_at_push += pusher.pruned;
            // One counter update per visit, not per local push.
            if !local_buf.is_empty() {
                chan.count_local(local_buf.len() as u64);
            }
            lineage.parent = 0;
            if let Some(m) = metrics.as_deref() {
                m.record(
                    MetricKind::VisitServiceUs,
                    comm.now_us().saturating_sub(visit_start),
                );
            }
            stats.processed += 1;
            comm.fault_visit_tick();
            // Local entries are queued unchecked: the visit callback made
            // admission's check before pushing (see "Queued entries and
            // stale-entry filtering").
            let mut metas = local_meta.drain(..);
            for q in local_buf.drain(..) {
                let meta = M::from_visit(metas.next().unwrap_or_default());
                queue.push(priority(&q), (meta, q));
            }
            stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
            stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());
            // Sample the counters sparsely (every 256 visits, starting at
            // the first) so the trace stays light on big runs but tiny
            // test graphs still get a sample. Keyed to the visit count,
            // never the clock, so tracing leaves the schedule alone.
            if stats.processed & 0xff == 1 {
                comm.trace_sample(
                    queue.len(),
                    queue.memory_bytes(),
                    [stats.processed, stats.stale_dropped()],
                );
            }
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
        if idle.is_none() {
            comm.pause(SyncPoint::IdleEnter);
            q.idle.fetch_add(1, SeqCst);
            // stcheck: allow(wallclock): wait measurement only.
            idle = Some(Instant::now());
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

    if let Some(since) = idle {
        comm.add_wait(since.elapsed());
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
    drop(queue);

    comm.memory()
        .record("visitor_queue_peak", stats.peak_queue_bytes);
    // The closing sample: the queue is freed and its peak is on the
    // ledger, so the next phase does not inherit its bytes.
    comm.trace_traversal_end([stats.processed, stats.stale_dropped()]);
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
    use crate::queue::CHUNK;
    use crate::{MetricsConfig, RunOutput, TraceConfig, World, WorldConfig};

    /// Where a toy kernel dropped an entry.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Dropped {
        Admit,
        Pop,
    }

    /// What one rank saw in [`admission_run`]: its stats, the entries it
    /// visited (sorted), where it dropped which entries, and how often the
    /// pop test was asked.
    struct Seen {
        stats: TraversalStats,
        visited: Vec<u64>,
        dropped: Vec<(Dropped, u64)>,
        pop_tests: u64,
    }

    /// `p` ranks (1 or 2), sending `u32` visitors and queuing them as
    /// `u64` entries. Rank 0's single bootstrap `0` queues `1..=4` on
    /// itself and sends `11..=14` to rank `1 % p`, and every other entry
    /// is a leaf. The toy kernel calls even non-zero entries stale — a
    /// fixed property, so dropping them is safe — and, like the Voronoi
    /// kernel, admits everything under a full-delivery discipline. Rank 1
    /// receives one batch, so every stat is the same under any schedule.
    fn admission_run(p: usize, queue: QueueKind, config: WorldConfig) -> RunOutput<Seen> {
        World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("admission");
            let init = if comm.rank() == 0 { vec![0u64] } else { vec![] };
            let stale = |v: u64| v != 0 && v.is_multiple_of(2);
            let filters = queue.filters_stale();
            let dropped = std::cell::RefCell::new(Vec::new());
            let mut visited = Vec::new();
            let mut pop_tests = 0;
            let stats = run_traversal_filtered(
                comm,
                &chan,
                TraversalOptions::new(queue),
                |&v: &u64| v,
                |v: u32| {
                    let v = u64::from(v);
                    if filters && stale(v) {
                        dropped.borrow_mut().push((Dropped::Admit, v));
                        return None;
                    }
                    Some(v)
                },
                |&v: &u64| {
                    pop_tests += 1;
                    if stale(v) {
                        dropped.borrow_mut().push((Dropped::Pop, v));
                    }
                    !stale(v)
                },
                init,
                |v: u64, pusher: &mut Pusher<'_, u32, u64>| {
                    visited.push(v);
                    if v == 0 {
                        for i in 1..=4 {
                            pusher.push_local(i);
                            if p > 1 {
                                pusher.send(1, 10 + i as u32);
                            } else {
                                pusher.push_local(10 + i);
                            }
                        }
                    }
                },
            );
            visited.sort_unstable();
            Seen {
                stats,
                visited,
                dropped: dropped.into_inner(),
                pop_tests,
            }
        })
    }

    #[test]
    fn priority_queue_drops_stale_visitors_at_admission() {
        let seen = admission_run(2, QueueKind::Priority, WorldConfig::default()).results;
        // Only inbound visitors go through admission: rank 1 rejects the
        // batch entries 12 and 14 there. Rank 0's own entries 2 and 4 are
        // queued unchecked (a visit checks before it pushes) and dropped
        // when they reach the head of the queue.
        assert_eq!(seen[0].visited, vec![0, 1, 3]);
        assert_eq!(seen[1].visited, vec![11, 13]);
        let at = |kind, vs: [u64; 2]| vs.map(|v| (kind, v)).to_vec();
        assert_eq!(seen[0].dropped, at(Dropped::Pop, [2, 4]));
        assert_eq!(seen[1].dropped, at(Dropped::Admit, [12, 14]));
        assert_eq!(
            (seen[0].stats.admission_dropped, seen[0].stats.pop_dropped),
            (0, 2)
        );
        assert_eq!(
            (seen[1].stats.admission_dropped, seen[1].stats.pop_dropped),
            (2, 0)
        );
        for s in &seen {
            assert_eq!(s.stats.stale_dropped(), 2);
            assert_eq!(s.stats.processed, s.visited.len() as u64);
        }
    }

    #[test]
    fn full_delivery_queues_never_ask_the_pop_test() {
        for queue in [QueueKind::Fifo, QueueKind::Adversarial { seed: 3 }] {
            let seen = admission_run(2, queue, WorldConfig::default()).results;
            assert_eq!(seen[0].visited, vec![0, 1, 2, 3, 4], "{queue:?}");
            assert_eq!(seen[1].visited, vec![11, 12, 13, 14], "{queue:?}");
            for s in &seen {
                assert_eq!(s.stats.stale_dropped(), 0, "{queue:?}");
                assert_eq!(s.pop_tests, 0, "{queue:?}");
            }
            let processed: u64 = seen.iter().map(|s| s.stats.processed).sum();
            assert_eq!(processed, 9, "{queue:?}");
        }
    }

    /// The observed loop (queue entries with lineage metadata) and the
    /// unobserved one (entries without) make the same traversal; only the
    /// observed one records residency and drop ages and closes every
    /// spawned lineage id with one terminal `Visit` event.
    #[test]
    fn observed_and_unobserved_loops_agree() {
        let observed = WorldConfig {
            trace: TraceConfig::ring(),
            metrics: MetricsConfig::On,
            ..WorldConfig::default()
        };
        for p in [1, 2] {
            let on = admission_run(p, QueueKind::Priority, observed);
            let off = admission_run(p, QueueKind::Priority, WorldConfig::default());
            let (on_stats, off_stats): (Vec<_>, Vec<_>) = (
                on.results.iter().map(|s| s.stats).collect(),
                off.results.iter().map(|s| s.stats).collect(),
            );
            // Queue bytes differ by the metadata alone: the arena holds
            // the same chunks of wider entries.
            let entry_gap = queue_entry_bytes::<u64>(true) - queue_entry_bytes::<u64>(false);
            for (on, off) in on_stats.iter().zip(&off_stats) {
                let arena_entries = on.peak_queue_len.div_ceil(CHUNK) * CHUNK;
                assert_eq!(
                    on.peak_queue_bytes - off.peak_queue_bytes,
                    arena_entries * entry_gap,
                    "p = {p}"
                );
            }
            let same_bytes = |s: &TraversalStats| TraversalStats {
                peak_queue_bytes: 0,
                ..*s
            };
            assert_eq!(
                on_stats.iter().map(same_bytes).collect::<Vec<_>>(),
                off_stats.iter().map(same_bytes).collect::<Vec<_>>(),
                "p = {p}"
            );
            assert!(off.trace.is_empty() && off.metrics.is_empty());

            let processed: u64 = on_stats.iter().map(|s| s.processed).sum();
            let stale: u64 = on_stats.iter().map(|s| s.stale_dropped()).sum();
            let pop_drops: u64 = on_stats.iter().map(|s| s.pop_dropped).sum();
            let metrics = &on.finish_metrics().aggregate()["admission"];
            assert_eq!(
                metrics.hist(MetricKind::QueueResidencyUs).count(),
                processed
            );
            assert_eq!(metrics.hist(MetricKind::StaleDropAgeUs).count(), pop_drops);
            assert!(pop_drops > 0, "p = {p}");

            let events = || on.trace.ranks.iter().flat_map(|r| &r.events);
            let mut spawned: Vec<u64> = events()
                .filter(|e| e.kind == TraceEventKind::Spawn)
                .map(|e| e.arg)
                .collect();
            let mut ended: Vec<u64> = events()
                .filter(|e| e.kind == TraceEventKind::Visit)
                .map(|e| e.arg)
                .collect();
            spawned.sort_unstable();
            ended.sort_unstable();
            assert_eq!(spawned.len() as u64, processed + stale, "p = {p}");
            assert!(spawned.iter().all(|&id| id != 0));
            assert_eq!(spawned, ended, "one terminal visit per lineage id");
        }
    }

    /// Aggregation ships rank 0's 200 remote pushes in far fewer batches
    /// at the default batch size than one visitor per batch, and delivers
    /// the same visitors either way.
    #[test]
    fn aggregation_reduces_batch_count() {
        let run = |batch_size: usize| {
            let out = World::run(2, |comm| {
                let chan = comm.open_channels::<Vec<u32>>("fanout");
                comm.set_phase("fanout", 0);
                let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
                let options = TraversalOptions {
                    queue: QueueKind::Fifo,
                    batch_size,
                };
                run_traversal_config(
                    comm,
                    &chan,
                    options,
                    |_| 0,
                    init,
                    |v, pusher| {
                        if v == 0 {
                            for i in 1..=200 {
                                pusher.push(1, i);
                            }
                        }
                    },
                )
                .processed
            });
            let processed: Vec<u64> = out.results.clone();
            (processed, out.merged_counters()["fanout"].remote_batches)
        };
        let (unbatched_visits, unbatched) = run(1);
        let (batched_visits, batched) = run(DEFAULT_BATCH_SIZE);
        assert_eq!(batched_visits, unbatched_visits);
        assert_eq!(batched_visits, vec![1, 200]);
        assert!(
            batched * 10 < unbatched,
            "aggregation should cut batches: {batched} vs {unbatched}"
        );
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
