//! Local visitor queues: FIFO, priority, bucketed, and adversarial
//! disciplines.
//!
//! This is the paper's headline optimization knob (§IV, §V-C): HavoqGT's
//! default message queue is FIFO; the authors replace it with a priority
//! queue that "gives precedence to a message from a vertex at a lower
//! distance", approximating Dijkstra's settle order inside the asynchronous
//! Bellman-Ford kernel. Ties are broken by arrival order so the priority
//! queue degrades gracefully to FIFO on uniform priorities.
//!
//! The [`QueueKind::Bucketed`] discipline is the delta-stepping variant of
//! the same idea (cf. the sequential `baselines::delta_stepping` kernel and
//! the bucket structures of *Engineering Massively Parallel MST
//! Algorithms*, arXiv:2302.12199): visitors land in a cyclic vector of
//! buckets indexed by `prio / delta`, pops drain the lowest non-empty
//! bucket in arrival order, and pushes are O(1) with no heap sift. Within
//! a bucket the discipline is FIFO, so `delta = 1` on integer priorities
//! matches the priority queue's settle order and larger deltas trade
//! ordering precision for constant-time operations.
//!
//! ## Stale-entry filtering
//!
//! The ordered disciplines (priority and bucketed) emulate decrease-key in
//! three steps. A visit callback can resolve a relaxation by a comparison
//! of its own and never push it ([`crate::Pusher::prune`]). The traversal
//! driver filters the visitors that are pushed before they are queued
//! (the admission check of `crate::traversal`, "Stale-entry filtering"),
//! so a relaxation that does not beat its target's best admitted label
//! never costs a queue push. Pushes still never remove the
//! entries a later improvement supersedes, so
//! [`VisitorQueue::pop_stale_filtered`] applies a caller-supplied
//! staleness predicate at pop and drops those before they reach the visit
//! callback — the delta-stepping trick of filtering `dist(v) < tentative`
//! entries, generalized to a callback. FIFO and adversarial queues ignore
//! the filter on purpose: they are the full-delivery baselines the
//! Fig 5/6 experiments and the chaos matrix compare against.

use crate::wire::DeepBytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which queue discipline a traversal uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// First-in first-out (HavoqGT's default).
    Fifo,
    /// Min-priority first (the paper's optimization); lower keys pop first.
    Priority,
    /// Delta-stepping bucket array: pops drain the lowest non-empty bucket
    /// of width `delta` in arrival order. O(1) push/pop, approximate
    /// priority order, stale filtering at admission and at pop.
    Bucketed {
        /// Bucket width in priority units (must be >= 1). The
        /// mean-edge-weight heuristic of `baselines::delta_stepping`'s
        /// `default_delta` is the standard choice for distance priorities.
        delta: u64,
    },
    /// Pops pseudo-randomly (seeded xorshift). A chaos-testing discipline:
    /// it simulates adversarial network reordering, so algorithms whose
    /// results must be timing-independent (like the Steiner solver's
    /// strict-label fixpoint) can be exercised under the worst schedules.
    Adversarial {
        /// Seed of the per-queue shuffle stream.
        seed: u64,
    },
}

impl QueueKind {
    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            QueueKind::Fifo => "fifo",
            QueueKind::Priority => "priority",
            QueueKind::Bucketed { .. } => "bucketed",
            QueueKind::Adversarial { .. } => "adversarial",
        }
    }

    /// Whether this discipline applies the stale-entry filter of
    /// [`VisitorQueue::pop_stale_filtered`]. True for the ordered
    /// disciplines (priority, bucketed), where dropping dominated entries
    /// is the decrease-key emulation; false for FIFO and adversarial,
    /// which stay full-delivery baselines.
    pub fn filters_stale(&self) -> bool {
        matches!(self, QueueKind::Priority | QueueKind::Bucketed { .. })
    }
}

/// A priority-slab entry: a queued value, or a vacated slot holding the
/// next free slot's index.
enum Slot<V> {
    Full(V),
    Free(usize),
}

/// End of the priority slab's free list.
const NO_SLOT: usize = usize::MAX;

/// Slots per priority-slab chunk. Chunks never move, so the slab grows
/// without reallocating: a slab and a key heap doubling side by side
/// would leave the allocator holes as large as themselves.
const SLAB_CHUNK: usize = 1 << 7;

/// Upper bound on the bucket window (`(max_prio - min_prio) / delta`). A
/// wider spread means `delta` is far too small for the priority range —
/// fail loudly instead of allocating an absurd ring.
const MAX_BUCKET_WINDOW: u64 = 1 << 24;

/// A local visitor queue with a runtime-selected discipline.
pub struct VisitorQueue<V> {
    kind: QueueKind,
    fifo: VecDeque<V>,
    /// Priority discipline: a min-heap of 24-byte `(prio, seq, slot)`
    /// keys. `seq` is unique, so pops follow `(prio, seq)` exactly and
    /// `slot` never decides an order; the value waits in `slab[slot]`, so
    /// a sift moves 24 bytes whatever `V` is.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Values of the queued priority keys, in chunks of [`SLAB_CHUNK`]
    /// slots. Vacated slots form a free list threaded through the slab
    /// itself, headed by `free`.
    slab: Vec<Vec<Slot<V>>>,
    free: usize,
    bag: Vec<V>,
    /// Cyclic bucket vector of the bucketed discipline: the entry for
    /// absolute bucket id `b = prio / delta` lives in slot `b % len`,
    /// `len` a power of two. The live window `[min_bucket, max_bucket]`
    /// never exceeds `len` buckets, so a slot holds at most one bucket id.
    buckets: Vec<VecDeque<(u64, V)>>,
    /// Cursor at (or below) the lowest non-empty absolute bucket id.
    min_bucket: u64,
    /// Highest absolute bucket id currently occupied.
    max_bucket: u64,
    /// Live entries across all buckets.
    bucket_items: usize,
    /// Running sum of bucket-slot capacities (entries), so
    /// [`VisitorQueue::memory_bytes`] stays O(1) in the per-visit path.
    bucket_slot_cap: usize,
    /// Running sum of queued elements' owned heap bytes (see
    /// [`DeepBytes`]) — keeps `memory_bytes` deep without O(n) scans.
    elem_heap_bytes: usize,
    rng_state: u64,
    seq: u64,
}

/// SplitMix64 finalizer: a bijective avalanche mix, so every distinct
/// seed yields a distinct (and well-scrambled) xorshift starting state.
/// Exactly one seed maps to 0 (the mix is a bijection), which xorshift
/// cannot use as state; that seed gets a fixed non-zero constant.
fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

impl<V> VisitorQueue<V> {
    /// An empty queue of the given discipline.
    pub fn new(kind: QueueKind) -> Self {
        if let QueueKind::Bucketed { delta } = kind {
            assert!(delta >= 1, "bucketed queue delta must be >= 1");
        }
        let rng_state = match kind {
            // Xorshift state must be non-zero; mix the seed so adjacent
            // seeds produce unrelated streams. (A plain `seed | 1` here
            // collapsed seeds 2k and 2k+1 onto the same stream, halving
            // the seed space the chaos tests explore.)
            QueueKind::Adversarial { seed } => mix_seed(seed),
            _ => 1,
        };
        VisitorQueue {
            kind,
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: NO_SLOT,
            bag: Vec::new(),
            buckets: Vec::new(),
            min_bucket: 0,
            max_bucket: 0,
            bucket_items: 0,
            bucket_slot_cap: 0,
            elem_heap_bytes: 0,
            rng_state,
            seq: 0,
        }
    }

    /// The queue discipline.
    pub fn kind(&self) -> QueueKind {
        self.kind
    }

    fn next_rand(&mut self) -> u64 {
        // Xorshift64: cheap, deterministic, good enough for shuffling.
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// Uniform sample from `0..n` by rejection (Lemire-style threshold):
    /// a bare `next_rand() % n` is biased toward low residues whenever
    /// `2^64 % n != 0`, which skews which reorderings the adversarial
    /// schedules explore. Deterministic per seed.
    fn bounded_rand(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let threshold = n.wrapping_neg() % n; // 2^64 mod n
        loop {
            let x = self.next_rand();
            if x >= threshold {
                return x % n;
            }
        }
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Slot<V> {
        &mut self.slab[slot / SLAB_CHUNK][slot % SLAB_CHUNK]
    }

    /// Grows the cyclic bucket vector to hold a window of at least
    /// `needed` buckets, re-placing every live entry by its absolute
    /// bucket id. Per-bucket arrival order is preserved: the old window
    /// also fit its ring, so each old slot held exactly one bucket id.
    fn grow_ring(&mut self, needed: u64, delta: u64) {
        assert!(
            needed <= MAX_BUCKET_WINDOW,
            "bucketed queue window of {needed} buckets exceeds {MAX_BUCKET_WINDOW}: \
             delta {delta} is too small for this priority range"
        );
        let cap = (needed as usize).next_power_of_two().max(8);
        let mut fresh: Vec<VecDeque<(u64, V)>> = (0..cap).map(|_| VecDeque::new()).collect();
        for slot in std::mem::take(&mut self.buckets) {
            for (prio, value) in slot {
                let b = prio / delta;
                fresh[(b % cap as u64) as usize].push_back((prio, value));
            }
        }
        self.buckets = fresh;
        self.bucket_slot_cap = self.buckets.iter().map(VecDeque::capacity).sum();
    }
}

impl<V: DeepBytes> VisitorQueue<V> {
    /// Enqueues `value`; `prio` is used only by the priority and bucketed
    /// disciplines.
    pub fn push(&mut self, prio: u64, value: V) {
        self.elem_heap_bytes += value.heap_bytes();
        match self.kind {
            QueueKind::Fifo => self.fifo.push_back(value),
            QueueKind::Priority => {
                let slot = if self.free == NO_SLOT {
                    if self.slab.last().is_none_or(|c| c.len() == SLAB_CHUNK) {
                        self.slab.push(Vec::with_capacity(SLAB_CHUNK));
                    }
                    let chunks = self.slab.len();
                    let chunk = &mut self.slab[chunks - 1];
                    chunk.push(Slot::Full(value));
                    (chunks - 1) * SLAB_CHUNK + chunk.len() - 1
                } else {
                    let slot = self.free;
                    match std::mem::replace(self.slot_mut(slot), Slot::Full(value)) {
                        Slot::Free(next) => self.free = next,
                        Slot::Full(_) => unreachable!("the free list holds only free slots"),
                    }
                    slot
                };
                self.heap.push(Reverse((prio, self.seq, slot)));
                self.seq += 1;
            }
            QueueKind::Bucketed { delta } => {
                let b = prio / delta;
                if self.bucket_items == 0 {
                    self.min_bucket = b;
                    self.max_bucket = b;
                } else {
                    self.min_bucket = self.min_bucket.min(b);
                    self.max_bucket = self.max_bucket.max(b);
                }
                let needed = self.max_bucket - self.min_bucket + 1;
                if needed > self.buckets.len() as u64 {
                    self.grow_ring(needed, delta);
                }
                let cap = self.buckets.len() as u64;
                let slot = &mut self.buckets[(b % cap) as usize];
                let before = slot.capacity();
                slot.push_back((prio, value));
                self.bucket_slot_cap += slot.capacity() - before;
                self.bucket_items += 1;
            }
            QueueKind::Adversarial { .. } => self.bag.push(value),
        }
    }

    /// Dequeues the next visitor, or `None` when empty.
    pub fn pop(&mut self) -> Option<V> {
        let popped = match self.kind {
            QueueKind::Fifo => self.fifo.pop_front(),
            QueueKind::Priority => self.heap.pop().map(|Reverse((_, _, slot))| {
                let vacated = Slot::Free(std::mem::replace(&mut self.free, slot));
                match std::mem::replace(self.slot_mut(slot), vacated) {
                    Slot::Full(value) => value,
                    Slot::Free(_) => unreachable!("a queued key owns its slot"),
                }
            }),
            QueueKind::Bucketed { .. } => {
                if self.bucket_items == 0 {
                    None
                } else {
                    let cap = self.buckets.len() as u64;
                    loop {
                        // Bounded: `bucket_items > 0` guarantees a
                        // non-empty slot inside the live window.
                        let slot = &mut self.buckets[(self.min_bucket % cap) as usize];
                        if let Some((_, value)) = slot.pop_front() {
                            self.bucket_items -= 1;
                            break Some(value);
                        }
                        self.min_bucket += 1;
                    }
                }
            }
            QueueKind::Adversarial { .. } => {
                if self.bag.is_empty() {
                    None
                } else {
                    let i = self.bounded_rand(self.bag.len() as u64) as usize;
                    Some(self.bag.swap_remove(i))
                }
            }
        };
        if let Some(v) = &popped {
            self.elem_heap_bytes -= v.heap_bytes();
        }
        popped
    }

    /// Dequeues the next visitor the staleness filter accepts, lazily
    /// dropping entries `stale` marks as dominated; returns the visitor
    /// (if any) and how many entries were dropped. Only the ordered
    /// disciplines filter (see [`QueueKind::filters_stale`]) — for FIFO
    /// and adversarial queues this is exactly [`VisitorQueue::pop`].
    ///
    /// This is the pop half of the delta-stepping decrease-key emulation
    /// (the traversal's admission check is the other): an improvement to
    /// a vertex label does not hunt down the superseded entries already
    /// queued for it; they die here, without paying for a full visit.
    pub fn pop_stale_filtered(&mut self, mut stale: impl FnMut(&V) -> bool) -> (Option<V>, u64) {
        if !self.kind.filters_stale() {
            return (self.pop(), 0);
        }
        let mut dropped = 0;
        while let Some(v) = self.pop() {
            if stale(&v) {
                dropped += 1;
            } else {
                return (Some(v), dropped);
            }
        }
        (None, dropped)
    }

    /// Approximate heap footprint of the queue in bytes: buffer
    /// capacities plus the owned heap bytes of queued elements (deep —
    /// a queued `Vec` payload counts its contents, not its header).
    pub fn memory_bytes(&self) -> usize {
        let buffers = match self.kind {
            QueueKind::Fifo => self.fifo.capacity() * std::mem::size_of::<V>(),
            QueueKind::Priority => {
                self.heap.capacity() * std::mem::size_of::<Reverse<(u64, u64, usize)>>()
                    + self.slab.len() * SLAB_CHUNK * std::mem::size_of::<Slot<V>>()
                    + self.slab.capacity() * std::mem::size_of::<Vec<Slot<V>>>()
            }
            QueueKind::Bucketed { .. } => {
                self.bucket_slot_cap * std::mem::size_of::<(u64, V)>()
                    + self.buckets.capacity() * std::mem::size_of::<VecDeque<(u64, V)>>()
            }
            QueueKind::Adversarial { .. } => self.bag.capacity() * std::mem::size_of::<V>(),
        };
        buffers + self.elem_heap_bytes
    }
}

impl<V> VisitorQueue<V> {
    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        match self.kind {
            QueueKind::Fifo => self.fifo.is_empty(),
            QueueKind::Priority => self.heap.is_empty(),
            QueueKind::Bucketed { .. } => self.bucket_items == 0,
            QueueKind::Adversarial { .. } => self.bag.is_empty(),
        }
    }

    /// Number of queued visitors.
    pub fn len(&self) -> usize {
        match self.kind {
            QueueKind::Fifo => self.fifo.len(),
            QueueKind::Priority => self.heap.len(),
            QueueKind::Bucketed { .. } => self.bucket_items,
            QueueKind::Adversarial { .. } => self.bag.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_order() {
        let mut q = VisitorQueue::new(QueueKind::Fifo);
        q.push(9, 'a');
        q.push(1, 'b');
        q.push(5, 'c');
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), Some('c'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_pops_smallest_first() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        q.push(9, 'a');
        q.push(1, 'b');
        q.push(5, 'c');
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), Some('c'));
        assert_eq!(q.pop(), Some('a'));
    }

    #[test]
    fn priority_ties_break_by_arrival() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        q.push(3, 'x');
        q.push(3, 'y');
        q.push(3, 'z');
        assert_eq!(q.pop(), Some('x'));
        assert_eq!(q.pop(), Some('y'));
        assert_eq!(q.pop(), Some('z'));
    }

    #[test]
    fn len_and_empty() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        assert!(q.is_empty());
        q.push(1, 1u32);
        q.push(2, 2u32);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn stale_filter_drops_dominated_entries() {
        for kind in [QueueKind::Priority, QueueKind::Bucketed { delta: 2 }] {
            let mut q = VisitorQueue::new(kind);
            for v in [10u32, 3, 7, 1, 8] {
                q.push(v as u64, v);
            }
            // Everything above 5 is "dominated".
            let (got, dropped) = q.pop_stale_filtered(|&v| v > 5);
            assert_eq!(got, Some(1), "{kind:?}");
            assert_eq!(dropped, 0, "{kind:?}: 1 pops first, nothing stale yet");
            let mut survivors = vec![];
            let mut total_dropped = 0;
            loop {
                let (v, d) = q.pop_stale_filtered(|&v| v > 5);
                total_dropped += d;
                match v {
                    Some(v) => survivors.push(v),
                    None => break,
                }
            }
            assert_eq!(survivors, vec![3], "{kind:?}");
            assert_eq!(total_dropped, 3, "{kind:?}: 7, 8, 10 dropped unvisited");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn stale_filter_is_identity_for_full_delivery_queues() {
        for kind in [QueueKind::Fifo, QueueKind::Adversarial { seed: 3 }] {
            let mut q = VisitorQueue::new(kind);
            for v in [10u32, 3, 7] {
                q.push(v as u64, v);
            }
            let mut got = vec![];
            loop {
                let (v, dropped) = q.pop_stale_filtered(|_| true);
                assert_eq!(dropped, 0, "{kind:?} never filters");
                match v {
                    Some(v) => got.push(v),
                    None => break,
                }
            }
            got.sort_unstable();
            assert_eq!(got, vec![3, 7, 10], "{kind:?} delivers everything");
        }
    }

    #[test]
    fn memory_bytes_deep_counts_heap_payloads() {
        for kind in [
            QueueKind::Fifo,
            QueueKind::Priority,
            QueueKind::Bucketed { delta: 1 },
            QueueKind::Adversarial { seed: 1 },
        ] {
            let mut q: VisitorQueue<Vec<u64>> = VisitorQueue::new(kind);
            let payload: Vec<u64> = vec![0; 1000];
            q.push(0, payload);
            assert!(
                q.memory_bytes() >= 8000,
                "{kind:?}: a queued 8 kB payload must be deep-counted, got {}",
                q.memory_bytes()
            );
            q.pop();
            assert!(
                q.memory_bytes() < 8000,
                "{kind:?}: popped payload bytes must be released"
            );
        }
    }
}

#[cfg(test)]
mod priority_model_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slab-backed priority heap against a reference
        /// `BinaryHeap<Reverse<(prio, seq)>>` over random push/pop
        /// interleavings: identical pop order (ties and slots reused after
        /// pops included), identical `len` and `is_empty`, and the same
        /// drop count from `pop_stale_filtered` as a reference filter.
        /// Each value is its push's sequence number, so a pop names
        /// exactly which push it returned.
        #[test]
        fn priority_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u8..6, 0u64..6), 0..600),
        ) {
            let mut q = VisitorQueue::new(QueueKind::Priority);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let unwrap = |e: Option<Reverse<(u64, u64)>>| e.map(|Reverse((_, s))| s);
            for (op, prio) in ops {
                match op {
                    // Pushes outnumber pops, so the queue both grows past
                    // one slab chunk and refills the slots pops vacate.
                    0..=3 => {
                        q.push(prio, seq);
                        reference.push(Reverse((prio, seq)));
                        seq += 1;
                    }
                    4 => prop_assert_eq!(q.pop(), unwrap(reference.pop())),
                    _ => {
                        // An arbitrary fixed property of the value is a
                        // monotone staleness predicate.
                        let stale = |s: &u64| s % 3 == prio % 3;
                        let mut dropped = 0;
                        let expect = loop {
                            match unwrap(reference.pop()) {
                                Some(s) if stale(&s) => dropped += 1,
                                other => break other,
                            }
                        };
                        prop_assert_eq!(q.pop_stale_filtered(stale), (expect, dropped));
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            while let Some(s) = unwrap(reference.pop()) {
                prop_assert_eq!(q.pop(), Some(s));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}

#[cfg(test)]
mod bucketed_tests {
    use super::*;

    fn drain(q: &mut VisitorQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_lowest_bucket_first_fifo_within_bucket() {
        let mut q = VisitorQueue::new(QueueKind::Bucketed { delta: 10 });
        q.push(35, 1); // bucket 3
        q.push(5, 2); // bucket 0
        q.push(31, 3); // bucket 3, after 1
        q.push(17, 4); // bucket 1
        q.push(9, 5); // bucket 0, after 2
        assert_eq!(drain(&mut q), vec![2, 5, 4, 1, 3]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn delta_one_matches_priority_order_on_distinct_keys() {
        let prios = [9u64, 2, 7, 0, 5, 12, 3];
        let mut bucketed = VisitorQueue::new(QueueKind::Bucketed { delta: 1 });
        let mut heap = VisitorQueue::new(QueueKind::Priority);
        for &p in &prios {
            bucketed.push(p, p as u32);
            heap.push(p, p as u32);
        }
        assert_eq!(drain(&mut bucketed), drain(&mut heap));
    }

    #[test]
    fn interleaved_push_pop_with_backward_pushes() {
        // Remote messages can arrive with priorities *below* the current
        // cursor; the ring must accept them and serve them first.
        let mut q = VisitorQueue::new(QueueKind::Bucketed { delta: 4 });
        q.push(40, 1);
        q.push(41, 2);
        assert_eq!(q.pop(), Some(1));
        q.push(3, 3); // far below the cursor
        q.push(100, 4);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_grows_past_initial_capacity() {
        let mut q = VisitorQueue::new(QueueKind::Bucketed { delta: 1 });
        // 1000 distinct buckets force several ring growths.
        for p in (0..1000u64).rev() {
            q.push(p, p as u32);
        }
        assert_eq!(q.len(), 1000);
        let got = drain(&mut q);
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(got, expect, "growth must preserve bucket order");
    }

    #[test]
    fn uniform_priorities_degrade_to_fifo() {
        let mut q = VisitorQueue::new(QueueKind::Bucketed { delta: 7 });
        for v in 0..50u32 {
            q.push(3, v);
        }
        assert_eq!(drain(&mut q), (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "delta must be >= 1")]
    fn zero_delta_is_rejected() {
        let _ = VisitorQueue::<u32>::new(QueueKind::Bucketed { delta: 0 });
    }

    #[test]
    #[should_panic(expected = "too small for this priority range")]
    fn absurd_bucket_window_is_rejected() {
        let mut q = VisitorQueue::new(QueueKind::Bucketed { delta: 1 });
        q.push(0, 0u32);
        q.push(u64::MAX / 2, 1u32);
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;

    #[test]
    fn adversarial_returns_every_element() {
        let mut q = VisitorQueue::new(QueueKind::Adversarial { seed: 7 });
        for i in 0..100u32 {
            q.push(0, i);
        }
        let mut got: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn adversarial_is_deterministic_per_seed() {
        let drain = |seed| {
            let mut q = VisitorQueue::new(QueueKind::Adversarial { seed });
            for i in 0..50u32 {
                q.push(0, i);
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        assert_eq!(drain(3), drain(3));
        assert_ne!(drain(3), drain(4));
    }

    #[test]
    fn adjacent_seeds_give_distinct_streams() {
        // Regression: `seed | 1` collapsed seeds 2k and 2k+1 onto one
        // xorshift stream, so seeds 2 and 3 drained identically.
        let drain = |seed| {
            let mut q = VisitorQueue::new(QueueKind::Adversarial { seed });
            for i in 0..50u32 {
                q.push(0, i);
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        assert_ne!(drain(2), drain(3));
        for k in 0..32u64 {
            assert_ne!(drain(2 * k), drain(2 * k + 1), "seed pair {k}");
        }
    }

    #[test]
    fn seed_zero_still_reorders() {
        let mut q = VisitorQueue::new(QueueKind::Adversarial { seed: 0 });
        for i in 0..50u32 {
            q.push(0, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_ne!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn adversarial_actually_reorders() {
        let mut q = VisitorQueue::new(QueueKind::Adversarial { seed: 11 });
        for i in 0..50u32 {
            q.push(0, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_ne!(got, (0..50).collect::<Vec<_>>(), "should not be FIFO order");
    }

    #[test]
    fn bounded_sampling_is_unbiased_over_small_ranges() {
        // Regression for the modulo-bias bugfix: over a range that does
        // not divide 2^64, index frequencies from the rejection sampler
        // must stay near-uniform. The biased `% n` version skews low
        // indices measurably for adversarially chosen n; here we check a
        // chi-square-ish tolerance over many draws.
        let mut q: VisitorQueue<u32> = VisitorQueue::new(QueueKind::Adversarial { seed: 42 });
        let n = 6u64;
        let draws = 60_000;
        let mut counts = [0u64; 6];
        for _ in 0..draws {
            counts[q.bounded_rand(n) as usize] += 1;
        }
        let expect = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = c.abs_diff(expect);
            assert!(
                dev < expect / 10,
                "index {i}: count {c} deviates from uniform {expect} by more than 10%"
            );
        }
    }

    #[test]
    fn bounded_sampling_stays_in_range_and_deterministic() {
        let sample = |seed: u64| {
            let mut q: VisitorQueue<u32> = VisitorQueue::new(QueueKind::Adversarial { seed });
            (1..100u64).map(|n| q.bounded_rand(n)).collect::<Vec<_>>()
        };
        let a = sample(9);
        for (i, &x) in a.iter().enumerate() {
            assert!(x < (i + 1) as u64);
        }
        assert_eq!(a, sample(9), "rejection sampling must stay seed-stable");
    }
}
