//! Local visitor queues: FIFO, priority, and adversarial disciplines.
//!
//! This is the paper's headline optimization knob (§IV, §V-C): HavoqGT's
//! default message queue is FIFO; the authors replace it with a priority
//! queue that "gives precedence to a message from a vertex at a lower
//! distance", approximating Dijkstra's settle order inside the asynchronous
//! Bellman-Ford kernel. Ties are broken by arrival order so the priority
//! queue degrades gracefully to FIFO on uniform priorities.
//!
//! The priority discipline is a cyclic ring of buckets, one per key (the
//! bucket structure of Meyer and Sanders' Δ-stepping, cf. *Engineering
//! Massively Parallel MST Algorithms*, arXiv:2302.12199). Pushes are O(1) with no heap sift;
//! pops drain the lowest non-empty bucket in arrival order, which is
//! exactly the `(prio, seq)` order of a binary heap. Callers choose the
//! bucket width by the keys they push: the Voronoi kernel pushes
//! `dist / Δ` with a Δ derived from the graph (`steiner::voronoi`).
//!
//! No bucket allocates. Every queued value lives in one arena of
//! fixed-size chunks, and every entry's list link in one `u32` array
//! beside it; a ring slot is the `(head, tail)` pair of `u32` arena
//! indices of its bucket's FIFO list, and a popped entry joins a free
//! list that the next push reuses. The arena therefore never outgrows the
//! peak queue length, and growing or coarsening the ring re-links list
//! ends without moving an entry.
//!
//! The ring holds at most 2^16 buckets (`MAX_BUCKET_WINDOW`). When the live
//! keys spread wider than that, the queue *coarsens*: it shifts every key
//! right by one more bit and re-places the queued entries, so any `u64`
//! key is accepted. From then on pops come in non-decreasing coarsened-key
//! order, arrival order within a coarse bucket; the entries already queued
//! keep their relative order.
//!
//! ## Stale-entry filtering
//!
//! The priority discipline emulates decrease-key in three steps. A visit
//! callback can resolve a relaxation by a comparison of its own and never
//! push it ([`crate::Pusher::prune`]); the Voronoi kernel admits a local
//! push by that same comparison. The traversal driver turns the visitors
//! that arrive from other ranks into queue entries, or into nothing,
//! before they are queued (admission, `crate::traversal`, "Queued entries
//! and stale-entry filtering"), so a relaxation that does not beat its
//! target's label never costs a queue push either way.
//! Pushes still never remove the entries a later improvement supersedes,
//! so [`VisitorQueue::pop_stale_filtered`] applies a caller-supplied
//! staleness predicate at pop and drops those before they reach the visit
//! callback — the delta-stepping trick of skipping a vertex whose label
//! was settled since it was queued, generalized to a callback. FIFO and
//! adversarial queues ignore the filter on purpose: they are the
//! full-delivery baselines the Fig 5/6 experiments and the chaos matrix
//! compare against.

use crate::wire::DeepBytes;
use std::collections::VecDeque;

/// Which queue discipline a traversal uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// First-in first-out (HavoqGT's default).
    Fifo,
    /// Min-priority first (the paper's optimization): lower keys pop
    /// first, equal keys in arrival order. O(1) push and pop, stale
    /// filtering at inbound admission and at pop.
    Priority,
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
            QueueKind::Adversarial { .. } => "adversarial",
        }
    }

    /// Whether this discipline applies the stale-entry filter of
    /// [`VisitorQueue::pop_stale_filtered`]. True for the priority
    /// discipline, where dropping dominated entries is the decrease-key
    /// emulation; false for FIFO and adversarial, which stay
    /// full-delivery baselines.
    pub fn filters_stale(&self) -> bool {
        matches!(self, QueueKind::Priority)
    }
}

/// Most buckets the priority ring holds (the live key window, after
/// coarsening). Each bucket costs a `(head, tail)` pair even when empty,
/// so this bounds the ring's fixed part at 512 KiB; a wider key spread
/// coarsens the keys instead.
const MAX_BUCKET_WINDOW: u64 = 1 << 16;

/// End of an arena list: an empty bucket's head and tail, the last
/// entry's `next`.
const NIL: u32 = u32::MAX;

/// Entries per arena chunk (a power of two).
const CHUNK_BITS: u32 = 7;
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

/// The priority ring's entry store: queued values in fixed chunks of
/// [`CHUNK`] slots, addressed by one `u32` index, and each entry's `next`
/// index (the next entry of its bucket, or of the free list once popped)
/// in one array beside them. A push links its entry by writing its
/// bucket's old tail's `next`, so the links stay apart from the values: at
/// 4 B an entry they stay in cache, where a link inside a long-queued
/// value missed. The values grow a chunk at a time, and a chunk never
/// moves: a single doubling `Vec` of values holds its old and new buffers
/// at once on every growth, which kept web-1rank's peak RSS about 5 MiB
/// higher (EXPERIMENTS.md, "Lean local visitor path"). The links, 4 B
/// each, grow by doubling.
struct Arena<V> {
    chunks: Vec<Vec<Option<V>>>,
    /// `next[i]`: entry `i`'s successor in its bucket or the free list.
    /// Its length is the number of entries ever allocated.
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
}

impl<V> Arena<V> {
    fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    #[inline]
    fn value(&mut self, i: u32) -> &mut Option<V> {
        &mut self.chunks[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }

    /// Stores `value` as a list end (`next` = [`NIL`]), in a free entry
    /// if there is one, and returns its index.
    fn alloc(&mut self, value: V) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = std::mem::replace(&mut self.next[i as usize], NIL);
            *self.value(i) = Some(value);
            return i;
        }
        let i = match u32::try_from(self.next.len()) {
            Ok(i) if i != NIL => i,
            _ => panic!(
                "visitor queue overflow: the priority ring addresses at most \
                 {NIL} entries of `{ty}`, and all of them are queued",
                ty = std::any::type_name::<V>(),
            ),
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(Some(value)),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(Some(value));
                self.chunks.push(chunk);
            }
        }
        self.next.push(NIL);
        i
    }

    /// Takes the value out of entry `i` and frees the entry; returns the
    /// value and the entry's old `next`.
    fn release(&mut self, i: u32) -> (Option<V>, u32) {
        let next = std::mem::replace(&mut self.next[i as usize], self.free);
        self.free = i;
        (self.value(i).take(), next)
    }

    fn memory_bytes(&self) -> usize {
        self.chunks.len() * CHUNK * std::mem::size_of::<Option<V>>()
            + self.chunks.capacity() * std::mem::size_of::<Vec<Option<V>>>()
            + self.next.capacity() * std::mem::size_of::<u32>()
    }
}

/// A ring slot: the first and last arena index of one bucket's FIFO
/// list, both [`NIL`] when the bucket is empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// A local visitor queue with a runtime-selected discipline.
pub struct VisitorQueue<V> {
    kind: QueueKind,
    fifo: VecDeque<V>,
    bag: Vec<V>,
    /// Every entry of the priority ring, queued or free. A popped entry
    /// joins the free list and the next push reuses it, so the arena never
    /// outgrows the peak number of queued entries.
    arena: Arena<V>,
    /// Cyclic bucket ring of the priority discipline: the entries of
    /// absolute bucket id `b = prio >> shift` form the list in slot
    /// `b & (len - 1)`, `len` a power of two. The live window
    /// `[min_bucket, max_bucket]` never exceeds `len` buckets, so a slot
    /// holds at most one bucket id and an entry's bucket follows from its
    /// slot.
    buckets: Vec<Bucket>,
    /// Key coarsening: 0 (exact keys) until the live spread first exceeds
    /// [`MAX_BUCKET_WINDOW`], then one more bit per overflow.
    shift: u32,
    /// Cursor at (or below) the lowest non-empty absolute bucket id.
    min_bucket: u64,
    /// Highest absolute bucket id currently occupied.
    max_bucket: u64,
    /// Live entries across all buckets.
    bucket_items: usize,
    /// Running sum of queued elements' owned heap bytes (see
    /// [`DeepBytes`]) — keeps `memory_bytes` deep without O(n) scans.
    elem_heap_bytes: usize,
    rng_state: u64,
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
    /// Bytes one queued value takes in the priority ring's arena: the
    /// value slot and its bucket-list link. A value with a niche (a
    /// `NonZero` field, say) fills its `Option` slot without a tag.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Option<V>>() + std::mem::size_of::<u32>();

    /// An empty queue of the given discipline.
    pub fn new(kind: QueueKind) -> Self {
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
            bag: Vec::new(),
            arena: Arena::new(),
            buckets: Vec::new(),
            shift: 0,
            min_bucket: 0,
            max_bucket: 0,
            bucket_items: 0,
            elem_heap_bytes: 0,
            rng_state,
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

    /// The ring slot a new entry of key `prio` goes to. Widens the live
    /// window to cover it, first coarsening the keys while the window
    /// would exceed [`MAX_BUCKET_WINDOW`], then growing the ring if the
    /// window outgrew it.
    fn ring_slot(&mut self, prio: u64) -> usize {
        let b = prio >> self.shift;
        let (mut lo, mut hi) = if self.bucket_items == 0 {
            (b, b)
        } else {
            (self.min_bucket.min(b), self.max_bucket.max(b))
        };
        let mut coarsen = 0;
        while hi - lo >= MAX_BUCKET_WINDOW {
            lo >>= 1;
            hi >>= 1;
            coarsen += 1;
        }
        if coarsen > 0 || hi - lo >= self.buckets.len() as u64 {
            self.rebuild_ring(hi - lo + 1, coarsen);
        }
        self.min_bucket = lo;
        self.max_bucket = hi;
        ((b >> coarsen) & self.ring_mask()) as usize
    }

    fn ring_mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    /// Re-links every live bucket into a ring of at least `needed` slots
    /// under `coarsen` more bits of key shift. Old buckets move in
    /// ascending id order, so the queued entries keep their pop order; two
    /// buckets merged by coarsening queue the lower one's entries first.
    /// Only list ends move: no entry is copied.
    fn rebuild_ring(&mut self, needed: u64, coarsen: u32) {
        let cap = (needed as usize)
            .next_power_of_two()
            .max(self.buckets.len())
            .max(8);
        let mut fresh = vec![Bucket::EMPTY; cap];
        if self.bucket_items > 0 {
            let old_mask = self.ring_mask();
            for b in self.min_bucket..=self.max_bucket {
                let from = self.buckets[(b & old_mask) as usize];
                if from.head == NIL {
                    continue;
                }
                let to = &mut fresh[((b >> coarsen) & (cap as u64 - 1)) as usize];
                if to.head == NIL {
                    *to = from;
                } else {
                    self.arena.next[to.tail as usize] = from.head;
                    to.tail = from.tail;
                }
            }
        }
        self.buckets = fresh;
        self.shift += coarsen;
    }

    /// Appends `value` to the list of ring slot `slot`.
    fn link(&mut self, slot: usize, value: V) {
        let i = self.arena.alloc(value);
        let bucket = &mut self.buckets[slot];
        if bucket.tail == NIL {
            bucket.head = i;
        } else {
            self.arena.next[bucket.tail as usize] = i;
        }
        bucket.tail = i;
        self.bucket_items += 1;
    }

    /// Unlinks the oldest entry of the lowest non-empty bucket and frees
    /// its arena entry, or `None` when the ring is empty.
    fn unlink_min(&mut self) -> Option<V> {
        if self.bucket_items == 0 {
            return None;
        }
        let mask = self.ring_mask();
        // Bounded: `bucket_items > 0` guarantees a non-empty slot inside
        // the live window.
        let slot = loop {
            let slot = (self.min_bucket & mask) as usize;
            if self.buckets[slot].head != NIL {
                break slot;
            }
            self.min_bucket += 1;
        };
        let bucket = &mut self.buckets[slot];
        let (value, next) = self.arena.release(bucket.head);
        bucket.head = next;
        if next == NIL {
            bucket.tail = NIL;
        }
        self.bucket_items -= 1;
        value
    }
}

impl<V: DeepBytes> VisitorQueue<V> {
    /// Enqueues `value`; `prio` is used only by the priority discipline.
    pub fn push(&mut self, prio: u64, value: V) {
        self.elem_heap_bytes += value.heap_bytes();
        match self.kind {
            QueueKind::Fifo => self.fifo.push_back(value),
            QueueKind::Priority => {
                let slot = self.ring_slot(prio);
                self.link(slot, value);
            }
            QueueKind::Adversarial { .. } => self.bag.push(value),
        }
    }

    /// Dequeues the next visitor, or `None` when empty.
    pub fn pop(&mut self) -> Option<V> {
        let popped = match self.kind {
            QueueKind::Fifo => self.fifo.pop_front(),
            QueueKind::Priority => self.unlink_min(),
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
    /// (if any) and how many entries were dropped. Only the priority
    /// discipline filters (see [`QueueKind::filters_stale`]) — for FIFO
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
                self.arena.memory_bytes() + self.buckets.capacity() * std::mem::size_of::<Bucket>()
            }
            QueueKind::Adversarial { .. } => self.bag.capacity() * std::mem::size_of::<V>(),
        };
        buffers + self.elem_heap_bytes
    }
}

impl<V> VisitorQueue<V> {
    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued visitors.
    pub fn len(&self) -> usize {
        match self.kind {
            QueueKind::Fifo => self.fifo.len(),
            QueueKind::Priority => self.bucket_items,
            QueueKind::Adversarial { .. } => self.bag.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut VisitorQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).collect()
    }

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
        for v in 0..50u32 {
            q.push(3, v);
        }
        assert_eq!(drain(&mut q), (0..50).collect::<Vec<_>>());
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
    fn backward_pushes_pop_first() {
        // Remote messages can arrive with priorities *below* the current
        // cursor; the ring must accept them and serve them first.
        let mut q = VisitorQueue::new(QueueKind::Priority);
        q.push(40, 1);
        q.push(41, 2);
        assert_eq!(q.pop(), Some(1));
        q.push(3, 3); // far below the cursor
        q.push(100, 4);
        assert_eq!(drain(&mut q), vec![3, 2, 4]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_grows_past_initial_capacity() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        // 1000 distinct buckets force several ring growths.
        for p in (0..1000u64).rev() {
            q.push(p, p as u32);
        }
        assert_eq!(q.len(), 1000);
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(drain(&mut q), expect, "growth must preserve bucket order");
    }

    #[test]
    fn extreme_key_spread_coarsens_instead_of_panicking() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        q.push(1 << 40, 1u32);
        q.push(0, 0u32);
        assert_eq!(drain(&mut q), vec![0, 1]);
        assert!(q.is_empty());
        let ring = MAX_BUCKET_WINDOW as usize * std::mem::size_of::<Bucket>();
        let chunk = CHUNK * VisitorQueue::<u32>::ENTRY_BYTES;
        assert!(
            q.memory_bytes() <= ring + chunk + 1024,
            "the ring stays bounded"
        );
    }

    #[test]
    fn coarsening_keeps_queued_order_and_is_fifo_within_a_bucket() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        q.push(5, 5u32);
        q.push(3, 3);
        // Forces 25 bits of coarsening: 3, 5 and 4 then share bucket 0.
        q.push(1 << 40, 40);
        q.push(4, 4);
        assert_eq!(drain(&mut q), vec![3, 5, 4, 40]);
    }

    #[test]
    fn stale_filter_drops_dominated_entries() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        for v in [10u32, 3, 7, 1, 8] {
            q.push(v as u64, v);
        }
        // Everything above 5 is "dominated".
        let (got, dropped) = q.pop_stale_filtered(|&v| v > 5);
        assert_eq!(got, Some(1));
        assert_eq!(dropped, 0, "1 pops first, nothing stale yet");
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
        assert_eq!(survivors, vec![3]);
        assert_eq!(total_dropped, 3, "7, 8, 10 dropped unvisited");
        assert!(q.is_empty());
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
            QueueKind::Adversarial { seed: 1 },
        ] {
            let mut q: VisitorQueue<Vec<u64>> = VisitorQueue::new(kind);
            q.push(0, vec![0; 1000]);
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
        // The ring's slots count even while the buckets are empty: a key
        // spread of 100 grows the ring to 128 slots. The arena's first
        // chunk stays allocated for reuse.
        let mut q: VisitorQueue<Vec<u64>> = VisitorQueue::new(QueueKind::Priority);
        q.push(0, vec![]);
        q.push(100, vec![]);
        let slots = 128 * std::mem::size_of::<Bucket>();
        let entries = CHUNK * std::mem::size_of::<Option<Vec<u64>>>();
        assert!(q.memory_bytes() >= slots + entries);
        q.pop();
        q.pop();
        assert!(
            q.memory_bytes() >= slots + entries,
            "popping keeps the ring"
        );
    }

    #[test]
    fn steady_push_pop_reuses_arena_entries() {
        let mut q = VisitorQueue::new(QueueKind::Priority);
        let mut peak_live = 0;
        let mut key = 0u64;
        // A sliding window of 1 to 40 live entries, keys rising like a
        // Dijkstra frontier and now and then far ahead of it.
        for round in 0..2000u64 {
            for _ in 0..(round % 4) {
                key += 1;
                q.push(key + (round % 7) * 300, key as u32);
            }
            peak_live = peak_live.max(q.len());
            if q.len() > 40 || round % 3 == 0 {
                q.pop();
            }
            assert!(
                q.arena.next.len() <= peak_live,
                "round {round}: arena {} past peak live {peak_live}",
                q.arena.next.len()
            );
        }
        drain(&mut q);
        assert_eq!(q.arena.next.len(), peak_live, "every entry was once live");
    }
}

#[cfg(test)]
mod priority_model_tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bucket ring against a reference
        /// `BinaryHeap<Reverse<(prio, seq)>>` over random push/pop
        /// interleavings: identical pop order (ties included), identical
        /// `len` and `is_empty`, and the same drop count from
        /// `pop_stale_filtered` as a reference filter. Narrow keys make
        /// ties and pushes below the cursor; wide ones grow the ring
        /// several times. Each value is its push's sequence number, so a
        /// pop names exactly which push it returned.
        #[test]
        fn priority_queue_matches_reference_heap(
            ops in proptest::collection::vec(
                (0u8..6, prop_oneof![0u64..6, 0u64..5000]),
                0..600,
            ),
        ) {
            let mut q = VisitorQueue::new(QueueKind::Priority);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let unwrap = |e: Option<Reverse<(u64, u64)>>| e.map(|Reverse((_, s))| s);
            for (op, prio) in ops {
                match op {
                    // Pushes outnumber pops, so the live window keeps
                    // widening past the ring while pops move the cursor.
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
