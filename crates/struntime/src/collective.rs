//! Collective operations: barrier-synchronized all-reduce, broadcast and
//! all-to-all exchange.
//!
//! These mirror the `MPI_Allreduce(MPI_MIN)` collectives the paper's
//! Alg 5 uses for global min-distance-edge identification and edge
//! pruning, the per-round slot reductions of the distributed Borůvka
//! MST, and the `MPI_Alltoallv` halo exchange of the local min-edge
//! phase. The paper's §V-F chunked variant is
//! deliberately absent: chunking bounds only the shared slot, never the
//! rank-local buffer, so it never lowered peak memory (Fig 8); Borůvka's
//! `O(#components)` slots do.
//!
//! Every collective must be called by **all** ranks of a world in the same
//! program order, like their MPI counterparts. The reduction buffer is a
//! single shared slot: rank 0 seeds it with its local vector, the other
//! ranks fold theirs in **strictly in rank order** (the slot carries a
//! turn counter; each rank spins until it is up), and everyone copies the
//! result back out. Rank-ordered folds make the result of
//! non-commutative or non-associative combiners schedule-independent —
//! with arrival-order folds, two runs under different schedules could
//! reduce floating-point sums or other non-associative operators in
//! different orders. Lockstep is audited: a rank joining with the wrong
//! element type (i.e. the ranks' collective sequences diverged) gets a
//! structured panic naming the seeding op and both types, instead of a
//! bare downcast failure, and a non-root rank supplying a broadcast value
//! gets the same treatment.

use crate::perturb::SyncPoint;
use crate::shared::CollectiveSlot;
use crate::wire::{decode_batch, encode_batch};
use crate::{Comm, Wire};
use std::sync::atomic::Ordering;

/// Diagnoses a `None` slot where the protocol guarantees `Some`.
fn missing_slot(rank: usize, op: &str, stage: &str) -> ! {
    panic!(
        "collective lockstep violation: rank {rank} reached the {stage} stage of \
         {op} but the exchange slot is empty (ranks must call collectives in \
         identical program order)"
    )
}

/// Diagnoses a slot seeded by a different collective / element type.
fn type_mismatch(rank: usize, op: &str, expected: &str, slot: &CollectiveSlot) -> ! {
    panic!(
        "collective type mismatch: rank {rank} joined {op} with element type \
         `{expected}`, but the slot was seeded by {seeder} with `{found}` \
         (ranks must call collectives in identical program order with identical types)",
        seeder = slot.op,
        found = slot.type_name,
    )
}

impl Comm {
    /// In-place all-reduce: after the call, `data` on every rank holds the
    /// element-wise combination of all ranks' inputs. All ranks must pass
    /// equal-length slices.
    pub fn allreduce<T, F>(&self, data: &mut [T], combine: F)
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        let _span = self.trace_span("allreduce");
        self.counters().count_collective();
        let type_name = std::any::type_name::<T>();
        self.memory()
            .record("collective_buffer", std::mem::size_of_val(data));
        self.barrier();
        if self.rank() == 0 {
            self.pause(SyncPoint::CollectiveSlot);
            // The shared slot holds a full clone of the reduction buffer
            // for the duration of the exchange; charge it to rank 0 (its
            // thread allocates it) so Fig 8 accounting sees the copy.
            self.memory()
                .record("collective_slot", std::mem::size_of_val(data));
            *self.shared().collective_slot.lock() = Some(CollectiveSlot {
                value: Box::new(data.to_vec()),
                type_name,
                op: "allreduce",
                turn: 1,
            });
        }
        self.barrier();
        if self.rank() != 0 {
            self.pause(SyncPoint::CollectiveSlot);
            // Folds are serialized in rank order: the slot's turn counter
            // admits rank 1, then 2, ... so the reduction tree is the
            // same left-fold under every schedule, keeping
            // non-commutative / non-associative combiners deterministic.
            loop {
                let mut slot = self.shared().collective_slot.lock();
                let entry = match slot.as_mut() {
                    Some(e) => e,
                    None => missing_slot(self.rank(), "allreduce", "fold"),
                };
                if entry.turn != self.rank() {
                    drop(slot);
                    // A dead peer never takes its fold turn; the abort
                    // epoch is the only exit from this spin.
                    self.shared().poll_abort(self.rank());
                    std::thread::yield_now();
                    continue;
                }
                let acc = match entry.value.downcast_mut::<Vec<T>>() {
                    Some(acc) => acc,
                    None => type_mismatch(self.rank(), "allreduce", type_name, entry),
                };
                assert_eq!(
                    acc.len(),
                    data.len(),
                    "allreduce length mismatch across ranks"
                );
                for (a, b) in acc.iter_mut().zip(data.iter()) {
                    combine(a, b);
                }
                entry.turn += 1;
                break;
            }
        }
        self.barrier();
        {
            self.pause(SyncPoint::CollectiveSlot);
            let slot = self.shared().collective_slot.lock();
            let entry = match slot.as_ref() {
                Some(e) => e,
                None => missing_slot(self.rank(), "allreduce", "copy-out"),
            };
            let acc = match entry.value.downcast_ref::<Vec<T>>() {
                Some(acc) => acc,
                None => type_mismatch(self.rank(), "allreduce", type_name, entry),
            };
            data.clone_from_slice(acc);
        }
        self.barrier();
        if self.rank() == 0 {
            *self.shared().collective_slot.lock() = None;
            self.memory()
                .release("collective_slot", std::mem::size_of_val(data));
        }
        self.memory()
            .release("collective_buffer", std::mem::size_of_val(data));
    }

    /// Element-wise minimum all-reduce (`MPI_Allreduce(MPI_MIN)`).
    pub fn allreduce_min<T>(&self, data: &mut [T])
    where
        T: Clone + Ord + Send + 'static,
    {
        self.allreduce(data, |a, b| {
            if *b < *a {
                *a = b.clone();
            }
        });
    }

    /// Element-wise sum all-reduce over `u64`s.
    pub fn allreduce_sum(&self, data: &mut [u64]) {
        self.allreduce(data, |a, b| *a += *b);
    }

    /// All-to-all exchange (`MPI_Alltoallv`): `send[d]` goes to rank `d`,
    /// and `recv` is overwritten with what every rank sent this one,
    /// concatenated in source-rank order (each source's values in the
    /// order it sent them). Every rank must pass exactly `num_ranks`
    /// buckets; any of them may be empty, the own-rank one included.
    ///
    /// The remote buckets cross as flat [`Wire`] encodings, like a
    /// traversal's batches, and are charged to `phase`'s counters: one
    /// remote message per value, its encoded bytes, and one remote batch
    /// per non-empty remote bucket. The own-rank bucket is copied
    /// straight into `recv` and counts as local messages. The encodings
    /// are charged to the sender's `"collective_buffer"` label until the
    /// call returns.
    ///
    /// The exchange matrix is the shared collective slot, created by the
    /// first rank to deposit and cleared by the last to collect, between
    /// two barriers. A fault plan's delays apply to each non-empty remote
    /// bucket ([`crate::faults::FaultInjector::draw_delay`]). A rank
    /// joining with another element type, or while another collective
    /// holds the slot, gets the structured type mismatch panic; a dead
    /// peer unwinds the others out of either barrier.
    pub fn alltoallv<T>(&self, phase: &'static str, send: &[Vec<T>], recv: &mut Vec<T>)
    where
        T: Wire + Clone,
    {
        let (me, p) = (self.rank(), self.num_ranks());
        assert_eq!(send.len(), p, "alltoallv needs one bucket per rank");
        let _span = self.trace_span("alltoallv");
        self.counters().count_collective();
        let type_name = std::any::type_name::<T>();
        let stats = self.counters().phase(phase);
        let mut wire: Vec<Vec<u8>> = vec![Vec::new(); p];
        for (d, bucket) in send.iter().enumerate() {
            if d == me || bucket.is_empty() {
                continue;
            }
            let mut buf = Vec::with_capacity(bucket.iter().map(Wire::encoded_len).sum());
            encode_batch(bucket, &mut buf);
            stats
                .remote_msgs
                .fetch_add(bucket.len() as u64, Ordering::Relaxed);
            stats
                .remote_bytes
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            stats.remote_batches.fetch_add(1, Ordering::Relaxed);
            wire[d] = buf;
        }
        stats
            .local_msgs
            .fetch_add(send[me].len() as u64, Ordering::Relaxed);
        let counts: Vec<usize> = send.iter().map(Vec::len).collect();
        let bytes: usize = wire.iter().map(Vec::len).sum();
        self.memory().record("collective_buffer", bytes);

        // Deposit: row `d` of the matrix collects what every rank sends
        // to `d`, indexed by source, along with the value counts. Under a
        // fault plan each non-empty remote bucket may arrive late.
        self.barrier();
        if let Some(f) = &self.faults {
            for _ in wire.iter().filter(|buf| !buf.is_empty()) {
                if let Some(delay) = f.draw_delay() {
                    std::thread::sleep(delay);
                }
            }
        }
        {
            self.pause(SyncPoint::CollectiveSlot);
            let mut slot = self.shared().collective_slot.lock();
            let entry = slot.get_or_insert_with(|| CollectiveSlot {
                value: Box::new(vec![vec![(0usize, Vec::<u8>::new()); p]; p]),
                type_name,
                op: "alltoallv",
                turn: 0,
            });
            if entry.op != "alltoallv" || entry.type_name != type_name {
                type_mismatch(me, "alltoallv", type_name, entry);
            }
            let matrix = match entry.value.downcast_mut::<Vec<Vec<(usize, Vec<u8>)>>>() {
                Some(m) => m,
                None => type_mismatch(me, "alltoallv", type_name, entry),
            };
            for (d, buf) in wire.into_iter().enumerate() {
                if d != me {
                    matrix[d][me] = (counts[d], buf);
                }
            }
        }
        // Collect: each rank takes its row; the last one clears the slot,
        // so the next collective's entry barrier finds it empty. Every
        // rank has deposited, so the step polls no abort: a rank whose
        // peer dies after this barrier still completes the exchange.
        self.barrier();
        let row = {
            self.pause_past_last_barrier(SyncPoint::CollectiveSlot);
            let mut slot = self.shared().collective_slot.lock();
            let entry = match slot.as_mut() {
                Some(e) => e,
                None => missing_slot(me, "alltoallv", "collect"),
            };
            let row = match entry.value.downcast_mut::<Vec<Vec<(usize, Vec<u8>)>>>() {
                Some(m) => std::mem::take(&mut m[me]),
                None => type_mismatch(me, "alltoallv", type_name, entry),
            };
            entry.turn += 1;
            if entry.turn == p {
                *slot = None;
            }
            row
        };
        recv.clear();
        for (src, (count, buf)) in row.into_iter().enumerate() {
            if src == me {
                recv.extend_from_slice(&send[me]);
            } else if count > 0 {
                let batch = decode_batch::<T>(&buf, count)
                    .unwrap_or_else(|| panic!("alltoallv: corrupt batch from rank {src}"));
                recv.extend(batch);
            }
        }
        self.memory().release("collective_buffer", bytes);
    }

    /// Broadcast: `root` supplies `Some(value)`, every other rank passes
    /// `None`; all ranks return the root's value.
    pub fn broadcast<T>(&self, root: usize, value: Option<T>) -> T
    where
        T: Clone + Send + 'static,
    {
        assert!(root < self.num_ranks());
        // A non-root rank supplying a value means the ranks' collective
        // sequences diverged (or a caller misunderstands the contract);
        // in release builds the value used to be silently discarded.
        // Diagnose it like the other lockstep violations — and *before*
        // the first barrier, so the panic cannot strand other ranks any
        // earlier than the protocol itself would.
        if self.rank() != root && value.is_some() {
            panic!(
                "collective lockstep violation: rank {rank} passed Some to \
                 broadcast(root={root}) — only the root supplies a value \
                 (ranks must call collectives in identical program order)",
                rank = self.rank(),
            );
        }
        let _span = self.trace_span("broadcast");
        self.counters().count_collective();
        let type_name = std::any::type_name::<T>();
        self.barrier();
        if self.rank() == root {
            let value = match value {
                Some(v) => v,
                None => panic!("broadcast root {root} passed None; the root must supply the value"),
            };
            self.pause(SyncPoint::CollectiveSlot);
            // The slot owns the root's value until teardown; charge the
            // root for it (shallow size — the generic layer cannot see
            // heap payloads behind `T`).
            self.memory()
                .record("collective_slot", std::mem::size_of::<T>());
            *self.shared().collective_slot.lock() = Some(CollectiveSlot {
                value: Box::new(value),
                type_name,
                op: "broadcast",
                turn: 0,
            });
        }
        self.barrier();
        let out = {
            self.pause(SyncPoint::CollectiveSlot);
            let slot = self.shared().collective_slot.lock();
            let entry = match slot.as_ref() {
                Some(e) => e,
                None => missing_slot(self.rank(), "broadcast", "copy-out"),
            };
            match entry.value.downcast_ref::<T>() {
                Some(v) => v.clone(),
                None => type_mismatch(self.rank(), "broadcast", type_name, entry),
            }
        };
        self.barrier();
        if self.rank() == root {
            *self.shared().collective_slot.lock() = None;
            self.memory()
                .release("collective_slot", std::mem::size_of::<T>());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{stress_schedules, FailureReason, World, WorldConfig};

    /// The values rank `src` sends rank `dst` in exchange `round`: zero,
    /// one or two of them, so some buckets (own-rank ones included) are
    /// empty.
    fn bucket(round: u64, src: usize, dst: usize) -> Vec<u64> {
        let len = (src + dst + round as usize) % 3;
        (0..len as u64)
            .map(|i| round * 1000 + src as u64 * 100 + dst as u64 * 10 + i)
            .collect()
    }

    #[test]
    fn allreduce_folds_in_rank_order_under_perturbed_schedules() {
        let p = 4usize;
        // Deliberately non-commutative, non-associative combiner: the
        // result is a base-31 positional encoding of the exact fold
        // order, so any schedule-dependent ordering changes the value.
        let runs = stress_schedules(p, [1u64, 42, 4096, 31337], |comm| {
            let mut data = [comm.rank() as u64 + 1];
            comm.allreduce(&mut data, |a, b| *a = 31 * *a + *b);
            data[0]
        });
        let mut expected = 1u64; // rank 0 seeds the slot
        for r in 1..p as u64 {
            expected = 31 * expected + (r + 1);
        }
        for (seed, out) in &runs {
            for (rank, v) in out.results.iter().enumerate() {
                assert_eq!(
                    *v, expected,
                    "seed {seed} rank {rank}: fold order drifted from rank order"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "collective lockstep violation")]
    fn non_root_some_is_a_lockstep_panic() {
        // Rank 1 wrongly supplies a value: its lockstep check fires before
        // the first barrier, the abort epoch unwinds the root out of that
        // barrier, and the world re-raises rank 1's panic.
        World::run(2, |comm| comm.broadcast(0, Some(7u32)));
    }

    #[test]
    fn alltoallv_delivers_in_source_rank_order_under_perturbed_schedules() {
        let p = 4usize;
        let runs = stress_schedules(p, [1u64, 42, 4096, 31337], |comm| {
            let me = comm.rank();
            let mut recv = vec![7u64]; // stale contents are overwritten
            let mut got = Vec::new();
            // Back-to-back exchanges, then an allreduce, then another
            // exchange: the slot is reused and always left empty.
            for round in 0..3u64 {
                let send: Vec<Vec<u64>> = (0..p).map(|d| bucket(round, me, d)).collect();
                comm.alltoallv("exchange", &send, &mut recv);
                got.push(recv.clone());
                if round == 1 {
                    let mut x = [me as u64];
                    comm.allreduce_sum(&mut x);
                }
            }
            let live = comm.memory().current("collective_buffer");
            let stats = comm.counters().snapshot()["exchange"];
            (got, live, stats)
        });
        for (seed, out) in &runs {
            for (me, (got, live, stats)) in out.results.iter().enumerate() {
                for (round, recv) in got.iter().enumerate() {
                    let want: Vec<u64> = (0..p)
                        .flat_map(|src| bucket(round as u64, src, me))
                        .collect();
                    assert_eq!(recv, &want, "seed {seed} rank {me} round {round}");
                }
                assert_eq!(*live, 0, "seed {seed} rank {me}: buffer label released");
                let sent = |remote: bool| {
                    (0..3u64)
                        .flat_map(|r| (0..p).map(move |d| (r, d)))
                        .filter(|&(_, d)| (d != me) == remote)
                        .map(|(r, d)| bucket(r, me, d).len() as u64)
                        .collect::<Vec<_>>()
                };
                let remote: u64 = sent(true).iter().sum();
                assert_eq!(stats.remote_msgs, remote, "seed {seed} rank {me}");
                assert_eq!(stats.remote_bytes, 8 * remote, "seed {seed} rank {me}");
                let batches = sent(true).iter().filter(|&&n| n > 0).count() as u64;
                assert_eq!(stats.remote_batches, batches, "seed {seed} rank {me}");
                assert_eq!(stats.local_msgs, sent(false).iter().sum::<u64>());
            }
            for report in &out.reports {
                assert!(report.peak_memory_by_label["collective_buffer"] > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "collective type mismatch")]
    fn alltoallv_type_mismatch_is_a_lockstep_panic() {
        // The rank that deposits second finds the slot created with the
        // other element type; the first unwinds out of the next barrier.
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let mut recv = Vec::new();
                comm.alltoallv("exchange", &[vec![1u32], vec![2u32]], &mut recv);
            } else {
                let mut recv = Vec::new();
                comm.alltoallv("exchange", &[vec![1u64], vec![2u64]], &mut recv);
            }
        });
    }

    #[test]
    fn a_rank_dead_before_alltoallv_unwinds_its_peers() {
        let err = World::try_run_config(3, WorldConfig::default(), |comm| {
            if comm.rank() == 1 {
                panic!("died before the exchange");
            }
            let send = vec![vec![comm.rank() as u32]; 3];
            let mut recv = Vec::new();
            comm.alltoallv("exchange", &send, &mut recv);
        })
        .expect_err("a dead rank must fail the world");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].rank, 1);
        assert!(
            matches!(&err.failures[0].reason, FailureReason::Panic(m) if m.contains("died")),
            "{err}"
        );
        assert_eq!(err.aborted_ranks, 2, "both survivors unwind cooperatively");
    }

    #[test]
    fn alltoallv_buckets_may_arrive_late_but_arrive_intact() {
        // The exchange draws only delays, whatever else the plan asks
        // for: nothing is dropped or duplicated.
        let plan = crate::FaultPlan::from_spec("drop=0.5,delay=0.5,delay_us=50,seed=3").unwrap();
        let config = WorldConfig {
            faults: Some(plan),
            ..WorldConfig::default()
        };
        let p = 3usize;
        let out = World::run_config(p, config, |comm| {
            let me = comm.rank();
            let mut got = Vec::new();
            for round in 0..8u64 {
                let send: Vec<Vec<u64>> = (0..p).map(|d| bucket(round, me, d)).collect();
                let mut recv = Vec::new();
                comm.alltoallv("exchange", &send, &mut recv);
                got.push(recv);
            }
            got
        });
        for (me, got) in out.results.iter().enumerate() {
            for (round, recv) in got.iter().enumerate() {
                let want: Vec<u64> = (0..p)
                    .flat_map(|src| bucket(round as u64, src, me))
                    .collect();
                assert_eq!(recv, &want, "rank {me} round {round}");
            }
        }
        assert!(out.fault_stats.delays > 0, "{:?}", out.fault_stats);
        assert_eq!(out.fault_stats.drops + out.fault_stats.dups, 0);
    }
}
