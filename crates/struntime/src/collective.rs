//! Collective operations: barrier-synchronized all-reduce and broadcast.
//!
//! These mirror the `MPI_Allreduce(MPI_MIN)` collectives the paper's
//! Alg 5 uses for global min-distance-edge identification and edge
//! pruning, and the per-round slot reductions of the distributed Borůvka
//! MST. The paper's §V-F chunked variant is deliberately absent: chunking
//! bounds only the shared slot, never the rank-local buffer, so it never
//! lowered peak memory (Fig 8); Borůvka's `O(#components)` slots do.
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
use crate::Comm;

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
    use crate::{stress_schedules, World};

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
}
