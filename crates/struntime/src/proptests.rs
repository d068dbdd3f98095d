//! Property-based tests of the runtime: collectives against sequential
//! folds, and traversal termination/message accounting on arbitrary
//! forwarding workloads.

use crate::{run_traversal, Comm, QueueKind, World};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// allreduce_min equals the sequential element-wise minimum.
    #[test]
    fn allreduce_min_matches_fold(
        p in 1usize..6,
        len in 0usize..40,
        base in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        // Rank r's vector is a deterministic transform of `base`.
        let data = |r: usize, len: usize| -> Vec<u64> {
            (0..len).map(|i| {
                let b = base.get(i % base.len().max(1)).copied().unwrap_or(7);
                b.wrapping_mul(r as u64 + 1).wrapping_add(i as u64) % 1009
            }).collect()
        };
        let expect: Vec<u64> = (0..len)
            .map(|i| (0..p).map(|r| data(r, len)[i]).min().unwrap())
            .collect();
        let out = World::run(p, |comm: &mut Comm| {
            let mut v = data(comm.rank(), len);
            comm.allreduce_min(&mut v);
            v
        });
        for r in &out.results {
            prop_assert_eq!(r, &expect);
        }
    }

    /// Sum all-reduce counts every rank's contribution exactly once.
    #[test]
    fn allreduce_sum_is_exact(p in 1usize..7, x in 0u64..10_000) {
        let out = World::run(p, |comm: &mut Comm| {
            let mut v = vec![x + comm.rank() as u64];
            comm.allreduce_sum(&mut v);
            v[0]
        });
        let expect = (0..p as u64).map(|r| x + r).sum::<u64>();
        for &r in &out.results {
            prop_assert_eq!(r, expect);
        }
    }

    /// An arbitrary forwarding workload terminates under every queue
    /// discipline and processes exactly the expected number of visitors.
    ///
    /// The workload is a random forwarding table: node `i` forwards to
    /// nodes with indices `> i` on pseudo-random ranks, so the message
    /// graph is a DAG and the exact visitor count is computable.
    #[test]
    fn traversal_processes_exact_message_count(
        p in 1usize..5,
        // children[i] = forwarding offsets (target = i + 1 + offset).
        children in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..4), 1..24),
        adversary in 0u64..3,
    ) {
        let n = children.len();
        // Expected visitor count: messages, counted with multiplicity.
        let mut count = vec![0u64; n + 6];
        for i in (0..n).rev() {
            count[i] = 1 + children[i]
                .iter()
                .map(|&off| {
                    let t = i + 1 + off;
                    if t < n { count[t] } else { 1 }
                })
                .sum::<u64>();
        }
        let expect = count[0];

        let queues = [
            QueueKind::Fifo,
            QueueKind::Priority,
            QueueKind::Adversarial { seed: adversary + 1 },
        ];
        for kind in queues {
            let children = &children;
            let out = World::run(p, |comm: &mut Comm| {
                let chan = comm.open_channels::<Vec<usize>>("work");
                let init = if comm.rank() == 0 { vec![0usize] } else { vec![] };
                let mut processed = 0u64;
                run_traversal(comm, &chan, kind, |&i| i as u64, init, |i, pusher| {
                    processed += 1;
                    if i < children.len() {
                        for (c, &off) in children[i].iter().enumerate() {
                            let target = i + 1 + off;
                            let dest = (i * 7 + c * 3 + off) % p;
                            pusher.push(dest, target);
                        }
                    }
                });
                processed
            });
            prop_assert_eq!(
                out.results.iter().sum::<u64>(),
                expect,
                "queue {:?}",
                kind
            );
        }
    }
}
