//! Mutation test: the analyzer must pass a clean fixture workspace and
//! then catch a seeded violation of *each* rule family. This is the
//! guard against a refactor silently lobotomizing a rule — every rule
//! must prove it still bites.

use stlint::{
    analyze, Finding, RULE_CATCH_UNWIND_JUSTIFY, RULE_LOCKSTEP, RULE_LOCK_ORDER, RULE_NONDET_ITER,
    RULE_SEND_AFTER_QUIESCENCE, RULE_TRACE_DUP, RULE_UNCHARGED_SEND, RULE_UNJUSTIFIED_ALLOW,
    RULE_UNSAFE_SAFETY, RULE_WALLCLOCK,
};

/// A small clean workspace: solver crate + channel layer, every rule
/// satisfied.
fn clean_fixture() -> Vec<(String, String)> {
    vec![
        (
            "crates/steiner/src/lib.rs".to_string(),
            "use std::collections::BTreeMap;\n\
             pub fn solve(comm: &Comm, dist: &BTreeMap<u32, u64>) -> u64 {\n\
                 let mut total = 0u64;\n\
                 for (_, d) in dist.iter() {\n\
                     total += d;\n\
                 }\n\
                 let _span = comm.trace_span(\"solve\");\n\
                 comm.barrier();\n\
                 if comm.rank() == 0 {\n\
                     comm.broadcast(0, Some(total));\n\
                 } else {\n\
                     comm.broadcast(0, None);\n\
                 }\n\
                 total\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/struntime/src/channels.rs".to_string(),
            "pub struct Group { pending: u64 }\n\
             impl Group {\n\
                 fn charge(&self, _dest: usize, _msgs: u64) {}\n\
                 pub fn send(&self, dest: usize, msg: u64) {\n\
                     self.charge(dest, 1);\n\
                     self.ship(dest, msg);\n\
                 }\n\
                 fn ship(&self, _dest: usize, _msg: u64) {}\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/struntime/src/audit.rs".to_string(),
            "pub fn finish(comm: &Comm, audit: &Audit) {\n\
                 comm.barrier();\n\
                 audit.verify_quiescence(0, 0, 0, 0, 0);\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/struntime/src/shared.rs".to_string(),
            "pub fn tick(s: &Shared) {\n\
                 let mut q = s.queue.lock();\n\
                 q.push(1);\n\
                 drop(q);\n\
                 let mut l = s.ledger.lock();\n\
                 l.bump();\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/struntime/src/trace.rs".to_string(),
            "// SAFETY: slots are written only by the owning rank thread.\n\
             unsafe impl Send for TraceBuffer {}\n\
             // SAFETY: readers only observe slots after the epoch fence.\n\
             unsafe impl Sync for TraceBuffer {}\n"
                .to_string(),
        ),
        (
            "crates/struntime/src/worker.rs".to_string(),
            "pub fn spawn_rank(f: impl FnOnce()) {\n\
                 // stlint: catch-unwind-justify — rank isolation: the payload\n\
                 // is classified into a RankFailure and the world aborts.\n\
                 let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));\n\
             }\n"
            .to_string(),
        ),
    ]
}

fn rules_found(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn clean_fixture_has_no_findings() {
    let a = analyze(&clean_fixture());
    assert!(
        a.findings.is_empty(),
        "clean fixture should pass, got: {:#?}",
        a.findings
    );
    // The unsafe surface is still inventoried even when documented.
    assert_eq!(a.unsafe_inventory.len(), 2);
    assert!(a.unsafe_inventory.iter().all(|u| u.documented));
}

/// Applies `mutate` to the clean fixture and asserts the analyzer reports
/// exactly the expected rule (and nothing else regresses).
fn assert_mutation_caught(expected_rule: &str, mutate: impl Fn(&mut Vec<(String, String)>)) {
    let mut files = clean_fixture();
    mutate(&mut files);
    let a = analyze(&files);
    let rules = rules_found(&a.findings);
    assert!(
        rules.contains(&expected_rule),
        "seeded {expected_rule} violation was not caught; findings: {:#?}",
        a.findings
    );
    assert_eq!(
        rules,
        vec![expected_rule],
        "seeding {expected_rule} should not trip other rules; findings: {:#?}",
        a.findings
    );
}

#[test]
fn seeded_nondet_iter_is_caught() {
    assert_mutation_caught(RULE_NONDET_ITER, |files| {
        files[0].1 = files[0]
            .1
            .replace(
                "use std::collections::BTreeMap;",
                "use std::collections::HashMap;",
            )
            .replace("BTreeMap<u32, u64>", "HashMap<u32, u64>");
    });
}

#[test]
fn seeded_wallclock_is_caught() {
    assert_mutation_caught(RULE_WALLCLOCK, |files| {
        files[0].1 = files[0].1.replace(
            "let mut total = 0u64;",
            "let start = Instant::now();\nlet mut total = 0u64;",
        );
    });
}

#[test]
fn seeded_lockstep_imbalance_is_caught() {
    assert_mutation_caught(RULE_LOCKSTEP, |files| {
        // Root now runs an extra collective the other ranks never reach.
        files[0].1 = files[0].1.replace(
            "comm.broadcast(0, Some(total));",
            "comm.broadcast(0, Some(total));\ncomm.barrier();",
        );
    });
}

#[test]
fn seeded_send_after_quiescence_is_caught() {
    assert_mutation_caught(RULE_SEND_AFTER_QUIESCENCE, |files| {
        files[2].1 = files[2].1.replace(
            "audit.verify_quiescence(0, 0, 0, 0, 0);",
            "audit.verify_quiescence(0, 0, 0, 0, 0);\ncomm.group().send(0, 1);",
        );
    });
}

#[test]
fn seeded_uncharged_send_is_caught() {
    assert_mutation_caught(RULE_UNCHARGED_SEND, |files| {
        files[1].1 = files[1].1.replace("self.charge(dest, 1);\n", "");
    });
}

#[test]
fn seeded_undocumented_unsafe_is_caught() {
    assert_mutation_caught(RULE_UNSAFE_SAFETY, |files| {
        files[4].1 = files[4].1.replace(
            "// SAFETY: readers only observe slots after the epoch fence.\n",
            "",
        );
    });
}

#[test]
fn seeded_unjustified_catch_unwind_is_caught() {
    assert_mutation_caught(RULE_CATCH_UNWIND_JUSTIFY, |files| {
        files[5].1 = files[5]
            .1
            .replace(
                "// stlint: catch-unwind-justify — rank isolation: the payload\n",
                "",
            )
            .replace(
                "// is classified into a RankFailure and the world aborts.\n",
                "",
            );
    });
}

#[test]
fn seeded_lock_order_cycle_is_caught() {
    assert_mutation_caught(RULE_LOCK_ORDER, |files| {
        // A second path takes the same two locks in the opposite order.
        files[3].1.push_str(
            "pub fn drain(s: &Shared) {\n\
                 let mut l = s.ledger.lock();\n\
                 let mut q = s.queue.lock();\n\
                 q.clear();\n\
                 l.clear();\n\
             }\n",
        );
        // And tick now holds queue while taking ledger.
        files[3].1 = files[3].1.replace("drop(q);\n", "");
    });
}

#[test]
fn seeded_unjustified_allow_is_caught() {
    assert_mutation_caught(RULE_UNJUSTIFIED_ALLOW, |files| {
        files[0].1 = files[0].1.replace(
            "for (_, d) in dist.iter() {",
            "for (_, d) in dist.iter() { // stcheck: allow(nondet-iter)",
        );
    });
}

#[test]
fn seeded_label_collision_is_caught() {
    assert_mutation_caught(RULE_TRACE_DUP, |files| {
        files[2].1 = files[2]
            .1
            .replace("comm.barrier();", "comm.trace_instant(\"solve\", 1);");
    });
}
