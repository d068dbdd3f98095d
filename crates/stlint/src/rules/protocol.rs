//! Protocol-safety rules.
//!
//! `collective-lockstep` — collectives (`barrier`/`allreduce`/`broadcast`)
//! must be executed by *all* ranks in identical program order. A collective
//! call inside a rank-conditional branch (`if rank == 0 { … }`) that the
//! other branch does not mirror deadlocks or type-mismatches the exchange
//! slot at runtime; this rule rejects the shape statically.
//!
//! `send-after-quiescence` — once a traversal's quiescence has been
//! verified (`verify_quiescence`), the counters for that epoch are closed;
//! any send reachable after it (directly or through the call graph) would
//! be attributed to a closed epoch and flagged by the audit as a phantom.
//!
//! `uncharged-send` — every public `send*` entry point of the channel
//! layer must route through the single `charge()` accounting hook
//! (directly or transitively); a send path that skips it silently
//! undercounts the paper's per-phase message statistics.
//!
//! `relaxed-quiescence` — the double-read termination protocol is only
//! sound under `SeqCst`: an atomic call on a quiescence field (`sent`,
//! `received`, `idle`, `done`, or anything reached through `quiescence`)
//! must not pass `Relaxed`. Applies in the runtime crate.
//!
//! `thread-spawn` — `thread::spawn`, `thread::scope` and
//! `thread::Builder` outside the runtime crate start threads the World
//! does not own: no counters, no audit ledger, no perturbers, no panic
//! propagation. All parallelism goes through the runtime, tests included.
//!
//! `plain-send-vec` — `send` on a channel group opened with a `Vec<_>`
//! payload routes batch traffic down the unsequenced control-plane path:
//! no sequence number, no retransmission, no wire-codec round trip, and a
//! shallow byte charge. Batches go through `send_batch`/
//! `send_batch_traced` instead.

use super::RUNTIME_SRC;
use crate::model::{CallSite, FileModel, Workspace};
use crate::{
    Finding, RULE_LOCKSTEP, RULE_PLAIN_SEND, RULE_RELAXED, RULE_SEND_AFTER_QUIESCENCE, RULE_SPAWN,
    RULE_UNCHARGED_SEND,
};

/// Receiver segments that name the termination-detection state.
const QUIESCENCE_FIELDS: &[&str] = &["quiescence", "sent", "received", "idle", "done"];

/// `std::thread` items that start threads outside the World.
const THREAD_ENTRIES: &[&str] = &["spawn", "scope", "Builder"];

/// Method names that are collective operations (prefix match: `allreduce`
/// also covers the `allreduce_min` / `allreduce_sum` wrappers).
fn collective_kind(name: &str) -> Option<&'static str> {
    for kind in ["barrier", "allreduce", "broadcast"] {
        if name == kind || name.starts_with(&format!("{kind}_")) {
            return Some(kind);
        }
    }
    None
}

/// Send primitives: the channel-layer methods that put traffic on a wire.
fn is_send_primitive(c: &CallSite) -> bool {
    c.is_method && matches!(c.name.as_str(), "send" | "send_batch" | "send_batch_traced")
}

pub fn run(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    // Workspace functions that transitively reach a send primitive /
    // the charge() accounting hook (both name-level closures).
    let senders = ws.closure_calling(&is_send_primitive);
    let chargers = ws.closure_calling(&|c: &CallSite| c.name == "charge");
    for fm in &ws.files {
        for f in &fm.functions {
            if f.is_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            lockstep(fm, body, findings);
            send_after_quiescence(fm, body, &senders, findings);
        }
        uncharged_send(fm, &chargers, findings);
        thread_spawn(fm, findings);
        let calls = fm.calls();
        relaxed_quiescence(fm, &calls, findings);
        plain_send_vec(fm, &calls, findings);
    }
}

/// Does this condition span look like a rank test? (`rank == 0`,
/// `self.rank() != root`, `is_root`, …)
fn rank_condition(fm: &FileModel<'_>, cond: (usize, usize)) -> bool {
    let mut mentions_rank = false;
    let mut compares = false;
    for i in cond.0..=cond.1 {
        let t = fm.tok(i);
        if t.is_ident("is_root") {
            return true;
        }
        if t.is_ident("rank") || t.is_ident("root") || t.is_ident("my_rank") {
            mentions_rank = true;
        }
        if t.is_punct("=") || t.is_punct("!") || t.is_punct("<") || t.is_punct(">") {
            compares = true;
        }
    }
    mentions_rank && compares
}

/// Counts collective calls per kind inside a code-token span.
fn collective_counts(fm: &FileModel<'_>, span: (usize, usize)) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for c in fm.calls_in(span) {
        if let Some(kind) = collective_kind(&c.name) {
            let idx = ["barrier", "allreduce", "broadcast"]
                .iter()
                .position(|k| *k == kind)
                .unwrap_or(0);
            counts[idx] += 1;
        }
    }
    counts
}

fn lockstep(fm: &FileModel<'_>, body: (usize, usize), findings: &mut Vec<Finding>) {
    let (lo, hi) = body;
    let mut i = lo;
    while i <= hi {
        if !fm.tok(i).is_ident("if") {
            i += 1;
            continue;
        }
        // Condition: tokens up to the block-opening `{` (Rust forbids bare
        // struct literals in `if` conditions, so the first `{` at paren
        // depth 0 opens the branch).
        let mut j = i + 1;
        let mut paren = 0i32;
        while j <= hi {
            let t = fm.tok(j);
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("{") && paren == 0 {
                break;
            }
            j += 1;
        }
        if j > hi || j == i + 1 {
            i += 1;
            continue;
        }
        let cond = (i + 1, j - 1);
        let Some(then_close) = fm.match_forward(j, "{", "}") else {
            i += 1;
            continue;
        };
        if !rank_condition(fm, cond) {
            i += 1;
            continue;
        }
        // Else branch: everything from `else` to the end of the chain.
        let else_span = if then_close < hi && fm.tok(then_close + 1).is_ident("else") {
            let start = then_close + 2;
            let mut end = start;
            let mut k = start;
            // Walk `else if … { } else …` chains to the final block.
            loop {
                // Find the next block opener from k.
                let mut paren = 0i32;
                let mut open = None;
                while k <= hi {
                    let t = fm.tok(k);
                    if t.is_punct("(") {
                        paren += 1;
                    } else if t.is_punct(")") {
                        paren -= 1;
                    } else if t.is_punct("{") && paren == 0 {
                        open = Some(k);
                        break;
                    }
                    k += 1;
                }
                let Some(open) = open else { break };
                let Some(close) = fm.match_forward(open, "{", "}") else {
                    break;
                };
                end = close;
                if close < hi && fm.tok(close + 1).is_ident("else") {
                    k = close + 2;
                } else {
                    break;
                }
            }
            Some((start, end))
        } else {
            None
        };

        let then_counts = collective_counts(fm, (j, then_close));
        let else_counts = else_span
            .map(|s| collective_counts(fm, s))
            .unwrap_or([0; 3]);
        if then_counts != else_counts {
            let line = fm.line_of(i);
            let describe = |c: [usize; 3]| {
                format!("{} barrier / {} allreduce / {} broadcast", c[0], c[1], c[2])
            };
            findings.push(Finding {
                rule: RULE_LOCKSTEP,
                path: fm.path.clone(),
                line,
                message: format!(
                    "collective calls are not phase-balanced across this \
                     rank-conditional: then-branch runs {}, {} runs {} — every \
                     rank must execute the same collective sequence or the \
                     exchange slot deadlocks",
                    describe(then_counts),
                    if else_span.is_some() {
                        "else-branch"
                    } else {
                        "missing else-branch"
                    },
                    describe(else_counts),
                ),
                snippet: fm.raw_line(line).trim().to_string(),
            });
        }
        // Skip past the whole if/else chain: nested and chained ifs were
        // already included in the branch counts above.
        i = else_span.map(|(_, end)| end).unwrap_or(then_close) + 1;
    }
}

fn send_after_quiescence(
    fm: &FileModel<'_>,
    body: (usize, usize),
    senders: &std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let calls = fm.calls_in(body);
    let Some(marker) = calls.iter().find(|c| c.name == "verify_quiescence") else {
        return;
    };
    for c in &calls {
        if c.pos <= marker.pos {
            continue;
        }
        let sends = is_send_primitive(c) || (!c.is_method && senders.contains(&c.name));
        if sends {
            findings.push(Finding {
                rule: RULE_SEND_AFTER_QUIESCENCE,
                path: fm.path.clone(),
                line: c.line,
                message: format!(
                    "`{}` (a send path) is reachable after verify_quiescence \
                     closed the epoch on line {}; post-quiescence traffic is \
                     attributed to a closed epoch and audited as a phantom",
                    c.name, marker.line
                ),
                snippet: fm.raw_line(c.line).trim().to_string(),
            });
        }
    }
}

/// Every public `send*` function in the channel layer must transitively
/// reach `charge(`.
fn uncharged_send(
    fm: &FileModel<'_>,
    chargers: &std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if !fm.path.starts_with(RUNTIME_SRC) {
        return;
    }
    for f in &fm.functions {
        if f.is_test || !f.is_pub || !f.name.starts_with("send") {
            continue;
        }
        let Some(body) = f.body else { continue };
        let calls = fm.calls_in(body);
        let reaches = calls
            .iter()
            .any(|c| c.name == "charge" || chargers.contains(&c.name));
        if !reaches {
            findings.push(Finding {
                rule: RULE_UNCHARGED_SEND,
                path: fm.path.clone(),
                line: f.line,
                message: format!(
                    "public send path `{}` never reaches the charge() \
                     accounting hook; its traffic is invisible to the \
                     per-phase message counters",
                    f.name
                ),
                snippet: fm.raw_line(f.line).trim().to_string(),
            });
        }
    }
}

/// Flags a `Relaxed` ordering passed to an atomic call whose receiver
/// chain holds a quiescence field. Fields match whole segments, so
/// `q.done_count` is an ordinary counter.
fn relaxed_quiescence(fm: &FileModel<'_>, calls: &[CallSite], findings: &mut Vec<Finding>) {
    if !fm.path.starts_with(RUNTIME_SRC) {
        return;
    }
    let mut last_line = 0;
    for i in 0..fm.code.len() {
        if !fm.tok(i).is_ident("Relaxed") {
            continue;
        }
        let Some(open) = enclosing_paren(fm, i) else {
            continue;
        };
        let on_quiescence = calls.iter().any(|c| {
            c.open == open
                && c.is_method
                && c.recv
                    .iter()
                    .any(|seg| QUIESCENCE_FIELDS.contains(&seg.as_str()))
        });
        let line = fm.line_of(i);
        if on_quiescence && line != last_line {
            last_line = line;
            findings.push(Finding {
                rule: RULE_RELAXED,
                path: fm.path.clone(),
                line,
                message: "Ordering::Relaxed on a quiescence field; the double-read \
                          termination protocol requires SeqCst"
                    .to_string(),
                snippet: fm.raw_line(line).trim().to_string(),
            });
        }
    }
}

/// The unclosed `(` before code index `i` within its statement, if any.
fn enclosing_paren(fm: &FileModel<'_>, i: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in (0..i).rev() {
        let t = fm.tok(j);
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            if depth == 0 {
                return Some(j);
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
            return None;
        }
    }
    None
}

/// Flags `thread::spawn` / `thread::scope` / `thread::Builder` paths, and
/// `use std::thread::{…}` groups that import one, outside the runtime.
fn thread_spawn(fm: &FileModel<'_>, findings: &mut Vec<Finding>) {
    if fm.path.starts_with(RUNTIME_SRC) {
        return;
    }
    let entry_at = |k: usize| THREAD_ENTRIES.iter().find(|e| fm.tok(k).is_ident(e));
    let mut last_line = 0;
    for i in 0..fm.code.len().saturating_sub(3) {
        if !(fm.tok(i).is_ident("thread")
            && fm.tok(i + 1).is_punct(":")
            && fm.tok(i + 2).is_punct(":"))
        {
            continue;
        }
        let entry = if fm.tok(i + 3).is_punct("{") {
            let close = fm.match_forward(i + 3, "{", "}").unwrap_or(i + 3);
            (i + 4..close).find_map(entry_at)
        } else {
            entry_at(i + 3)
        };
        let line = fm.line_of(i);
        let Some(entry) = entry.filter(|_| line != last_line) else {
            continue;
        };
        last_line = line;
        findings.push(Finding {
            rule: RULE_SPAWN,
            path: fm.path.clone(),
            line,
            message: format!(
                "raw thread::{entry} outside struntime; spawn ranks through \
                 World/PersistentWorld so counters, audit, and failure \
                 supervision stay wired"
            ),
            snippet: fm.raw_line(line).trim().to_string(),
        });
    }
}

/// Flags `NAME.send(…)` where `NAME` was bound by
/// `let [mut] NAME = … open_channels::<Vec<…>>(…)` in the same file's
/// non-test code.
fn plain_send_vec(fm: &FileModel<'_>, calls: &[CallSite], findings: &mut Vec<Finding>) {
    let groups: Vec<(&str, u32)> = calls
        .iter()
        // `open_channels :: < Vec …`: the turbofish's first type token.
        .filter(|c| c.name == "open_channels" && c.open > c.pos + 4)
        .filter(|c| fm.tok(c.pos + 4).is_ident("Vec") && !fm.is_test_at(c.pos))
        .filter_map(|c| let_binding(fm, c.pos).map(|name| (name, c.line)))
        .collect();
    for c in calls {
        if !c.is_method || c.name != "send" || fm.is_test_at(c.pos) {
            continue;
        }
        let Some(last) = c.recv.last() else { continue };
        let Some((name, bound_line)) = groups.iter().find(|(g, _)| g == last) else {
            continue;
        };
        findings.push(Finding {
            rule: RULE_PLAIN_SEND,
            path: fm.path.clone(),
            line: c.line,
            message: format!(
                "plain send on Vec-payload channel group `{name}` (opened on line \
                 {bound_line}); send is the unsequenced control-plane path — use \
                 send_batch/send_batch_traced so batches ride \
                 the sequenced reliable protocol with exact wire-byte accounting"
            ),
            snippet: fm.raw_line(c.line).trim().to_string(),
        });
    }
}

/// The name a `let [mut] NAME = …` statement binds, walking back from
/// code index `i` to the statement start.
fn let_binding<'a>(fm: &FileModel<'a>, i: usize) -> Option<&'a str> {
    for j in (0..i).rev() {
        let t = fm.tok(j);
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            let name = fm.tok(j + 1 + usize::from(fm.tok(j + 1).is_ident("mut")));
            return (name.kind == crate::lexer::TokKind::Ident).then_some(name.text);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{analyze_raw, rules_of};

    #[test]
    fn unbalanced_collective_in_rank_branch_is_flagged() {
        let src = "fn f(comm: &Comm) {\n\
                       if comm.rank() == 0 {\n\
                           comm.barrier();\n\
                       }\n\
                   }\n";
        let f = analyze_raw(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_LOCKSTEP]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn balanced_collectives_across_branches_are_fine() {
        let src = "fn f(comm: &Comm) {\n\
                       if comm.rank() == 0 {\n\
                           comm.broadcast(0, Some(v));\n\
                       } else {\n\
                           comm.broadcast(0, None);\n\
                       }\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn rank_branch_without_collectives_is_fine() {
        let src = "fn f(comm: &Comm) {\n\
                       if comm.rank() == 0 {\n\
                           seed_slot(comm);\n\
                       }\n\
                       comm.barrier();\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn non_rank_conditionals_are_ignored() {
        let src = "fn f(comm: &Comm, hot: bool) {\n\
                       if hot {\n\
                           comm.barrier();\n\
                       }\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn else_if_chain_counts_as_else_branch() {
        let src = "fn f(comm: &Comm) {\n\
                       if comm.rank() == 0 {\n\
                           comm.allreduce(&mut v, combine);\n\
                       } else if comm.rank() == 1 {\n\
                           comm.allreduce(&mut v, combine);\n\
                       } else {\n\
                           helper();\n\
                       }\n\
                   }\n";
        // then: 1 allreduce; else-chain total: 1 allreduce — balanced.
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn send_after_verify_quiescence_is_flagged() {
        let src = "fn f(comm: &Comm, g: &Group) {\n\
                       comm.audit().verify_quiescence(1, 2, 3, 4, 5);\n\
                       g.send(0, 7);\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_SEND_AFTER_QUIESCENCE]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn transitive_send_after_quiescence_is_flagged() {
        let src = "fn flush(g: &Group) { g.send_batch(0, vec![1]); }\n\
                   fn f(comm: &Comm) {\n\
                       comm.audit().verify_quiescence(1, 2, 3, 4, 5);\n\
                       flush(g);\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_SEND_AFTER_QUIESCENCE]);
    }

    #[test]
    fn send_before_verify_quiescence_is_fine() {
        let src = "fn f(comm: &Comm, g: &Group) {\n\
                       g.send(0, 7);\n\
                       comm.audit().verify_quiescence(1, 2, 3, 4, 5);\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn public_send_without_charge_is_flagged() {
        let src = "impl<T> Group<T> {\n\
                       pub fn send(&self, dest: usize, msg: T) {\n\
                           self.ship(dest, msg);\n\
                       }\n\
                       fn ship(&self, dest: usize, msg: T) {}\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/channels.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_UNCHARGED_SEND]);
    }

    #[test]
    fn send_reaching_charge_transitively_is_fine() {
        let src = "impl<T> Group<T> {\n\
                       fn charge(&self, dest: usize, n: u64) {}\n\
                       pub fn send(&self, dest: usize, msg: T) {\n\
                           self.ship(dest, msg);\n\
                       }\n\
                       fn ship(&self, dest: usize, msg: T) {\n\
                           self.charge(dest, 1);\n\
                       }\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/channels.rs", src)]).is_empty());
    }

    #[test]
    fn private_send_helpers_are_exempt() {
        let src = "impl<T> Group<T> {\n\
                       fn send_ack(&self, dest: usize) {}\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/channels.rs", src)]).is_empty());
    }

    #[test]
    fn relaxed_on_quiescence_field_is_flagged_in_runtime_only() {
        let src = "fn f(q: &Q) { q.sent.fetch_add(1, Ordering::Relaxed); }\n";
        let f = analyze_raw(&[("crates/struntime/src/traversal.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_RELAXED]);
        assert_eq!(f[0].line, 1);
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn relaxed_on_plain_counters_is_fine() {
        let src = "stats.local_msgs.fetch_add(1, Ordering::Relaxed);\n";
        assert!(analyze_raw(&[("crates/struntime/src/channels.rs", src)]).is_empty());
    }

    #[test]
    fn relaxed_matches_whole_field_names_across_lines() {
        let src = "q.done.store(true, Ordering::Relaxed);\n\
                   q.done_count.fetch_add(1, Ordering::Relaxed);\n\
                   q.idle_ns.load(Relaxed);\n\
                   s.quiescence\n    .received\n    .load(Relaxed);\n";
        let f = analyze_raw(&[("crates/struntime/src/traversal.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_RELAXED, RULE_RELAXED]);
        assert_eq!((f[0].line, f[1].line), (1, 6));
    }

    #[test]
    fn relaxed_finding_can_be_suppressed_with_a_reason() {
        let src = "// stcheck: allow(relaxed-quiescence): diagnostic read only.\n\
                   q.done.load(Ordering::Relaxed);\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn thread_spawn_outside_runtime_is_flagged() {
        let src = "let h = std::thread::spawn(move || 1);\n";
        let f = analyze_raw(&[("crates/steiner/src/solver.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_SPAWN]);
        assert!(analyze_raw(&[("crates/struntime/src/lib.rs", src)]).is_empty());
        // No test exemption: tests start threads through the World too,
        // so a suppression in a test file must hold as well.
        let f = analyze_raw(&[("tests/stress.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_SPAWN]);
        let allowed = format!("// stcheck: allow(thread-spawn): drives the OS directly.\n{src}");
        assert!(analyze_raw(&[("tests/stress.rs", &allowed)]).is_empty());
    }

    #[test]
    fn thread_scope_and_builder_are_flagged() {
        let src = "use std::thread::{self, Builder};\n\
                   std::thread::scope(|s| { s.spawn(|| 1); });\n\
                   let h = thread::Builder::new().spawn(|| 2);\n";
        let f = analyze_raw(&[("crates/steiner/src/lib.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_SPAWN; 3]);
    }

    #[test]
    fn spawn_in_comments_and_strings_is_ignored() {
        let src = "// never call thread::spawn here\nlet s = \"thread::spawn\";\n";
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn plain_send_on_vec_channel_group_is_flagged() {
        let src = "let batches = comm.open_channels::<Vec<u64>>(\"phase_x\");\n\
                   batches.send(1, vec![1, 2, 3]);\n";
        let f = analyze_raw(&[("crates/steiner/src/lib.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_PLAIN_SEND]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("line 1"), "{}", f[0].message);
    }

    #[test]
    fn send_batch_on_vec_channel_group_is_fine() {
        let src = "let batches = comm.open_channels::<Vec<u64>>(\"phase_x\");\n\
                   batches.send_batch(1, vec![1, 2, 3]);\n\
                   let singles = comm.open_channels::<u64>(\"phase_y\");\n\
                   singles.send(1, 7);\n";
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn plain_send_partial_identifier_does_not_match() {
        let src = "let ch = comm.open_channels::<Vec<u64>>(\"phase_x\");\n\
                   ch.send_batch(0, vec![1]);\n\
                   batch.send(0, 7);\n";
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn plain_send_in_test_code_is_exempt_and_suppressible() {
        let test_src = "#[cfg(test)]\n\
                        mod tests {\n\
                            fn t(comm: &mut Comm) {\n\
                                let g = comm.open_channels::<Vec<u8>>(\"t\");\n\
                                g.send(0, vec![1]);\n\
                            }\n\
                        }\n";
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", test_src)]).is_empty());
        let suppressed = "let g = comm.open_channels::<Vec<u8>>(\"p\");\n\
                          g.send(0, vec![1]); // stcheck: allow(plain-send-vec): one-shot control message.\n";
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", suppressed)]).is_empty());
    }
}
