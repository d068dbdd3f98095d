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

use crate::model::{CallSite, FileModel, Workspace};
use crate::{Finding, RULE_LOCKSTEP, RULE_SEND_AFTER_QUIESCENCE, RULE_UNCHARGED_SEND};

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
    if !fm.path.starts_with("crates/struntime/src") {
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
}
