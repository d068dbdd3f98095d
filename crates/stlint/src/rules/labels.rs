//! Label-uniqueness rules: string-literal labels that key runtime
//! bookkeeping must not collide, or unrelated activity silently merges.
//!
//! `phase-label-dup` — `open_channels` phase labels are unique within a
//! file's non-test code; they key per-phase counters and audit
//! diagnostics.
//!
//! `trace-label-dup` — `trace_span`/`trace_instant`/`trace_counter`
//! labels are unique across files; the trace analyzer and Chrome-trace
//! viewers group events (and counter tracks) by label. One module may
//! reuse its own label at several points of one timeline.
//!
//! Only a string literal in first-argument position counts as a label:
//! definitions (`fn trace_span(&self, …)`) and computed labels are
//! skipped.

use crate::model::{FileModel, Workspace};
use crate::{Finding, RULE_PHASE_DUP, RULE_TRACE_DUP};
use std::collections::BTreeMap;

/// How far a label must be unique.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    File,
    Workspace,
}

/// One rule: its id, the calls whose first argument is the label, the
/// uniqueness scope, and the message's label noun and consequence.
struct LabelRule {
    rule: &'static str,
    calls: &'static [&'static str],
    scope: Scope,
    noun: &'static str,
    why: &'static str,
}

const LABEL_RULES: [LabelRule; 2] = [
    LabelRule {
        rule: RULE_PHASE_DUP,
        calls: &["open_channels"],
        scope: Scope::File,
        noun: "phase label",
        why: "labels key per-phase counters and audit diagnostics, so every call site \
              needs its own",
    },
    LabelRule {
        rule: RULE_TRACE_DUP,
        calls: &["trace_span", "trace_instant", "trace_counter"],
        scope: Scope::Workspace,
        noun: "trace label",
        why: "the analyzer and trace viewers group events by label, so cross-module \
              reuse merges unrelated timelines",
    },
];

pub fn run(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    for r in &LABEL_RULES {
        // label -> (path, line, call) of its first non-test use.
        let mut first: BTreeMap<&str, (&str, u32, String)> = BTreeMap::new();
        for fm in &ws.files {
            if r.scope == Scope::File {
                first.clear();
            }
            for c in fm.calls() {
                if !r.calls.contains(&c.name.as_str()) || fm.is_test_at(c.pos) {
                    continue;
                }
                let Some(label) = literal_first_arg(fm, c.open) else {
                    continue;
                };
                let Some((path, line, call)) = first.get(label) else {
                    first.insert(label, (&fm.path, c.line, c.name));
                    continue;
                };
                let message = match r.scope {
                    Scope::File => format!(
                        "{} {label:?} already used by the {call} call on line {line}; {}",
                        r.noun, r.why
                    ),
                    Scope::Workspace if *path == fm.path => continue,
                    Scope::Workspace => format!(
                        "{} {label:?} already used in {path}:{line}; {}",
                        r.noun, r.why
                    ),
                };
                findings.push(Finding {
                    rule: r.rule,
                    path: fm.path.clone(),
                    line: c.line,
                    message,
                    snippet: fm.raw_line(c.line).trim().to_string(),
                });
            }
        }
    }
}

/// The contents of a string literal right after the `(` at `open`.
fn literal_first_arg<'a>(fm: &FileModel<'a>, open: usize) -> Option<&'a str> {
    let t = (open + 1 < fm.code.len()).then(|| fm.tok(open + 1))?;
    if t.kind != crate::lexer::TokKind::Str {
        return None;
    }
    // Strip any `r#`/`b` prefix and the matching closing quote.
    let start = t.text.find('"')? + 1;
    let end = t.text.rfind('"')?;
    t.text.get(start..end)
}

#[cfg(test)]
mod tests {
    use crate::tests_support::{analyze_raw, rules_of};
    use crate::{RULE_PHASE_DUP, RULE_TRACE_DUP};

    #[test]
    fn duplicate_phase_labels_are_flagged_with_both_lines() {
        let src = "let a = comm.open_channels::<u8>(\"phase_a\");\n\
                   let b = comm.open_channels::<u8>(\"phase_b\");\n\
                   let c = comm.open_channels::<u8>(\"phase_a\");\n";
        let f = analyze_raw(&[("src/a.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_DUP]);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("line 1"), "{}", f[0].message);
        // Per file only: another file may reuse the label.
        let other = "let b = comm.open_channels::<u8>(\"phase_b\");\n";
        let f = analyze_raw(&[("src/a.rs", src), ("src/b.rs", other)]);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_DUP]);
    }

    #[test]
    fn phase_labels_in_test_modules_may_repeat() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn a() { let c = comm.open_channels::<u8>(\"t\"); }\n\
                       fn b() { let c = comm.open_channels::<u8>(\"t\"); }\n\
                   }\n";
        assert!(analyze_raw(&[("src/a.rs", src)]).is_empty());
    }

    #[test]
    fn definition_sites_and_dynamic_labels_are_skipped() {
        let defs = "pub fn open_channels<V>(&mut self, phase: &'static str) -> G<V> {}\n\
                    pub fn trace_span(&self, name: &'static str) -> TraceSpan {}\n\
                    pub fn trace_counter(&self, name: &'static str, value: u64) {}\n";
        let uses = "fn g(c: &Comm) {\n\
                        let _s = c.trace_span(phase.name());\n\
                        c.trace_counter(counter_name(), 1);\n\
                    }\n";
        assert!(analyze_raw(&[("src/a.rs", defs), ("src/b.rs", uses)]).is_empty());
    }

    #[test]
    fn trace_labels_colliding_across_modules_are_flagged() {
        let a = "fn f(c: &Comm) { let _s = c.trace_span(\"drain\"); }\n";
        let b = "fn g(c: &Comm) { c.trace_instant(\"drain\", 1); }\n";
        let f = analyze_raw(&[("src/a.rs", a), ("src/b.rs", b)]);
        assert_eq!(rules_of(&f), vec![RULE_TRACE_DUP]);
        assert_eq!(f[0].path, "src/b.rs");
        assert!(f[0].message.contains("a.rs:1"), "{}", f[0].message);
    }

    #[test]
    fn counter_labels_collide_with_each_other_and_other_trace_labels() {
        let a = "fn f(c: &Comm) { c.trace_counter(\"arena\", 1); }\n";
        let b = "fn g(c: &Comm) { c.trace_counter(\"arena\", 2); }\n";
        let f = analyze_raw(&[("src/a.rs", a), ("src/b.rs", b)]);
        assert_eq!(rules_of(&f), vec![RULE_TRACE_DUP]);
        assert_eq!(f[0].path, "src/b.rs");
        assert!(f[0].message.contains("a.rs:1"), "{}", f[0].message);
        let b = "fn g(c: &Comm) { let _s = c.trace_span(\"arena\"); }\n";
        let f = analyze_raw(&[("src/a.rs", a), ("src/b.rs", b)]);
        assert_eq!(rules_of(&f), vec![RULE_TRACE_DUP]);
        assert_eq!(f[0].path, "src/b.rs");
        assert!(f[0].message.contains("a.rs:1"), "{}", f[0].message);
    }

    #[test]
    fn trace_labels_may_repeat_within_one_module() {
        let src = "fn f(c: &Comm) {\n\
                       c.trace_instant(\"tick\", 1);\n\
                       c.trace_instant(\"tick\", 2);\n\
                       c.trace_counter(\"frontier\", 1);\n\
                       c.trace_counter(\"frontier\", 2);\n\
                   }\n";
        assert!(analyze_raw(&[("src/a.rs", src)]).is_empty());
    }

    #[test]
    fn label_collisions_in_test_code_are_exempt() {
        let a = "fn f(c: &Comm) { c.trace_instant(\"shared\", 1); }\n";
        let b = "#[cfg(test)]\n\
                 mod tests {\n\
                     fn t(c: &Comm) { c.trace_instant(\"shared\", 2); }\n\
                 }\n";
        assert!(analyze_raw(&[("src/a.rs", a), ("src/b.rs", b)]).is_empty());
    }

    #[test]
    fn label_collisions_can_be_suppressed_with_a_reason() {
        let a = "fn f(c: &Comm) { c.trace_instant(\"x\", 1); c.trace_counter(\"y\", 1); }\n";
        let b = "fn g(c: &Comm) {\n\
                     // stcheck: allow(trace-label-dup): same timeline, split module.\n\
                     c.trace_instant(\"x\", 2);\n\
                     c.trace_counter(\"y\", 2); // stcheck: allow(trace-label-dup): one track.\n\
                 }\n";
        assert!(analyze_raw(&[("src/a.rs", a), ("src/b.rs", b)]).is_empty());
    }
}
