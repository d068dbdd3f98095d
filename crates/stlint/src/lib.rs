//! stlint: the workspace's static-analysis pass, run by
//! `cargo run -p xtask -- lint`.
//!
//! It models the workspace at token level — per-function bodies,
//! `cfg(test)` regions, method-call chains, and a coarse per-function
//! call graph — and runs rule families on that model:
//!
//! * determinism — [`rules::determinism`]: `nondet-iter`, `wallclock`
//! * protocol safety — [`rules::protocol`]: `collective-lockstep`,
//!   `send-after-quiescence`, `uncharged-send`, `relaxed-quiescence`,
//!   `thread-spawn`, `plain-send-vec`
//! * label uniqueness — [`rules::labels`]: `phase-label-dup`,
//!   `trace-label-dup`
//! * unsafe hygiene — [`rules::unsafety`]: `unsafe-safety` + inventory
//! * unwind boundaries — [`rules::unwind`]: `catch-unwind-justify`,
//!   `unwrap-expect`
//! * lock ordering — [`rules::locks`]: `lock-order`
//!
//! Suppressions are line-scoped `stcheck: allow(<rule>): <why>` comments
//! (same line or the line directly above) or file-scoped
//! `stcheck: allow-file(<rule>): <why>`. The justification is mandatory:
//! a bare allow still suppresses, but emits an `unjustified-allow`
//! finding of its own, so every suppression in the tree carries a
//! written reason.
//!
//! The crate is deliberately dependency-free (hand-rolled lexer, JSON
//! emitter): it must build in offline sandboxes and never adds to the
//! workspace's cold-build time.

pub mod lexer;
pub mod model;
pub mod rules;

use std::collections::BTreeSet;

pub const RULE_NONDET_ITER: &str = "nondet-iter";
pub const RULE_WALLCLOCK: &str = "wallclock";
pub const RULE_LOCKSTEP: &str = "collective-lockstep";
pub const RULE_SEND_AFTER_QUIESCENCE: &str = "send-after-quiescence";
pub const RULE_UNCHARGED_SEND: &str = "uncharged-send";
pub const RULE_UNSAFE_SAFETY: &str = "unsafe-safety";
pub const RULE_CATCH_UNWIND_JUSTIFY: &str = "catch-unwind-justify";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_RELAXED: &str = "relaxed-quiescence";
pub const RULE_SPAWN: &str = "thread-spawn";
pub const RULE_UNWRAP: &str = "unwrap-expect";
pub const RULE_PHASE_DUP: &str = "phase-label-dup";
pub const RULE_TRACE_DUP: &str = "trace-label-dup";
pub const RULE_PLAIN_SEND: &str = "plain-send-vec";
pub const RULE_UNJUSTIFIED_ALLOW: &str = "unjustified-allow";

/// Every stlint rule id with a one-line summary (emitted in stlint.json).
pub const RULE_CATALOG: &[(&str, &str)] = &[
    (
        RULE_NONDET_ITER,
        "hash-order iteration in a solver path can leak into outputs",
    ),
    (
        RULE_WALLCLOCK,
        "wall-clock/entropy read outside the trace/metrics layers",
    ),
    (
        RULE_LOCKSTEP,
        "collective calls not phase-balanced across a rank-conditional",
    ),
    (
        RULE_SEND_AFTER_QUIESCENCE,
        "send path reachable after verify_quiescence closed the epoch",
    ),
    (
        RULE_UNCHARGED_SEND,
        "public send path that never reaches the charge() accounting hook",
    ),
    (
        RULE_RELAXED,
        "Ordering::Relaxed on a quiescence field in the runtime",
    ),
    (
        RULE_SPAWN,
        "thread::spawn/scope/Builder outside the runtime's World",
    ),
    (
        RULE_PLAIN_SEND,
        "plain send on a Vec-payload channel group instead of send_batch*",
    ),
    (
        RULE_PHASE_DUP,
        "open_channels phase label reused within a file",
    ),
    (
        RULE_TRACE_DUP,
        "trace_span/trace_instant/trace_counter label reused across modules",
    ),
    (
        RULE_UNSAFE_SAFETY,
        "unsafe item without an adjacent // SAFETY: comment",
    ),
    (
        RULE_CATCH_UNWIND_JUSTIFY,
        "catch_unwind/AssertUnwindSafe without an adjacent justification comment",
    ),
    (
        RULE_UNWRAP,
        "unwrap/expect in runtime code instead of a structured diagnostic",
    ),
    (
        RULE_LOCK_ORDER,
        "lock acquisition cycle (conflicting nesting orders)",
    ),
    (
        RULE_UNJUSTIFIED_ALLOW,
        "stcheck: allow(...) without a justification",
    ),
];

/// Is `rule` a catalog id? Anything else after `stcheck: allow(` (prose
/// such as `allow(<rule>)`) is not a suppression.
fn is_known_rule(rule: &str) -> bool {
    RULE_CATALOG.iter().any(|(id, _)| *id == rule)
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Trimmed source line — also the baseline key (stable across pure
    /// line-number drift).
    pub snippet: String,
}

/// One `unsafe` site, documented or not (the reviewable unsafe surface).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub path: String,
    pub line: u32,
    /// "block" | "fn" | "impl" | "trait".
    pub kind: String,
    pub documented: bool,
}

/// A declared suppression (line- or file-scoped).
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub justification: String,
    pub file_scoped: bool,
    /// Did it actually silence at least one finding this run?
    pub used: bool,
}

/// The result of one full-workspace analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    pub unsafe_inventory: Vec<UnsafeSite>,
}

/// Runs every rule family over `(workspace-relative path, contents)` pairs
/// and applies suppressions centrally.
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let ws = model::Workspace::build(files);
    let mut findings = Vec::new();
    let mut inventory = Vec::new();
    rules::determinism::run(&ws, &mut findings);
    rules::protocol::run(&ws, &mut findings);
    rules::labels::run(&ws, &mut findings);
    rules::unsafety::run(&ws, &mut findings, &mut inventory);
    rules::unwind::run(&ws, &mut findings);
    rules::locks::run(&ws, &mut findings);

    // Collect declared suppressions and flag unjustified ones.
    let mut suppressions: Vec<Suppression> = Vec::new();
    for fm in &ws.files {
        for t in &fm.toks {
            if !t.is_comment() {
                continue;
            }
            for (line_off, text) in t.text.split('\n').enumerate() {
                let mut rest = text;
                while let Some(at) = rest.find("stcheck: allow(") {
                    let tail = &rest[at + "stcheck: allow(".len()..];
                    let Some(close) = tail.find(')') else { break };
                    let rule = tail[..close].trim().to_string();
                    let after = &tail[close + 1..];
                    rest = after;
                    if !is_known_rule(&rule) {
                        continue;
                    }
                    let justification = justification_of(after);
                    suppressions.push(Suppression {
                        rule,
                        path: fm.path.clone(),
                        line: t.line + line_off as u32,
                        justification,
                        file_scoped: false,
                        used: false,
                    });
                }
            }
        }
        for fa in &fm.file_allows {
            if !is_known_rule(&fa.rule) {
                continue;
            }
            suppressions.push(Suppression {
                rule: fa.rule.clone(),
                path: fm.path.clone(),
                line: fa.line,
                justification: fa.justification.clone(),
                file_scoped: true,
                used: false,
            });
        }
    }
    for s in &suppressions {
        if s.justification.is_empty() {
            findings.push(Finding {
                rule: RULE_UNJUSTIFIED_ALLOW,
                path: s.path.clone(),
                line: s.line,
                message: format!(
                    "`stcheck: allow{}({})` has no justification; append \
                     `: <why this is sound>` — stlint suppressions must \
                     document their reasoning",
                    if s.file_scoped { "-file" } else { "" },
                    s.rule
                ),
                snippet: String::new(),
            });
        }
    }

    // Apply: a line-scoped allow covers findings on its own line or the
    // line directly below (comment-above style); a file-scoped allow
    // covers the whole file. The meta-rule itself cannot be suppressed.
    findings.retain_mut(|f| {
        if f.rule == RULE_UNJUSTIFIED_ALLOW {
            return true;
        }
        let mut silenced = false;
        for s in suppressions.iter_mut() {
            if s.rule != f.rule || s.path != f.path {
                continue;
            }
            if s.file_scoped || s.line == f.line || s.line + 1 == f.line {
                s.used = true;
                silenced = true;
            }
        }
        !silenced
    });

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    inventory.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    suppressions.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Analysis {
        findings,
        suppressions,
        unsafe_inventory: inventory,
    }
}

/// Text after the `)` of an allow: `: why` (or `— why`) → `why`.
fn justification_of(after: &str) -> String {
    let t = after.trim_start();
    let body = t
        .strip_prefix(':')
        .or_else(|| t.strip_prefix('—'))
        .unwrap_or("");
    body.trim().trim_end_matches("*/").trim().to_string()
}

// ---------------------------------------------------------------------------
// Baseline: grandfathered findings, keyed (rule, path, snippet) so pure
// line-number drift does not churn it.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// Parses the tab-separated `rule<TAB>path<TAB>snippet` format;
    /// blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            if let (Some(rule), Some(path), Some(snippet)) =
                (parts.next(), parts.next(), parts.next())
            {
                entries.insert((rule.to_string(), path.to_string(), snippet.to_string()));
            }
        }
        Baseline { entries }
    }

    pub fn contains(&self, f: &Finding) -> bool {
        self.entries
            .contains(&(f.rule.to_string(), f.path.clone(), f.snippet.clone()))
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Renders a baseline covering `findings` (for `--update-baseline`).
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# stlint baseline: grandfathered findings, one per line as\n\
             # rule<TAB>path<TAB>snippet. New findings (absent here) fail the\n\
             # build. Regenerate with `cargo run -p xtask -- lint --update-baseline`.\n",
        );
        let mut keys: Vec<(String, String, String)> = findings
            .iter()
            .map(|f| (f.rule.to_string(), f.path.clone(), f.snippet.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        for (rule, path, snippet) in keys {
            out.push_str(&format!("{rule}\t{path}\t{snippet}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// stlint.json: a SARIF-lite report, hand-rolled (the crate is dep-free).
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the versioned machine-readable report. `baseline` decides each
/// finding's `status` (`"new"` vs `"grandfathered"`).
pub fn render_json(a: &Analysis, baseline: &Baseline) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"tool\": {{\"name\": \"stlint\", \"version\": \"{}\"}},\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("  \"rules\": [\n");
    for (i, (id, summary)) in RULE_CATALOG.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"summary\": \"{}\"}}{}\n",
            json_escape(id),
            json_escape(summary),
            if i + 1 < RULE_CATALOG.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"findings\": [\n");
    for (i, f) in a.findings.iter().enumerate() {
        let status = if baseline.contains(f) {
            "grandfathered"
        } else {
            "new"
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"status\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            status,
            json_escape(&f.message),
            json_escape(&f.snippet),
            if i + 1 < a.findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"suppressions\": [\n");
    for (i, s) in a.suppressions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"scope\": \"{}\", \"used\": {}, \"justification\": \"{}\"}}{}\n",
            json_escape(&s.rule),
            json_escape(&s.path),
            s.line,
            if s.file_scoped { "file" } else { "line" },
            s.used,
            json_escape(&s.justification),
            if i + 1 < a.suppressions.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"unsafe_inventory\": [\n");
    for (i, u) in a.unsafe_inventory.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"documented\": {}}}{}\n",
            json_escape(&u.path),
            u.line,
            json_escape(&u.kind),
            u.documented,
            if i + 1 < a.unsafe_inventory.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Test support shared by the rule modules' unit tests.
// ---------------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod tests_support {
    use super::{analyze, Analysis, Finding};

    pub fn analyze_full(files: &[(&str, &str)]) -> Analysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze(&owned)
    }

    pub fn analyze_raw(files: &[(&str, &str)]) -> Vec<Finding> {
        analyze_full(files).findings
    }

    pub fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tests_support::{analyze_full, analyze_raw, rules_of};

    #[test]
    fn suppressions_are_recorded_with_use_state() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                       for x in m {} // stcheck: allow(nondet-iter): feeds a commutative sum.\n\
                   }\n\
                   // stcheck: allow(wallclock): never fires.\n\
                   fn g() {}\n";
        let a = analyze_full(&[("crates/steiner/src/x.rs", src)]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressions.len(), 2);
        let nd = a
            .suppressions
            .iter()
            .find(|s| s.rule == RULE_NONDET_ITER)
            .unwrap();
        assert!(nd.used);
        assert!(nd.justification.contains("commutative"));
        let wc = a
            .suppressions
            .iter()
            .find(|s| s.rule == RULE_WALLCLOCK)
            .unwrap();
        assert!(!wc.used);
    }

    #[test]
    fn allow_on_the_line_above_also_suppresses() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                       // stcheck: allow(nondet-iter): result is order-insensitive.\n\
                       for x in m {}\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn every_rule_allow_needs_a_justification() {
        let src = "fn f() {\n\
                       let x = y.unwrap(); // stcheck: allow(unwrap-expect)\n\
                   }\n";
        let a = analyze_full(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&a.findings), vec![RULE_UNJUSTIFIED_ALLOW]);
        assert!(a.suppressions[0].used, "a bare allow still suppresses");
    }

    #[test]
    fn unjustified_file_allow_is_flagged() {
        let src = "//! stcheck: allow-file(wallclock)\nfn f() { let t = Instant::now(); }\n";
        let f = analyze_raw(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_UNJUSTIFIED_ALLOW]);
    }

    #[test]
    fn baseline_round_trips_and_gates() {
        let f = Finding {
            rule: RULE_NONDET_ITER,
            path: "crates/steiner/src/x.rs".to_string(),
            line: 12,
            message: "m".to_string(),
            snippet: "for x in m {}".to_string(),
        };
        let text = Baseline::render(std::slice::from_ref(&f));
        let b = Baseline::parse(&text);
        assert_eq!(b.len(), 1);
        assert!(b.contains(&f));
        let mut moved = f.clone();
        moved.line = 99; // line drift does not churn the baseline
        assert!(b.contains(&moved));
        let mut other = f.clone();
        other.snippet = "for y in m {}".to_string();
        assert!(!b.contains(&other));
    }

    #[test]
    fn json_report_is_structured_and_escaped() {
        let src = "fn f(m: &HashMap<u32, u32>) { for x in m {} }\n";
        let a = analyze_full(&[("crates/steiner/src/\"odd\".rs", src)]);
        let json = render_json(&a, &Baseline::default());
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"name\": \"stlint\""));
        assert!(json.contains("\\\"odd\\\""), "path quotes escaped");
        assert!(json.contains("\"status\": \"new\""));
        for (id, _) in RULE_CATALOG {
            assert!(json.contains(&format!("\"id\": \"{id}\"")));
        }
    }

    #[test]
    fn grandfathered_status_comes_from_the_baseline() {
        let src = "fn f(m: &HashMap<u32, u32>) { for x in m {} }\n";
        let a = analyze_full(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(a.findings.len(), 1);
        let b = Baseline::parse(&Baseline::render(&a.findings));
        let json = render_json(&a, &b);
        assert!(json.contains("\"status\": \"grandfathered\""));
        assert!(!json.contains("\"status\": \"new\""));
    }
}
