//! Determinism rules.
//!
//! `nondet-iter` — iterating a `HashMap`/`HashSet` in solver-path crates
//! yields hash-seed-dependent order. Anywhere that order can leak into
//! trees, counters, or reports it must be a `BTreeMap`/`BTreeSet`, a
//! *sorted drain* (collect then sort before use), or carry a justified
//! `nondet-iter` allow comment.
//!
//! `wallclock` — `Instant::now`/`SystemTime`/OS-entropy constructors in
//! solver paths make control flow time-dependent; only the trace/metrics
//! layers (and explicitly justified subsystems, e.g. retransmission
//! timers) may read wall clocks.

use crate::model::{FileModel, Workspace};
use crate::{Finding, RULE_NONDET_ITER, RULE_WALLCLOCK};
use std::collections::BTreeSet;

/// Crates whose `src/` trees are solver paths: nondeterminism there can
/// reach tree outputs, counters, or reports.
pub const SOLVER_PATHS: &[&str] = &["crates/steiner/src", "crates/struntime/src"];

fn in_solver_path(path: &str) -> bool {
    SOLVER_PATHS.iter().any(|p| path.starts_with(p))
}

/// Iteration methods whose visit order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

pub fn run(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    for fm in &ws.files {
        if !in_solver_path(&fm.path) {
            continue;
        }
        nondet_iter(fm, findings);
        wallclock(fm, findings);
    }
}

/// Collects names bound to `HashMap`/`HashSet` in non-test code:
/// type ascriptions (`name: HashMap<…>`, fields, params — including
/// through wrapper generics like `Mutex<HashMap<…>>`) and constructor
/// bindings (`let name = HashMap::new()` / `with_capacity`).
fn hash_bindings(fm: &FileModel<'_>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..fm.code.len() {
        let t = fm.tok(i);
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) || fm.is_test_at(i) {
            continue;
        }
        // Walk back over a leading path (`std :: collections ::`),
        // wrapper generic openers (`Mutex <`, `Option <`, …), and
        // reference sigils (`& mut`, `&'a`).
        let mut j = i as i64 - 1;
        loop {
            if j >= 0
                && (fm.tok(j as usize).is_punct("&")
                    || fm.tok(j as usize).is_ident("mut")
                    || fm.tok(j as usize).kind == crate::lexer::TokKind::Lifetime)
            {
                j -= 1;
            } else if j >= 1
                && fm.tok(j as usize).is_punct(":")
                && fm.tok(j as usize - 1).is_punct(":")
            {
                j -= 2; // the `::`
                if j >= 0 && fm.tok(j as usize).kind == crate::lexer::TokKind::Ident {
                    j -= 1; // the path segment
                } else {
                    break;
                }
            } else if j >= 1
                && fm.tok(j as usize).is_punct("<")
                && fm.tok(j as usize - 1).kind == crate::lexer::TokKind::Ident
            {
                j -= 2; // `Wrapper <`
            } else {
                break;
            }
        }
        if j < 0 {
            continue;
        }
        let before = fm.tok(j as usize);
        if before.is_punct(":") && (j < 1 || !fm.tok(j as usize - 1).is_punct(":")) {
            // `name : [wrappers] HashMap` — ascription / field / param.
            if j >= 1 {
                let name = fm.tok(j as usize - 1);
                if name.kind == crate::lexer::TokKind::Ident {
                    out.insert(name.text.to_string());
                }
            }
        } else if before.is_punct("=") {
            // `let [mut] name = HashMap::new()` (or `name = …` reassign).
            let mut k = j - 1;
            while k >= 0 && fm.tok(k as usize).is_ident("mut") {
                k -= 1;
            }
            if k >= 0 && fm.tok(k as usize).kind == crate::lexer::TokKind::Ident {
                let name = fm.tok(k as usize).text;
                if name != "mut" && name != "let" {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

fn nondet_iter(fm: &FileModel<'_>, findings: &mut Vec<Finding>) {
    let bindings = hash_bindings(fm);
    if bindings.is_empty() {
        return;
    }
    let mut hits: BTreeSet<(u32, String)> = BTreeSet::new();

    // Method-call iteration: any receiver-chain segment is a hash binding.
    for f in &fm.functions {
        if f.is_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        for call in fm.calls_in(body) {
            if !call.is_method || !ITER_METHODS.contains(&call.name.as_str()) {
                continue;
            }
            let Some(hit) = call.recv.iter().find(|seg| bindings.contains(*seg)) else {
                continue;
            };
            if sorted_drain(fm, body, call.pos) {
                continue;
            }
            hits.insert((call.line, hit.clone()));
        }
        // `for pat in [&[mut]] name { … }` — iteration without a method.
        let (lo, hi) = body;
        let mut i = lo;
        while i <= hi {
            if fm.tok(i).is_ident("for") {
                // Find the matching `in` then the header up to `{`.
                let mut j = i + 1;
                let mut in_pos = None;
                while j <= hi && !fm.tok(j).is_punct("{") {
                    if fm.tok(j).is_ident("in") {
                        in_pos = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(in_pos) = in_pos {
                    let mut k = in_pos + 1;
                    let mut header: Vec<usize> = Vec::new();
                    while k <= hi && !fm.tok(k).is_punct("{") {
                        header.push(k);
                        k += 1;
                    }
                    // Only bare bindings: `&map` / `&mut map` / `map` —
                    // method-call iteration in the header is already
                    // covered above (and may be a sorted adapter).
                    let idents: Vec<&str> = header
                        .iter()
                        .map(|&p| fm.tok(p).text)
                        .filter(|t| *t != "&" && *t != "mut")
                        .collect();
                    if idents.len() == 1 && bindings.contains(idents[0]) && !fm.is_test_at(i) {
                        hits.insert((fm.line_of(i), idents[0].to_string()));
                    }
                }
            }
            i += 1;
        }
    }

    for (line, name) in hits {
        findings.push(Finding {
            rule: RULE_NONDET_ITER,
            path: fm.path.clone(),
            line,
            message: format!(
                "iteration over hash collection `{name}` visits entries in \
                 hash-seed order; use a BTreeMap/BTreeSet, collect-and-sort \
                 before use, or justify with `stcheck: allow(nondet-iter): …`"
            ),
            snippet: fm.raw_line(line).trim().to_string(),
        });
    }
}

/// Recognizes the sorted-drain idiom: the iteration feeds a
/// `let [mut] NAME = … .collect…;` statement and `NAME.sort…` appears
/// later in the same body — the hash order never escapes.
fn sorted_drain(fm: &FileModel<'_>, body: (usize, usize), call_pos: usize) -> bool {
    // Statement start: walk back to the nearest `;` / `{` / `}`.
    let (lo, hi) = body;
    let mut s = call_pos;
    while s > lo {
        let t = fm.tok(s - 1);
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        s -= 1;
    }
    if !fm.tok(s).is_ident("let") {
        return false;
    }
    let mut p = s + 1;
    if p <= hi && fm.tok(p).is_ident("mut") {
        p += 1;
    }
    if p > hi || fm.tok(p).kind != crate::lexer::TokKind::Ident {
        return false;
    }
    let name = fm.tok(p).text;
    // A later `name.sort…` in the same body.
    for q in call_pos..=hi {
        if fm.tok(q).is_ident(name)
            && q + 2 <= hi
            && fm.tok(q + 1).is_punct(".")
            && fm.tok(q + 2).text.starts_with("sort")
        {
            return true;
        }
    }
    false
}

/// Wall-clock / entropy constructors that must not appear in solver paths.
fn wallclock(fm: &FileModel<'_>, findings: &mut Vec<Finding>) {
    // The trace and metrics layers own the epoch and histograms: they are
    // the sanctioned wall-clock readers.
    let file = fm.path.rsplit('/').next().unwrap_or(&fm.path);
    if file == "trace.rs" || file == "metrics.rs" {
        return;
    }
    for i in 0..fm.code.len() {
        if fm.is_test_at(i) {
            continue;
        }
        let t = fm.tok(i);
        let flagged = if t.is_ident("Instant") || t.is_ident("SystemTime") {
            // `Instant::now(…)` / `SystemTime::now(…)` — a type mention
            // alone (fields, params) is fine.
            i + 3 < fm.code.len()
                && fm.tok(i + 1).is_punct(":")
                && fm.tok(i + 2).is_punct(":")
                && fm.tok(i + 3).is_ident("now")
        } else {
            t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng")
        };
        if flagged {
            let line = t.line;
            findings.push(Finding {
                rule: RULE_WALLCLOCK,
                path: fm.path.clone(),
                line,
                message: format!(
                    "`{}` reads wall-clock time / OS entropy in a solver path; \
                     route timing through the trace/metrics layers or justify \
                     with `stcheck: allow(wallclock): …`",
                    t.text
                ),
                snippet: fm.raw_line(line).trim().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{analyze_raw, rules_of};

    #[test]
    fn hashmap_iteration_in_solver_path_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                       let mut best: HashMap<u32, u32> = HashMap::new();\n\
                       let pairs: Vec<_> = best.iter().collect();\n\
                   }\n";
        let f = analyze_raw(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_NONDET_ITER]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "fn f() {\n\
                       let mut best: BTreeMap<u32, u32> = BTreeMap::new();\n\
                       for (k, v) in &best {}\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn for_loop_over_hashset_is_flagged() {
        let src = "fn f(seen: &HashSet<u64>) {\n\
                       for s in seen {}\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_NONDET_ITER]);
    }

    #[test]
    fn hash_lookup_without_iteration_is_fine() {
        let src = "fn f(m: &HashMap<u32, u32>) -> u32 {\n\
                       m[&3] + m.get(&4).copied().unwrap_or(0)\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn sorted_drain_is_recognized() {
        let src = "fn f(m: &HashMap<u64, u64>) {\n\
                       let mut lost: Vec<_> = m.iter().collect();\n\
                       lost.sort_by_key(|&(id, _)| id);\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn iteration_outside_solver_paths_is_fine() {
        let src = "fn f(m: &HashMap<u32, u32>) { for x in m {} }\n";
        assert!(analyze_raw(&[("crates/stgraph/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn iteration_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t(m: &HashMap<u32, u32>) { for x in m {} }\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_and_is_recorded() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                       for x in m {} // stcheck: allow(nondet-iter): order feeds a commutative sum.\n\
                   }\n";
        assert!(analyze_raw(&[("crates/steiner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn unjustified_allow_is_its_own_finding() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                       for x in m {} // stcheck: allow(nondet-iter)\n\
                   }\n";
        let f = analyze_raw(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![crate::RULE_UNJUSTIFIED_ALLOW]);
    }

    #[test]
    fn instant_now_in_solver_path_is_flagged() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let f = analyze_raw(&[("crates/steiner/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_WALLCLOCK]);
    }

    #[test]
    fn instant_type_mention_is_fine() {
        let src = "struct S { epoch: Instant }\nfn f(e: Instant) -> Instant { e }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn trace_and_metrics_modules_may_read_clocks() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(analyze_raw(&[("crates/struntime/src/trace.rs", src)]).is_empty());
        assert!(analyze_raw(&[("crates/struntime/src/metrics.rs", src)]).is_empty());
    }

    #[test]
    fn runtime_module_needs_a_justified_allow_per_clock_read() {
        // world.rs is NOT in the sanctioned-module list: a bare clock
        // read there is a finding…
        let bare = "fn arm() { let t = Instant::now(); }\n";
        let f = analyze_raw(&[("crates/struntime/src/world.rs", bare)]);
        assert_eq!(rules_of(&f), vec![RULE_WALLCLOCK]);
        // …and the deadline's one sanctioned read carries a line-scoped
        // justified allow, exactly as the shipped code does.
        let justified = "fn arm() {\n\
                             // stcheck: allow(wallclock): arming the cooperative deadline.\n\
                             let t = Instant::now();\n\
                         }\n";
        assert!(analyze_raw(&[("crates/struntime/src/world.rs", justified)]).is_empty());
    }

    #[test]
    fn file_scoped_allow_covers_every_site() {
        let src =
            "//! stcheck: allow-file(wallclock): retransmission timers are wall-clock by design.\n\
                   fn a() { let t = Instant::now(); }\n\
                   fn b() { let t = Instant::now(); }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }
}
