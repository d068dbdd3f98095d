//! Unwind-boundary hygiene: every `catch_unwind` / `AssertUnwindSafe`
//! site in non-test code needs an adjacent `stlint: catch-unwind-justify`
//! comment explaining why swallowing the panic (and asserting unwind
//! safety across the closure's captures) is sound. Catching a panic is
//! the runtime's failure-isolation primitive — but an undocumented catch
//! is also how broken-invariant state silently leaks back into a world
//! that should have aborted, so each boundary must carry its reasoning.
//!
//! "Adjacent" mirrors the `// SAFETY:` rule: the marker may sit on the
//! same line or in the comment block directly above (only comment and
//! attribute lines between). `catch_unwind(AssertUnwindSafe(..))` on one
//! line is a single boundary and needs a single justification.
//!
//! `unwrap-expect` — `.unwrap()` / `.expect(…)` in the runtime crate's
//! non-test code turn protocol violations into context-free panics; the
//! runtime emits structured diagnostics (match + `panic!` naming tag,
//! phase, and types) instead.

use super::RUNTIME_SRC;
use crate::model::{FileModel, Workspace};
use crate::{Finding, RULE_CATCH_UNWIND_JUSTIFY, RULE_UNWRAP};

/// The marker a justification comment must contain.
const MARKER: &str = "catch-unwind-justify";

pub fn run(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    for fm in &ws.files {
        unwrap_expect(fm, findings);
        let mut last_line = 0u32;
        for i in 0..fm.code.len() {
            let t = fm.tok(i);
            if !(t.is_ident("catch_unwind") || t.is_ident("AssertUnwindSafe")) {
                continue;
            }
            if fm.is_test_at(i) {
                continue; // tests intercept panics to assert on them
            }
            // `catch_unwind(AssertUnwindSafe(..))` is one unwind boundary:
            // both idents on a line share one justification.
            if t.line == last_line {
                continue;
            }
            last_line = t.line;
            if !has_adjacent_justification(fm, t.line) {
                findings.push(Finding {
                    rule: RULE_CATCH_UNWIND_JUSTIFY,
                    path: fm.path.clone(),
                    line: t.line,
                    message: format!(
                        "unwind boundary without an adjacent `stlint: {MARKER}` \
                         comment; state why catching the panic here is sound \
                         (what contains the possibly-broken state, and who is \
                         told about the failure) directly above"
                    ),
                    snippet: fm.raw_line(t.line).trim().to_string(),
                });
            }
        }
    }
}

/// One finding per runtime line that calls `.unwrap()` or `.expect(…)`.
fn unwrap_expect(fm: &FileModel<'_>, findings: &mut Vec<Finding>) {
    if !fm.path.starts_with(RUNTIME_SRC) {
        return;
    }
    let mut last_line = 0u32;
    for c in fm.calls() {
        let panics = c.is_method && (c.name == "unwrap" || c.name == "expect");
        if !panics || fm.is_test_at(c.pos) || c.line == last_line {
            continue;
        }
        last_line = c.line;
        findings.push(Finding {
            rule: RULE_UNWRAP,
            path: fm.path.clone(),
            line: c.line,
            message: "unwrap/expect in struntime runtime code; emit a structured \
                      diagnostic (match + panic! naming tag, phase, and types)"
                .to_string(),
            snippet: fm.raw_line(c.line).trim().to_string(),
        });
    }
}

/// Same-line marker or a directly-above comment block containing it
/// (attributes may sit between the comment and the expression).
fn has_adjacent_justification(fm: &FileModel<'_>, line: u32) -> bool {
    if fm.raw_line(line).contains(MARKER) {
        return true;
    }
    let mut l = line as i64 - 1;
    let mut saw_comment = false;
    while l >= 1 {
        let raw = fm.raw_line(l as u32).trim();
        let is_comment = raw.starts_with("//") || raw.starts_with("/*") || raw.starts_with('*');
        let is_attr = raw.starts_with("#[");
        if is_comment {
            saw_comment = true;
            if raw.contains(MARKER) {
                return true;
            }
            l -= 1;
        } else if is_attr && !saw_comment {
            l -= 1;
        } else {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{analyze_raw, rules_of};

    #[test]
    fn bare_catch_unwind_is_flagged() {
        let src = "fn f() {\n    let r = std::panic::catch_unwind(|| g());\n}\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_CATCH_UNWIND_JUSTIFY]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn justified_catch_unwind_passes() {
        let src = "fn f() {\n\
                   // stlint: catch-unwind-justify — rank isolation: the\n\
                   // payload is classified and the world aborts.\n\
                   let r = std::panic::catch_unwind(|| g());\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn same_line_marker_passes() {
        let src =
            "fn f() { let r = std::panic::catch_unwind(|| g()); /* catch-unwind-justify: t */ }\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn assert_unwind_safe_alone_is_flagged() {
        // Wrapping captures in AssertUnwindSafe asserts an invariant even
        // when the catch lives elsewhere — it needs its own justification.
        let src = "fn f(x: &mut u32) {\n    let w = std::panic::AssertUnwindSafe(x);\n}\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_CATCH_UNWIND_JUSTIFY]);
    }

    #[test]
    fn catch_with_assert_on_one_line_is_one_site() {
        let src = "fn f() {\n\
                   let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g()));\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(
            rules_of(&f),
            vec![RULE_CATCH_UNWIND_JUSTIFY],
            "one finding, not two"
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   #[test]\n    fn t() { let _ = std::panic::catch_unwind(|| g()); }\n}\n";
        assert!(analyze_raw(&[("crates/struntime/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn comment_block_with_code_between_does_not_cover() {
        let src = "fn f() {\n\
                   // stlint: catch-unwind-justify — covers only the next site.\n\
                   let a = 1;\n\
                   let r = std::panic::catch_unwind(|| g());\n\
                   }\n";
        let f = analyze_raw(&[("crates/struntime/src/x.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_CATCH_UNWIND_JUSTIFY]);
    }

    #[test]
    fn unwrap_in_runtime_code_is_flagged() {
        let src = "let v = slot.take().unwrap();\nlet w = rx.recv().expect(\"msg\");\n";
        let f = analyze_raw(&[("crates/struntime/src/collective.rs", src)]);
        assert_eq!(rules_of(&f), vec![RULE_UNWRAP, RULE_UNWRAP]);
        assert!(analyze_raw(&[("crates/steiner/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn unwrap_inside_cfg_test_module_is_exempt() {
        let src = "fn run() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { helper().unwrap(); }\n\
                   }\n";
        assert!(analyze_raw(&[("crates/struntime/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));\n";
        assert!(analyze_raw(&[("crates/struntime/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn integration_test_files_are_wholly_test_code() {
        let src = "fn t() { helper().unwrap(); }\n";
        assert!(analyze_raw(&[("crates/struntime/tests/e2e.rs", src)]).is_empty());
    }

    #[test]
    fn cfg_test_out_of_line_module_is_exempt_and_does_not_swallow_the_file() {
        let lib = "#[cfg(test)]\nmod proptests;\nfn run() { x.unwrap(); }\n";
        let module = "fn t() { helper().unwrap(); }\n";
        let f = analyze_raw(&[
            ("crates/struntime/src/lib.rs", lib),
            ("crates/struntime/src/proptests.rs", module),
        ]);
        assert_eq!(rules_of(&f), vec![RULE_UNWRAP]);
        assert_eq!(
            (f[0].path.as_str(), f[0].line),
            ("crates/struntime/src/lib.rs", 3)
        );
        // Without the cfg gate the same module is runtime code.
        let f = analyze_raw(&[
            ("crates/struntime/src/lib.rs", "mod proptests;\n"),
            ("crates/struntime/src/proptests.rs", module),
        ]);
        assert_eq!(rules_of(&f), vec![RULE_UNWRAP]);
    }
}
