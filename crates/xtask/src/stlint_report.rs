//! Schema validation for `stlint.json` (the analyzer's SARIF-lite
//! report), used by `xtask check-reports`.
//!
//! The report is an interface: CI uploads it as an artifact and future
//! tooling (dashboards, diff summaries) parses it. Validating it next to
//! the bench envelopes keeps the contract honest — a field rename in the
//! emitter fails `check-reports` immediately instead of breaking a
//! downstream consumer later.

use stgraph::json::Json;

/// Counts extracted from a valid report.
#[derive(Debug, PartialEq, Eq)]
pub struct ReportCounts {
    pub findings: usize,
    pub new_findings: usize,
    pub suppressions: usize,
    pub unsafe_sites: usize,
    pub undocumented_unsafe: usize,
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{ctx}: missing string field {key:?}"))
}

fn u64_field(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{ctx}: missing numeric field {key:?}"))
}

fn bool_field(obj: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(|v| v.as_bool())
        .ok_or_else(|| format!("{ctx}: missing boolean field {key:?}"))
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("missing array field {key:?}"))
}

/// Validates a parsed `stlint.json` against schema version 1.
pub fn validate(doc: &Json) -> Result<ReportCounts, String> {
    let version = u64_field(doc, "schema_version", "report")?;
    if version != 1 {
        return Err(format!("unsupported schema_version {version} (expected 1)"));
    }
    let tool = doc.get("tool").ok_or("missing object field \"tool\"")?;
    let tool_name = str_field(tool, "name", "tool")?;
    if tool_name != "stlint" {
        return Err(format!("tool.name is {tool_name:?}, expected \"stlint\""));
    }
    str_field(tool, "version", "tool")?;

    let rules = arr_field(doc, "rules")?;
    if rules.is_empty() {
        return Err("rules array is empty".to_string());
    }
    let mut rule_ids = Vec::new();
    for (i, r) in rules.iter().enumerate() {
        let ctx = format!("rules[{i}]");
        rule_ids.push(str_field(r, "id", &ctx)?.to_string());
        str_field(r, "summary", &ctx)?;
    }

    let known_rule = |obj: &Json, ctx: &str| {
        let rule = str_field(obj, "rule", ctx)?;
        if rule_ids.iter().any(|id| id == rule) {
            Ok(())
        } else {
            Err(format!("{ctx}: rule {rule:?} not in the rules catalog"))
        }
    };

    let findings = arr_field(doc, "findings")?;
    let mut new_findings = 0usize;
    for (i, f) in findings.iter().enumerate() {
        let ctx = format!("findings[{i}]");
        known_rule(f, &ctx)?;
        str_field(f, "path", &ctx)?;
        str_field(f, "message", &ctx)?;
        u64_field(f, "line", &ctx)?;
        match str_field(f, "status", &ctx)? {
            "new" => new_findings += 1,
            "grandfathered" => {}
            other => return Err(format!("{ctx}: bad status {other:?}")),
        }
    }

    let suppressions = arr_field(doc, "suppressions")?;
    for (i, s) in suppressions.iter().enumerate() {
        let ctx = format!("suppressions[{i}]");
        known_rule(s, &ctx)?;
        str_field(s, "path", &ctx)?;
        u64_field(s, "line", &ctx)?;
        bool_field(s, "used", &ctx)?;
        match str_field(s, "scope", &ctx)? {
            "line" | "file" => {}
            other => return Err(format!("{ctx}: bad scope {other:?}")),
        }
        // The analyzer refuses unjustified suppressions of its own rules,
        // so a checked-in report with one is stale or hand-edited.
        if str_field(s, "justification", &ctx)?.trim().is_empty() {
            return Err(format!("{ctx}: empty justification"));
        }
    }

    let unsafe_inventory = arr_field(doc, "unsafe_inventory")?;
    let mut undocumented = 0usize;
    for (i, u) in unsafe_inventory.iter().enumerate() {
        let ctx = format!("unsafe_inventory[{i}]");
        str_field(u, "path", &ctx)?;
        u64_field(u, "line", &ctx)?;
        match str_field(u, "kind", &ctx)? {
            "block" | "fn" | "impl" | "trait" => {}
            other => return Err(format!("{ctx}: bad kind {other:?}")),
        }
        if !bool_field(u, "documented", &ctx)? {
            undocumented += 1;
        }
    }

    Ok(ReportCounts {
        findings: findings.len(),
        new_findings,
        suppressions: suppressions.len(),
        unsafe_sites: unsafe_inventory.len(),
        undocumented_unsafe: undocumented,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        stgraph::json::parse(text).expect("fixture parses")
    }

    #[test]
    fn the_emitters_own_output_validates() {
        let files = vec![(
            "crates/steiner/src/x.rs".to_string(),
            "fn f(m: &HashMap<u32, u32>) { for x in m {} }\nunsafe impl Send for T {}\n"
                .to_string(),
        )];
        let a = stlint::analyze(&files);
        assert!(!a.findings.is_empty());
        let json = stlint::render_json(&a, &stlint::Baseline::default());
        let counts = validate(&parse(&json)).expect("emitted report is valid");
        assert_eq!(counts.findings, a.findings.len());
        assert_eq!(counts.new_findings, a.findings.len());
        assert_eq!(counts.unsafe_sites, 1);
        assert_eq!(counts.undocumented_unsafe, 1);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let doc = parse(r#"{"schema_version": 2}"#);
        assert!(validate(&doc).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn unknown_finding_rule_is_rejected() {
        let doc = parse(
            r#"{
              "schema_version": 1,
              "tool": {"name": "stlint", "version": "0"},
              "rules": [{"id": "nondet-iter", "summary": "s"}],
              "findings": [{"rule": "bogus", "path": "p", "line": 1,
                            "status": "new", "message": "m", "snippet": ""}],
              "suppressions": [],
              "unsafe_inventory": []
            }"#,
        );
        assert!(validate(&doc)
            .unwrap_err()
            .contains("not in the rules catalog"));
    }

    #[test]
    fn unknown_suppression_rule_is_rejected() {
        let doc = parse(
            r#"{
              "schema_version": 1,
              "tool": {"name": "stlint", "version": "0"},
              "rules": [{"id": "nondet-iter", "summary": "s"}],
              "findings": [],
              "suppressions": [{"rule": "bogus", "path": "p", "line": 1,
                                "scope": "line", "used": true, "justification": "why"}],
              "unsafe_inventory": []
            }"#,
        );
        let err = validate(&doc).unwrap_err();
        assert!(err.starts_with("suppressions[0]"), "{err}");
        assert!(err.contains("not in the rules catalog"), "{err}");
    }

    #[test]
    fn empty_justification_is_rejected() {
        let doc = parse(
            r#"{
              "schema_version": 1,
              "tool": {"name": "stlint", "version": "0"},
              "rules": [{"id": "nondet-iter", "summary": "s"}],
              "findings": [],
              "suppressions": [{"rule": "nondet-iter", "path": "p", "line": 1,
                                "scope": "line", "used": true, "justification": "  "}],
              "unsafe_inventory": []
            }"#,
        );
        assert!(validate(&doc).unwrap_err().contains("empty justification"));
    }
}
