//! Token-level workspace model: per-file token streams, `cfg(test)`
//! regions, function items with body spans, method-call chains, and a
//! coarse name-based per-function call graph.
//!
//! The model deliberately stops short of a real parse: it tracks braces,
//! attributes, and item keywords, which is enough to answer the questions
//! the rules ask ("which function does this token belong to", "is this
//! line test-only", "what does this function call") without fighting the
//! full grammar. Where the approximation is coarse it errs toward *fewer*
//! findings — a lint that cries wolf gets deleted.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One function item: name, span, and classification flags.
#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    pub line: u32,
    /// `pub` / `pub(…)` — rules about API contracts key off this.
    pub is_pub: bool,
    pub is_unsafe: bool,
    /// Inside a `#[cfg(test)]` region / `#[test]` / test-only file.
    pub is_test: bool,
    /// Inclusive code-token index range of the body `{ … }`, braces
    /// included. `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name: method name after `.`, or last path segment.
    pub name: String,
    /// Code-token index of the name token.
    pub pos: usize,
    /// Code-token index of the argument list's opening `(`.
    pub open: usize,
    pub line: u32,
    pub is_method: bool,
    /// For method calls: receiver chain, outermost first, e.g.
    /// `["self", "shared()", "collective_slot"]` for
    /// `self.shared().collective_slot.lock()`. Empty for free calls.
    pub recv: Vec<String>,
}

/// A file-scoped suppression: `stcheck: allow-file(<rule>): <why>`.
#[derive(Debug, Clone)]
pub struct FileAllow {
    pub rule: String,
    pub line: u32,
    pub justification: String,
}

/// One file's model.
pub struct FileModel<'a> {
    pub path: String,
    pub lines: Vec<&'a str>,
    /// All tokens, comments included.
    pub toks: Vec<Tok<'a>>,
    /// Indices into `toks` of non-comment tokens ("code space"). Body
    /// spans, call-site positions, and scans all use code space.
    pub code: Vec<usize>,
    /// Per code-space index: token sits in a `#[cfg(test)]`/`#[test]`
    /// region (or the whole file is test code).
    pub code_test: Vec<bool>,
    pub whole_file_test: bool,
    pub functions: Vec<FnModel>,
    pub file_allows: Vec<FileAllow>,
}

impl<'a> FileModel<'a> {
    pub fn tok(&self, code_idx: usize) -> &Tok<'a> {
        &self.toks[self.code[code_idx]]
    }

    pub fn line_of(&self, code_idx: usize) -> u32 {
        self.tok(code_idx).line
    }

    pub fn raw_line(&self, line: u32) -> &str {
        self.lines.get(line as usize - 1).copied().unwrap_or("")
    }

    pub fn is_test_at(&self, code_idx: usize) -> bool {
        self.whole_file_test || self.code_test.get(code_idx).copied().unwrap_or(false)
    }

    /// The function whose body contains `code_idx`, innermost declared
    /// wins (nested fns are later in the list and narrower).
    pub fn enclosing_fn(&self, code_idx: usize) -> Option<&FnModel> {
        self.functions
            .iter()
            .filter(|f| matches!(f.body, Some((lo, hi)) if lo <= code_idx && code_idx <= hi))
            .min_by_key(|f| match f.body {
                Some((lo, hi)) => hi - lo,
                None => usize::MAX,
            })
    }

    /// Extracts every call site in `body` (code-space range, inclusive).
    pub fn calls_in(&self, body: (usize, usize)) -> Vec<CallSite> {
        let mut out = Vec::new();
        let (lo, hi) = body;
        for i in lo..=hi.min(self.code.len().saturating_sub(1)) {
            let t = self.tok(i);
            if t.kind != TokKind::Ident || is_keyword(t.text) {
                continue;
            }
            // `name (` or `name ::< … > (` — a turbofish between the name
            // and the parens still marks a call.
            let after = self.skip_turbofish(i + 1);
            if !(after < self.code.len() && self.tok(after).is_punct("(")) {
                continue;
            }
            let is_method = i > 0 && self.tok(i - 1).is_punct(".");
            let recv = if is_method {
                self.receiver_chain(i.saturating_sub(1))
            } else {
                Vec::new()
            };
            out.push(CallSite {
                name: t.text.to_string(),
                pos: i,
                open: after,
                line: t.line,
                is_method,
                recv,
            });
        }
        out
    }

    /// Every call site in the file, test code and item level included.
    pub fn calls(&self) -> Vec<CallSite> {
        match self.code.len() {
            0 => Vec::new(),
            n => self.calls_in((0, n - 1)),
        }
    }

    /// If `i` points at `::` `<` … `>` returns the index after the
    /// matching `>`; otherwise returns `i`.
    fn skip_turbofish(&self, i: usize) -> usize {
        if i + 2 < self.code.len()
            && self.tok(i).is_punct(":")
            && self.tok(i + 1).is_punct(":")
            && self.tok(i + 2).is_punct("<")
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < self.code.len() {
                match self.tok(j).text {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                    ";" | "{" => return i,
                    _ => {}
                }
                j += 1;
            }
        }
        i
    }

    /// Walks backwards from the `.` at code index `dot` to collect the
    /// receiver chain, outermost segment first. Call results appear as
    /// `name()`, index results as `name[]`. Stops at anything that is not
    /// a plain field/method/ident chain.
    fn receiver_chain(&self, dot: usize) -> Vec<String> {
        let mut segs: Vec<String> = Vec::new();
        let mut i = dot as i64 - 1;
        while i >= 0 && segs.len() < 8 {
            let t = self.tok(i as usize);
            if t.is_punct(")") || t.is_punct("]") {
                let closer = t.text;
                let opener = if closer == ")" { "(" } else { "[" };
                let Some(open) = self.match_back(i as usize, opener, closer) else {
                    break;
                };
                // The thing before the opener names the call / indexee.
                if open == 0 {
                    break;
                }
                let before = self.tok(open - 1);
                if before.kind == TokKind::Ident && !is_keyword(before.text) {
                    segs.push(format!(
                        "{}{}",
                        before.text,
                        if closer == ")" { "()" } else { "[]" }
                    ));
                    i = open as i64 - 2;
                } else {
                    break;
                }
            } else if t.kind == TokKind::Ident && !is_keyword(t.text) || t.is_ident("self") {
                segs.push(t.text.to_string());
                i -= 1;
            } else if t.is_punct("?") {
                i -= 1;
                continue;
            } else {
                break;
            }
            // Continue only through a `.` (or `::` path) linker.
            if i >= 1 && self.tok(i as usize).is_punct(".") {
                i -= 1;
            } else if i >= 2
                && self.tok(i as usize).is_punct(":")
                && self.tok(i as usize - 1).is_punct(":")
            {
                i -= 2;
            } else {
                break;
            }
        }
        segs.reverse();
        segs
    }

    /// Finds the opener matching the closer at code index `close`.
    fn match_back(&self, close: usize, opener: &str, closer: &str) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = close as i64;
        while i >= 0 {
            let t = self.tok(i as usize);
            if t.is_punct(closer) {
                depth += 1;
            } else if t.is_punct(opener) {
                depth -= 1;
                if depth == 0 {
                    return Some(i as usize);
                }
            }
            i -= 1;
        }
        None
    }

    /// Finds the closer matching the opener at code index `open`.
    pub fn match_forward(&self, open: usize, opener: &str, closer: &str) -> Option<usize> {
        let mut depth = 0i32;
        for i in open..self.code.len() {
            let t = self.tok(i);
            if t.is_punct(opener) {
                depth += 1;
            } else if t.is_punct(closer) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }
}

/// Rust keywords the call-site scanner must not mistake for calls
/// (`if (…)`, `match (…)`, `while (…)`, `for (…)`, `return (…)`, …).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "mod"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "const"
            | "static"
            | "type"
            | "as"
            | "extern"
    )
}

/// The whole-workspace model plus the coarse call graph.
pub struct Workspace<'a> {
    pub files: Vec<FileModel<'a>>,
    /// fn name -> (file idx, fn idx) of every non-test definition.
    pub defs: BTreeMap<String, Vec<(usize, usize)>>,
}

impl<'a> Workspace<'a> {
    /// Builds the model from `(workspace-relative path, contents)` pairs.
    pub fn build(files: &'a [(String, String)]) -> Workspace<'a> {
        // Pass 1: find `#[cfg(test)] mod name;` declarations so out-of-line
        // test modules are exempt like inline `mod tests {}` blocks.
        let mut test_files: BTreeSet<String> = BTreeSet::new();
        let lexed: Vec<Vec<Tok<'a>>> = files.iter().map(|(_, src)| lex(src)).collect();
        for ((path, _), toks) in files.iter().zip(&lexed) {
            for name in cfg_test_mod_decls(toks) {
                let base = module_base_dir(path);
                test_files.insert(format!("{base}{name}.rs"));
                test_files.insert(format!("{base}{name}/mod.rs"));
            }
        }
        let mut out = Workspace {
            files: Vec::new(),
            defs: BTreeMap::new(),
        };
        for ((path, src), toks) in files.iter().zip(lexed) {
            let whole_file_test = test_files.contains(path)
                || path.starts_with("tests/")
                || path.contains("/tests/")
                || path.contains("/benches/");
            let fm = build_file(path.clone(), src, toks, whole_file_test);
            out.files.push(fm);
        }
        for (fi, fm) in out.files.iter().enumerate() {
            for (ki, f) in fm.functions.iter().enumerate() {
                if !f.is_test {
                    out.defs.entry(f.name.clone()).or_default().push((fi, ki));
                }
            }
        }
        out
    }

    /// Names of workspace functions that transitively make a call for
    /// which `is_primitive` returns true (name-based closure, non-test
    /// bodies only).
    pub fn closure_calling(&self, is_primitive: &dyn Fn(&CallSite) -> bool) -> BTreeSet<String> {
        // Direct callers first.
        let mut hits: BTreeSet<String> = BTreeSet::new();
        let mut calls_of: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for fm in &self.files {
            for f in &fm.functions {
                if f.is_test {
                    continue;
                }
                let Some(body) = f.body else { continue };
                let calls = fm.calls_in(body);
                if calls.iter().any(is_primitive) {
                    hits.insert(f.name.clone());
                }
                calls_of
                    .entry(f.name.as_str())
                    .or_default()
                    .extend(calls.into_iter().map(|c| c.name));
            }
        }
        // Fixpoint over the name-level graph.
        loop {
            let mut grew = false;
            for (name, calls) in &calls_of {
                if hits.contains(*name) {
                    continue;
                }
                if calls.iter().any(|c| hits.contains(c)) {
                    hits.insert((*name).to_string());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        hits
    }
}

/// Scans a token stream for `#[cfg(test)] mod NAME;` declarations.
fn cfg_test_mod_decls(toks: &[Tok<'_>]) -> Vec<String> {
    let code: Vec<&Tok<'_>> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct("#")
            && i + 1 < code.len()
            && code[i + 1].is_punct("[")
            && attr_is_test(&code, i + 1)
        {
            // Skip to the end of this attribute, then over further
            // attributes / visibility, looking for `mod name ;`.
            let mut j = skip_attr(&code, i + 1);
            loop {
                if j + 1 < code.len() && code[j].is_punct("#") && code[j + 1].is_punct("[") {
                    j = skip_attr(&code, j + 1);
                } else if j < code.len() && code[j].is_ident("pub") {
                    j += 1;
                    if j < code.len() && code[j].is_punct("(") {
                        let mut depth = 0;
                        while j < code.len() {
                            if code[j].is_punct("(") {
                                depth += 1;
                            } else if code[j].is_punct(")") {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                } else {
                    break;
                }
            }
            if j + 2 < code.len()
                && code[j].is_ident("mod")
                && code[j + 1].kind == TokKind::Ident
                && code[j + 2].is_punct(";")
            {
                out.push(code[j + 1].text.to_string());
            }
        }
        i += 1;
    }
    out
}

/// Given `code[open_bracket]` == `[` of an attribute, does the attribute
/// mark test-only code? `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`
/// count; `#[cfg(not(test))]` does not.
fn attr_is_test(code: &[&Tok<'_>], open_bracket: usize) -> bool {
    let mut depth = 0;
    let mut saw_test = false;
    let mut saw_not = false;
    for t in &code[open_bracket..] {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("not") {
            saw_not = true;
        }
    }
    saw_test && !saw_not
}

/// Given `code[open_bracket]` == `[`, returns the index just past the
/// matching `]`.
fn skip_attr(code: &[&Tok<'_>], open_bracket: usize) -> usize {
    let mut depth = 0;
    for (off, t) in code[open_bracket..].iter().enumerate() {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return open_bracket + off + 1;
            }
        }
    }
    code.len()
}

fn build_file<'a>(
    path: String,
    src: &'a str,
    toks: Vec<Tok<'a>>,
    whole_file_test: bool,
) -> FileModel<'a> {
    let lines: Vec<&str> = src.lines().collect();
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();

    let mut fm = FileModel {
        path,
        lines,
        toks,
        code,
        code_test: Vec::new(),
        whole_file_test,
        functions: Vec::new(),
        file_allows: Vec::new(),
    };
    fm.code_test = test_mask(&fm);
    fm.functions = find_functions(&fm);
    fm.file_allows = find_file_allows(&fm);
    fm
}

/// Marks code tokens inside `#[cfg(test)]` / `#[test]` regions. An armed
/// attribute applies to the next brace-delimited item; a `;` before any
/// `{` (out-of-line module) disarms it.
fn test_mask(fm: &FileModel<'_>) -> Vec<bool> {
    let n = fm.code.len();
    let mut mask = vec![false; n];
    let code_refs: Vec<&Tok<'_>> = fm.code.iter().map(|&i| &fm.toks[i]).collect();
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut regions: Vec<i64> = Vec::new();
    let mut i = 0;
    while i < n {
        let t = code_refs[i];
        if t.is_punct("#") && i + 1 < n && code_refs[i + 1].is_punct("[") {
            if attr_is_test(&code_refs, i + 1) {
                pending = true;
            }
            // The attribute's own tokens inherit the current region state;
            // step past them so `test` inside the attr is not re-read.
            let end = skip_attr(&code_refs, i + 1);
            for slot in mask.iter_mut().take(end.min(n)).skip(i) {
                *slot = !regions.is_empty();
            }
            i = end;
            continue;
        }
        match t.text {
            "{" if t.kind == TokKind::Punct => {
                depth += 1;
                if pending {
                    regions.push(depth);
                    pending = false;
                }
            }
            "}" if t.kind == TokKind::Punct => {
                // The closing brace still belongs to the region.
                mask[i] = !regions.is_empty();
                if regions.last() == Some(&depth) {
                    regions.pop();
                }
                depth -= 1;
                i += 1;
                continue;
            }
            ";" if t.kind == TokKind::Punct => pending = false,
            _ => {}
        }
        mask[i] = !regions.is_empty();
        i += 1;
    }
    mask
}

/// Finds every `fn` item and its body span.
fn find_functions(fm: &FileModel<'_>) -> Vec<FnModel> {
    let n = fm.code.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let t = fm.tok(i);
        if !(t.is_ident("fn") && i + 1 < n && fm.tok(i + 1).kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        // Not a call to something named `fn` (impossible) and not the
        // `Fn` trait — `fn` keyword is lowercase and never follows `.`.
        let name = fm.tok(i + 1).text.to_string();
        // Modifiers walk: pub / pub(…) / const / async / unsafe / extern "C".
        let mut is_pub = false;
        let mut is_unsafe = false;
        let mut j = i as i64 - 1;
        while j >= 0 {
            let m = fm.tok(j as usize);
            match m.text {
                "unsafe" => is_unsafe = true,
                "pub" => is_pub = true,
                "const" | "async" | "extern" => {}
                ")" => {
                    // `pub(crate)` — walk to the matching `(` and expect
                    // `pub` before it.
                    match fm.match_back(j as usize, "(", ")") {
                        Some(open) if open > 0 && fm.tok(open - 1).is_ident("pub") => {
                            is_pub = true;
                            j = open as i64 - 1;
                        }
                        _ => break,
                    }
                }
                _ if m.kind == TokKind::Str => {} // extern "C"
                _ => break,
            }
            j -= 1;
        }
        // Body: first `{` or `;` after the signature.
        let mut k = i + 1;
        let mut body = None;
        while k < n {
            let tk = fm.tok(k);
            if tk.is_punct("{") {
                let close = fm.match_forward(k, "{", "}").unwrap_or(n - 1);
                body = Some((k, close));
                break;
            }
            if tk.is_punct(";") {
                break;
            }
            k += 1;
        }
        // A `#[test]`/`#[cfg(test)]` region begins at the armed item's
        // `{`, so the `fn` token itself sits outside it — check the body
        // opener too.
        let is_test = fm.is_test_at(i) || body.map(|(lo, _)| fm.is_test_at(lo)).unwrap_or(false);
        out.push(FnModel {
            name,
            line: t.line,
            is_pub,
            is_unsafe,
            is_test,
            body,
        });
        // Continue scanning *inside* the body too: nested fns are items.
        i += 2;
    }
    out
}

/// Scans comments for `stcheck: allow-file(<rule>): <justification>`.
fn find_file_allows(fm: &FileModel<'_>) -> Vec<FileAllow> {
    let mut out = Vec::new();
    for t in &fm.toks {
        if !t.is_comment() {
            continue;
        }
        let mut rest = t.text;
        while let Some(at) = rest.find("stcheck: allow-file(") {
            let tail = &rest[at + "stcheck: allow-file(".len()..];
            let Some(close) = tail.find(')') else { break };
            let rule = tail[..close].trim().to_string();
            let after = &tail[close + 1..];
            let justification = after
                .trim_start()
                .strip_prefix(':')
                .map(|s| s.trim().trim_end_matches("*/").trim().to_string())
                .unwrap_or_default();
            out.push(FileAllow {
                rule,
                line: t.line,
                justification,
            });
            rest = after;
        }
    }
    out
}

/// Directory prefix where a file's child modules live (`lib.rs` /
/// `main.rs` / `mod.rs` use their own directory; `foo.rs` uses `foo/`).
fn module_base_dir(path: &str) -> String {
    let (dir, file) = match path.rsplit_once('/') {
        Some((d, f)) => (format!("{d}/"), f),
        None => (String::new(), path),
    };
    match file {
        "lib.rs" | "main.rs" | "mod.rs" => dir,
        other => format!("{dir}{}/", other.trim_end_matches(".rs")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn functions_and_bodies_are_found() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn outer(x: u32) -> u32 {\n    inner(x)\n}\nfn inner(x: u32) -> u32 { x }\n",
        )]);
        let w = Workspace::build(&files);
        let f = &w.files[0];
        assert_eq!(f.functions.len(), 2);
        assert_eq!(f.functions[0].name, "outer");
        assert!(f.functions[0].is_pub);
        assert!(!f.functions[1].is_pub);
        let calls = f.calls_in(f.functions[0].body.unwrap());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "inner");
        assert!(!calls[0].is_method);
    }

    #[test]
    fn method_receiver_chains_resolve() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "fn f(c: &Comm) { c.shared().collective_slot.lock(); }\n",
        )]);
        let w = Workspace::build(&files);
        let f = &w.files[0];
        let calls = f.calls_in(f.functions[0].body.unwrap());
        let lock = calls.iter().find(|c| c.name == "lock").expect("lock call");
        assert_eq!(lock.recv, vec!["c", "shared()", "collective_slot"]);
    }

    #[test]
    fn cfg_test_regions_mark_tokens() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        )]);
        let w = Workspace::build(&files);
        let f = &w.files[0];
        let live = f.functions.iter().find(|f| f.name == "live").unwrap();
        let t = f.functions.iter().find(|f| f.name == "t").unwrap();
        assert!(!live.is_test);
        assert!(t.is_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "#[cfg(not(test))]\nmod live {\n    fn f() {}\n}\n",
        )]);
        let w = Workspace::build(&files);
        assert!(!w.files[0].functions[0].is_test);
    }

    #[test]
    fn out_of_line_test_modules_are_wholly_test() {
        let files = ws(&[
            (
                "crates/a/src/lib.rs",
                "#[cfg(test)]\nmod proptests;\nfn live() {}\n",
            ),
            ("crates/a/src/proptests.rs", "fn t() {}\n"),
        ]);
        let w = Workspace::build(&files);
        assert!(!w.files[0].functions[0].is_test, "live fn");
        assert!(w.files[1].whole_file_test, "declared module file");
        assert!(w.files[1].functions[0].is_test);
    }

    #[test]
    fn non_root_parent_modules_resolve_child_paths() {
        let files = ws(&[
            ("crates/a/src/solver.rs", "#[cfg(test)]\nmod tests;\n"),
            ("crates/a/src/solver/tests.rs", "fn t() {}\n"),
            ("crates/a/src/tests.rs", "fn live() {}\n"),
        ]);
        let w = Workspace::build(&files);
        assert!(w.files[1].whole_file_test);
        assert!(!w.files[2].whole_file_test, "sibling of the parent");
    }

    #[test]
    fn unsafe_fn_and_pub_crate_modifiers() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub(crate) unsafe fn danger() {}\npub async fn go() {}\n",
        )]);
        let w = Workspace::build(&files);
        let f = &w.files[0];
        assert!(f.functions[0].is_unsafe);
        assert!(f.functions[0].is_pub);
        assert!(f.functions[1].is_pub);
        assert!(!f.functions[1].is_unsafe);
    }

    #[test]
    fn call_graph_closure_propagates() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "fn leaf(g: &G) { g.send(0, 1); }\nfn mid() { leaf(x); }\nfn top() { mid(); }\nfn other() {}\n",
        )]);
        let w = Workspace::build(&files);
        let sends = w.closure_calling(&|c: &CallSite| c.is_method && c.name == "send");
        assert!(sends.contains("leaf"));
        assert!(sends.contains("mid"));
        assert!(sends.contains("top"));
        assert!(!sends.contains("other"));
    }

    #[test]
    fn file_allows_parse_rule_and_justification() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "//! stcheck: allow-file(wallclock): reliability timers are wall-clock by design.\nfn f() {}\n",
        )]);
        let w = Workspace::build(&files);
        let allows = &w.files[0].file_allows;
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "wallclock");
        assert!(allows[0].justification.contains("reliability timers"));
    }

    #[test]
    fn turbofish_call_is_still_a_call() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "fn f(c: &mut Comm) { let g = c.open_channels::<Vec<u64>>(\"p\"); }\n",
        )]);
        let w = Workspace::build(&files);
        let f = &w.files[0];
        let calls = f.calls_in(f.functions[0].body.unwrap());
        assert!(calls.iter().any(|c| c.name == "open_channels"));
    }
}
