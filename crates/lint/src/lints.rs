//! The workspace invariant lints.
//!
//! Six deny-by-default lints enforce the contracts nine PRs of growth
//! have made load-bearing (see the README's *Static analysis* section
//! for the rationale of each):
//!
//! | lint | contract |
//! |------|----------|
//! | `hardcoded-value-bytes` | `ValueLayout` is the only source of lane/wire/record byte figures; pricing code must not reintroduce the magic `8`/`12`/`24`/`64`/`68` |
//! | `unwrap-in-lib` | no `.unwrap()`/`.expect(` in non-test library code — typed errors, or an allow documenting the invariant |
//! | `atomics-allowlist` | atomic types and `Ordering::*` live only in the three files that own the concurrency story (`core/api.rs`, `core/priority.rs`, `graph/frontier.rs`) |
//! | `float-eq-in-pricing` | no `==`/`!=` on float expressions in cost/selection/topology/PCIe-leg pricing — bit-identity goes through `to_bits()` |
//! | `undocumented-pub-const` | tunable `pub const`s carry a doc comment naming their unit |
//! | `no-direct-csr-mut` | base-CSR storage is built/rebuilt only inside `crates/graph/src/` — everyone else mutates through `MutationBatch`/`DeltaCsr`, and only `compact()` folds deltas back |
//!
//! A finding is silenced in-source with an explicit annotation that
//! must carry a reason:
//!
//! ```text
//! // hyt-lint: allow(unwrap-in-lib) -- stripe count is non-zero for LANES > 1
//! ```
//!
//! A standalone annotation line applies to the next code line; an
//! annotation trailing code applies to its own line. A malformed
//! annotation (unknown lint, missing `-- reason`) is itself a
//! diagnostic (`allow-syntax`) and silences nothing.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt
//! from every lint except `atomics-allowlist`, which polices *file*
//! ownership: a stray atomic in a unit test still spreads the
//! concurrency story outside its three owner files.

use crate::lexer::{tokenize, Tok, TokKind};
use std::fmt;
use std::path::Path;

/// Names of the six real lints, in reporting order.
pub const LINT_NAMES: [&str; 6] = [
    "hardcoded-value-bytes",
    "unwrap-in-lib",
    "atomics-allowlist",
    "float-eq-in-pricing",
    "undocumented-pub-const",
    "no-direct-csr-mut",
];

/// Pseudo-lint reported for unparseable `hyt-lint:` annotations; cannot
/// itself be allowed.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (one of [`LINT_NAMES`] or [`ALLOW_SYNTAX`]).
    pub lint: &'static str,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: deny({}): {}", self.path, self.line, self.lint, self.message)
    }
}

/// The byte literals only `ValueLayout` may define: lane (8), narrow
/// record (12), narrow state (24), HLL sketch payload (64) and its
/// record (68).
const VALUE_BYTE_LITERALS: [u64; 5] = [8, 12, 24, 64, 68];

/// Words that mark a line as byte-accounting context for
/// `hardcoded-value-bytes`.
const BYTE_CONTEXT_WORDS: [&str; 5] = ["byte", "wire", "record", "surplus", "payload"];

/// Identifier fragments that mark an operand as float-valued for
/// `float-eq-in-pricing`.
const FLOATY_NAMES: [&str; 17] = [
    "tef",
    "tec",
    "tiz",
    "cost",
    "time",
    "makespan",
    "busy",
    "score",
    "ratio",
    "frac",
    "gamma",
    "alpha",
    "beta",
    "rtt",
    "bandwidth",
    "latency",
    "secs",
];

/// The three files that own atomics (suffix-matched).
const ATOMIC_OWNER_FILES: [&str; 3] =
    ["core/src/api.rs", "core/src/priority.rs", "graph/src/frontier.rs"];

/// Files in scope for `hardcoded-value-bytes`: the pricing / exchange /
/// cost layers that must derive every byte figure from `ValueLayout`.
/// An entry ending in `/` is a directory segment (see [`in_scope`]).
const BYTE_SCOPE_FILES: [&str; 10] = [
    "core/src/cost.rs",
    "core/src/select.rs",
    "core/src/combine.rs",
    "core/src/runner.rs",
    "core/src/exchange.rs",
    "core/src/mutate.rs",
    "core/src/grus.rs",
    "core/src/session.rs",
    "sim/src/topology/",
    "sim/src/pcie.rs",
];

/// Files in scope for `float-eq-in-pricing`: the files that compare
/// prices to make a decision (`multi.rs` orders the exchange's legs).
const FLOAT_SCOPE_FILES: [&str; 5] = [
    "core/src/cost.rs",
    "core/src/select.rs",
    "sim/src/topology/",
    "sim/src/pcie.rs",
    "sim/src/multi.rs",
];

/// The path segment that owns base-CSR storage for `no-direct-csr-mut`:
/// every file of the graph crate (`csr.rs` defines the builder,
/// `delta_csr.rs::compact()` is the one sanctioned delta fold, and the
/// loaders/generators construct initial graphs).
const CSR_OWNER_SEGMENT: &str = "graph/src/";

const ATOMIC_TYPES: [&str; 12] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Is `path` one of the `scope` files (suffix-matched), or inside one of
/// its directory segments (entries ending in `/`, matched anywhere in the
/// path the way [`CSR_OWNER_SEGMENT`] is)? A module cut into sibling
/// files stays linted without listing each sibling.
fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| if s.ends_with('/') { path.contains(s) } else { path.ends_with(s) })
}

/// Lint one file's source. `rel_path` is the workspace-relative path
/// (forward slashes) — it drives the per-file scoping above.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let toks = tokenize(src);
    let file = FileCtx::new(rel_path, src, &toks);
    let mut out = Vec::new();
    out.extend(file.allow_syntax_errors.iter().cloned());
    lint_hardcoded_value_bytes(&file, &mut out);
    lint_unwrap_in_lib(&file, &mut out);
    lint_atomics_allowlist(&file, &mut out);
    lint_float_eq_in_pricing(&file, &mut out);
    lint_undocumented_pub_const(&file, &mut out);
    lint_no_direct_csr_mut(&file, &mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Walk `crates/*/src/**/*.rs` under `root` and lint every file.
/// Returns diagnostics sorted by path then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs(&src_dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        out.extend(lint_source(&rel, &src));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Pre-computed per-file context shared by the lint passes.
struct FileCtx<'a> {
    rel_path: &'a str,
    toks: &'a [Tok<'a>],
    /// Token indices of non-comment tokens, in order.
    code: Vec<usize>,
    /// Per-token: inside a `#[cfg(test)]` module or `#[test]` fn body.
    in_test: Vec<bool>,
    /// Per-token: inside a `const`/`static` item (name through `;`).
    in_const: Vec<bool>,
    /// Lowercased identifier texts per source line.
    line_idents: std::collections::HashMap<u32, Vec<String>>,
    /// `(line, lint)` pairs silenced by a well-formed allow annotation.
    allows: Vec<(u32, &'static str)>,
    allow_syntax_errors: Vec<Diagnostic>,
}

impl<'a> FileCtx<'a> {
    fn new(rel_path: &'a str, src: &str, toks: &'a [Tok<'a>]) -> Self {
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut line_idents: std::collections::HashMap<u32, Vec<String>> =
            std::collections::HashMap::new();
        for t in toks {
            if t.kind == TokKind::Ident {
                line_idents.entry(t.line).or_default().push(t.text.to_ascii_lowercase());
            }
        }
        let mut ctx = FileCtx {
            rel_path,
            toks,
            code,
            in_test: vec![false; toks.len()],
            in_const: vec![false; toks.len()],
            line_idents,
            allows: Vec::new(),
            allow_syntax_errors: Vec::new(),
        };
        ctx.mark_test_regions();
        ctx.mark_const_items();
        ctx.parse_allows(src, rel_path);
        ctx
    }

    /// Token after `i` in the non-comment stream.
    fn next_code(&self, i: usize) -> Option<&Tok<'a>> {
        self.code.iter().find(|&&j| j > i).map(|&j| &self.toks[j])
    }

    /// Token before `i` in the non-comment stream.
    fn prev_code(&self, i: usize) -> Option<&Tok<'a>> {
        self.code.iter().rev().find(|&&j| j < i).map(|&j| &self.toks[j])
    }

    fn allowed(&self, line: u32, lint: &'static str) -> bool {
        self.allows.iter().any(|&(l, n)| l == line && n == lint)
    }

    fn line_has_byte_context(&self, line: u32) -> bool {
        self.line_idents.get(&line).is_some_and(|ids| {
            ids.iter().any(|id| {
                id == "d1" || id == "d2" || BYTE_CONTEXT_WORDS.iter().any(|w| id.contains(w))
            })
        })
    }

    /// Mark the token ranges of `#[cfg(test)]` items and `#[test]`
    /// functions (attribute through the matching close brace, or the
    /// terminating `;` for brace-less items).
    fn mark_test_regions(&mut self) {
        let code = self.code.clone();
        let mut k = 0usize;
        while k + 1 < code.len() {
            let i = code[k];
            if self.toks[i].text != "#" || self.toks[code[k + 1]].text != "[" {
                k += 1;
                continue;
            }
            // Collect the attribute's identifiers up to the matching `]`.
            let mut depth = 0i32;
            let mut idents: Vec<&str> = Vec::new();
            let mut end = k + 1;
            for (pos, &j) in code.iter().enumerate().skip(k + 1) {
                match self.toks[j].text {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            end = pos;
                            break;
                        }
                    }
                    _ => {
                        if self.toks[j].kind == TokKind::Ident {
                            idents.push(self.toks[j].text);
                        }
                    }
                }
            }
            let is_test_attr = match idents.first() {
                Some(&"test") => true,
                Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
                _ => false,
            };
            if !is_test_attr {
                k = end + 1;
                continue;
            }
            // Scan forward for the item body: the first `{` at zero
            // paren/bracket depth opens it; a `;` first means a
            // brace-less item.
            let mut depth = 0i32;
            let mut body_open: Option<usize> = None;
            let mut item_end = end;
            for (pos, &j) in code.iter().enumerate().skip(end + 1) {
                match self.toks[j].text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_open = Some(pos);
                        break;
                    }
                    ";" if depth == 0 => {
                        item_end = pos;
                        break;
                    }
                    _ => {}
                }
                item_end = pos;
            }
            if let Some(open) = body_open {
                let mut braces = 0i32;
                item_end = open;
                for (pos, &j) in code.iter().enumerate().skip(open) {
                    match self.toks[j].text {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                item_end = pos;
                                break;
                            }
                        }
                        _ => {}
                    }
                    item_end = pos;
                }
            }
            for &j in &code[k..=item_end.min(code.len() - 1)] {
                self.in_test[j] = true;
            }
            k = item_end + 1;
        }
    }

    /// Mark `const NAME: ... = ...;` / `static NAME: ... = ...;` item
    /// ranges — literals inside a *named* constant are exactly the
    /// sanctioned way to spell a byte figure.
    fn mark_const_items(&mut self) {
        let code = self.code.clone();
        let mut k = 0usize;
        while k < code.len() {
            let i = code[k];
            let t = &self.toks[i];
            let is_kw = t.kind == TokKind::Ident && (t.text == "const" || t.text == "static");
            let next_is_name = code
                .get(k + 1)
                .map(|&j| self.toks[j].kind == TokKind::Ident && self.toks[j].text != "fn")
                .unwrap_or(false);
            if !(is_kw && next_is_name) {
                k += 1;
                continue;
            }
            let mut depth = 0i32;
            let mut end = k;
            for (pos, &j) in code.iter().enumerate().skip(k + 1) {
                match self.toks[j].text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        end = pos;
                        break;
                    }
                    _ => {}
                }
                end = pos;
            }
            for &j in &code[k..=end] {
                self.in_const[j] = true;
            }
            k = end + 1;
        }
    }

    /// Parse `// hyt-lint: allow(<lint>) -- <reason>` annotations.
    fn parse_allows(&mut self, _src: &str, rel_path: &str) {
        // Lines that carry code, for resolving standalone annotations.
        let code_lines: Vec<u32> = {
            let mut v: Vec<u32> = self.code.iter().map(|&i| self.toks[i].line).collect();
            v.dedup();
            v
        };
        for (i, t) in self.toks.iter().enumerate() {
            if t.kind != TokKind::LineComment {
                continue;
            }
            let body = t.text.trim_start_matches('/').trim();
            let Some(rest) = body.strip_prefix("hyt-lint:") else { continue };
            let target_line = {
                let trailing = self.code.iter().any(|&j| j < i && self.toks[j].line == t.line);
                if trailing {
                    t.line
                } else {
                    code_lines.iter().copied().find(|&l| l > t.line).unwrap_or(t.line)
                }
            };
            match parse_allow(rest.trim()) {
                Ok(lint) => self.allows.push((target_line, lint)),
                Err(why) => self.allow_syntax_errors.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: t.line,
                    lint: ALLOW_SYNTAX,
                    message: why,
                }),
            }
        }
    }
}

/// Parse the payload after `hyt-lint:`; returns the allowed lint name.
fn parse_allow(rest: &str) -> Result<&'static str, String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err(format!("expected `allow(<lint>) -- <reason>`, got `{rest}`"));
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(`".to_string());
    };
    let name = inner[..close].trim();
    let Some(lint) = LINT_NAMES.iter().find(|&&n| n == name) else {
        return Err(format!("unknown lint `{name}` (known: {})", LINT_NAMES.join(", ")));
    };
    let after = inner[close + 1..].trim();
    let Some(reason) = after.strip_prefix("--") else {
        return Err(format!("allow({name}) must carry a reason: `-- <why>`"));
    };
    if reason.trim().is_empty() {
        return Err(format!("allow({name}) has an empty reason"));
    }
    Ok(lint)
}

fn emit(
    file: &FileCtx<'_>,
    out: &mut Vec<Diagnostic>,
    line: u32,
    lint: &'static str,
    message: String,
) {
    if !file.allowed(line, lint) {
        out.push(Diagnostic { path: file.rel_path.to_string(), line, lint, message });
    }
}

/// `hardcoded-value-bytes`: a bare 8/12/24/64/68 in byte-accounting
/// context of a pricing/exchange/cost file. `ValueLayout` (in
/// `hyt_core::api`) and *named* constants are the only sanctioned
/// spellings of these figures.
fn lint_hardcoded_value_bytes(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !in_scope(file.rel_path, &BYTE_SCOPE_FILES) {
        return;
    }
    for &i in &file.code {
        let t = &file.toks[i];
        if file.in_test[i] || file.in_const[i] || t.kind != TokKind::IntLit {
            continue;
        }
        let Some(v) = t.int_value() else { continue };
        if !VALUE_BYTE_LITERALS.contains(&v) {
            continue;
        }
        if !file.line_has_byte_context(t.line) {
            continue;
        }
        emit(
            file,
            out,
            t.line,
            "hardcoded-value-bytes",
            format!(
                "byte literal `{v}` in pricing code — derive it from `ValueLayout` \
                 or name it as a documented const"
            ),
        );
    }
}

/// `unwrap-in-lib`: `.unwrap()` / `.expect(` outside test code.
fn lint_unwrap_in_lib(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for &i in &file.code {
        let t = &file.toks[i];
        if file.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text != "unwrap" && t.text != "expect" {
            continue;
        }
        let dotted = file.prev_code(i).is_some_and(|p| p.text == ".");
        let called = file.next_code(i).is_some_and(|n| n.text == "(");
        if dotted && called {
            emit(
                file,
                out,
                t.line,
                "unwrap-in-lib",
                format!(
                    "`.{}(` in library code — return a typed error, or document \
                     the invariant with an allow annotation",
                    t.text
                ),
            );
        }
    }
}

/// `atomics-allowlist`: atomic types / memory orderings outside the
/// three owner files. Applies to test code too — ownership is a file
/// property (see module docs).
fn lint_atomics_allowlist(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if in_scope(file.rel_path, &ATOMIC_OWNER_FILES) {
        return;
    }
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = if ATOMIC_TYPES.contains(&t.text) {
            Some(t.text)
        } else if t.text == "Ordering" {
            // `Ordering::Relaxed` etc. — `std::cmp::Ordering`'s variants
            // (Less/Equal/Greater) don't match.
            let path_tail = file
                .next_code(i)
                .filter(|n| n.text == "::")
                .and_then(|_| file.code.iter().filter(|&&j| j > i).nth(1))
                .map(|&j| file.toks[j].text);
            path_tail.filter(|tail| ATOMIC_ORDERINGS.contains(tail)).map(|_| "Ordering::")
        } else {
            None
        };
        if let Some(what) = hit {
            emit(
                file,
                out,
                t.line,
                "atomics-allowlist",
                format!(
                    "`{what}` outside the atomics owner files ({}) — route the \
                     synchronisation through `Values`, `priority`, or `frontier`",
                    ATOMIC_OWNER_FILES.join(", ")
                ),
            );
        }
    }
}

/// `float-eq-in-pricing`: `==`/`!=` with a float-literal operand or a
/// float-named identifier operand, in the pricing files. The sanctioned
/// bit-identity spelling `a.to_bits() == b.to_bits()` is exempt.
fn lint_float_eq_in_pricing(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !in_scope(file.rel_path, &FLOAT_SCOPE_FILES) {
        return;
    }
    let floaty = |t: &Tok<'_>| -> bool {
        match t.kind {
            TokKind::FloatLit => true,
            TokKind::Ident => {
                let lower = t.text.to_ascii_lowercase();
                FLOATY_NAMES.iter().any(|w| lower.contains(w))
            }
            _ => false,
        }
    };
    for &i in &file.code {
        let t = &file.toks[i];
        if file.in_test[i] || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        // `to_bits()` immediately on either side sanctions the compare.
        let near_code: Vec<&str> = file
            .code
            .iter()
            .filter(|&&j| j != i && (j.abs_diff(i)) <= 4)
            .map(|&j| file.toks[j].text)
            .collect();
        if near_code.contains(&"to_bits") {
            continue;
        }
        let prev_hit = file.prev_code(i).is_some_and(&floaty);
        let next_hit = file.next_code(i).is_some_and(&floaty);
        if prev_hit || next_hit {
            emit(
                file,
                out,
                t.line,
                "float-eq-in-pricing",
                format!(
                    "`{}` on a float expression in pricing code — compare via \
                     `to_bits()` (bit identity) or an explicit tolerance",
                    t.text
                ),
            );
        }
    }
}

/// `undocumented-pub-const`: a `pub const NAME: ...` item with no doc
/// comment above it (attributes between doc and item are fine).
fn lint_undocumented_pub_const(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for (k, &i) in code.iter().enumerate() {
        let t = &file.toks[i];
        if file.in_test[i] || t.kind != TokKind::Ident || t.text != "pub" {
            continue;
        }
        // Require the shape `pub const NAME :` — skips `pub const fn`
        // and the scoped `pub(crate) const` (not public API).
        let shape = (1..=3).map(|d| code.get(k + d).map(|&j| &file.toks[j])).collect::<Vec<_>>();
        let (Some(Some(c)), Some(Some(name)), Some(Some(colon))) =
            (shape.first(), shape.get(1), shape.get(2))
        else {
            continue;
        };
        if c.text != "const" || name.kind != TokKind::Ident || colon.text != ":" {
            continue;
        }
        // Walk raw tokens backwards over attributes; a doc comment in
        // that run documents the item.
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let p = &file.toks[j];
            match p.kind {
                TokKind::DocComment => {
                    documented = true;
                    break;
                }
                TokKind::BlockComment if p.text.starts_with("/**") || p.text.starts_with("/*!") => {
                    documented = true;
                    break;
                }
                TokKind::LineComment | TokKind::BlockComment => continue,
                _ if p.text == "]" => {
                    // Skip back over one `#[...]` attribute.
                    let mut depth = 1i32;
                    while j > 0 && depth > 0 {
                        j -= 1;
                        match file.toks[j].text {
                            "]" => depth += 1,
                            "[" => depth -= 1,
                            _ => {}
                        }
                    }
                    if j > 0 && file.toks[j - 1].text == "#" {
                        j -= 1;
                    }
                }
                _ => break,
            }
        }
        if !documented {
            emit(
                file,
                out,
                t.line,
                "undocumented-pub-const",
                format!(
                    "`pub const {}` lacks a doc comment — tunable constants must \
                     document their meaning and unit",
                    name.text
                ),
            );
        }
    }
}

/// `no-direct-csr-mut`: reaching for the base-CSR construction entry
/// points (`CsrBuilder`, `Csr::from_parts`) in non-test code outside
/// the graph crate. Since `Csr`'s storage is private, these are the
/// only routes by which library code can write base-CSR internals —
/// and rebuilding a CSR by hand bypasses the delta layer's pricing,
/// dirty-partition invalidation, and reactivation. Streaming changes
/// go through `MutationBatch`; only `delta_csr.rs::compact()` folds
/// deltas back into base storage.
fn lint_no_direct_csr_mut(file: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if file.rel_path.contains(CSR_OWNER_SEGMENT) {
        return;
    }
    for &i in &file.code {
        let t = &file.toks[i];
        if file.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let hit = if t.text == "CsrBuilder" {
            Some("CsrBuilder")
        } else if t.text == "from_parts" {
            // Only `Csr::from_parts(` — other types' constructors with
            // the same method name are not base-CSR writes.
            let mut prior = file.code.iter().rev().filter(|&&j| j < i);
            let p1 = prior.next().map(|&j| file.toks[j].text);
            let p2 = prior.next().map(|&j| file.toks[j].text);
            let called = file.next_code(i).is_some_and(|n| n.text == "(");
            (p1 == Some("::") && p2 == Some("Csr") && called).then_some("Csr::from_parts")
        } else {
            None
        };
        if let Some(what) = hit {
            emit(
                file,
                out,
                t.line,
                "no-direct-csr-mut",
                format!(
                    "`{what}` outside `crates/graph/src/` writes base-CSR storage \
                     directly — stream the change as a `MutationBatch` through the \
                     delta layer and let `compact()` fold it"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        lint_source(path, src).into_iter().map(|d| (d.line, d.lint)).collect()
    }

    #[test]
    fn unwrap_fires_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        assert_eq!(lints_of("crates/graph/src/io.rs", src), vec![(1, "unwrap-in-lib")]);
    }

    #[test]
    fn expect_fires_and_allow_silences_with_reason() {
        let src = "fn f() {\n\
                   // hyt-lint: allow(unwrap-in-lib) -- invariant: front() was Some\n\
                   x.expect(\"front\");\n\
                   y.expect(\"no reason given\");\n}\n";
        assert_eq!(lints_of("crates/core/src/session.rs", src), vec![(4, "unwrap-in-lib")]);
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "fn f() { x.unwrap(); // hyt-lint: allow(unwrap-in-lib) -- test scaffold\n}\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", src), vec![]);
    }

    #[test]
    fn malformed_allow_is_reported_and_silences_nothing() {
        let src = "// hyt-lint: allow(unwrap-in-lib)\nfn f() { x.unwrap(); }\n";
        let got = lints_of("crates/core/src/runner.rs", src);
        assert!(got.contains(&(1, "allow-syntax")), "{got:?}");
        assert!(got.contains(&(2, "unwrap-in-lib")), "{got:?}");
        let src2 = "// hyt-lint: allow(no-such-lint) -- reason\nfn f() {}\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", src2), vec![(1, "allow-syntax")]);
    }

    #[test]
    fn hardcoded_bytes_needs_scope_context_and_literal() {
        // In-scope file, byte context, magic literal: fires.
        let src = "fn f() -> u64 { let record_bytes = 12 * n; record_bytes }\n";
        assert_eq!(lints_of("crates/core/src/cost.rs", src), vec![(1, "hardcoded-value-bytes")]);
        // Same line in an out-of-scope file: clean.
        assert_eq!(lints_of("crates/graph/src/csr.rs", src), vec![]);
        // Magic literal without byte context: clean (a loop bound of 24
        // is not byte accounting).
        let src2 = "fn f() { for i in 0..24 { step(i); } }\n";
        assert_eq!(lints_of("crates/core/src/cost.rs", src2), vec![]);
        // Named const: the sanctioned spelling.
        let src3 = "/// Record bytes.\npub const REC_BYTES: u64 = 12;\n";
        assert_eq!(lints_of("crates/core/src/cost.rs", src3), vec![]);
    }

    #[test]
    fn pricing_lints_follow_the_topology_module_into_its_directory() {
        let float = "fn f(x: f64) -> bool { x == 0.5 }\n";
        let bytes = "fn f() -> u64 { let record_bytes = 12 * n; record_bytes }\n";
        let price = "crates/sim/src/topology/price.rs";
        assert_eq!(lints_of(price, float), vec![(1, "float-eq-in-pricing")]);
        assert_eq!(lints_of(price, bytes), vec![(1, "hardcoded-value-bytes")]);
        // A sibling of the directory, not a member: out of scope.
        let streams = "crates/sim/src/streams.rs";
        assert_eq!(lints_of(streams, float), vec![]);
        assert_eq!(lints_of(streams, bytes), vec![]);
    }

    #[test]
    fn atomics_fire_outside_owner_files_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n use std::sync::atomic::AtomicU64;\n}\n";
        assert_eq!(lints_of("crates/sim/src/clock.rs", src), vec![(3, "atomics-allowlist")]);
        assert_eq!(lints_of("crates/core/src/api.rs", src), vec![]);
        // cmp::Ordering variants don't match.
        let cmp = "fn f(a: u32, b: u32) -> Ordering { Ordering::Less }\n";
        assert_eq!(lints_of("crates/sim/src/clock.rs", cmp), vec![]);
        let atomic = "fn f() { x.load(Ordering::Relaxed); }\n";
        assert_eq!(lints_of("crates/sim/src/clock.rs", atomic), vec![(1, "atomics-allowlist")]);
    }

    #[test]
    fn float_eq_heuristics() {
        let lit = "fn f(x: f64) -> bool { x == 0.5 }\n";
        assert_eq!(lints_of("crates/core/src/select.rs", lit), vec![(1, "float-eq-in-pricing")]);
        let named = "fn f(tef: f64, tiz: f64) -> bool { tef != tiz }\n";
        assert_eq!(lints_of("crates/core/src/select.rs", named), vec![(1, "float-eq-in-pricing")]);
        // to_bits() sanctions bit identity.
        let bits = "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }\n";
        assert_eq!(lints_of("crates/core/src/select.rs", bits), vec![]);
        // Out of scope file: clean.
        assert_eq!(lints_of("crates/core/src/runner.rs", lit), vec![]);
        // Int compares: clean.
        let ints = "fn f(n: usize) -> bool { n == 12 }\n";
        assert_eq!(lints_of("crates/core/src/select.rs", ints), vec![]);
    }

    #[test]
    fn float_eq_fires_in_the_pcie_leg_pricing() {
        // The explicit-or-zero-copy min lives in pcie.rs: a float `==`
        // deciding between the two prices must be flagged there.
        let pick = "fn f(zero_copy_time: f64, t: f64) -> bool { zero_copy_time == t }\n";
        assert_eq!(lints_of("crates/sim/src/pcie.rs", pick), vec![(1, "float-eq-in-pricing")]);
        assert_eq!(lints_of("crates/sim/src/um.rs", pick), vec![]);
    }

    #[test]
    fn float_eq_fires_in_the_leg_scheduler() {
        // The scheduler prices the exchange by ordering legs on their
        // start times: a float `==` tie test there must be flagged.
        let tie = "fn f(start: f64, best_time: f64) -> bool { start == best_time }\n";
        assert_eq!(lints_of("crates/sim/src/multi.rs", tie), vec![(1, "float-eq-in-pricing")]);
        assert_eq!(lints_of("crates/sim/src/streams.rs", tie), vec![]);
    }

    #[test]
    fn pub_const_doc_detection() {
        let undoc = "pub const LIMIT: u32 = 3;\n";
        assert_eq!(
            lints_of("crates/core/src/runner.rs", undoc),
            vec![(1, "undocumented-pub-const")]
        );
        let doc = "/// Iterations, in rounds.\npub const LIMIT: u32 = 3;\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", doc), vec![]);
        let doc_attr = "/// Unit: rounds.\n#[allow(dead_code)]\npub const LIMIT: u32 = 3;\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", doc_attr), vec![]);
        // pub const fn and pub(crate) const are out of scope.
        let func = "pub const fn f() -> u32 { 3 }\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", func), vec![]);
        let scoped = "pub(crate) const X: u32 = 3;\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", scoped), vec![]);
    }

    #[test]
    fn direct_csr_mut_fires_outside_the_graph_crate() {
        let builder = "fn f() { let mut b = CsrBuilder::new(4); b.add_edge(0, 1); }\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", builder), vec![(1, "no-direct-csr-mut")]);
        // The graph crate owns construction — clean there.
        assert_eq!(lints_of("crates/graph/src/delta_csr.rs", builder), vec![]);
        assert_eq!(lints_of("crates/graph/src/csr.rs", builder), vec![]);
        // Test code builds fixture graphs freely.
        let in_test = "#[cfg(test)]\nmod tests {\n fn g() { CsrBuilder::new(4); }\n}\n";
        assert_eq!(lints_of("crates/algos/src/bfs.rs", in_test), vec![]);
    }

    #[test]
    fn direct_csr_mut_matches_only_csr_from_parts() {
        let csr = "fn f() { let g = Csr::from_parts(ro, ci, None); }\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", csr), vec![(1, "no-direct-csr-mut")]);
        // Another type's `from_parts` is not a base-CSR write.
        let other = "fn f() { let d = Duration::from_parts(s, n); }\n";
        assert_eq!(lints_of("crates/core/src/runner.rs", other), vec![]);
        // An allow with a reason silences it.
        let allowed =
            "// hyt-lint: allow(no-direct-csr-mut) -- oracle rebuild for the check harness\n\
                       fn f() { let g = Csr::from_parts(ro, ci, None); }\n";
        assert_eq!(lints_of("crates/bench/src/check.rs", allowed), vec![]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"x.unwrap() AtomicU64 24 bytes\"; }\n// x.unwrap()\n";
        assert_eq!(lints_of("crates/core/src/cost.rs", src), vec![]);
    }
}
