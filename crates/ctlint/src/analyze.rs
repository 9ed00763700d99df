//! The taint analysis and the R1–R6 rule checks.
//!
//! The analysis is intraprocedural and annotation-driven (see `DESIGN.md`
//! §8 for the policy): a *secret lattice* of identifier names is seeded
//! per function from
//!
//! * parameters whose type mentions a `// ct: secret`-annotated struct,
//! * `self` inside `impl` blocks of such a struct,
//! * parameters named by a `// ct: secret(a, b)` annotation on the fn,
//! * locals annotated `// ct: secret` on their `let`,
//!
//! and propagated through `let` bindings, assignments and `for` bindings
//! to a fixpoint. `// ct: public` on a `let` declassifies the binding, and
//! the `to_bool_vartime`/`is_zero` methods are recognised declassification
//! points (`is_zero` is documented as variable-time in `fourq-fp`). The
//! `debug_assert!` family is exempt everywhere: those checks compile out
//! of release builds.
//!
//! This is a lint, not a prover: block-expression results (`let x = if c
//! { a } else { b }`) are not propagated into `x`, aliasing through `&mut`
//! is not tracked, and taint does not flow across function boundaries
//! except via the annotations. The rules err toward silence on public
//! data and toward noise on secrets, which is the useful direction for a
//! CI gate with a baseline.

// The whole pass works on token *positions* (spans, matching brackets,
// neighbour lookups), so index loops are the natural idiom here.
#![allow(clippy::needless_range_loop)]

use crate::lexer::{lex, Annotation, Lexed, PlacedAnnotation, Tok, TokKind};
use crate::report::Finding;
use std::collections::HashSet;

/// Method names treated as explicit declassification points.
/// `is_zero`/`is_identity` are documented variable-time disclosures
/// (domain-error and degenerate-share checks whose outcome the protocol
/// reveals anyway); `to_bool_vartime` is the `Choice` escape hatch.
const SANITIZERS: &[&str] = &["to_bool_vartime", "is_zero", "is_identity"];

/// Panicking macro names for rule R5 (the `debug_` variants are exempt).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Exempt macro family: compiled out of release builds.
const DEBUG_MACROS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Workspace-level facts gathered before per-function analysis.
#[derive(Debug, Default)]
pub struct Globals {
    /// Struct names annotated `// ct: secret`.
    pub secret_types: HashSet<String>,
    /// Field names annotated `// ct: secret` inside any struct.
    pub secret_fields: HashSet<String>,
}

/// Per-file analysis state.
struct FileCtx<'a> {
    path: String,
    lines: Vec<&'a str>,
    toks: Vec<Tok>,
    anns: Vec<PlacedAnnotation>,
    /// Token index ranges to skip (`#[cfg(test)]` items).
    skips: Vec<(usize, usize)>,
    /// `true` for R5 scope (fp/curve arithmetic paths).
    arith_path: bool,
}

/// Finds the index of the matching closer for the opener at `open`
/// (`(`/`[`/`{`). Returns `toks.len()` when unbalanced.
fn match_fwd(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len()
}

/// Finds the matching opener for the closer at `close`, scanning backwards.
fn match_back(toks: &[Tok], close: usize) -> usize {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        "}" => ("{", "}"),
        _ => return close,
    };
    let mut depth = 0usize;
    let mut i = close;
    loop {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            if t.text == c {
                depth += 1;
            } else if t.text == o {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        if i == 0 {
            return close;
        }
        i -= 1;
    }
}

fn lower_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && t.text
            .chars()
            .next()
            .map(|c| c.is_lowercase() || c == '_')
            .unwrap_or(false)
        && !matches!(
            t.text.as_str(),
            "mut"
                | "ref"
                | "let"
                | "in"
                | "if"
                | "while"
                | "for"
                | "match"
                | "return"
                | "as"
                | "move"
                | "box"
        )
}

/// Does a tainted occurrence at `i` get declassified by a sanitizer later
/// in its own postfix chain (`x.is_zero()`, `c.to_bool_vartime()`)?
fn sanitized_after(toks: &[Tok], mut i: usize) -> bool {
    i += 1;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "." => {
                if let Some(t) = toks.get(i + 1) {
                    if t.kind == TokKind::Ident {
                        if SANITIZERS.contains(&t.text.as_str()) {
                            return true;
                        }
                        i += 2;
                        continue;
                    }
                }
                // tuple index `.0`
                i += 2;
            }
            "(" | "[" => i = match_fwd(toks, i) + 1,
            "?" => i += 1,
            "as" => i += 2,
            _ => return false,
        }
    }
    false
}

/// Scans `range` for a tainted occurrence: a tainted identifier, or a
/// secret field access (`.field`), not sanitized in its postfix chain.
/// Returns the token index of the first hit.
fn find_taint(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    tainted: &HashSet<String>,
    globals: &Globals,
) -> Option<usize> {
    for i in range {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let direct = tainted.contains(&t.text);
        let field = i > 0
            && toks[i - 1].text == "."
            && globals.secret_fields.contains(&t.text)
            && !(i + 1 < toks.len() && toks[i + 1].text == "(");
        if (direct || field) && !sanitized_after(toks, i) {
            return Some(i);
        }
    }
    None
}

/// One statement: a token index range plus whether it began with `let`.
struct Stmt {
    range: std::ops::Range<usize>,
    is_let: bool,
}

/// Splits a body token range into statements. Statements end at `;`, `{`
/// or `}` — except that a `let` statement consumes through nested braces
/// to its terminating `;`, so initializer expressions stay in one piece.
fn split_statements(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    skip: &[(usize, usize)],
) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if let Some(&(s, e)) = skip.iter().find(|&&(s, e)| i >= s && i <= e) {
            let _ = s;
            i = e + 1;
            continue;
        }
        let start = i;
        if toks[i].text == "let" {
            // consume to `;` at depth 0 (counting all bracket kinds)
            let mut depth = 0i32;
            while i < range.end {
                match toks[i].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            out.push(Stmt {
                range: start..i,
                is_let: true,
            });
        } else {
            while i < range.end && !matches!(toks[i].text.as_str(), ";" | "{" | "}") {
                i += 1;
            }
            if i > start {
                out.push(Stmt {
                    range: start..i,
                    is_let: false,
                });
            }
            i += 1; // consume the terminator
        }
    }
    out
}

const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

impl<'a> FileCtx<'a> {
    fn new(path: &str, src: &'a str, globals_only: bool) -> FileCtx<'a> {
        let Lexed { toks, anns } = lex(src);
        let mut ctx = FileCtx {
            path: path.to_string(),
            lines: src.lines().collect(),
            toks,
            anns,
            skips: Vec::new(),
            arith_path: path.contains("crates/fp/src") || path.contains("crates/curve/src"),
        };
        if !globals_only {
            ctx.compute_skips();
        }
        ctx
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn in_skip(&self, i: usize) -> bool {
        self.skips.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// Marks `#[cfg(test)]` items (mods, fns, impls) for skipping.
    fn compute_skips(&mut self) {
        let toks = &self.toks;
        let mut i = 0;
        while i + 4 < toks.len() {
            if toks[i].text == "#"
                && toks[i + 1].text == "["
                && toks[i + 2].text == "cfg"
                && toks[i + 3].text == "("
                && toks[i + 4].text == "test"
            {
                let attr_end = match_fwd(toks, i + 1);
                // the governed item runs to the first `;` (e.g. `use`) or
                // the matching brace of its first `{`
                let mut j = attr_end + 1;
                let end = loop {
                    if j >= toks.len() {
                        break toks.len().saturating_sub(1);
                    }
                    match toks[j].text.as_str() {
                        ";" => break j,
                        "{" => break match_fwd(toks, j),
                        _ => j += 1,
                    }
                };
                self.skips.push((i, end));
                i = end + 1;
            } else {
                i += 1;
            }
        }
    }

    /// Annotations (non-trailing or trailing) whose target line falls in
    /// `[lo, hi]`.
    fn anns_in(&self, lo: u32, hi: u32) -> impl Iterator<Item = &PlacedAnnotation> {
        self.anns
            .iter()
            .filter(move |a| a.target_line >= lo && a.target_line <= hi)
    }

    /// Walks back from an item keyword over attributes and visibility
    /// modifiers; returns (anchor token index, anchor line).
    fn item_anchor(&self, item_idx: usize) -> (usize, u32) {
        let toks = &self.toks;
        let mut j = item_idx;
        loop {
            if j == 0 {
                break;
            }
            let prev = &toks[j - 1];
            match prev.text.as_str() {
                "pub" | "const" | "async" | "fn" | "crate" => j -= 1,
                ")" => {
                    // pub(crate) / pub(super)
                    let open = match_back(toks, j - 1);
                    if open >= 1 && toks[open - 1].text == "pub" {
                        j = open - 1;
                    } else {
                        break;
                    }
                }
                "]" => {
                    // attribute `#[...]`
                    let open = match_back(toks, j - 1);
                    if open >= 1 && toks[open - 1].text == "#" {
                        j = open - 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        (j, toks[j].line)
    }
}

/// Collects `// ct: secret` struct/field annotations from one file.
pub fn collect_globals(path: &str, src: &str, globals: &mut Globals) {
    let ctx = FileCtx::new(path, src, true);
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        if toks[i].text != "struct" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let (_, anchor_line) = ctx.item_anchor(i);
        let struct_secret = ctx
            .anns_in(anchor_line, toks[i].line)
            .any(|a| matches!(a.ann, Annotation::Secret(ref n) if n.is_empty()));
        if struct_secret {
            globals.secret_types.insert(name_tok.text.clone());
        }
        // named-field body: record `// ct: secret` fields
        if let Some(open) = toks.get(i + 2).filter(|t| t.text == "{").map(|_| i + 2) {
            let close = match_fwd(toks, open);
            let mut j = open + 1;
            while j < close {
                // field pattern: ident `:` at depth 1
                if toks[j].kind == TokKind::Ident
                    && toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
                {
                    let fline = toks[j].line;
                    let marked = ctx.anns.iter().any(|a| {
                        a.target_line == fline
                            && matches!(a.ann, Annotation::Secret(ref n) if n.is_empty())
                    });
                    if marked {
                        globals.secret_fields.insert(toks[j].text.clone());
                    }
                    // skip the type to the next depth-1 comma
                    let mut depth = 0i32;
                    j += 2;
                    while j < close {
                        match toks[j].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                j += 1;
            }
        }
    }
}

/// Analyzes one file and appends findings.
pub fn analyze_file(path: &str, src: &str, globals: &Globals, findings: &mut Vec<Finding>) {
    let ctx = FileCtx::new(path, src, false);
    let mut raw: Vec<Finding> = Vec::new();

    check_derives(&ctx, globals, &mut raw);

    // impl spans: (open brace idx, close idx, target type)
    let impls = find_impls(&ctx);

    let fns = find_fns(&ctx);
    for f in &fns {
        // nested fn bodies are analyzed on their own; skip them here
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .filter(|g| g.body.0 > f.body.0 && g.body.1 < f.body.1)
            .map(|g| (g.body.0, g.body.1))
            .collect();
        let self_type = impls
            .iter()
            .filter(|(o, c, _)| f.body.0 > *o && f.body.1 < *c)
            .max_by_key(|(o, _, _)| *o)
            .map(|(_, _, t)| t.clone());
        analyze_fn(&ctx, globals, f, self_type.as_deref(), &nested, &mut raw);
    }

    // Apply `ct: allow` suppression, attach file path, dedupe (rule, line).
    let mut seen: HashSet<(String, u32)> = HashSet::new();
    for mut f in raw {
        let allowed = ctx.anns.iter().any(|a| {
            a.target_line == f.line && matches!(a.ann, Annotation::Allow(ref r) if r == f.rule)
        });
        if allowed {
            continue;
        }
        if !seen.insert((f.rule.to_string(), f.line)) {
            continue;
        }
        f.file = ctx.path.clone();
        findings.push(f);
    }
}

/// R4 (declaration form): `derive(PartialEq)` / `derive(Debug)` on a
/// secret-annotated struct.
fn check_derives(ctx: &FileCtx, globals: &Globals, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        if toks[i].text != "struct" || ctx.in_skip(i) {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if !globals.secret_types.contains(&name_tok.text) {
            continue;
        }
        // scan the attribute block above the struct for derives
        let (anchor, _) = ctx.item_anchor(i);
        let mut j = anchor;
        while j < i {
            if toks[j].text == "derive" && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(") {
                let close = match_fwd(toks, j + 1);
                for k in j + 2..close {
                    if toks[k].text == "PartialEq" || toks[k].text == "Debug" {
                        out.push(Finding::new(
                            "R4",
                            toks[k].line,
                            format!(
                                "secret type `{}` derives `{}`; implement constant-time `ct_eq`/redacted Debug instead",
                                name_tok.text, toks[k].text
                            ),
                            ctx.snippet(toks[k].line),
                        ));
                    }
                }
                j = close;
            }
            j += 1;
        }
    }
}

struct FnInfo {
    /// Index of the `fn` keyword.
    kw: usize,
    name: String,
    /// `(` .. `)` of the parameter list.
    params: (usize, usize),
    /// `{` .. `}` of the body.
    body: (usize, usize),
}

fn find_fns(ctx: &FileCtx) -> Vec<FnInfo> {
    let toks = &ctx.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident || ctx.in_skip(i) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // skip generics to the parameter list
        let mut j = i + 2;
        if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "->" => {}
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
            i += 1;
            continue;
        }
        let pclose = match_fwd(toks, j);
        // body: next `{` before any `;` (a `;` first means a trait sig);
        // `[..]`/`(..)` groups are stepped over, so the `;` of a return
        // type like `[u8; 32]` does not end the signature
        let mut k = pclose + 1;
        let body = loop {
            match toks.get(k).map(|t| t.text.as_str()) {
                Some(";") | None => break None,
                Some("{") => break Some((k, match_fwd(toks, k))),
                Some("[" | "(") => k = match_fwd(toks, k) + 1,
                _ => k += 1,
            }
        };
        if let Some(body) = body {
            out.push(FnInfo {
                kw: i,
                name: name.text.clone(),
                params: (j, pclose),
                body,
            });
            // continue scanning *inside* the body too (nested fns)
            i += 2;
        } else {
            i = k;
        }
    }
    out
}

fn find_impls(ctx: &FileCtx) -> Vec<(usize, usize, String)> {
    let toks = &ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "impl" || toks[i].kind != TokKind::Ident {
            continue;
        }
        // find the opening brace; the self type starts after a depth-0
        // `for` if present, else after the generics
        let mut j = i + 1;
        let mut type_start = j;
        if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
            type_start = j;
        }
        let mut open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "for" => type_start = j + 1,
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let name = toks[type_start..open]
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        out.push((open, match_fwd(toks, open), name));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn analyze_fn(
    ctx: &FileCtx,
    globals: &Globals,
    f: &FnInfo,
    self_type: Option<&str>,
    nested: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let toks = &ctx.toks;
    let mut tainted: HashSet<String> = HashSet::new();
    let mut declassified: HashSet<String> = HashSet::new();

    // ---- seed from parameters ----
    let (anchor, anchor_line) = ctx.item_anchor(f.kw);
    let _ = anchor;
    let ann_names: Vec<String> = ctx
        .anns_in(anchor_line, toks[f.kw].line)
        .filter_map(|a| match &a.ann {
            Annotation::Secret(names) => Some(names.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    let taint_all_params = ctx
        .anns_in(anchor_line, toks[f.kw].line)
        .any(|a| matches!(a.ann, Annotation::Secret(ref n) if n.is_empty()));

    let (popen, pclose) = f.params;
    let mut p = popen + 1;
    while p < pclose {
        // one parameter: up to a depth-0 comma
        let start = p;
        let mut depth = 0i32;
        while p < pclose {
            match toks[p].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => depth += 1,
                ">" => depth -= 1,
                "," if depth == 0 => break,
                _ => {}
            }
            p += 1;
        }
        let param = &toks[start..p];
        p += 1;
        if param.iter().any(|t| t.text == "self") {
            let self_secret = self_type
                .map(|t| globals.secret_types.contains(t))
                .unwrap_or(false);
            if self_secret || taint_all_params || ann_names.iter().any(|n| n == "self") {
                tainted.insert("self".to_string());
            }
            continue;
        }
        let colon = param.iter().position(|t| t.text == ":");
        let (names_part, type_part) = match colon {
            Some(c) => (&param[..c], &param[c + 1..]),
            None => (param, &param[0..0]),
        };
        let names: Vec<&str> = names_part
            .iter()
            .filter(|t| lower_ident(t))
            .map(|t| t.text.as_str())
            .collect();
        let type_secret = type_part
            .iter()
            .any(|t| t.kind == TokKind::Ident && globals.secret_types.contains(&t.text));
        for n in names {
            if type_secret || taint_all_params || ann_names.iter().any(|a| a == n) {
                tainted.insert(n.to_string());
            }
        }
    }

    // ---- taint fixpoint over the body ----
    let stmts = split_statements(toks, f.body.0 + 1..f.body.1, nested);
    for s in &stmts {
        // declassification / forced-taint annotations on `let` lines
        if s.is_let {
            let lo = toks[s.range.start].line;
            let hi = toks[s.range.end.saturating_sub(1).max(s.range.start)].line;
            let bindings: Vec<String> = let_bindings(toks, s);
            for a in ctx.anns_in(lo, hi).filter(|a| a.trailing) {
                match &a.ann {
                    Annotation::Public => declassified.extend(bindings.iter().cloned()),
                    Annotation::Secret(n) if n.is_empty() => {
                        for b in &bindings {
                            if !declassified.contains(b) {
                                tainted.insert(b.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    for _ in 0..10 {
        let before = tainted.len();
        for s in &stmts {
            propagate_stmt(toks, s, globals, &mut tainted, &declassified);
        }
        for d in &declassified {
            tainted.remove(d);
        }
        if tainted.len() == before {
            break;
        }
    }

    // ---- rule checks ----
    let exempt = debug_macro_spans(toks, f.body.0..f.body.1);
    let in_exempt = |i: usize| exempt.iter().any(|&(s, e)| i >= s && i <= e);
    let taint_at = |range: std::ops::Range<usize>| find_taint(toks, range, &tainted, globals);

    let body = f.body.0 + 1..f.body.1;
    let mut i = body.start;
    while i < body.end {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = e + 1;
            continue;
        }
        if in_exempt(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        match t.text.as_str() {
            // R1 / R6: branching constructs
            "if" | "while" | "match" if t.kind == TokKind::Ident => {
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < body.end {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if taint_at(i + 1..j).is_some() {
                    out.push(Finding::new(
                        "R1",
                        t.line,
                        format!(
                            "`{}` condition depends on secret data in fn `{}`; use masked selection (ct_select)",
                            t.text, f.name
                        ),
                        ctx.snippet(t.line),
                    ));
                    if t.text == "if" && j < body.end {
                        let close = match_fwd(toks, j);
                        for k in j..close.min(body.end) {
                            if toks[k].text == "return" && toks[k].kind == TokKind::Ident {
                                out.push(Finding::new(
                                    "R6",
                                    toks[k].line,
                                    format!(
                                        "early `return` under a secret-dependent condition in fn `{}`",
                                        f.name
                                    ),
                                    ctx.snippet(toks[k].line),
                                ));
                            }
                        }
                    }
                }
            }
            // R1: short-circuit operators
            "&&" | "||" => {
                let boolean_ctx = i > 0
                    && (matches!(
                        toks[i - 1].kind,
                        TokKind::Ident | TokKind::Num | TokKind::Lit
                    ) || matches!(toks[i - 1].text.as_str(), ")" | "]"));
                if boolean_ctx {
                    let stmt = enclosing_stmt(&stmts, i);
                    if let Some(r) = stmt {
                        if taint_at(r).is_some() {
                            out.push(Finding::new(
                                "R1",
                                t.line,
                                format!(
                                    "short-circuit `{}` on secret data in fn `{}`; use Choice::and/or",
                                    t.text, f.name
                                ),
                                ctx.snippet(t.line),
                            ));
                        }
                    }
                }
            }
            // R2: variable-time arithmetic
            "/" | "%" => {
                let l = operand_back(toks, i, body.start);
                let r = operand_fwd(toks, i, body.end);
                if taint_at(l).is_some() || taint_at(r).is_some() {
                    out.push(Finding::new(
                        "R2",
                        t.line,
                        format!(
                            "variable-time `{}` on secret data in fn `{}`",
                            t.text, f.name
                        ),
                        ctx.snippet(t.line),
                    ));
                }
            }
            "<<" | ">>" => {
                let r = operand_fwd(toks, i, body.end);
                if taint_at(r).is_some() {
                    out.push(Finding::new(
                        "R2",
                        t.line,
                        format!(
                            "data-dependent shift amount (`{}`) on secret data in fn `{}`",
                            t.text, f.name
                        ),
                        ctx.snippet(t.line),
                    ));
                }
            }
            // R3: secret-indexed lookup
            "[" => {
                let indexing = i > 0
                    && (toks[i - 1].kind == TokKind::Ident && lower_ident(&toks[i - 1])
                        || matches!(toks[i - 1].text.as_str(), ")" | "]"));
                if indexing {
                    let close = match_fwd(toks, i);
                    if taint_at(i + 1..close).is_some() {
                        out.push(Finding::new(
                            "R3",
                            t.line,
                            format!(
                                "secret-indexed lookup in fn `{}`; scan the table with ct_select",
                                f.name
                            ),
                            ctx.snippet(t.line),
                        ));
                    }
                }
            }
            // R4 (expression form): == / != on secrets
            "==" | "!=" => {
                let l = operand_back(toks, i, body.start);
                let r = operand_fwd(toks, i, body.end);
                if taint_at(l).is_some() || taint_at(r).is_some() {
                    out.push(Finding::new(
                        "R4",
                        t.line,
                        format!(
                            "variable-time `{}` comparison on secret data in fn `{}`; use ct_eq",
                            t.text, f.name
                        ),
                        ctx.snippet(t.line),
                    ));
                }
            }
            // R5: panicking operations in arithmetic paths
            name if ctx.arith_path
                && t.kind == TokKind::Ident
                && (PANIC_MACROS.contains(&name)
                    && toks.get(i + 1).map(|x| x.text.as_str()) == Some("!")) =>
            {
                out.push(Finding::new(
                    "R5",
                    t.line,
                    format!(
                        "panicking macro `{}!` in arithmetic path fn `{}`",
                        name, f.name
                    ),
                    ctx.snippet(t.line),
                ));
            }
            name if ctx.arith_path
                && t.kind == TokKind::Ident
                && (name == "unwrap" || name == "expect")
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|x| x.text.as_str()) == Some("(") =>
            {
                out.push(Finding::new(
                    "R5",
                    t.line,
                    format!("panicking `.{}()` in arithmetic path fn `{}`", name, f.name),
                    ctx.snippet(t.line),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

/// The statement range containing token `i`, if any.
fn enclosing_stmt(stmts: &[Stmt], i: usize) -> Option<std::ops::Range<usize>> {
    stmts
        .iter()
        .find(|s| s.range.contains(&i))
        .map(|s| s.range.clone())
}

/// Bound names of a `let` statement (lowercase idents before the first
/// top-level `=`).
fn let_bindings(toks: &[Tok], s: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for i in s.range.clone().skip(1) {
        match toks[i].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "=" if depth == 0 => break,
            _ => {
                if depth >= 0 && lower_ident(&toks[i]) {
                    // skip type positions: idents right after `:` are types
                    let after_colon = i > s.range.start && toks[i - 1].text == ":";
                    if !after_colon {
                        out.push(toks[i].text.clone());
                    }
                }
            }
        }
    }
    out
}

/// One fixpoint step for a statement.
fn propagate_stmt(
    toks: &[Tok],
    s: &Stmt,
    globals: &Globals,
    tainted: &mut HashSet<String>,
    declassified: &HashSet<String>,
) {
    let first = &toks[s.range.start];
    if s.is_let {
        let mut depth = 0i32;
        let mut eq = None;
        for i in s.range.clone().skip(1) {
            match toks[i].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "=" if depth == 0 => {
                    eq = Some(i);
                    break;
                }
                _ => {}
            }
        }
        if let Some(eq) = eq {
            if find_taint(toks, eq + 1..s.range.end, tainted, globals).is_some() {
                for b in let_bindings(toks, s) {
                    if !declassified.contains(&b) {
                        tainted.insert(b);
                    }
                }
            }
        }
        return;
    }
    if first.text == "for" {
        // `for PAT in EXPR` (statement ends before `{`)
        if let Some(inpos) = s.range.clone().find(|&i| toks[i].text == "in") {
            if find_taint(toks, inpos + 1..s.range.end, tainted, globals).is_some() {
                for i in s.range.start + 1..inpos {
                    if lower_ident(&toks[i]) && !declassified.contains(&toks[i].text) {
                        tainted.insert(toks[i].text.clone());
                    }
                }
            }
        }
        return;
    }
    // assignment: first depth-0 assignment operator
    let mut depth = 0i32;
    for i in s.range.clone() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            op if depth == 0 && ASSIGN_OPS.contains(&op) && toks[i].kind == TokKind::Punct => {
                if find_taint(toks, i + 1..s.range.end, tainted, globals).is_some() {
                    if let Some(target) = toks[s.range.start..i]
                        .iter()
                        .find(|t| t.kind == TokKind::Ident && lower_ident(t))
                    {
                        if !declassified.contains(&target.text) {
                            tainted.insert(target.text.clone());
                        }
                    }
                }
                return;
            }
            _ => {}
        }
    }
}

/// Spans of `debug_assert!`-family invocations (rule-exempt).
fn debug_macro_spans(toks: &[Tok], range: std::ops::Range<usize>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].kind == TokKind::Ident
            && DEBUG_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("(")
        {
            let close = match_fwd(toks, i + 2);
            out.push((i, close));
            i = close + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// The left operand of a binary operator at `op`: one primary expression
/// scanned backwards (matched group or ident/number plus its postfix
/// chain).
fn operand_back(toks: &[Tok], op: usize, lo: usize) -> std::ops::Range<usize> {
    let mut i = op;
    while i > lo {
        let t = &toks[i - 1];
        match t.text.as_str() {
            ")" | "]" => i = match_back(toks, i - 1),
            "." => i -= 1,
            _ if t.kind == TokKind::Ident || t.kind == TokKind::Num || t.kind == TokKind::Lit => {
                i -= 1
            }
            _ => break,
        }
    }
    i..op
}

/// The right operand of a binary operator at `op`: prefix operators, then
/// one primary with its postfix chain.
fn operand_fwd(toks: &[Tok], op: usize, hi: usize) -> std::ops::Range<usize> {
    let start = op + 1;
    let mut i = start;
    while i < hi && matches!(toks[i].text.as_str(), "-" | "!" | "&" | "*" | "mut") {
        i += 1;
    }
    if i < hi {
        match toks[i].text.as_str() {
            "(" | "[" => i = match_fwd(toks, i) + 1,
            _ => i += 1,
        }
    }
    // postfix chain
    while i < hi {
        match toks[i].text.as_str() {
            "." => i += 2,
            "(" | "[" => i = match_fwd(toks, i) + 1,
            "?" => i += 1,
            "as" => i += 2,
            "::" => i += 2,
            _ => break,
        }
    }
    start..i.min(hi)
}
