//! Layer 1: per-file determinism & concurrency lint rules R1–R7.
//!
//! Every rule is a token-pattern check over the [`crate::lexer`] stream;
//! a site can be justified with a
//! `// analyze::allow(<rule>): <reason>` comment on the same or the
//! preceding line. The reason is mandatory — an allow comment without one
//! is itself a diagnostic.

use std::collections::BTreeMap;

use crate::lexer::{lex, test_regions, LineComment, TokKind, Token};
use crate::{Diagnostic, FileContext};

/// Rule identifiers, as spelled inside `analyze::allow(...)`.
pub const RULES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "concurrency",
    "lossy-cast",
    "unsafe-code",
    "cow-aliasing",
    "metrics-placement",
    "allow-syntax",
    "stats-coverage",
    "trace-coverage",
    "fingerprint-coverage",
    "snapshot-coverage",
];

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
    "retain",
];

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that mark a value as address-carrying for R4.
/// `slot` (a storage index), `lane` (a RowClone lane's `(bank, row)`
/// tuple) and `shard` (a bank-derived partition index) name remapped bank
/// coordinates, so narrowing them silently corrupts routing exactly like
/// narrowing a raw bank index.
const ADDR_FRAGMENTS: &[&str] = &[
    "addr", "row", "col", "bank", "vpn", "page", "phys", "virt", "slot", "lane", "shard",
];

/// One parsed `analyze::allow` annotation.
#[derive(Debug)]
struct Allow {
    rule: String,
    has_reason: bool,
    used: bool,
}

/// Parses every `analyze::allow(rule): reason` comment, keyed by line.
fn parse_allows(comments: &[LineComment]) -> BTreeMap<u32, Vec<Allow>> {
    let mut out: BTreeMap<u32, Vec<Allow>> = BTreeMap::new();
    for c in comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("analyze::allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.entry(c.line).or_default().push(Allow {
                rule: String::new(),
                has_reason: false,
                used: false,
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.entry(c.line).or_default().push(Allow {
            rule,
            has_reason,
            used: false,
        });
    }
    out
}

/// The rule engine for one file.
struct Checker<'a> {
    ctx: &'a FileContext,
    tokens: &'a [Token],
    in_test: Vec<bool>,
    allows: BTreeMap<u32, Vec<Allow>>,
    /// Code line covered by each allow comment → allow-comment lines.
    /// An allow covers its own line (trailing comment) and the line of
    /// the first token after it (comment block above the site).
    coverage: BTreeMap<u32, Vec<u32>>,
    diags: Vec<Diagnostic>,
}

/// Maps each allow-comment line to the code line it covers: its own line
/// plus the line of the first token that follows it (so a multi-line
/// comment block still covers the site beneath it).
fn allow_coverage(allows: &BTreeMap<u32, Vec<Allow>>, tokens: &[Token]) -> BTreeMap<u32, Vec<u32>> {
    let mut coverage: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &line in allows.keys() {
        coverage.entry(line).or_default().push(line);
        if let Some(next) = tokens.iter().map(|t| t.line).find(|&l| l > line) {
            coverage.entry(next).or_default().push(line);
        }
    }
    coverage
}

impl Checker<'_> {
    /// Emits `rule` at `line` unless an allow comment with a reason covers
    /// that code line.
    fn emit(&mut self, rule: &str, line: u32, message: String) {
        let comment_lines = self.coverage.get(&line).cloned().unwrap_or_default();
        for l in comment_lines {
            if let Some(list) = self.allows.get_mut(&l) {
                if let Some(a) = list.iter_mut().find(|a| a.rule == rule && a.has_reason) {
                    a.used = true;
                    return;
                }
            }
        }
        self.diags.push(Diagnostic {
            file: self.ctx.rel_path.clone(),
            line,
            rule: rule.to_string(),
            message,
        });
    }

    /// Malformed allow comments are diagnostics in their own right: a
    /// justification-free escape hatch defeats the audit trail.
    fn check_allow_syntax(&mut self) {
        let mut bad = Vec::new();
        for (&line, list) in &self.allows {
            for a in list {
                if !RULES.contains(&a.rule.as_str()) {
                    bad.push((
                        line,
                        format!(
                            "analyze::allow names unknown rule `{}` (known: {})",
                            a.rule,
                            RULES.join(", ")
                        ),
                    ));
                } else if !a.has_reason {
                    bad.push((
                        line,
                        format!(
                            "analyze::allow({}) is missing its `: <reason>` justification",
                            a.rule
                        ),
                    ));
                }
            }
        }
        for (line, message) in bad {
            self.diags.push(Diagnostic {
                file: self.ctx.rel_path.clone(),
                line,
                rule: "allow-syntax".to_string(),
                message,
            });
        }
    }

    /// R1 pass 1: names bound to `HashMap`/`HashSet` values in this file —
    /// `name: HashMap<..>` field/param declarations and
    /// `let name = .. HashMap..` bindings.
    fn hash_names(&self) -> Vec<String> {
        let t = self.tokens;
        let mut names = Vec::new();
        for i in 0..t.len() {
            if !(t[i].is_ident("HashMap") || t[i].is_ident("HashSet")) {
                continue;
            }
            // Walk back over leading `path::` segments to the start of the
            // type path, then look for `name :` immediately before it.
            let mut k = i;
            while k >= 3
                && t[k - 1].is_punct(':')
                && t[k - 2].is_punct(':')
                && t[k - 3].kind == TokKind::Ident
            {
                k -= 3;
            }
            // Skip reference sigils and lifetimes so `name: &mut HashMap`
            // and `name: &'a HashMap` still bind the name.
            while k >= 1
                && (t[k - 1].is_punct('&')
                    || t[k - 1].is_ident("mut")
                    || t[k - 1].kind == TokKind::Lifetime)
            {
                k -= 1;
            }
            if k >= 2
                && t[k - 1].is_punct(':')
                && !t[k - 2].is_punct(':')
                && t[k - 2].kind == TokKind::Ident
            {
                names.push(t[k - 2].text.clone());
            }
        }
        // `let [mut] name = ... HashMap/HashSet ... ;`
        let mut i = 0usize;
        while i < t.len() {
            if t[i].is_ident("let") {
                let mut j = i + 1;
                if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name_tok) = t.get(j) {
                    if name_tok.kind == TokKind::Ident {
                        let name = name_tok.text.clone();
                        let mut k = j + 1;
                        while k < t.len() && !t[k].is_punct(';') && k < j + 200 {
                            if t[k].is_ident("HashMap") || t[k].is_ident("HashSet") {
                                names.push(name);
                                break;
                            }
                            k += 1;
                        }
                    }
                }
            }
            i += 1;
        }
        names.sort();
        names.dedup();
        names
    }

    /// R1: unordered iteration / default-hashed construction in
    /// deterministic crates (test modules included — order leaks make
    /// tests flaky too).
    fn rule_unordered_iter(&mut self) {
        if !self.ctx.deterministic {
            return;
        }
        let names = self.hash_names();
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            // Default-hasher construction: HashMap::new / with_capacity
            // (with an optional `::<..>` turbofish in between).
            if t[i].is_ident("HashMap") || t[i].is_ident("HashSet") {
                let mut j = i + 1;
                if t.get(j).is_some_and(|x| x.is_punct(':'))
                    && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                {
                    j += 2;
                    if t.get(j).is_some_and(|x| x.is_punct('<')) {
                        let mut depth = 0i32;
                        while j < t.len() {
                            if t[j].is_punct('<') {
                                depth += 1;
                            } else if t[j].is_punct('>') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                        if t.get(j).is_some_and(|x| x.is_punct(':'))
                            && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                        {
                            j += 2;
                        }
                    }
                    if t.get(j)
                        .is_some_and(|x| x.is_ident("new") || x.is_ident("with_capacity"))
                    {
                        flagged.push((
                            t[i].line,
                            format!(
                                "{}::{} uses the default randomized hasher in a deterministic \
                                 crate; use FxBuildHasher (impact_core::hash) or an ordered \
                                 structure",
                                t[i].text, t[j].text
                            ),
                        ));
                    }
                }
            }
            // `recv.iter()` style iteration over a known hash collection.
            if t[i].is_punct('.')
                && t.get(i + 2).is_some_and(|x| x.is_punct('('))
                && t.get(i + 1).is_some_and(|x| {
                    x.kind == TokKind::Ident && ITER_METHODS.contains(&x.text.as_str())
                })
                && i >= 1
                && t[i - 1].kind == TokKind::Ident
                && names.contains(&t[i - 1].text)
            {
                flagged.push((
                    t[i + 1].line,
                    format!(
                        "iteration (`.{}`) over hash-ordered collection `{}`; hash-map order \
                         must never reach deterministic state or output",
                        t[i + 1].text,
                        t[i - 1].text
                    ),
                ));
            }
            // `for x in [&][mut] [self.]name {`.
            if t[i].is_ident("in") {
                let mut j = i + 1;
                while t
                    .get(j)
                    .is_some_and(|x| x.is_punct('&') || x.is_ident("mut"))
                {
                    j += 1;
                }
                if t.get(j).is_some_and(|x| x.is_ident("self"))
                    && t.get(j + 1).is_some_and(|x| x.is_punct('.'))
                {
                    j += 2;
                }
                if t.get(j)
                    .is_some_and(|x| x.kind == TokKind::Ident && names.contains(&x.text))
                    && t.get(j + 1).is_some_and(|x| x.is_punct('{'))
                {
                    flagged.push((
                        t[j].line,
                        format!(
                            "for-loop over hash-ordered collection `{}`; hash-map order must \
                             never reach deterministic state or output",
                            t[j].text
                        ),
                    ));
                }
            }
        }
        for (line, msg) in flagged {
            self.emit("unordered-iter", line, msg);
        }
    }

    /// R2: wall-clock / environment reads outside `crates/bench` and tests.
    fn rule_wall_clock(&mut self) {
        if self.ctx.clock_exempt {
            return;
        }
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            if self.in_test[i] {
                continue;
            }
            if t[i].is_ident("SystemTime") {
                flagged.push((t[i].line, "SystemTime read".to_string()));
            }
            if t[i].is_ident("Instant")
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
            {
                flagged.push((t[i].line, "Instant::now read".to_string()));
            }
            if t[i].is_ident("env")
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| {
                    x.is_ident("var") || x.is_ident("var_os") || x.is_ident("vars")
                })
            {
                flagged.push((t[i].line, "process environment read".to_string()));
            }
        }
        for (line, what) in flagged {
            self.emit(
                "wall-clock",
                line,
                format!(
                    "{what} in deterministic code: simulated results must not depend on host \
                     time or environment (confine to crates/bench or tests)"
                ),
            );
        }
    }

    /// R3: ad-hoc concurrency outside the sanctioned sites (`core::par`
    /// and the `obs` sinks).
    fn rule_concurrency(&mut self) {
        if self.ctx.concurrency_sanctioned {
            return;
        }
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            if self.in_test[i] {
                continue;
            }
            let tok = &t[i];
            if tok.kind != TokKind::Ident {
                continue;
            }
            let what = if tok.text == "thread"
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| {
                    x.is_ident("spawn") || x.is_ident("scope") || x.is_ident("Builder")
                }) {
                Some(format!("thread::{}", t[i + 3].text))
            } else if matches!(tok.text.as_str(), "Mutex" | "RwLock" | "Condvar" | "mpsc")
                || (tok.text.starts_with("Atomic") && tok.text.len() > "Atomic".len())
            {
                Some(tok.text.clone())
            } else {
                None
            };
            if let Some(what) = what {
                flagged.push((tok.line, what));
            }
        }
        for (line, what) in flagged {
            self.emit(
                "concurrency",
                line,
                format!(
                    "`{what}` outside the sanctioned concurrency sites (core::par, the obs \
                     sinks); route new parallelism through impact_core::par::ordered_map \
                     and telemetry through impact_obs"
                ),
            );
        }
    }

    /// R4: narrowing `as` casts of address-carrying values in the
    /// dram/memctrl hot paths.
    fn rule_lossy_cast(&mut self) {
        if !self.ctx.addr_cast_checked {
            return;
        }
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            if self.in_test[i] || !t[i].is_ident("as") {
                continue;
            }
            let Some(target) = t.get(i + 1) else { continue };
            if !(target.kind == TokKind::Ident && NARROW_TARGETS.contains(&target.text.as_str())) {
                continue;
            }
            // Scan the cast source expression backwards to the statement
            // boundary, collecting identifiers.
            let mut depth = 0i32;
            let mut j = i;
            let mut culprit: Option<String> = None;
            let mut steps = 0;
            while j > 0 && steps < 40 {
                j -= 1;
                steps += 1;
                let tok = &t[j];
                if tok.is_punct(')') || tok.is_punct(']') {
                    depth += 1;
                } else if tok.is_punct('(') || tok.is_punct('[') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0
                    && (tok.is_punct(';')
                        || tok.is_punct('{')
                        || tok.is_punct('}')
                        || tok.is_punct(',')
                        || tok.is_punct('=')
                        || tok.is_ident("let")
                        || tok.is_ident("return"))
                {
                    break;
                } else if tok.kind == TokKind::Ident {
                    let lower = tok.text.to_ascii_lowercase();
                    if ADDR_FRAGMENTS.iter().any(|f| lower.contains(f)) {
                        culprit = Some(tok.text.clone());
                    }
                }
            }
            if let Some(culprit) = culprit {
                flagged.push((
                    t[i].line,
                    format!(
                        "narrowing `as {}` cast of address-carrying value (`{culprit}`) in a \
                         dram/memctrl hot path; use a checked conversion or justify the bound",
                        target.text
                    ),
                ));
            }
        }
        for (line, msg) in flagged {
            self.emit("lossy-cast", line, msg);
        }
    }

    /// R6: copy-on-write alias-breaking operations in deterministic
    /// production code. `Arc::make_mut` (and `get_mut`/`try_unwrap`) is
    /// the only way simulation state behind a shared `Arc` may be
    /// written — a snapshot or fork may hold the other reference, so
    /// every unshare site is part of the fork-equivalence contract and
    /// must say *which* state it unshares. Conversely, mutating shared
    /// state any other way (interior mutability, re-wrapping) would leak
    /// writes into live forks; keeping the audited inventory exhaustive
    /// is what makes `Engine::fork` reviewable.
    fn rule_cow_aliasing(&mut self) {
        if !self.ctx.deterministic {
            return;
        }
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            if self.in_test[i] {
                continue;
            }
            if !(t[i].is_ident("Arc") || t[i].is_ident("Rc")) {
                continue;
            }
            if t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| {
                    x.is_ident("make_mut") || x.is_ident("get_mut") || x.is_ident("try_unwrap")
                })
            {
                flagged.push((t[i].line, format!("{}::{}", t[i].text, t[i + 3].text)));
            }
        }
        for (line, what) in flagged {
            self.emit(
                "cow-aliasing",
                line,
                format!(
                    "`{what}` unshares copy-on-write state that a snapshot or fork may \
                     alias; the site is part of the fork-equivalence contract — justify \
                     which state it unshares and why the write cannot leak to a fork"
                ),
            );
        }
    }

    /// R7: metrics placement — the obs sinks are the only unconditionally
    /// sanctioned wall-clock/atomics site outside `crates/bench`. R2 and
    /// R3 police *deterministic* code; this rule covers the exempt
    /// remainder so the exemptions cannot widen silently: a clock-exempt
    /// crate (e.g. `analyze`) still may not read wall clocks, and a
    /// concurrency-sanctioned file (`core::par`) still may not grow its
    /// own atomics. Counters and span timers belong in
    /// `impact_obs`, where `Instant::now` and `Atomic*` live behind the
    /// determinism contract documented there.
    fn rule_metrics_placement(&mut self) {
        let path = self.ctx.rel_path.as_str();
        if path.starts_with("crates/bench/") || path.starts_with("crates/obs/") {
            return;
        }
        let t = self.tokens;
        let mut flagged = Vec::new();
        for i in 0..t.len() {
            if self.in_test[i] {
                continue;
            }
            if self.ctx.clock_exempt {
                if t[i].is_ident("SystemTime") {
                    flagged.push((t[i].line, "`SystemTime` read".to_string()));
                }
                if t[i].is_ident("Instant")
                    && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
                {
                    flagged.push((t[i].line, "`Instant::now` read".to_string()));
                }
            }
            if self.ctx.concurrency_sanctioned
                && t[i].kind == TokKind::Ident
                && t[i].text.starts_with("Atomic")
                && t[i].text.len() > "Atomic".len()
            {
                flagged.push((t[i].line, format!("`{}` state", t[i].text)));
            }
        }
        for (line, what) in flagged {
            self.emit(
                "metrics-placement",
                line,
                format!(
                    "{what} outside the obs sinks: wall clocks and atomics are sanctioned \
                     only in crates/obs (and crates/bench measurement code) — record \
                     telemetry through the impact_obs registry instead"
                ),
            );
        }
    }

    /// R5: `unsafe` anywhere in the workspace, tests included.
    fn rule_unsafe(&mut self) {
        let t = self.tokens;
        let mut flagged = Vec::new();
        for tok in t {
            if tok.is_ident("unsafe") {
                flagged.push(tok.line);
            }
        }
        for line in flagged {
            self.emit(
                "unsafe-code",
                line,
                "`unsafe` is forbidden workspace-wide: every proof in the equivalence suite \
                 assumes safe-Rust aliasing guarantees"
                    .to_string(),
            );
        }
    }
}

/// Runs every layer-1 rule over one file's source text.
#[must_use]
pub fn check_source(ctx: &FileContext, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mut in_test = test_regions(&lexed.tokens);
    if ctx.test_file {
        in_test.fill(true);
    }
    let allows = parse_allows(&lexed.comments);
    let coverage = allow_coverage(&allows, &lexed.tokens);
    let mut checker = Checker {
        ctx,
        tokens: &lexed.tokens,
        in_test,
        allows,
        coverage,
        diags: Vec::new(),
    };
    checker.rule_unordered_iter();
    checker.rule_wall_clock();
    checker.rule_concurrency();
    checker.rule_lossy_cast();
    checker.rule_unsafe();
    checker.rule_cow_aliasing();
    checker.rule_metrics_placement();
    checker.check_allow_syntax();
    checker.diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_ctx() -> FileContext {
        FileContext {
            rel_path: "crates/sim/src/x.rs".to_string(),
            deterministic: true,
            clock_exempt: false,
            concurrency_sanctioned: false,
            test_file: false,
            addr_cast_checked: false,
        }
    }

    #[test]
    fn allow_comment_on_preceding_line_suppresses() {
        let src = "// analyze::allow(unsafe-code): ffi shim audited in PR 9\nunsafe { x() }\n";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn multi_line_allow_comment_covers_the_next_code_line() {
        let src = "// analyze::allow(unsafe-code): the justification is long\n\
                   // and wraps onto a second comment line\n\
                   unsafe { x() }\n";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn trailing_allow_comment_covers_its_own_line() {
        let src = "unsafe { x() } // analyze::allow(unsafe-code): audited\n";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn allow_comment_does_not_leak_past_the_next_code_line() {
        let src = "// analyze::allow(unsafe-code): covers only the next line\n\
                   fn ok() {}\n\
                   unsafe { x() }\n";
        let d = check_source(&det_ctx(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn allow_comment_without_reason_is_flagged() {
        let src = "// analyze::allow(unsafe-code)\nunsafe { x() }\n";
        let d = check_source(&det_ctx(), src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.rule == "allow-syntax"));
        assert!(d.iter().any(|d| d.rule == "unsafe-code"));
    }

    #[test]
    fn allow_comment_with_unknown_rule_is_flagged() {
        let src = "// analyze::allow(made-up-rule): whatever\nlet x = 1;\n";
        let d = check_source(&det_ctx(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "allow-syntax");
    }

    #[test]
    fn iteration_needs_a_declared_hash_receiver() {
        // `.iter()` on a Vec must not be flagged.
        let src = "fn f() { let v = vec![1]; for x in v.iter() {} }";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn field_declared_maps_are_tracked() {
        let src = "struct S { index: HashMap<u64, usize, FxBuildHasher> }\n\
                   impl S { fn f(&self) { for k in self.index.keys() {} } }";
        let d = check_source(&det_ctx(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unordered-iter");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn fx_hashed_lookup_only_maps_are_clean() {
        let src = "struct S { index: HashMap<u64, usize, FxBuildHasher> }\n\
                   impl S { fn f(&self) -> Option<&usize> { self.index.get(&1) } }";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn wall_clock_in_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }";
        assert!(check_source(&det_ctx(), src).is_empty());
    }

    #[test]
    fn lossy_cast_requires_addr_identifier() {
        let ctx = FileContext {
            addr_cast_checked: true,
            ..det_ctx()
        };
        let clean = "fn f(n: u64) -> u32 { (n % 7) as u32 }";
        assert!(check_source(&ctx, clean).is_empty());
        let dirty = "fn f(addr: u64) -> u32 { (addr % 7) as u32 }";
        let d = check_source(&ctx, dirty);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lossy-cast");
    }

    /// The remapped-coordinate vocabulary (storage slots, RowClone lanes,
    /// shard indices) counts as address-carrying: an unjustified
    /// narrowing of any of them is a routing bug.
    #[test]
    fn lossy_cast_covers_bucketing_coordinates() {
        let ctx = FileContext {
            addr_cast_checked: true,
            ..det_ctx()
        };
        for dirty in [
            "fn f(slot: usize) -> u32 { slot as u32 }",
            "fn f(lane_idx: usize) -> u16 { lane_idx as u16 }",
            "fn f(shard: usize) -> u32 { shard as u32 }",
        ] {
            let d = check_source(&ctx, dirty);
            assert_eq!(d.len(), 1, "{dirty}: {d:?}");
            assert_eq!(d[0].rule, "lossy-cast");
        }
        let allowed = "fn f(slot: usize) -> u32 {\n\
                       // analyze::allow(lossy-cast): slot bounded by banks\n\
                       slot as u32\n\
                       }";
        assert!(check_source(&ctx, allowed).is_empty());
    }

    #[test]
    fn cow_aliasing_flags_unjustified_make_mut() {
        let src = "fn f(s: &mut S) { Arc::make_mut(&mut s.cols)[0] = 1; }";
        let d = check_source(&det_ctx(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "cow-aliasing");
        let allowed = "fn f(s: &mut S) {\n\
                       // analyze::allow(cow-aliasing): unshares the bank columns only\n\
                       Arc::make_mut(&mut s.cols)[0] = 1;\n\
                       }";
        assert!(check_source(&det_ctx(), allowed).is_empty());
    }

    #[test]
    fn cow_aliasing_skips_tests_and_nondeterministic_crates() {
        let in_test = "#[cfg(test)]\nmod t { fn f(s: &mut S) { Arc::make_mut(&mut s.x); } }";
        assert!(check_source(&det_ctx(), in_test).is_empty());
        let bench_ctx = FileContext {
            deterministic: false,
            ..det_ctx()
        };
        let src = "fn f(s: &mut S) { Arc::make_mut(&mut s.x); }";
        assert!(check_source(&bench_ctx, src).is_empty());
    }

    #[test]
    fn cow_aliasing_covers_other_unshare_ops() {
        for src in [
            "fn f(a: &mut Arc<T>) { Arc::get_mut(a); }",
            "fn f(a: Arc<T>) { Arc::try_unwrap(a); }",
            "fn f(a: &mut Rc<T>) { Rc::make_mut(a); }",
        ] {
            let d = check_source(&det_ctx(), src);
            assert_eq!(d.len(), 1, "{src}: {d:?}");
            assert_eq!(d[0].rule, "cow-aliasing");
        }
        // Plain Arc construction and cloning are not unshare sites.
        let clean = "fn f() { let a = Arc::new(1); let b = Arc::clone(&a); }";
        assert!(check_source(&det_ctx(), clean).is_empty());
    }

    #[test]
    fn widening_addr_casts_are_fine() {
        let ctx = FileContext {
            addr_cast_checked: true,
            ..det_ctx()
        };
        let src = "fn f(bank: u32) -> u64 { bank as u64 }";
        assert!(check_source(&ctx, src).is_empty());
    }

    #[test]
    fn metrics_placement_flags_clocks_in_clock_exempt_crates() {
        // A clock-exempt crate escapes R2, but R7 still demands the obs
        // sinks for wall-clock reads.
        let ctx = FileContext {
            rel_path: "crates/analyze/src/x.rs".to_string(),
            clock_exempt: true,
            ..det_ctx()
        };
        let src = "fn f() { let t = Instant::now(); let _ = SystemTime::now(); }";
        let d = check_source(&ctx, src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "metrics-placement"));
    }

    #[test]
    fn metrics_placement_flags_atomics_in_sanctioned_files() {
        // `core::par` is concurrency-sanctioned (R3 is silent), but
        // growing new atomic state there must route through impact_obs.
        let ctx = FileContext {
            rel_path: "crates/core/src/par.rs".to_string(),
            concurrency_sanctioned: true,
            ..det_ctx()
        };
        let src = "struct S { hits: AtomicU64 }";
        let d = check_source(&ctx, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "metrics-placement");
        let allowed = "// analyze::allow(metrics-placement): pool shutdown latch, not telemetry\n\
                       struct S { stop: AtomicBool }";
        assert!(check_source(&ctx, allowed).is_empty());
    }

    #[test]
    fn metrics_placement_exempts_the_sinks_themselves() {
        let src = "fn f() { let t = Instant::now(); let c = AtomicU64::new(0); }";
        for rel_path in ["crates/obs/src/lib.rs", "crates/bench/src/runner.rs"] {
            let ctx = FileContext {
                rel_path: rel_path.to_string(),
                deterministic: false,
                clock_exempt: true,
                concurrency_sanctioned: true,
                ..det_ctx()
            };
            let d = check_source(&ctx, src);
            assert!(
                d.iter().all(|d| d.rule != "metrics-placement"),
                "{rel_path}: {d:?}"
            );
        }
    }

    #[test]
    fn metrics_placement_is_silent_where_r2_and_r3_already_police() {
        // In deterministic, non-exempt code R2/R3 own these patterns; R7
        // must not double-flag (fixture counts depend on this).
        let src = "fn f() { let t = Instant::now(); let c = AtomicU64::new(0); }";
        let d = check_source(&det_ctx(), src);
        assert!(d.iter().all(|d| d.rule != "metrics-placement"), "{d:?}");
        assert!(d.iter().any(|d| d.rule == "wall-clock"));
        assert!(d.iter().any(|d| d.rule == "concurrency"));
    }
}
