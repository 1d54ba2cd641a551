//! Layer 2: cross-file invariant checks.
//!
//! These checks parse struct/enum/impl bodies out of the token stream and
//! verify *field-set coverage* — the drift class runtime tests catch late:
//!
//! * every `BackendStats` field must be folded by `merge`, covered by
//!   `AddAssign` (directly or by delegating to `merge`), compared by the
//!   manual `PartialEq`, and carried by the trace-footer codec
//!   (`TraceWriter::finish` + `TraceReader::read_footer`) — or listed in
//!   `analyze.toml` with a reason;
//! * every `TraceEvent` variant must have both an encode arm
//!   (`write_event`) and a decode arm (`next_event`);
//! * every configuration field in `config.rs` must feed
//!   `SystemConfig::fingerprint` — or be manifest-excluded;
//! * every `Engine` state field must be carried by `Engine::fork` — or
//!   be manifest-excluded — so a future field cannot silently escape
//!   forking.

use crate::lexer::{lex, TokKind, Token};
use crate::manifest::Manifest;
use crate::Diagnostic;

/// Source files the invariant checks anchor to, relative to the root.
pub const ENGINE_RS: &str = "crates/core/src/engine.rs";
/// Trace codec path (encode/decode arms + footer counters).
pub const CODEC_RS: &str = "crates/core/src/trace/codec.rs";
/// Configuration path (fingerprint coverage).
pub const CONFIG_RS: &str = "crates/core/src/config.rs";
/// The whole-system engine (fork field coverage).
pub const SIM_ENGINE_RS: &str = "crates/sim/src/engine.rs";

/// One named field with the line it is declared on.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field (or variant) identifier.
    pub name: String,
    /// 1-indexed declaration line.
    pub line: u32,
}

/// Returns the fields of `struct name { .. }`, or `None` when the struct
/// is absent (tuple/unit structs have no named fields and return `None`).
#[must_use]
pub fn struct_fields(tokens: &[Token], name: &str) -> Option<Vec<Field>> {
    let open = item_open_brace(tokens, "struct", name)?;
    let body = brace_range(tokens, open)?;
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut expect_field = true;
    let mut i = body.start;
    while i < body.end {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(',') {
                expect_field = true;
            } else if t.is_punct('#') {
                // Skip a field attribute.
                if let Some(next) = tokens.get(i + 1) {
                    if next.is_punct('[') {
                        let mut d = 0i32;
                        let mut j = i + 1;
                        while j < body.end {
                            if tokens[j].is_punct('[') {
                                d += 1;
                            } else if tokens[j].is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        i = j;
                    }
                }
            } else if expect_field
                && t.kind == TokKind::Ident
                && t.text != "pub"
                && t.text != "crate"
                && tokens.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && !tokens.get(i + 2).is_some_and(|x| x.is_punct(':'))
            {
                fields.push(Field {
                    name: t.text.clone(),
                    line: t.line,
                });
                expect_field = false;
            }
        }
        i += 1;
    }
    Some(fields)
}

/// Returns the variants of `enum name { .. }`.
#[must_use]
pub fn enum_variants(tokens: &[Token], name: &str) -> Option<Vec<Field>> {
    let open = item_open_brace(tokens, "enum", name)?;
    let body = brace_range(tokens, open)?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expect = true;
    for t in &tokens[body.start..body.end] {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(',') {
                expect = true;
            } else if expect && t.kind == TokKind::Ident {
                variants.push(Field {
                    name: t.text.clone(),
                    line: t.line,
                });
                expect = false;
            }
        }
    }
    Some(variants)
}

/// Token index range (exclusive of the braces themselves).
#[derive(Debug, Clone, Copy)]
pub struct Range {
    /// First token index inside the braces.
    pub start: usize,
    /// One past the last token index inside the braces.
    pub end: usize,
}

/// Finds `"{kw} {name}"` and returns the index of the `{` opening its body.
fn item_open_brace(tokens: &[Token], kw: &str, name: &str) -> Option<usize> {
    for i in 0..tokens.len() {
        if tokens[i].is_ident(kw) && tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            // Skip generics / where clauses up to the opening brace.
            for (j, t) in tokens.iter().enumerate().skip(i + 2) {
                if t.is_punct('{') {
                    return Some(j);
                }
                if t.is_punct(';') {
                    break; // unit struct / tuple struct decl
                }
            }
        }
    }
    None
}

/// Returns the token range enclosed by the brace at `open`.
fn brace_range(tokens: &[Token], open: usize) -> Option<Range> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(Range {
                    start: open + 1,
                    end: j,
                });
            }
        }
    }
    None
}

/// Body token range of the first `fn name` in the file.
#[must_use]
pub fn fn_body(tokens: &[Token], name: &str) -> Option<Range> {
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            for (j, t) in tokens.iter().enumerate().skip(i + 2) {
                if t.is_punct('{') {
                    return brace_range(tokens, j);
                }
                if t.is_punct(';') {
                    break; // trait method signature without a body
                }
            }
        }
    }
    None
}

/// Union of the body ranges of every `impl .. Trait .. for Type { .. }`.
#[must_use]
pub fn impl_bodies(tokens: &[Token], trait_name: &str, type_name: &str) -> Vec<Range> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            // Header runs to the opening brace; require the trait name, a
            // `for`, and the type name to all appear in it.
            let mut saw_trait = false;
            let mut saw_for = false;
            let mut saw_type = false;
            let mut j = i + 1;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                if tokens[j].is_ident(trait_name) {
                    saw_trait = true;
                } else if tokens[j].is_ident("for") {
                    saw_for = true;
                } else if saw_for && tokens[j].is_ident(type_name) {
                    saw_type = true;
                }
                j += 1;
            }
            if j < tokens.len() && saw_trait && saw_for && saw_type {
                if let Some(r) = brace_range(tokens, j) {
                    out.push(r);
                    i = r.end;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// How a field occurs inside a token range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Identifier not present at all.
    Absent,
    /// Present, but every occurrence is a discarded `name: _` binding.
    Discarded,
    /// At least one occurrence actually uses the value.
    Used,
}

/// Classifies how `name` is used within `range`.
#[must_use]
pub fn coverage(tokens: &[Token], range: Range, name: &str) -> Coverage {
    let mut seen = false;
    for i in range.start..range.end.min(tokens.len()) {
        if !tokens[i].is_ident(name) {
            continue;
        }
        seen = true;
        let discarded = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("_"));
        if !discarded {
            return Coverage::Used;
        }
    }
    if seen {
        Coverage::Discarded
    } else {
        Coverage::Absent
    }
}

fn used_in_any(tokens: &[Token], ranges: &[Range], name: &str) -> bool {
    ranges
        .iter()
        .any(|&r| coverage(tokens, r, name) == Coverage::Used)
}

/// True when `type_name`'s `#[derive(...)]` list names `trait_name` — a
/// derived impl compares (or clones, hashes, ...) every field by
/// construction, so per-field coverage holds without a manual impl.
#[must_use]
pub fn derives(tokens: &[Token], type_name: &str, trait_name: &str) -> bool {
    for i in 0..tokens.len() {
        if tokens[i].is_ident("struct") && tokens.get(i + 1).is_some_and(|t| t.is_ident(type_name))
        {
            // The attribute block sits between the previous item's end
            // (`;` or `}`, or file start) and the `struct` keyword.
            let start = tokens[..i]
                .iter()
                .rposition(|t| t.is_punct(';') || t.is_punct('}'))
                .map_or(0, |p| p + 1);
            let mut saw_derive = false;
            for t in &tokens[start..i] {
                if t.is_ident("derive") {
                    saw_derive = true;
                } else if saw_derive && t.is_ident(trait_name) {
                    return true;
                }
            }
            return false;
        }
    }
    false
}

/// Every struct defined with named fields in a file, in source order.
#[must_use]
pub fn all_structs(tokens: &[Token]) -> Vec<(String, Vec<Field>)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("struct") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    if let Some(fields) = struct_fields(tokens, &name_tok.text) {
                        out.push((name_tok.text.clone(), fields));
                    }
                }
            }
        }
    }
    out
}

/// Checks `BackendStats` coverage across `engine.rs` and the codec.
#[must_use]
pub fn check_backend_stats(
    engine_src: &str,
    codec_src: &str,
    manifest: &Manifest,
) -> Vec<Diagnostic> {
    let engine = lex(engine_src).tokens;
    let codec = lex(codec_src).tokens;
    let mut diags = Vec::new();

    let Some(fields) = struct_fields(&engine, "BackendStats") else {
        return vec![Diagnostic {
            file: ENGINE_RS.to_string(),
            line: 1,
            rule: "stats-coverage".to_string(),
            message: "struct BackendStats not found".to_string(),
        }];
    };

    let merge = fn_body(&engine, "merge");
    let eq_derived = derives(&engine, "BackendStats", "PartialEq");
    let eq_bodies = impl_bodies(&engine, "PartialEq", "BackendStats");
    let add_bodies = impl_bodies(&engine, "AddAssign", "BackendStats");
    let finish = fn_body(&codec, "finish");
    let footer = fn_body(&codec, "read_footer");

    // AddAssign may cover every field at once by delegating to `merge`.
    let add_delegates = add_bodies
        .iter()
        .any(|&r| coverage(&engine, r, "merge") == Coverage::Used);

    let mut diag = |line: u32, file: &str, msg: String| {
        diags.push(Diagnostic {
            file: file.to_string(),
            line,
            rule: "stats-coverage".to_string(),
            message: msg,
        });
    };

    for f in &fields {
        let n = &f.name;
        if !merge.is_some_and(|r| coverage(&engine, r, n) == Coverage::Used)
            && !manifest.excludes("backend_stats.merge_exclude", n)
        {
            diag(
                f.line,
                ENGINE_RS,
                format!(
                    "BackendStats field `{n}` is not folded in BackendStats::merge \
                     (or listed in analyze.toml [backend_stats] merge_exclude)"
                ),
            );
        }
        if !add_delegates
            && !used_in_any(&engine, &add_bodies, n)
            && !manifest.excludes("backend_stats.merge_exclude", n)
        {
            diag(
                f.line,
                ENGINE_RS,
                format!("BackendStats field `{n}` is not covered by AddAssign"),
            );
        }
        if !eq_derived
            && !used_in_any(&engine, &eq_bodies, n)
            && !manifest.excludes("backend_stats.partialeq_exclude", n)
        {
            diag(
                f.line,
                ENGINE_RS,
                format!(
                    "BackendStats field `{n}` is not compared by PartialEq — derive it, \
                     compare the field in the manual impl, or list it in analyze.toml \
                     [backend_stats] partialeq_exclude"
                ),
            );
        }
        let in_codec = finish.is_some_and(|r| coverage(&codec, r, n) == Coverage::Used)
            && footer.is_some_and(|r| coverage(&codec, r, n) == Coverage::Used);
        if !in_codec && !manifest.excludes("backend_stats.codec_exclude", n) {
            diag(
                f.line,
                ENGINE_RS,
                format!(
                    "BackendStats field `{n}` is not carried by the trace-footer codec \
                     (TraceWriter::finish + TraceReader::read_footer), nor listed in \
                     analyze.toml [backend_stats] codec_exclude"
                ),
            );
        }
    }
    diags
}

/// Checks that every `TraceEvent` variant has encode and decode arms.
#[must_use]
pub fn check_trace_events(trace_mod_src: &str, codec_src: &str) -> Vec<Diagnostic> {
    let trace_mod = lex(trace_mod_src).tokens;
    let codec = lex(codec_src).tokens;
    let mut diags = Vec::new();

    let Some(variants) = enum_variants(&trace_mod, "TraceEvent") else {
        return vec![Diagnostic {
            file: CODEC_RS.to_string(),
            line: 1,
            rule: "trace-coverage".to_string(),
            message: "enum TraceEvent not found".to_string(),
        }];
    };
    let encode = fn_body(&codec, "write_event");
    let decode = fn_body(&codec, "next_event");
    for v in &variants {
        let n = &v.name;
        if !encode.is_some_and(|r| coverage(&codec, r, n) == Coverage::Used) {
            diags.push(Diagnostic {
                file: CODEC_RS.to_string(),
                line: v.line,
                rule: "trace-coverage".to_string(),
                message: format!("TraceEvent::{n} has no encode arm in TraceWriter::write_event"),
            });
        }
        if !decode.is_some_and(|r| coverage(&codec, r, n) == Coverage::Used) {
            diags.push(Diagnostic {
                file: CODEC_RS.to_string(),
                line: v.line,
                rule: "trace-coverage".to_string(),
                message: format!("TraceEvent::{n} has no decode arm in TraceReader::next_event"),
            });
        }
    }
    diags
}

/// Checks that every configuration field feeds `fingerprint()`.
#[must_use]
pub fn check_fingerprint(config_src: &str, manifest: &Manifest) -> Vec<Diagnostic> {
    let config = lex(config_src).tokens;
    let mut diags = Vec::new();
    let Some(body) = fn_body(&config, "fingerprint") else {
        return vec![Diagnostic {
            file: CONFIG_RS.to_string(),
            line: 1,
            rule: "fingerprint-coverage".to_string(),
            message: "fn fingerprint not found".to_string(),
        }];
    };
    for (struct_name, fields) in all_structs(&config) {
        for f in fields {
            let key = format!("{struct_name}.{}", f.name);
            if coverage(&config, body, &f.name) != Coverage::Used
                && !manifest.excludes("fingerprint.exclude", &key)
            {
                diags.push(Diagnostic {
                    file: CONFIG_RS.to_string(),
                    line: f.line,
                    rule: "fingerprint-coverage".to_string(),
                    message: format!(
                        "configuration field `{key}` does not feed SystemConfig::fingerprint \
                         (or analyze.toml [fingerprint] exclude); trace replays could not \
                         detect a config mismatch in it"
                    ),
                });
            }
        }
    }
    diags
}

/// Checks that every `Engine` state field is carried by `Engine::fork`.
/// A field the fork leaves out would silently escape forking: a fork
/// would reset (or default) it while from-scratch runs rebuild it, and
/// the divergence only surfaces once that state affects an output —
/// exactly the drift class the fork-equivalence proptests catch late and
/// this check catches at CI time. Intentionally unforked fields are
/// listed in `analyze.toml [engine_snapshot] exclude` with a reason.
#[must_use]
pub fn check_engine_snapshot(sim_engine_src: &str, manifest: &Manifest) -> Vec<Diagnostic> {
    let engine = lex(sim_engine_src).tokens;
    let Some(fields) = struct_fields(&engine, "Engine") else {
        return vec![Diagnostic {
            file: SIM_ENGINE_RS.to_string(),
            line: 1,
            rule: "snapshot-coverage".to_string(),
            message: "struct Engine not found".to_string(),
        }];
    };
    let fork = fn_body(&engine, "fork");
    let mut diags = Vec::new();
    for f in &fields {
        let n = &f.name;
        if manifest.excludes("engine_snapshot.exclude", n)
            || fork.is_some_and(|r| coverage(&engine, r, n) == Coverage::Used)
        {
            continue;
        }
        diags.push(Diagnostic {
            file: SIM_ENGINE_RS.to_string(),
            line: f.line,
            rule: "snapshot-coverage".to_string(),
            message: format!(
                "Engine field `{n}` is not carried by Engine::fork (or listed in \
                 analyze.toml [engine_snapshot] exclude); forks would silently drop it"
            ),
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = "
        pub struct BackendStats {
            pub accesses: u64,
            pub padded: u64,
            pub extra: u64,
        }
        impl BackendStats {
            pub fn merge(&mut self, other: &BackendStats) {
                self.accesses += other.accesses;
                self.padded += other.padded;
            }
        }
        impl PartialEq for BackendStats {
            fn eq(&self, other: &BackendStats) -> bool {
                let BackendStats { accesses, padded, extra: _ } = *self;
                accesses == other.accesses && padded == other.padded
            }
        }
        impl core::ops::AddAssign for BackendStats {
            fn add_assign(&mut self, rhs: BackendStats) { self.merge(&rhs); }
        }
    ";

    const CODEC: &str = "
        fn finish(stats: &BackendStats) {
            let BackendStats { accesses, padded, extra: _ } = *stats;
            emit(accesses); emit(padded);
        }
        fn read_footer() -> BackendStats {
            BackendStats { accesses: r(), padded: r(), ..BackendStats::default() }
        }
    ";

    #[test]
    fn uncovered_field_is_reported_per_consumer() {
        let d = check_backend_stats(STATS, CODEC, &Manifest::default());
        // `extra` is missing from merge, discarded in PartialEq, and
        // absent from the codec; AddAssign delegates to merge so it does
        // not complain separately.
        let msgs: Vec<_> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(d.len(), 3, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("`extra`")));
        assert!(msgs.iter().any(|m| m.contains("merge")));
        assert!(msgs.iter().any(|m| m.contains("PartialEq")));
        assert!(msgs.iter().any(|m| m.contains("codec")));
        // Diagnostics anchor to the field's declaration line.
        assert!(d.iter().all(|d| d.line == 5));
    }

    #[test]
    fn derived_partialeq_covers_every_field() {
        // A `#[derive(PartialEq)]` compares all fields by construction,
        // so only merge and codec coverage can still be missing.
        let stats = "
            #[derive(Debug, Clone, Default, PartialEq)]
            pub struct BackendStats {
                pub accesses: u64,
                pub extra: u64,
            }
            impl BackendStats {
                pub fn merge(&mut self, other: &BackendStats) {
                    self.accesses += other.accesses;
                }
            }
            impl core::ops::AddAssign for BackendStats {
                fn add_assign(&mut self, rhs: BackendStats) { self.merge(&rhs); }
            }
        ";
        let codec = "
            fn finish(stats: &BackendStats) { emit(stats.accesses); }
            fn read_footer() -> BackendStats {
                BackendStats { accesses: r(), ..BackendStats::default() }
            }
        ";
        let d = check_backend_stats(stats, codec, &Manifest::default());
        let msgs: Vec<_> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(d.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("`extra`")));
        assert!(!msgs.iter().any(|m| m.contains("PartialEq")), "{msgs:?}");
    }

    #[test]
    fn derive_detection_does_not_leak_from_the_previous_item() {
        let src = "
            #[derive(PartialEq)]
            struct Other { a: u64 }
            struct BackendStats { b: u64 }
        ";
        let tokens = lex(src).tokens;
        assert!(derives(&tokens, "Other", "PartialEq"));
        assert!(!derives(&tokens, "BackendStats", "PartialEq"));
    }

    #[test]
    fn manifest_exclusions_silence_the_report() {
        let m = Manifest::parse(
            "[backend_stats]\nmerge_exclude = [\"extra\"]\n\
             partialeq_exclude = [\"extra\"]\ncodec_exclude = [\"extra\"]\n",
        )
        .unwrap();
        assert!(check_backend_stats(STATS, CODEC, &m).is_empty());
    }

    #[test]
    fn trace_variant_without_decode_arm_is_reported() {
        let trace_mod = "pub enum TraceEvent { Request(MemRequest), Inject { bank: usize } }";
        let codec = "
            fn write_event(ev: &TraceEvent) {
                match ev { TraceEvent::Request(r) => e(r), TraceEvent::Inject { bank } => i(bank) }
            }
            fn next_event() -> TraceEvent {
                TraceEvent::Request(read())
            }
        ";
        let d = check_trace_events(trace_mod, codec);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Inject"));
        assert!(d[0].message.contains("decode"));
    }

    #[test]
    fn fingerprint_misses_unreferenced_fields() {
        let config = "
            pub struct SystemConfig { pub cores: u32, pub phantom_knob: u64 }
            impl SystemConfig {
                pub fn fingerprint(&self) -> u64 { fold(self.cores) }
            }
        ";
        let d = check_fingerprint(config, &Manifest::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SystemConfig.phantom_knob"));
        let m =
            Manifest::parse("[fingerprint]\nexclude = [\"SystemConfig.phantom_knob\"]\n").unwrap();
        assert!(check_fingerprint(config, &m).is_empty());
    }

    #[test]
    fn engine_snapshot_misses_uncovered_fields() {
        let engine = "
            pub struct Engine<B: MemoryBackend> { backend: B, tlbs: Vec<Tlb>, scratch: u64 }
            impl<B: MemoryBackend + Clone> Engine<B> {
                pub fn fork(&self) -> Engine<B> {
                    Engine { backend: self.backend.clone(), tlbs: self.tlbs.clone() }
                }
            }
        ";
        let d = check_engine_snapshot(engine, &Manifest::default());
        // `scratch` is missing from the fork.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "snapshot-coverage");
        assert!(d[0].message.contains("`scratch`"));
        assert!(d[0].message.contains("Engine::fork"));
        let m = Manifest::parse("[engine_snapshot]\nexclude = [\"scratch\"]\n").unwrap();
        assert!(check_engine_snapshot(engine, &m).is_empty());
    }

    #[test]
    fn struct_fields_skip_generic_type_arguments() {
        let toks =
            lex("struct S { index: HashMap<u64, usize, FxBuildHasher>, hand: usize }").tokens;
        let f = struct_fields(&toks, "S").unwrap();
        let names: Vec<_> = f.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["index", "hand"]);
    }

    #[test]
    fn enum_variants_skip_payload_fields() {
        let toks = lex(
            "pub enum TraceEvent { Request(MemRequest), Batch(Vec<MemRequest>), \
             Inject { bank: usize, row: u64 } }",
        )
        .tokens;
        let v = enum_variants(&toks, "TraceEvent").unwrap();
        let names: Vec<_> = v.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["Request", "Batch", "Inject"]);
    }
}
