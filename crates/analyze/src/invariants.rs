//! Layer 2: the cross-file coverage check rustc cannot make.
//!
//! Every `TraceEvent` variant must have both an encode arm
//! (`write_event`) and a decode arm (`next_event`). The encoder matches
//! on the event, so rustc already rejects a missing encode arm; the
//! decoder builds events from tags read off the stream, so nothing but
//! this check notices a variant it never produces.
//!
//! The other field-set contracts are compile errors instead: exhaustive
//! destructures in `TraceWriter::finish`, `SystemConfig::fingerprint` and
//! `Clock::fold_fingerprint`, and full struct literals in
//! `TraceReader::read_footer`, `Engine::fork` and `Agent::fork`.

use crate::lexer::{lex, TokKind, Token};
use crate::Diagnostic;

/// Trace codec path (encode/decode arms).
pub const CODEC_RS: &str = "crates/core/src/trace/codec.rs";

/// One enum variant with the line it is declared on.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant identifier.
    pub name: String,
    /// 1-indexed declaration line.
    pub line: u32,
}

/// Returns the variants of `enum name { .. }`.
#[must_use]
pub fn enum_variants(tokens: &[Token], name: &str) -> Option<Vec<Variant>> {
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
                variants.push(Variant {
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
                    break; // a declaration without a body
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

/// True when `name` occurs as an identifier inside `range`.
fn mentions(tokens: &[Token], range: Range, name: &str) -> bool {
    tokens[range.start..range.end]
        .iter()
        .any(|t| t.is_ident(name))
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
        if !encode.is_some_and(|r| mentions(&codec, r, n)) {
            diags.push(Diagnostic {
                file: CODEC_RS.to_string(),
                line: v.line,
                rule: "trace-coverage".to_string(),
                message: format!("TraceEvent::{n} has no encode arm in TraceWriter::write_event"),
            });
        }
        if !decode.is_some_and(|r| mentions(&codec, r, n)) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
