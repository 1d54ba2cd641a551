//! The sanctioned exceptions to the determinism lints.
//!
//! `crates/clippy.toml` disallows the types and functions through which
//! hash order, the host clock, the environment, thread scheduling or a
//! copy-on-write alias could reach a result (README "Static analysis").
//! A site that needs one anyway carries
//! `#[expect(clippy::disallowed_*, reason = "...")]`. This test pins
//! where those sites are, so a new one changes this list in the same
//! diff, and it rejects an `allow` for these lints, which unlike an
//! `expect` stays silent once nothing triggers it.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Each file under `crates/` holding `disallowed_*` expectations, with
/// how many it holds.
const SANCTIONED: &[(&str, usize)] = &[
    // `ordered_map`, the one worker pool, and its test module.
    ("crates/core/src/par.rs", 2),
    // `CowBox::unshare`, the one copy-on-write unshare.
    ("crates/core/src/cow.rs", 1),
    // The telemetry sinks' atomics and clock, crate-wide.
    ("crates/obs/src/lib.rs", 1),
    // A test sink: the capture writer is boxed as `Send`, so the test
    // reads its bytes back through a `Mutex`.
    ("crates/bench/src/trace_tools.rs", 1),
];

/// Every `.rs` file under `dir`, as paths relative to `root` with `/`
/// separators.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The attributes in `src`, each joined onto one line.
fn attributes(src: &str) -> Vec<String> {
    let open = |s: &str| s.matches('[').count() > s.matches(']').count();
    let mut out = Vec::new();
    let mut lines = src.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if !(line.starts_with("#[") || line.starts_with("#![")) {
            continue;
        }
        let mut attr = line.to_string();
        while open(&attr) {
            let Some(next) = lines.next() else { break };
            attr.push_str(next);
        }
        out.push(attr);
    }
    out
}

#[test]
fn disallowed_lint_expectations_are_the_sanctioned_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &root.join("crates"), &mut files);
    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for file in files {
        let src = fs::read_to_string(root.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for attr in attributes(&src) {
            if !attr.contains("clippy::disallowed_") {
                continue;
            }
            assert!(
                attr.starts_with("#[expect(") || attr.starts_with("#![expect("),
                "{file}: `{attr}` must be an `expect`, which fails once nothing triggers it"
            );
            *found.entry(file.clone()).or_default() += 1;
        }
    }
    let sanctioned: BTreeMap<String, usize> = SANCTIONED
        .iter()
        .map(|&(file, n)| (file.to_string(), n))
        .collect();
    assert_eq!(
        found, sanctioned,
        "the disallowed-lint exemptions changed; a new one is reviewed here"
    );
}
