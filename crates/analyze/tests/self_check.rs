//! Self-check: the analyzer runs clean on the real workspace, seeded
//! violations in *real* workspace sources produce `file:line`
//! diagnostics, and the binary's exit codes hold.

use std::path::{Path, PathBuf};

use impact_analyze::{analyze_workspace, classify, lexer, rules, workspace_files};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze has a workspace two levels up")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    let root = workspace_root();
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn real_workspace_is_clean() {
    let diags = analyze_workspace(&workspace_root());
    assert!(
        diags.is_empty(),
        "workspace has findings:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Simulation state leaves an `Arc` in one place: production code holds
/// exactly one `analyze::allow(cow-aliasing)`, on the `CowBox` unshare.
/// A second unshare site would need an allow of its own, so it cannot
/// come back unnoticed.
#[test]
fn cow_box_unshare_is_the_one_allowed_unshare() {
    let root = workspace_root();
    let mut sites = Vec::new();
    for rel in workspace_files(&root) {
        if classify(&rel).test_file {
            continue;
        }
        let lexed = lexer::lex(&read(&rel));
        let in_test = lexer::test_regions(&lexed.tokens);
        for c in &lexed.comments {
            if !c.text.trim().starts_with("analyze::allow(cow-aliasing)") {
                continue;
            }
            // An allow covers the code that follows it; one in a test
            // module is not production code.
            let site = lexed.tokens.iter().position(|t| t.line > c.line);
            if site.is_some_and(|i| !in_test[i]) {
                sites.push(format!("{rel}:{}", c.line));
            }
        }
    }
    assert_eq!(sites.len(), 1, "cow-aliasing allows: {sites:?}");
    assert!(sites[0].starts_with("crates/core/src/cow.rs:"), "{sites:?}");
}

/// Seeding demo (a): a `HashMap` iteration added to a real `crates/sim`
/// source file is caught by R1 under that file's real classification.
#[test]
fn seeded_hashmap_iteration_in_sim_is_caught() {
    let rel = "crates/sim/src/tlb.rs";
    let clean = read(rel);
    assert!(rules::check_source(&classify(rel), &clean).is_empty());

    let seeded = format!(
        "{clean}\
         fn dump(map: &std::collections::HashMap<u64, u64>) -> u64 {{\n\
         \x20   map.values().sum()\n\
         }}\n"
    );
    let diags = rules::check_source(&classify(rel), &seeded);
    let hit = diags
        .iter()
        .find(|d| d.rule == "unordered-iter")
        .unwrap_or_else(|| panic!("no unordered-iter finding: {diags:?}"));
    // Anchored to the injected `.values()` line, one past the clean EOF.
    assert_eq!(hit.line as usize, clean.lines().count() + 2, "{hit}");
    assert!(hit.to_string().starts_with("crates/sim/src/tlb.rs:"));
}

/// Seeding demo (b): `thread::spawn` outside the sanctioned sites is
/// caught by R3, again under the file's real classification.
#[test]
fn seeded_thread_spawn_outside_sanctioned_sites_is_caught() {
    let rel = "crates/dram/src/mapping.rs";
    let clean = read(rel);
    assert!(rules::check_source(&classify(rel), &clean).is_empty());

    let seeded = format!("{clean}fn sneak() {{ std::thread::spawn(|| ()); }}\n");
    let diags = rules::check_source(&classify(rel), &seeded);
    let hit = diags
        .iter()
        .find(|d| d.rule == "concurrency")
        .unwrap_or_else(|| panic!("no concurrency finding: {diags:?}"));
    assert_eq!(hit.line as usize, clean.lines().count() + 1, "{hit}");
}

/// The seeded diagnostics above are what gate CI: any diagnostic makes
/// the binary exit non-zero. Exercise that end-to-end against a temp
/// workspace so the exit-code contract itself is under test.
#[test]
fn binary_exits_nonzero_on_a_seeded_workspace() {
    let bin = env!("CARGO_BIN_EXE_impact-analyze");
    let dir = std::env::temp_dir().join("impact-analyze-selfcheck");
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("temp workspace");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/sim\"]\n",
    )
    .unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn leak(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
         \x20   m.values().sum()\n\
         }\n",
    )
    .unwrap();

    let out = std::process::Command::new(bin)
        .args(["--root", dir.to_str().unwrap()])
        .output()
        .expect("run impact-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/sim/src/lib.rs:2: unordered-iter:"),
        "stdout:\n{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the binary does not know, the deleted `--fix-allowlist`
/// included, is a usage error: exit 2 with the usage line, no scan.
#[test]
fn binary_rejects_unknown_flags_with_usage() {
    let bin = env!("CARGO_BIN_EXE_impact-analyze");
    for flag in ["--fix-allowlist", "--no-such-flag"] {
        let out = std::process::Command::new(bin)
            .arg(flag)
            .output()
            .expect("run impact-analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr:\n{stderr}");
        assert_eq!(stderr, "usage: impact-analyze [--root DIR]\n", "{flag}");
        assert!(out.stdout.is_empty(), "{flag} must not scan");
    }
}
