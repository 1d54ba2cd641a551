//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! impact-analyze [--root DIR]
//! ```
//!
//! Prints `file:line: rule: message` diagnostics and exits 1 when any are
//! found (0 when clean, 2 on usage errors or when no workspace is found).

use std::path::PathBuf;
use std::process::ExitCode;

use impact_analyze::analyze_workspace;

fn usage() -> ExitCode {
    eprintln!("usage: impact-analyze [--root DIR]");
    ExitCode::from(2)
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]` — so the tool runs correctly from any subdirectory.
fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!(
                    "impact-analyze: determinism & concurrency static analysis\n\n\
                     usage: impact-analyze [--root DIR]\n\n\
                     Exits 0 when the workspace is clean, 1 when diagnostics were\n\
                     found, 2 on usage errors or when no workspace is found."
                );
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!("impact-analyze: no workspace Cargo.toml found above the cwd");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let diags = analyze_workspace(&root);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("impact-analyze: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("impact-analyze: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}
