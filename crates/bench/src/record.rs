//! The line-oriented JSON format of the committed benchmark record
//! (`BENCH_hotpath.json`, written by `bench_record`).
//!
//! A record file keeps one run per line under `"runs"`, oldest first;
//! each run maps a bench key to an integer value. Re-recording a label
//! replaces that run in place, so iterating on a PR does not grow the
//! history, and `--check` compares key sets (not values) so CI catches
//! renamed/added/removed keys that were not re-recorded.

use std::collections::BTreeSet;

/// Extracts the bench keys of one `{"label": ..., "benches": {...}}` run
/// line. Values are unquoted integers and keys contain no escapes, so the
/// quoted strings after `"benches"` are exactly the keys.
#[must_use]
pub fn bench_keys(run_line: &str) -> BTreeSet<String> {
    let Some(pos) = run_line.find("\"benches\"") else {
        return BTreeSet::new();
    };
    run_line[pos + "\"benches\"".len()..]
        .split('"')
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, s)| s.to_string())
        .collect()
}

/// The `"label"` value of a run line.
#[must_use]
pub fn run_label(run_line: &str) -> Option<&str> {
    let tail = run_line.trim_start().strip_prefix("{\"label\": \"")?;
    tail.split('"').next()
}

/// Formats one run as a single JSON line (no trailing comma).
#[must_use]
pub fn format_run(label: &str, benches: &[(String, u128)]) -> String {
    let body: Vec<String> = benches
        .iter()
        .map(|(id, v)| format!("\"{id}\": {v}"))
        .collect();
    format!(
        "{{\"label\": \"{label}\", \"benches\": {{{}}}}}",
        body.join(", ")
    )
}

/// The run lines of an existing record file, oldest first.
#[must_use]
pub fn existing_runs(contents: &str) -> Vec<String> {
    contents
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"label\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// The `"machine_note"` of an existing record file, if any.
#[must_use]
pub fn existing_note(contents: &str) -> Option<String> {
    let line = contents
        .lines()
        .find(|l| l.trim_start().starts_with("\"machine_note\""))?;
    line.split('"').nth(3).map(str::to_string)
}

/// Renders the whole record file from its unit, note and run lines.
#[must_use]
pub fn render_file(unit: &str, note: &str, runs: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"unit\": \"{unit}\",\n"));
    out.push_str(&format!("  \"machine_note\": \"{note}\",\n"));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!("    {run}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_line_roundtrip() {
        let line = format_run(
            "pr-test",
            &[("memctrl/a_1".to_string(), 42), ("system/b".to_string(), 7)],
        );
        assert_eq!(run_label(&line), Some("pr-test"));
        let keys = bench_keys(&line);
        assert_eq!(keys.iter().collect::<Vec<_>>(), ["memctrl/a_1", "system/b"]);
    }

    #[test]
    fn file_merge_replaces_matching_label() {
        let v1 = render_file("ns", "note", &[format_run("a", &[("x".into(), 1)])]);
        assert_eq!(existing_note(&v1).as_deref(), Some("note"));
        let runs = existing_runs(&v1);
        assert_eq!(runs.len(), 1);
        let mut runs: Vec<String> = runs
            .into_iter()
            .filter(|r| run_label(r) != Some("a"))
            .collect();
        runs.push(format_run("a", &[("x".into(), 2)]));
        let v2 = render_file("ns", "note", &runs);
        let runs2 = existing_runs(&v2);
        assert_eq!(runs2.len(), 1, "same label replaces, not appends");
        assert!(runs2[0].contains("\"x\": 2"));
    }

    #[test]
    fn key_drift_is_detected() {
        let old = format_run("a", &[("x".into(), 1), ("y".into(), 2)]);
        let new_keys: BTreeSet<String> = ["x".to_string(), "z".to_string()].into();
        let recorded = bench_keys(&old);
        assert_ne!(recorded, new_keys);
        assert!(recorded.difference(&new_keys).eq(["y".to_string()].iter()));
        assert!(new_keys.difference(&recorded).eq(["z".to_string()].iter()));
    }
}
