//! Self-test of the benchmark: every workload at tiny size, untraced and
//! traced. Asserts that every metric `BENCHMARK.json` names is printed
//! with its unit, that no unit failed, and that the traced run produced
//! the same outputs as the untraced one.
//!
//! Run with `cargo test --release --manifest-path rdsbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "fault-campaign",
    "locality-sweep",
    "conformance",
    "serve-recover",
];

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

struct Run {
    stamp: String,
    result: String,
    text: String,
}

fn run(workload: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_rdsbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{text}"
    );
    let lines: Vec<&str> = text.lines().collect();
    Run {
        stamp: lines.first().expect("stamp line").to_string(),
        result: lines.last().expect("result line").to_string(),
        text,
    }
}

/// The string value of `"key": "..."` in a JSON line.
fn string_field(line: &str, key: &str) -> String {
    let at = line
        .find(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("{key} missing"))
        + key.len()
        + 5;
    line[at..at + line[at..].find('"').expect("closing quote")].to_string()
}

fn check_metrics(r: &Run, metrics: &[(String, String)]) {
    assert!(r.result.starts_with("{\"correct\": true, "), "{}", r.result);
    assert!(r.result.contains("\"failed\": 0, "), "{}", r.result);
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = r
            .result
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing: {}", r.result));
        let rest = &r.result[at + entry.len()..];
        let comma = rest.find(',').expect("value ends");
        let value: f64 = rest[..comma].parse().expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name}: unit is not {unit}"
        );
    }
    let failed_frac = r
        .text
        .lines()
        .find(|l| l.starts_with("failed_frac"))
        .expect("failed_frac line");
    assert!(
        failed_frac.split_whitespace().nth(1) == Some("0.000000"),
        "{failed_frac}"
    );
}

#[test]
fn every_workload_reports_every_metric_with_no_failures() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let plain = run(w, "0");
        check_metrics(&plain, &end_to_end);
        let traced = run(w, "1");
        check_metrics(&traced, &per_layer);
        // The traced run checks its samples against its own untraced
        // rounds; across processes the aggregate outputs must agree too.
        assert_eq!(
            string_field(&plain.stamp, "output_digest"),
            string_field(&traced.stamp, "output_digest"),
            "{w}: traced output differs from untraced"
        );
    }
}
