//! Determinism self-check: the counts a single client makes must repeat
//! exactly under one seed. Runs every workload twice per mode and
//! compares them, and fails on any run that reports a wrong answer.
//!
//! The seed is one not used while the workloads were sized. Run in
//! release:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["ycsb-c-uniform-email", "ycsb-e-url", "drift-email"];

/// Counts (by `--trace` mode) that must not differ between two runs.
const EXACT: [(&str, &[&str]); 2] = [
    ("0", &["mem_bytes_per_user_byte"]),
    (
        "1",
        &[
            "maintain.swaps",
            "maintain.incremental_swaps",
            "maintain.reencoded_bytes",
            "maintain.reused_bytes",
            "cursor.hits_per_scan",
            "encoder.cpr",
            "store.mem.heap_bytes",
            "btree.bytes_per_key",
            "btree.raw_bytes_per_key",
        ],
    ),
];

const SEED: &str = "20261017";

/// Run the benchmark once; return its result line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1", "--trace", trace])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        out.status.success() && last.starts_with("{\"correct\": true"),
        "{workload} --trace {trace} failed: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

/// The value of metric `name` in a result line, as printed.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing from {line}")) + key.len();
    let len = line[start..].find(',').expect("value is followed by its unit");
    &line[start..start + len]
}

#[test]
fn counts_repeat_under_one_seed() {
    for workload in WORKLOADS {
        for (trace, names) in EXACT {
            let (a, b) = (run(workload, trace), run(workload, trace));
            for name in names {
                assert_eq!(value(&a, name), value(&b, name), "{workload}: {name} differs");
            }
        }
    }
}

#[test]
fn rejects_bad_arguments() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .status()
        .expect("run the benchmark binary");
    assert_eq!(status.code(), Some(2));
}
