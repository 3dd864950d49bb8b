//! The benchmark's self-test: two traced runs of one workload at one
//! seed must report identical exact counts (units `count`, `B` and
//! `sim_us`: packets, records, checkpoint bytes, IPC frames, fleet
//! counters, allocations).
//!
//! ```sh
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::process::Command;

const EXACT_UNITS: [&str; 3] = ["count", "B", "sim_us"];

/// Counts that move with wall-clock timing, by the program's design:
/// each simulated session snapshots its wall-clock `sim.*_ns`
/// histograms into sparse bucket lists, whose length (and so the
/// allocations that build them) depends on how the timings fell.
const TIMING_DEPENDENT: [&str; 1] = ["alloc.sim_per_packet"];

/// `(name, value as printed, unit)` for every metric of a result line.
fn metrics(line: &str) -> Vec<(String, String, String)> {
    const VALUE: &str = "\": {\"value\": ";
    const UNIT: &str = ", \"unit\": \"";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(VALUE) {
        let name_start = rest[..at].rfind('"').expect("metric name is quoted") + 1;
        let name = rest[name_start..at].to_string();
        let after = &rest[at + VALUE.len()..];
        let unit_at = after.find(UNIT).expect("value is followed by its unit");
        let value = after[..unit_at].to_string();
        let unit_rest = &after[unit_at + UNIT.len()..];
        let unit_end = unit_rest.find('"').expect("unit is quoted");
        out.push((name, value, unit_rest[..unit_end].to_string()));
        rest = &unit_rest[unit_end..];
    }
    out
}

fn traced_run(workload: &str, seed: u64) -> Vec<(String, String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_wm-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: traced run failed\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    metrics(line)
}

fn assert_counts_repeat(workload: &str) {
    let first = traced_run(workload, 3);
    let second = traced_run(workload, 3);
    assert_eq!(first.len(), second.len());
    let mut nonzero = 0;
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.0, b.0);
        if EXACT_UNITS.contains(&a.2.as_str()) && !TIMING_DEPENDENT.contains(&a.0.as_str()) {
            assert_eq!(a.1, b.1, "{workload}: {} differs between runs", a.0);
            nonzero += usize::from(a.1 != "0.0");
        }
    }
    assert!(nonzero > 0, "{workload}: no exact count was measured");
}

#[test]
fn result_lines_parse() {
    let m = metrics(
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a.b\": \
         {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2e-7, \"unit\": \"count\"}}}",
    );
    assert_eq!(
        m,
        vec![
            ("a.b".into(), "1.5".into(), "ms".into()),
            ("c".into(), "2e-7".into(), "count".into())
        ]
    );
}

/// One test for every workload, run one after another: each run
/// already uses every core.
#[test]
fn traced_counts_repeat_at_one_seed() {
    for workload in ["paper_e2e", "attack_replay", "fleet_replay"] {
        assert_counts_repeat(workload);
    }
}
