//! E12: supervised fleet kill/resume under chaos.
//!
//! Sweeps shard-fault intensity 0–4 over a supervised
//! [`wm_fleet::Fleet`] fed one merged multi-victim stream. Reported
//! per intensity: kills, delivered verdicts, total loss-window
//! sim-time, mean and worst-shard recovery latency, restore failures
//! and health alerts, written to `BENCH_fleet.json` (schema-checked
//! in-process; CI validates the same file and diffs it against
//! `baselines/BENCH_fleet.json`). The intensity-2 run also writes the
//! E13 artifacts `FLEET_series.jsonl` and `FLEET_flame.folded`.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin fleet_recovery [-- --smoke]
//! ```
//!
//! `--smoke` (or `WM_FLEET_SMOKE=1`) shrinks the sweep for CI.
//!
//! The intensity-0 run doubles as an equivalence gate: with no faults
//! injected, the supervised fleet must deliver exactly the per-victim
//! verdicts an unsupervised decode of each capture produces.

use wm_bench::fleet::{
    resident_fleet_cfg, run_fleet, staggered_stream, stream_span_us, validate_fleet_json,
    IntensityRow,
};
use wm_bench::{capture_pool, graph, train_attack_for, write_bench_json, CapturePool};
use wm_capture::time::Duration;
use wm_chaos::ShardFaultPlan;
use wm_dataset::OperationalConditions;
use wm_fleet::FleetReport;
use wm_obs::collapse_spans;
use wm_online::{replay_session, SessionDecode};

const SHARDS: usize = 4;
const INTENSITIES: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("WM_FLEET_SMOKE").is_ok_and(|v| v == "1");

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[82_001, 82_002, 82_003]);
    let classifier = attack.classifier().clone();

    println!("=== E12: supervised fleet kill/resume ===\n");

    let pool_n: u64 = if smoke { 4 } else { 12 };
    let victims: usize = if smoke { 8 } else { 48 };
    let CapturePool {
        captures,
        mut telemetry,
        mut tally,
    } = capture_pool(&graph, cond, 83_000, pool_n);
    let stream = staggered_stream(&captures, victims);
    let span_us = stream_span_us(&stream);
    let cfg = resident_fleet_cfg(SHARDS, victims, span_us);
    println!(
        "  capture pool: {pool_n} sessions, {victims} victims, {} packets",
        stream.len()
    );

    // The unsupervised decode of each capture, for the intensity-0 gate.
    let baseline: Vec<SessionDecode> = captures
        .iter()
        .map(|c| replay_session(&classifier, &graph, &cfg.decode, c))
        .collect();

    // ---- fleet sweep over fault intensity ---------------------------
    let mut rows: Vec<IntensityRow> = Vec::new();
    let mut alerts: Vec<(u32, u64)> = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = ShardFaultPlan::generate(
            0xE120 + intensity as u64,
            intensity,
            SHARDS,
            Duration::from_micros(span_us),
        );
        let (report, trace_events) =
            run_fleet(&cfg, &classifier, &graph, &stream, Some(&plan), None);
        if intensity == 0.0 {
            assert_intensity0_matches_baseline(&report, &baseline, victims);
        }
        let obs = report.obs.as_ref().expect("observer attached to every run");
        let alert_count = obs.status.transitions.len() as u64 + obs.status.transitions_dropped;
        alerts.push((intensity as u32, alert_count));
        telemetry.merge(&obs.snapshot);
        tally.observe(&trace_events);
        let row = IntensityRow::from_report(intensity as u32, &report);
        println!(
            "  intensity {}: kills {:<3} restarts {:<3} verdicts {:<5} dropped {:<4} \
             loss-window {:>8} µs  mean recovery {:>8} µs",
            row.intensity,
            row.kills,
            row.restarts,
            row.verdicts,
            row.dedup_dropped,
            row.loss_window_us,
            row.recovery_latency_us,
        );
        println!(
            "               per-shard: restore failures {}  worst outage {} µs",
            row.restore_failures, row.max_shard_recovery_us,
        );
        println!(
            "               health: {}  alerts {} (worst {})",
            obs.status
                .states
                .iter()
                .map(|s| s.label().chars().next().unwrap_or('?'))
                .collect::<String>(),
            alert_count,
            obs.status.worst().label(),
        );
        // The intensity-2 run is the E13 exhibit: CI uploads its
        // streamed metric series and the sim-time flamegraph.
        if intensity == 2.0 {
            write_artifact("FLEET_series.jsonl", &obs.series_jsonl);
            write_artifact("FLEET_flame.folded", &collapse_spans(&trace_events));
        }
        rows.push(row);
    }

    // ---- report ------------------------------------------------------
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for row in &rows {
        metrics.push((format!("kills_i{}", row.intensity), row.kills as f64));
        metrics.push((format!("verdicts_i{}", row.intensity), row.verdicts as f64));
        metrics.push((
            format!("loss_window_us_i{}", row.intensity),
            row.loss_window_us as f64,
        ));
        metrics.push((
            format!("recovery_latency_us_i{}", row.intensity),
            row.recovery_latency_us as f64,
        ));
        metrics.push((
            format!("restore_failures_i{}", row.intensity),
            row.restore_failures as f64,
        ));
        metrics.push((
            format!("max_shard_recovery_us_i{}", row.intensity),
            row.max_shard_recovery_us as f64,
        ));
    }
    for (intensity, n) in &alerts {
        metrics.push((format!("alerts_i{intensity}"), *n as f64));
    }
    let metric_refs: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_bench_json("fleet", &metric_refs, &telemetry, &tally);

    // Self-check the artifact CI uploads and gates on.
    let json = std::fs::read_to_string("BENCH_fleet.json").expect("bench artifact just written");
    if let Err(e) = validate_fleet_json(&json) {
        eprintln!("BENCH_fleet.json failed schema validation: {e}");
        std::process::exit(1);
    }
    println!("  BENCH_fleet.json schema: ok");
}

fn write_artifact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("               wrote {path}"),
        Err(e) => eprintln!("               could not write {path}: {e}"),
    }
}

/// With no faults the supervised fleet must deliver exactly what the
/// unsupervised decode of each victim's capture yields, victim for
/// victim (victim `v` replays capture `v % baseline.len()`).
fn assert_intensity0_matches_baseline(
    report: &FleetReport,
    baseline: &[SessionDecode],
    victims: usize,
) {
    assert_eq!(report.stats.kills, 0, "intensity 0 must inject nothing");
    assert!(
        report.loss_windows.is_empty(),
        "intensity 0 must not report loss"
    );
    let mut per_victim = vec![0u64; victims];
    for (victim, _) in &report.verdicts {
        per_victim[*victim as usize] += 1;
    }
    for (v, delivered) in per_victim.iter().enumerate() {
        assert_eq!(
            *delivered,
            baseline[v % baseline.len()].verdicts.len() as u64,
            "victim {v}: supervised fleet diverged from the unsupervised baseline"
        );
    }
}
