//! E11: sharded decode of a victim fleet.
//!
//! Decodes a fleet of simulated victim captures with the sharded
//! streaming-decode engine ([`wm_online::decode_sessions_sharded`]).
//! Reported: the fleet size and the verdicts delivered, with the
//! capture pool's telemetry and trace totals, written to
//! `BENCH_throughput.json` (schema-checked in-process; CI validates
//! the same file and diffs it against `baselines/BENCH_throughput.json`).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin throughput [-- --smoke]
//! ```
//!
//! `--smoke` (or `WM_THROUGHPUT_SMOKE=1`) shrinks the fleet for CI.
//! Decode speed is measured by `benchmark/` (`attack_replay`); memory
//! staying flat over a long replay is pinned by `tests/soak.rs`.

use wm_bench::throughput::validate_throughput_json;
use wm_bench::{capture_pool, graph, train_attack_for, write_bench_json, TIME_SCALE};
use wm_dataset::OperationalConditions;
use wm_online::{decode_sessions_sharded, CapturedPacket, OnlineConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("WM_THROUGHPUT_SMOKE").is_ok_and(|v| v == "1");

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[80_001, 80_002, 80_003]);
    let classifier = attack.classifier().clone();
    let cfg = OnlineConfig::scaled(TIME_SCALE);

    println!("=== E11: sharded decode of a victim fleet ===\n");

    let pool_n: u64 = if smoke { 4 } else { 24 };
    let pool = capture_pool(&graph, cond, 81_000, pool_n);

    let batch_n: usize = if smoke { 16 } else { 256 };
    let batch: Vec<Vec<CapturedPacket>> = (0..batch_n)
        .map(|i| pool.captures[i % pool.captures.len()].clone())
        .collect();
    let decoded = decode_sessions_sharded(&classifier, &graph, &cfg, &batch, 0);
    let records: u64 = decoded.iter().map(|s| s.stats.records).sum();
    let verdicts: u64 = decoded.iter().map(|s| s.verdicts.len() as u64).sum();
    println!(
        "  fleet: {batch_n} sessions from a pool of {pool_n}, {records} records, \
         {verdicts} verdicts"
    );

    let metrics = [
        ("fleet_sessions", batch_n as f64),
        ("verdicts_total", verdicts as f64),
    ];
    write_bench_json("throughput", &metrics, &pool.telemetry, &pool.tally);

    // Self-check the artifact CI uploads and gates on.
    let json =
        std::fs::read_to_string("BENCH_throughput.json").expect("bench artifact just written");
    if let Err(e) = validate_throughput_json(&json) {
        eprintln!("BENCH_throughput.json failed schema validation: {e}");
        std::process::exit(1);
    }
    println!("  BENCH_throughput.json schema: ok");
}
