//! Byte-identity oracle for the victim simulator.
//!
//! Pins FNV-64 digests of everything a session leaves behind — pcap
//! bytes, labels, truth, decisions, the server's state log, the causal
//! trace and the deterministic telemetry counters — for a small grid of
//! full Bandersnatch sessions: both cipher-suite families, no defense
//! and one padding defense, chaos intensity 0 and 2 (the latter
//! includes connection resets). Any change to the simulator's hot path
//! must leave every digest unchanged.
//!
//! The `tls.*` record-layer counters are kept in plain text rather than
//! folded into the counter digest, so the one class of counter a
//! reconnect touches reads as numbers in a fixture diff.
//!
//! Regenerate the fixture after an intentional simulator change with:
//!
//! ```sh
//! WM_REGEN_GOLDEN=1 cargo test --test sim_oracle
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use white_mirror::net::time::Duration;
use white_mirror::prelude::*;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/sim_oracle.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// One oracle session: `(name, config)`.
fn grid() -> Vec<(String, SessionConfig)> {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let mut out = Vec::new();
    for (si, (suite, suite_name)) in [(CipherSuite::Aead, "aead"), (CipherSuite::Cbc, "cbc")]
        .into_iter()
        .enumerate()
    {
        for (di, (defense, defense_name)) in [
            (Defense::None, "none"),
            (Defense::PadToConstant { size: 4096 }, "pad4096"),
        ]
        .into_iter()
        .enumerate()
        {
            for intensity in [0u32, 2] {
                let seed = 13_000 + (si * 4 + di * 2) as u64 + intensity as u64 / 2;
                let mut cfg =
                    SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
                cfg.suite = suite;
                cfg.defense = defense;
                cfg.telemetry = true;
                cfg.trace = true;
                cfg.chaos = FaultPlan::generate(seed, intensity as f64, Duration::from_secs(8));
                out.push((
                    format!("{suite_name}/{defense_name}/chaos{intensity}/seed{seed}"),
                    cfg,
                ));
            }
        }
    }
    out
}

/// The fixture line for one session.
fn oracle_line(name: &str, cfg: &SessionConfig) -> String {
    let (out, err) = run_session_lossy(cfg);
    let counters = out.telemetry.deterministic_view().counters;
    let mut other = String::new();
    let mut tls = String::new();
    for (k, v) in &counters {
        if let Some(rest) = k.strip_prefix("tls.") {
            let _ = write!(tls, "{}{rest}={v}", if tls.is_empty() { "" } else { "," });
        } else {
            let _ = writeln!(other, "{k}={v}");
        }
    }
    format!(
        "{name} pcap={:016x} labels={:016x} truth={:016x} decisions={:016x} \
         server_log={:016x} trace={:016x} stats={:016x} error={:016x} counters={:016x} \
         reconnects={} tls={tls}",
        fnv64(&out.trace.to_pcap_bytes()),
        fnv64(format!("{:?}", out.labels).as_bytes()),
        fnv64(format!("{:?}", out.truth).as_bytes()),
        fnv64(format!("{:?}", out.decisions).as_bytes()),
        fnv64(format!("{:?}", out.server_log).as_bytes()),
        fnv64(export_jsonl(&out.trace_events).as_bytes()),
        fnv64(format!("{:?}", out.stats).as_bytes()),
        fnv64(format!("{err:?}").as_bytes()),
        fnv64(other.as_bytes()),
        out.stats.reconnects,
    )
}

#[test]
fn simulator_output_matches_oracle_fixture() {
    let mut text = String::new();
    for (name, cfg) in grid() {
        text.push_str(&oracle_line(&name, &cfg));
        text.push('\n');
    }
    if std::env::var("WM_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(FIXTURE, &text).expect("write fixture");
        println!("regenerated {FIXTURE}");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; regenerate with WM_REGEN_GOLDEN=1");
    for (want, got) in golden.lines().zip(text.lines()) {
        assert_eq!(want, got, "simulator output diverged from the oracle");
    }
    assert_eq!(
        golden.lines().count(),
        text.lines().count(),
        "oracle grid size"
    );
}

/// Record-layer telemetry spans every connection of a session: after
/// connection resets the `tls.*` counters still agree with the record
/// events the trace saw, on the reconnecting sessions of the grid and
/// on a clean one.
#[test]
fn tls_counters_survive_connection_resets() {
    let mut reconnecting = 0;
    for (name, cfg) in grid().into_iter().filter(|(n, _)| n.contains("/none/")) {
        let (out, _) = run_session_lossy(&cfg);
        reconnecting += (out.stats.reconnects > 0) as u32;
        let events = counts_by_name(&out.trace_events);
        let c = &out.telemetry.counters;
        for (kind, event) in [
            ("sealed", "tls.record.sealed"),
            ("opened", "tls.record.opened"),
        ] {
            let counted =
                c[&format!("tls.client.records_{kind}")] + c[&format!("tls.server.records_{kind}")];
            assert_eq!(
                counted,
                events.get(event).copied().unwrap_or(0),
                "{name}: records {kind} (reconnects {})",
                out.stats.reconnects
            );
        }
    }
    assert!(
        reconnecting > 0,
        "the grid must include a reconnecting session"
    );
}
