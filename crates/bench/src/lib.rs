//! # wm-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). The binaries print self-contained reports comparing the
//! paper's numbers with the reproduction's:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_timeline` | Figure 1 — the streaming process |
//! | `table1_dataset` | Table I — dataset attributes |
//! | `fig2_distribution` | Figure 2 — record-length distributions |
//! | `results_accuracy` | §V — 10-session choice-identification accuracy |
//! | `countermeasures` | §VI — defenses vs the attack (E5) |
//! | `timing_channel` | §VI — the residual timing channel (E6) |
//! | `baseline_comparison` | §II — prior-work features fail intra-video (E7) |
//! | `robustness_sweep` | robustness across conditions + classifier ablation (E8) |
//! | `fault_sweep` | accuracy vs `wm-chaos` fault intensity (E9) |
//! | `online_robustness` | streaming decoder vs capture impairment, with kill/resume (E10) |
//! | `throughput` | sharded decode of a victim fleet (E11) |
//! | `fleet_recovery` | supervised fleet kill/resume across fault intensities (E12) |
//! | `elasticity` | live resharding + process-shard backend under chaos (E14) |
//!
//! Run any of them with `cargo run --release -p wm-bench --bin <name>`.
//! Every metric they write is a function of the seeds; wall-clock speed
//! is measured only by the repeated-trial harness in `benchmark/`.

pub mod elasticity;
pub mod fleet;
pub mod schema;
pub mod throughput;

pub use schema::{bench_json, validate_bench_json, write_bench_json};

use std::collections::BTreeMap;
use std::sync::Arc;
use wm_capture::labels::LabeledRecord;
use wm_core::{WhiteMirror, WhiteMirrorConfig};
use wm_dataset::{OperationalConditions, SimOptions, ViewerSpec};
use wm_net::time::SimTime;
use wm_online::CapturedPacket;
use wm_player::ViewerScript;
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::StoryGraph;
use wm_telemetry::Snapshot;
use wm_trace::{counts_by_name, TraceEvent};

/// The time scale every harness runs at (playback 40× so a full
/// Bandersnatch session simulates in well under a second).
pub const TIME_SCALE: u32 = 40;

/// Media byte divisor for harness sessions.
pub const MEDIA_SCALE: u32 = 1024;

/// The shared Bandersnatch graph.
pub fn graph() -> Arc<StoryGraph> {
    Arc::new(wm_story::bandersnatch::bandersnatch())
}

/// A harness session config at the standard scales.
pub fn harness_cfg(graph: &Arc<StoryGraph>, seed: u64, script: ViewerScript) -> SessionConfig {
    let mut cfg = SessionConfig::baseline(graph.clone(), seed, script);
    cfg.media_scale = MEDIA_SCALE;
    cfg.player.time_scale = TIME_SCALE;
    cfg.telemetry = true;
    cfg.trace = true;
    cfg
}

/// Config for one dataset viewer at harness scales.
pub fn viewer_cfg(graph: &Arc<StoryGraph>, viewer: &ViewerSpec) -> SessionConfig {
    let opts = SimOptions {
        media_scale: MEDIA_SCALE,
        time_scale: TIME_SCALE,
        telemetry: true,
        trace: true,
        ..SimOptions::default()
    };
    wm_dataset::run::session_config(graph.clone(), viewer, &opts)
}

/// Run training sessions under `conditions` and return the attack.
pub fn train_attack_for(
    graph: &Arc<StoryGraph>,
    operational: &OperationalConditions,
    seeds: &[u64],
) -> (WhiteMirror, Vec<LabeledRecord>) {
    let mut labels = Vec::new();
    for &seed in seeds {
        let viewer = ViewerSpec {
            id: u32::MAX,
            seed,
            behavior: sample_behavior(seed),
            operational: *operational,
        };
        let out = run_session(&viewer_cfg(graph, &viewer)).expect("training session");
        labels.extend(out.labels);
    }
    let attack = WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE))
        .expect("training sessions contain state reports");
    (attack, labels)
}

/// Deterministic behaviour sample for harness viewers.
pub fn sample_behavior(seed: u64) -> wm_behavior::BehaviorAttributes {
    let mut rng = wm_net::rng::SimRng::new(seed);
    wm_behavior::BehaviorAttributes::sample(&mut rng)
}

/// Run one session for a viewer spec.
pub fn run_viewer(graph: &Arc<StoryGraph>, viewer: &ViewerSpec) -> SessionOutput {
    run_session(&viewer_cfg(graph, viewer)).expect("harness session")
}

/// Simulated victim captures shared by the E11, E12 and E14 harnesses,
/// with the telemetry and trace totals of the sessions that made them.
pub struct CapturePool {
    /// One tap capture per viewer, in viewer order.
    pub captures: Vec<Vec<CapturedPacket>>,
    pub telemetry: Snapshot,
    pub tally: TraceTally,
}

/// Simulate `n` viewers under `operational`: viewer `v` has id `v` and
/// seed `first_seed + v`, and its tapped packets become one capture.
pub fn capture_pool(
    graph: &Arc<StoryGraph>,
    operational: OperationalConditions,
    first_seed: u64,
    n: u64,
) -> CapturePool {
    let mut pool = CapturePool {
        captures: Vec::new(),
        telemetry: Snapshot::default(),
        tally: TraceTally::default(),
    };
    for v in 0..n {
        let seed = first_seed + v;
        let viewer = ViewerSpec {
            id: v as u32,
            seed,
            behavior: sample_behavior(seed),
            operational,
        };
        let out = run_viewer(graph, &viewer);
        pool.telemetry.merge(&out.telemetry);
        pool.tally.observe(&out.trace_events);
        pool.captures.push(
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros()), p.frame.clone()))
                .collect(),
        );
    }
    pool
}

/// Render a percentage bar for terminal reports.
pub fn bar(pct: f64, width: usize) -> String {
    let filled = ((pct / 100.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

/// Format "measured vs paper" lines consistently across harnesses.
pub fn compare_line(label: &str, measured: f64, paper: &str) -> String {
    format!("  {label:<44} measured {measured:>6.1}%   paper: {paper}")
}

/// Per-event-name trace totals accumulated across every traced session
/// a harness ran. Sessions run with `cfg.trace = true` (the default in
/// [`harness_cfg`] / [`viewer_cfg`]); feed each
/// `SessionOutput::trace_events` to [`TraceTally::observe`].
#[derive(Default)]
pub struct TraceTally(pub BTreeMap<&'static str, u64>);

impl TraceTally {
    /// Fold one session's event log into the tally.
    pub fn observe(&mut self, events: &[TraceEvent]) {
        for (name, n) in counts_by_name(events) {
            *self.0.entry(name).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_telemetry::Snapshot;

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(100.0, 4), "████");
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(50.0, 4), "██··");
    }

    #[test]
    fn bench_json_includes_trace_section() {
        let mut tally = TraceTally::default();
        let h = wm_trace::TraceHandle::new();
        let s = h.span_start("session", wm_trace::SpanId::NONE);
        h.instant(s, "player.question", 1, 0);
        h.span_end(s, "session");
        tally.observe(&h.snapshot());
        tally.observe(&h.snapshot());
        let json = bench_json("t", &[("acc", 0.5)], &Snapshot::default(), &tally);
        assert!(json.contains("\"trace\":{"), "{json}");
        assert!(json.contains("\"player.question\":2"), "{json}");
        assert!(json.contains("\"acc\":0.500000"), "{json}");
    }

    #[test]
    fn harness_sessions_record_traces() {
        let g = graph();
        let cfg = harness_cfg(&g, 7, ViewerScript::sample(7, 4, 0.5));
        assert!(cfg.trace);
    }

    #[test]
    fn harness_training_works() {
        let g = graph();
        let grid = OperationalConditions::grid();
        let (attack, labels) = train_attack_for(&g, &grid[0], &[42]);
        assert!(!labels.is_empty());
        assert!(attack.classifier().type1.0 > 2000);
    }
}
