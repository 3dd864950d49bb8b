//! Fleet harness pieces shared by `bin/fleet_recovery.rs` (E12) and
//! `bin/elasticity.rs` (E14): the merged multi-victim tap stream, the
//! supervised run itself, the per-intensity summary arithmetic, and
//! the schema check CI runs against the emitted `BENCH_fleet.json`.

use std::sync::Arc;

use wm_chaos::ShardFaultPlan;
use wm_core::IntervalClassifier;
use wm_fleet::{
    merge_taps, Fleet, FleetConfig, FleetReport, ObserverConfig, ResizeSchedule, TapPacket,
};
use wm_net::time::{Duration, SimTime};
use wm_online::CapturedPacket;
use wm_story::StoryGraph;
use wm_trace::{SpanId, TraceEvent, TraceHandle};

/// Every metric `BENCH_fleet.json` must carry: the per-intensity rows
/// pin the recovery behaviour across the 0–4 fault sweep, so a
/// regression in kill/resume cannot pass the schema gate by dropping
/// a column.
pub const REQUIRED_METRICS: &[&str] = &[
    "kills_i0",
    "kills_i1",
    "kills_i2",
    "kills_i3",
    "kills_i4",
    "verdicts_i0",
    "verdicts_i1",
    "verdicts_i2",
    "verdicts_i3",
    "verdicts_i4",
    "loss_window_us_i0",
    "loss_window_us_i1",
    "loss_window_us_i2",
    "loss_window_us_i3",
    "loss_window_us_i4",
    "recovery_latency_us_i0",
    "recovery_latency_us_i1",
    "recovery_latency_us_i2",
    "recovery_latency_us_i3",
    "recovery_latency_us_i4",
    "restore_failures_i0",
    "restore_failures_i1",
    "restore_failures_i2",
    "restore_failures_i3",
    "restore_failures_i4",
    "max_shard_recovery_us_i0",
    "max_shard_recovery_us_i1",
    "max_shard_recovery_us_i2",
    "max_shard_recovery_us_i3",
    "max_shard_recovery_us_i4",
    "alerts_i0",
    "alerts_i1",
    "alerts_i2",
    "alerts_i3",
    "alerts_i4",
];

/// Per-intensity summary of one fleet run, flattened for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityRow {
    pub intensity: u32,
    pub kills: u64,
    pub restarts: u64,
    pub verdicts: u64,
    pub dedup_dropped: u64,
    /// Total sim-time covered by reported loss windows, µs.
    pub loss_window_us: u64,
    /// Mean sim-time from kill to restore, µs (0 when nothing died).
    pub recovery_latency_us: u64,
    /// Restore attempts rejected, summed over the per-shard recovery
    /// attribution (each failure names its shard via
    /// `ShardRestoreError::shard`).
    pub restore_failures: u64,
    /// The worst single shard's total outage sim-time, µs — the
    /// attribution headline: mean latency hides one shard absorbing
    /// every kill.
    pub max_shard_recovery_us: u64,
}

impl IntensityRow {
    pub fn from_report(intensity: u32, report: &FleetReport) -> Self {
        let s = report.stats;
        IntensityRow {
            intensity,
            kills: s.kills,
            restarts: s.restarts,
            verdicts: s.verdicts,
            dedup_dropped: s.dedup_dropped,
            loss_window_us: report
                .loss_windows
                .iter()
                .map(|w| w.to.micros().saturating_sub(w.from.micros()))
                .sum(),
            recovery_latency_us: s.recovery_latency_us.checked_div(s.restarts).unwrap_or(0),
            restore_failures: report.recovery.iter().map(|r| r.restore_failures).sum(),
            max_shard_recovery_us: report
                .recovery
                .iter()
                .map(|r| r.recovery_latency_us)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Sim-time between consecutive victims' tap starts in a merged stream.
pub const TAP_STAGGER_US: u64 = 250_000;

/// One tap per victim, merged into the single time-ordered stream a
/// fleet supervisor ingests: victim `v` replays
/// `captures[v % captures.len()]`, started `v × TAP_STAGGER_US` in.
pub fn staggered_stream(captures: &[Vec<CapturedPacket>], victims: usize) -> Vec<TapPacket> {
    let taps: Vec<Vec<TapPacket>> = (0..victims)
        .map(|v| {
            let offset = v as u64 * TAP_STAGGER_US;
            captures[v % captures.len()]
                .iter()
                .map(|(t, frame)| (SimTime(t.micros() + offset), v as u32, frame.clone()))
                .collect()
        })
        .collect();
    merge_taps(&taps)
}

/// Sim-time from 0 to a stream's last packet, µs (at least 1).
pub fn stream_span_us(stream: &[TapPacket]) -> u64 {
    stream
        .last()
        .map(|(t, _, _)| t.micros())
        .unwrap_or(1)
        .max(1)
}

/// A `shards`-wide harness fleet config that keeps all `victims`
/// resident for a stream spanning `span_us`. Sessions overlap for the
/// whole run, so a fault-free run is packet-for-packet the per-victim
/// decode.
pub fn resident_fleet_cfg(shards: usize, victims: usize, span_us: u64) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, crate::TIME_SCALE);
    cfg.victim_idle = Duration::from_micros(span_us);
    cfg.max_victims_per_shard = victims.max(1);
    cfg
}

/// Run one supervised fleet over `stream`, with an optional fault plan
/// and resize schedule, an observer, and a sim-time trace rooted at a
/// `fleet.run` span. Panics if the fleet cannot be built, which on the
/// process backend means the `shard_worker` binary is missing.
pub fn run_fleet(
    cfg: &FleetConfig,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    stream: &[TapPacket],
    plan: Option<&ShardFaultPlan>,
    schedule: Option<&ResizeSchedule>,
) -> (FleetReport, Vec<TraceEvent>) {
    let mut fleet = Fleet::new(cfg.clone(), classifier.clone(), graph.clone()).expect(
        "cannot construct fleet (process backend? build the worker first: \
         cargo build --release -p wm-fleet)",
    );
    if let Some(plan) = plan {
        fleet.inject(plan);
    }
    if let Some(schedule) = schedule {
        fleet.schedule_resize(schedule);
    }
    let trace = TraceHandle::new();
    let root = trace.span_start_at(0, "fleet.run", SpanId::NONE);
    fleet.attach_trace(trace.clone(), root);
    fleet.attach_observer(ObserverConfig::default());
    for (t, victim, frame) in stream {
        fleet.push(*t, *victim, frame);
    }
    let end = stream.last().map(|(t, _, _)| t.micros()).unwrap_or(0);
    let report = fleet.finish();
    trace.span_end_at(end, root, "fleet.run");
    (report, trace.snapshot())
}

/// Validate a `BENCH_fleet.json` document: right bench name, and every
/// [`REQUIRED_METRICS`] entry present as a finite, non-negative
/// number. A thin wrapper over the shared
/// [`crate::schema::validate_bench_json`] gate.
pub fn validate_fleet_json(json: &str) -> Result<(), String> {
    crate::schema::validate_bench_json(json, "fleet", REQUIRED_METRICS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, TraceTally};
    use wm_telemetry::Snapshot;

    fn full_metrics() -> Vec<(&'static str, f64)> {
        REQUIRED_METRICS.iter().map(|k| (*k, 1.0)).collect()
    }

    #[test]
    fn complete_report_validates() {
        let json = bench_json(
            "fleet",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_fleet_json(&json).expect("complete report validates");
    }

    #[test]
    fn wrong_name_or_missing_metric_fails() {
        let wrong = bench_json(
            "throughput",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(validate_fleet_json(&wrong).is_err());
        for skip in REQUIRED_METRICS {
            let partial: Vec<(&str, f64)> = full_metrics()
                .into_iter()
                .filter(|(k, _)| k != skip)
                .collect();
            let json = bench_json(
                "fleet",
                &partial,
                &Snapshot::default(),
                &TraceTally::default(),
            );
            let err = validate_fleet_json(&json).expect_err("missing metric must fail");
            assert!(err.contains(skip), "error {err:?} must name {skip:?}");
        }
    }

    #[test]
    fn non_finite_metric_fails() {
        let mut metrics = full_metrics();
        metrics[0].1 = f64::NAN;
        let json = bench_json(
            "fleet",
            &metrics,
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(validate_fleet_json(&json).is_err());
    }

    #[test]
    fn staggered_stream_cycles_captures_and_offsets_each_victim() {
        let captures: Vec<Vec<CapturedPacket>> = vec![
            vec![(SimTime(0), vec![0]), (SimTime(10), vec![1])],
            vec![(SimTime(5), vec![2])],
        ];
        let stream = staggered_stream(&captures, 3);
        let got: Vec<(u64, u32, u8)> = stream
            .iter()
            .map(|(t, v, f)| (t.micros(), *v, f[0]))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, 0),
                (10, 0, 1),
                (TAP_STAGGER_US + 5, 1, 2),
                (2 * TAP_STAGGER_US, 2, 0),
                (2 * TAP_STAGGER_US + 10, 2, 1),
            ]
        );
        assert_eq!(stream_span_us(&stream), 2 * TAP_STAGGER_US + 10);
        assert_eq!(stream_span_us(&[]), 1);
    }
}
