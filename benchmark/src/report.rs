//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its kind: the end-to-end set
//! untraced, the per-layer set traced. A per-layer metric a workload
//! does not exercise reads 0 (the workload makes no such call).

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sessions_per_s", "1/s"),
    ("setup_s", "s"),
    ("push_tail_us", "us"),
    ("choice_accuracy", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit. Units `count`, `B` and `sim_us`
/// mark exact counts, which repeat bit for bit at one seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.session_ms", "ms"),
    ("sim.player_share", "ratio"),
    ("sim.server_share", "ratio"),
    ("sim.tls_seal_share", "ratio"),
    ("sim.tls_open_share", "ratio"),
    ("sim.unattributed_share", "ratio"),
    ("sim.packets_per_session", "count"),
    ("sim.bytes_per_session", "B"),
    ("pool.busy_share", "ratio"),
    ("capture.features_ms", "ms"),
    ("core.decode_ms", "ms"),
    ("capture.records_per_session", "count"),
    ("online.replay_ms", "ms"),
    ("ledger.sim_share", "ratio"),
    ("ledger.capture_share", "ratio"),
    ("ledger.core_share", "ratio"),
    ("ledger.online_share", "ratio"),
    ("ledger.pool_share", "ratio"),
    ("ledger.check_share", "ratio"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("alloc.sim_per_packet", "count"),
    ("alloc.core_per_record", "count"),
    ("alloc.online_per_record", "count"),
];

/// Per-layer metrics only the fleet workloads produce. Their traced
/// runs print these after [`PER_LAYER`]; the batch workloads make no
/// fleet call and leave them out.
pub const FLEET_LAYER: &[(&str, &str)] = &[
    ("fleet.supervision_overhead", "ratio"),
    ("fleet.ring.route_us", "us"),
    ("fleet.shard.feed_us", "us"),
    ("fleet.dedup.admit_us", "us"),
    ("fleet.checkpoint.tick_ms", "ms"),
    ("fleet.checkpoint.share", "ratio"),
    ("fleet.checkpoint.bytes_per_tick", "B"),
    ("obs.observer_share", "ratio"),
    ("fleet.ipc.feed_us", "us"),
    ("fleet.ipc.frames_per_session", "count"),
    ("fleet.ipc.bytes_per_session", "B"),
    ("fleet.ipc.checkpoint_ms", "ms"),
    ("fleet.restore_ms", "ms"),
    ("fleet.respawn_ms", "ms"),
    ("fleet.kills", "count"),
    ("fleet.respawns", "count"),
    ("fleet.packets_lost", "count"),
    ("fleet.loss_window_us", "sim_us"),
    ("fleet.victims_migrated", "count"),
    ("fleet.supervisor.unattributed_share", "ratio"),
    ("fleet.push.plain_us", "us"),
    ("fleet.push.recovery_ms", "ms"),
    ("fleet.push.resize_ms", "ms"),
    ("fleet.push.plain_count", "count"),
    ("fleet.push.tick_count", "count"),
    ("fleet.push.recovery_count", "count"),
    ("fleet.push.respawn_count", "count"),
    ("fleet.push.resize_count", "count"),
    ("ledger.fleet_share", "ratio"),
    ("alloc.fleet_per_packet", "count"),
];

/// The per-layer catalogue of a workload's traced run.
pub fn per_layer(fleet: bool) -> Vec<(&'static str, &'static str)> {
    let extra: &[(&str, &str)] = if fleet { FLEET_LAYER } else { &[] };
    PER_LAYER.iter().chain(extra).copied().collect()
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Victim sessions attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one session's result.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: exactly the metrics of `catalogue`, in order.
    /// A metric the workload did not produce reads 0; one outside the
    /// catalogue is a bug in the workload.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        for name in self.metrics.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_the_whole_catalogue_in_order() {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.tally(true);
        o.tally(false);
        o.set("setup_s", 1.25);
        let line = o.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"sessions_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
        let first = line.find("sessions_per_s").unwrap();
        let last = line.find("peak_rss_mib").unwrap();
        assert!(first < last);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn json_rejects_a_metric_outside_the_catalogue() {
        let mut o = Outcome::default();
        o.set("fleet.kills", 1.0);
        o.json(END_TO_END);
    }

    #[test]
    fn benchmark_json_lists_what_the_listed_workloads_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(named(name), "{name} is missing from BENCHMARK.json");
        }
        for (name, _) in FLEET_LAYER {
            assert!(
                !named(name),
                "{name} is listed, but no listed workload prints it"
            );
        }
        // Two workloads, the batch ones, and no other metric.
        assert!(named("paper_e2e") && named("attack_replay"));
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, 2 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn per_layer_adds_the_fleet_metrics_for_fleet_workloads_only() {
        assert_eq!(per_layer(false), PER_LAYER);
        assert_eq!(per_layer(true).len(), PER_LAYER.len() + FLEET_LAYER.len());
        assert!(per_layer(true).ends_with(FLEET_LAYER));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(FLEET_LAYER)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
