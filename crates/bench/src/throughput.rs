//! The schema check CI runs against the `BENCH_throughput.json` that
//! `bin/throughput.rs` (E11) emits.

/// Every metric `BENCH_throughput.json` must carry: the fleet size and
/// the verdicts the sharded decode delivered over it.
pub const REQUIRED_METRICS: &[&str] = &["fleet_sessions", "verdicts_total"];

/// Validate a `BENCH_throughput.json` document: right bench name, and
/// every [`REQUIRED_METRICS`] entry present as a finite, non-negative
/// number. A thin wrapper over the shared
/// [`crate::schema::validate_bench_json`] gate.
pub fn validate_throughput_json(json: &str) -> Result<(), String> {
    crate::schema::validate_bench_json(json, "throughput", REQUIRED_METRICS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, TraceTally};
    use wm_telemetry::Snapshot;

    #[test]
    fn schema_accepts_a_complete_report() {
        let metrics: Vec<(&str, f64)> = REQUIRED_METRICS.iter().map(|k| (*k, 1.5)).collect();
        let json = bench_json(
            "throughput",
            &metrics,
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_throughput_json(&json).expect("complete report validates");
    }

    #[test]
    fn schema_rejects_missing_wrong_or_broken_metrics() {
        let all: Vec<(&str, f64)> = REQUIRED_METRICS.iter().map(|k| (*k, 1.0)).collect();
        let tele = Snapshot::default();
        let tally = TraceTally::default();

        let wrong_name = bench_json("other", &all, &tele, &tally);
        assert!(validate_throughput_json(&wrong_name).is_err());

        for dropped in REQUIRED_METRICS {
            let partial: Vec<(&str, f64)> =
                all.iter().filter(|(k, _)| k != dropped).copied().collect();
            let json = bench_json("throughput", &partial, &tele, &tally);
            let err = validate_throughput_json(&json).expect_err("missing metric must fail");
            assert!(
                err.contains(dropped),
                "error {err:?} names the missing metric"
            );
        }

        let mut negative = all.clone();
        negative[0].1 = -1.0;
        let json = bench_json("throughput", &negative, &tele, &tally);
        assert!(validate_throughput_json(&json).is_err());
    }
}
