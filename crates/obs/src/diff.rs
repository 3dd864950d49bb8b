//! Bench-regression gate: compare a candidate `BENCH_*.json` against a
//! committed baseline with per-metric tolerance bands.
//!
//! Every bench metric is a function of the seeds (verdict counts,
//! kills, loss windows, accuracies), so every metric defaults to
//! **exact** comparison: any drift is a behaviour change, not noise.
//! Wall-clock speed is measured only by `benchmark/`, never here. The
//! default can be overridden per metric.
//!
//! The metrics parser is textual on purpose: bench metrics carry six
//! fraction digits, more than the `wm-json` state-blob dialect admits.
//!
//! The `bench_diff` CLI mirrors `trace_diff` exit codes:
//! 0 = within bands, 1 = regression, 2 = usage/parse error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed bench report: its name and the `"metrics"` object.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    pub bench: String,
    pub metrics: BTreeMap<String, f64>,
}

impl BenchDoc {
    /// Parse a `BENCH_*.json` document produced by `wm-bench`.
    pub fn parse(json: &str) -> Result<BenchDoc, String> {
        let bench = extract_string(json, "bench").ok_or("missing \"bench\" name")?;
        let metrics_start = json
            .find("\"metrics\":{")
            .ok_or("missing \"metrics\" object")?
            + "\"metrics\":{".len();
        let body = &json[metrics_start..];
        let end = body.find('}').ok_or("unterminated \"metrics\" object")?;
        let body = &body[..end];
        let mut metrics = BTreeMap::new();
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed metric pair {pair:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("metric {key:?} is not a number: {value:?}"))?;
            metrics.insert(key, value);
        }
        if metrics.is_empty() {
            return Err("empty \"metrics\" object".into());
        }
        Ok(BenchDoc { bench, metrics })
    }
}

fn extract_string(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &json[json.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Tolerance band for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Bit-exact equality of the parsed values.
    Exact,
    /// `|candidate - baseline| ≤ f × |baseline|`.
    Ratio(f64),
    /// `|candidate - baseline| ≤ f`.
    Abs(f64),
    /// Presence gate only: finite and non-negative.
    Any,
}

impl Band {
    /// Parse a CLI band spec: `exact`, `any`, `ratio:0.15`, `abs:3`.
    pub fn parse(spec: &str) -> Result<Band, String> {
        match spec {
            "exact" => return Ok(Band::Exact),
            "any" => return Ok(Band::Any),
            _ => {}
        }
        let (kind, value) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad band spec {spec:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad band value in {spec:?}"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("band value out of range in {spec:?}"));
        }
        match kind {
            "ratio" => Ok(Band::Ratio(value)),
            "abs" => Ok(Band::Abs(value)),
            _ => Err(format!("unknown band kind {kind:?}")),
        }
    }

    /// Does `candidate` fall inside this band around `baseline`?
    pub fn admits(&self, baseline: f64, candidate: f64) -> bool {
        if !candidate.is_finite() {
            return false;
        }
        match *self {
            Band::Exact => candidate == baseline,
            Band::Ratio(r) => (candidate - baseline).abs() <= r * baseline.abs(),
            Band::Abs(a) => (candidate - baseline).abs() <= a,
            Band::Any => candidate >= 0.0,
        }
    }

    fn describe(&self) -> String {
        match *self {
            Band::Exact => "exact".into(),
            Band::Ratio(r) => format!("ratio:{r}"),
            Band::Abs(a) => format!("abs:{a}"),
            Band::Any => "any".into(),
        }
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    pub name: String,
    pub baseline: f64,
    pub candidate: f64,
    pub band: Band,
    pub ok: bool,
}

/// Full comparison of candidate vs baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub bench: String,
    pub rows: Vec<MetricDiff>,
    /// Metrics the baseline pins that the candidate dropped — always a
    /// regression.
    pub missing: Vec<String>,
    /// Metrics only the candidate carries — allowed (benches grow),
    /// but reported so baselines get refreshed.
    pub extra: Vec<String>,
}

impl DiffReport {
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| !r.ok)
    }

    /// Human-readable table; out-of-band rows are marked `REGRESSED`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bench_diff: {}", self.bench);
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<9} {:<32} baseline {:>16.6} candidate {:>16.6}  [{}]",
                if row.ok { "ok" } else { "REGRESSED" },
                row.name,
                row.baseline,
                row.candidate,
                row.band.describe()
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "  REGRESSED {name:<32} missing from candidate");
        }
        for name in &self.extra {
            let _ = writeln!(
                out,
                "  note      {name:<32} new in candidate (not in baseline)"
            );
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.regressed() { "REGRESSED" } else { "ok" }
        );
        out
    }
}

/// Compare two bench documents. `overrides` replaces the default
/// [`Band::Exact`] per metric name. Errors (name mismatch, unparseable JSON) are schema
/// problems, distinct from regressions.
pub fn bench_diff(
    baseline_json: &str,
    candidate_json: &str,
    overrides: &BTreeMap<String, Band>,
) -> Result<DiffReport, String> {
    let baseline = BenchDoc::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let candidate = BenchDoc::parse(candidate_json).map_err(|e| format!("candidate: {e}"))?;
    if baseline.bench != candidate.bench {
        return Err(format!(
            "bench name mismatch: baseline {:?} vs candidate {:?}",
            baseline.bench, candidate.bench
        ));
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in &baseline.metrics {
        match candidate.metrics.get(name) {
            Some(&cand) => {
                let band = overrides.get(name).copied().unwrap_or(Band::Exact);
                rows.push(MetricDiff {
                    name: name.clone(),
                    baseline: base,
                    candidate: cand,
                    band,
                    ok: band.admits(base, cand),
                });
            }
            None => missing.push(name.clone()),
        }
    }
    let extra = candidate
        .metrics
        .keys()
        .filter(|k| !baseline.metrics.contains_key(*k))
        .cloned()
        .collect();
    Ok(DiffReport {
        bench: baseline.bench,
        rows,
        missing,
        extra,
    })
}

/// The CLI contract in library form so tests can pin exit codes
/// without spawning processes: returns `(exit_code, rendered output)`
/// with 0 = within bands, 1 = regression, 2 = parse/schema error.
pub fn diff_exit_code(
    baseline_json: &str,
    candidate_json: &str,
    overrides: &BTreeMap<String, Band>,
) -> (u8, String) {
    match bench_diff(baseline_json, candidate_json, overrides) {
        Ok(report) => ((report.regressed()) as u8, report.render()),
        Err(e) => (2, format!("bench_diff: error: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(bench: &str, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.6}"))
            .collect();
        format!(
            "{{\"bench\":\"{bench}\",\"metrics\":{{{}}},\"telemetry\":{{\"counters\":{{}},\"histograms\":{{}}}},\"trace\":{{}}}}",
            body.join(",")
        )
    }

    #[test]
    fn parses_bench_documents() {
        let json = doc("fleet", &[("kills_i2", 5.0), ("loss_window_us_i2", 41.5)]);
        let parsed = BenchDoc::parse(&json).expect("parses");
        assert_eq!(parsed.bench, "fleet");
        assert_eq!(parsed.metrics["kills_i2"], 5.0);
        assert_eq!(parsed.metrics["loss_window_us_i2"], 41.5);
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("{\"bench\":\"x\",\"metrics\":{}}").is_err());
    }

    #[test]
    fn every_metric_defaults_to_exact() {
        let none = BTreeMap::new();
        // Wall-clock-shaped names get no special band.
        for name in [
            "sessions_per_sec",
            "peak_rss_bytes",
            "overhead_ratio",
            "verdicts_i3",
        ] {
            let base = doc("fleet", &[(name, 40.0)]);
            let drift = doc("fleet", &[(name, 40.5)]);
            let report = bench_diff(&base, &drift, &none).expect("parses");
            assert_eq!(report.rows[0].band, Band::Exact, "{name}");
            assert!(report.regressed(), "{name}: drift must regress");
        }
    }

    #[test]
    fn band_admission() {
        assert!(Band::Exact.admits(3.0, 3.0));
        assert!(!Band::Exact.admits(3.0, 3.000001));
        assert!(Band::Ratio(0.1).admits(100.0, 109.0));
        assert!(!Band::Ratio(0.1).admits(100.0, 111.0));
        assert!(Band::Abs(5.0).admits(10.0, 14.0));
        assert!(!Band::Abs(5.0).admits(10.0, 16.0));
        assert!(Band::Any.admits(1.0, 123456.0));
        assert!(!Band::Any.admits(1.0, -1.0));
        assert!(!Band::Any.admits(1.0, f64::NAN));
        assert_eq!(Band::parse("ratio:0.15"), Ok(Band::Ratio(0.15)));
        assert_eq!(Band::parse("abs:3"), Ok(Band::Abs(3.0)));
        assert_eq!(Band::parse("exact"), Ok(Band::Exact));
        assert!(Band::parse("bogus").is_err());
        assert!(Band::parse("ratio:-1").is_err());
    }

    #[test]
    fn exit_codes_are_pinned() {
        let none = BTreeMap::new();
        let base = doc("fleet", &[("kills_i2", 5.0), ("verdicts_i2", 40.0)]);

        // 0: every metric identical.
        let (code, out) = diff_exit_code(&base, &base, &none);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: ok"));

        // 1: a metric drifted.
        let drift = doc("fleet", &[("kills_i2", 6.0), ("verdicts_i2", 40.0)]);
        let (code, out) = diff_exit_code(&base, &drift, &none);
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("REGRESSED kills_i2") || out.contains("REGRESSED"),
            "{out}"
        );

        // 1: metric dropped from the candidate.
        let dropped = doc("fleet", &[("verdicts_i2", 40.0)]);
        assert_eq!(diff_exit_code(&base, &dropped, &none).0, 1);

        // 0: extra candidate metrics are reported, not regressions.
        let grown = doc(
            "fleet",
            &[("kills_i2", 5.0), ("verdicts_i2", 40.0), ("alerts_i2", 7.0)],
        );
        let (code, out) = diff_exit_code(&base, &grown, &none);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("new in candidate"));

        // 2: unparseable candidate or bench-name mismatch.
        assert_eq!(diff_exit_code(&base, "not json", &none).0, 2);
        let other = doc("throughput", &[("kills_i2", 5.0)]);
        assert_eq!(diff_exit_code(&base, &other, &none).0, 2);
    }

    #[test]
    fn overrides_replace_the_exact_default() {
        let base = doc("throughput", &[("verdicts_total", 100.0)]);
        let cand = doc("throughput", &[("verdicts_total", 80.0)]);
        let mut bands = BTreeMap::new();
        // The exact default fails; a wide enough band admits the drift.
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 1);
        bands.insert("verdicts_total".to_string(), Band::Ratio(0.1));
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 1);
        bands.insert("verdicts_total".to_string(), Band::Ratio(0.5));
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 0);
        bands.insert("verdicts_total".to_string(), Band::Any);
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 0);
    }
}
