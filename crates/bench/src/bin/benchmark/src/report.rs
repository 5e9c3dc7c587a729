//! What a run reports: the metric tables (mirrored by `BENCHMARK.json`),
//! the correctness tally, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
/// What an "item" and an "answer" are depends on the workload (see the
/// README): one reproduction, one Adaptive cell / one month's sweep, one
/// fleet job / one fleet, one request / one advise round trip.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput", "items/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload. The
/// timings come from the probe suite, which times each layer's public
/// calls on the workload's own market; the counts and ratios come from
/// the workload's own pass and read 0 where the workload leaves that
/// layer idle.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_ms", "ms"),
    ("adaptive.seed_build_ms", "ms"),
    ("adaptive.decide_cold_us", "us"),
    ("adaptive.decide_cold_p90_us", "us"),
    ("adaptive.decide_warm_us", "us"),
    ("adaptive.decide_warm_p90_us", "us"),
    ("markov.model_build_us", "us"),
    ("exec.cell_us", "us"),
    ("exec.cell_p90_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.handle_ingest_us", "us"),
    ("serve.handle_advise_cold_us", "us"),
    ("serve.handle_advise_warm_us", "us"),
    ("serve.handle_advise_warm_p90_us", "us"),
    ("adaptive.cache_lookups", "count"),
    ("adaptive.cache_hit_rate", "ratio"),
    ("markov.memo_lookups", "count"),
    ("markov.memo_hit_rate", "ratio"),
    ("engine.events_per_cell", "events/cell"),
    ("exec.busy_ratio", "ratio"),
    ("repro.fig2_share", "ratio"),
    ("repro.var_analysis_share", "ratio"),
    ("repro.queuing_share", "ratio"),
    ("repro.fig4_share", "ratio"),
    ("repro.tables_share", "ratio"),
    ("repro.fig5_share", "ratio"),
    ("repro.fig6_share", "ratio"),
    ("repro.headline_share", "ratio"),
    ("fleet.lockstep_share", "ratio"),
    ("fleet.scaling_exponent", "exponent"),
    ("market.pool_debits", "count"),
    ("market.pool_denials", "count"),
    ("degrade.zones_shed", "count"),
    ("degrade.start_deferrals", "count"),
    ("degrade.capacity_spills", "count"),
    ("serve.socket_share", "ratio"),
    ("serve.tcp_tail_ratio", "ratio"),
];

/// Units that denote a measured time: a metric in one of these must be
/// measured by the run — it never defaults to 0.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// Every metric of a table as `(name, value, unit)`.
pub type Resolved = Vec<(&'static str, f64, &'static str)>;

/// Named metric values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `table` as `(name, value, unit)`. Counts and
    /// ratios the workload did not set read 0; an unmeasured time, an
    /// unknown name or a non-finite value is an error.
    pub fn resolve(&self, table: &[(&'static str, &'static str)]) -> Result<Resolved, String> {
        if let Some(extra) = self.0.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in this run's metric table"));
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.0.get(name) {
                    Some(&v) => v,
                    None if is_time(unit) => return Err(format!("metric {name} was not measured")),
                    None => 0.0,
                };
                if !value.is_finite() {
                    return Err(format!("metric {name} is not finite: {value}"));
                }
                Ok((name, value, unit))
            })
            .collect()
    }
}

/// The correctness tally of one run: each checked operation counts as
/// attempted, each failed check as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

/// Failed checks reported on stderr before the rest are only counted.
const REPORTED_FAILURES: u64 = 10;

impl Checks {
    /// Count one checked operation; report it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= REPORTED_FAILURES {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Everything one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness tally.
    pub checks: Checks,
    /// FNV-1a digest of the run's fixed-size results (same seed, same
    /// digest).
    pub digest: u64,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, as the last line of a run's stdout.
pub fn result_json(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(",")
    )
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_defaults_counts_but_not_times() {
        let table = &[("t_ms", "ms"), ("n", "count")];
        let mut m = Metrics::default();
        assert!(m
            .resolve(table)
            .unwrap_err()
            .contains("t_ms was not measured"));
        m.set("t_ms", 1.5);
        assert_eq!(
            m.resolve(table).unwrap(),
            vec![("t_ms", 1.5, "ms"), ("n", 0.0, "count")]
        );
        m.set("bogus", 1.0);
        assert!(m.resolve(table).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = result_json(&checks, &[("latency_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench: serde::Value = serde_json::from_str(&body).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let map = bench.as_map().unwrap();
            serde::__find(map, key)
                .and_then(serde::Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| match serde::__find(m.as_map().unwrap(), k) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{k}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
