//! `benchmark compare A B`: two sets of runs, judged metric by metric.
//!
//! A and B are run files — the JSON lines `--out` appends, one per run.
//! For every workload and end-to-end metric this prints each side's
//! median and quartiles, how many of the paired runs (i-th of A against
//! i-th of B) B won, and a verdict against the metric's bound in
//! `BENCHMARK.json`:
//!
//! * **unresolved** — either side's interquartile spread exceeds the
//!   bound, unless every run of B beats every run of A;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **improved** — B won at least nine tenths of the pairs and the
//!   medians differ by more than A's interquartile distance;
//! * **unchanged** — otherwise.
//!
//! Failed checks, a digest that differs between runs of the same
//! workload and seed, and an exact count (unit `count`, from traced runs)
//! that differs likewise are failures. The command exits 1 on any
//! failure or regression.

use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;

/// A verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judge sample sets `a` (before) and `b` (after) of one metric. A run
/// with fewer values on one side pairs only the common prefix.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Result<Verdict, String> {
    let [a1, a2, a3] = quartiles(a)?;
    let [b1, b2, b3] = quartiles(b)?;
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let spread = |q1: f64, q2: f64, q3: f64| (q3 - q1) / q2.abs();
    if spread(a1, a2, a3) > bound || spread(b1, b2, b3) > bound {
        return Ok(if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        });
    }
    let worse_by = if higher_is_better { a2 - b2 } else { b2 - a2 } / a2.abs();
    if worse_by > bound {
        return Ok(Verdict::Regressed);
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(b2, a2) && (b2 - a2).abs() > a3 - a1 {
        return Ok(Verdict::Improved);
    }
    Ok(Verdict::Unchanged)
}

/// One run record from a run file.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    digest: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| serde::__find(m, key))
        .ok_or_else(|| format!("missing field {key}"))
}

fn num(v: &Value) -> Result<f64, String> {
    match v {
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn text(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let result = field(&v, "result")?;
    let mut metrics = BTreeMap::new();
    for (name, m) in field(result, "metrics")?
        .as_map()
        .ok_or("metrics is not an object")?
    {
        metrics.insert(
            name.clone(),
            (
                num(field(m, "value")?)?,
                text(field(m, "unit")?)?.to_string(),
            ),
        );
    }
    Ok(Record {
        workload: text(field(&v, "workload")?)?.to_string(),
        seed: num(field(&v, "seed")?)? as u64,
        traced: num(field(&v, "trace")?)? != 0.0,
        digest: text(field(&v, "digest")?)?.to_string(),
        correct: matches!(field(result, "correct")?, Value::Bool(true)),
        attempted: num(field(result, "attempted")?)? as u64,
        failed: num(field(result, "failed")?)? as u64,
        metrics,
    })
}

fn load_runs(path: &str) -> Result<Vec<Record>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    body.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// `(name, higher is better, bound)` of every end-to-end metric.
fn load_bounds(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))?;
    field(&v, "end_to_end")?
        .as_seq()
        .ok_or("end_to_end is not a list")?
        .iter()
        .map(|m| {
            Ok((
                text(field(m, "name")?)?.to_string(),
                text(field(m, "better")?)? == "higher",
                num(field(m, "bound")?)?,
            ))
        })
        .collect()
}

/// Compare run files `a` and `b` under the bounds in `bench`; `Ok(true)`
/// when there is no failure and no regression.
pub fn run(a: &str, b: &str, bench: &str) -> Result<bool, String> {
    let bounds = load_bounds(bench)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut ok = true;

    let mut fail = |msg: String| {
        println!("FAIL {msg}");
        ok = false;
    };
    // Every run's own checks, and agreement of digests and exact counts
    // across all runs of one workload and seed.
    let mut digests: BTreeMap<(&str, u64), &str> = BTreeMap::new();
    let mut counts: BTreeMap<(&str, u64), Vec<(&str, f64)>> = BTreeMap::new();
    for (file, r) in runs_a
        .iter()
        .map(|r| (a, r))
        .chain(runs_b.iter().map(|r| (b, r)))
    {
        let key = (r.workload.as_str(), r.seed);
        if !r.correct || r.failed > 0 {
            fail(format!(
                "{file}: {} seed {}: {} of {} checks failed",
                r.workload, r.seed, r.failed, r.attempted
            ));
        }
        if let Some(d) = digests.insert(key, &r.digest).filter(|d| *d != r.digest) {
            fail(format!(
                "{file}: {} seed {}: digest {} differs from {d}",
                r.workload, r.seed, r.digest
            ));
        }
        if r.traced {
            let exact: Vec<(&str, f64)> = r
                .metrics
                .iter()
                .filter(|(_, (_, unit))| unit == "count")
                .map(|(n, (v, _))| (n.as_str(), *v))
                .collect();
            if let Some(prev) = counts.insert(key, exact.clone()).filter(|p| *p != exact) {
                fail(format!(
                    "{file}: {} seed {}: exact counts {exact:?} differ from {prev:?}",
                    r.workload, r.seed
                ));
            }
        }
    }

    let workloads: std::collections::BTreeSet<&str> =
        runs_a.iter().map(|r| r.workload.as_str()).collect();
    println!(
        "{:<15} {:<12} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for w in workloads {
        let values = |runs: &[Record], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w && !r.traced)
                .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
                .collect()
        };
        for (metric, higher, bound) in &bounds {
            let (va, vb) = (values(&runs_a, metric), values(&runs_b, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, *higher, *bound)?;
            let pairs = va.len().min(vb.len());
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(x, y)| if *higher { y > x } else { y < x })
                .count();
            let show = |xs: &[f64]| -> Result<String, String> {
                let [q1, q2, q3] = quartiles(xs)?;
                Ok(format!("{q2:.4} [{q1:.4}, {q3:.4}]"))
            };
            println!(
                "{w:<15} {metric:<12} {:>30} {:>30} {:>7}  {} (bound {:.0}%)",
                show(&va)?,
                show(&vb)?,
                format!("{wins}/{pairs}"),
                format!("{v:?}").to_lowercase(),
                bound * 100.0
            );
            if v == Verdict::Regressed {
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        A.iter().map(|x| x * k).collect()
    }

    #[test]
    fn small_moves_are_unchanged() {
        assert_eq!(
            verdict(&A, &scaled(1.01), false, 0.10).unwrap(),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_median_beyond_the_bound_regresses() {
        // Lower is better: 15 % slower breaks a 10 % bound.
        assert_eq!(
            verdict(&A, &scaled(1.15), false, 0.10).unwrap(),
            Verdict::Regressed
        );
        // Higher is better: 15 % less throughput likewise.
        assert_eq!(
            verdict(&A, &scaled(0.85), true, 0.10).unwrap(),
            Verdict::Regressed
        );
    }

    #[test]
    fn consistent_wins_beyond_the_spread_improve() {
        assert_eq!(
            verdict(&A, &scaled(0.95), false, 0.10).unwrap(),
            Verdict::Improved
        );
        // Winning 9 of 10 pairs is enough, 8 of 10 is not.
        let mut b = scaled(0.95);
        b[0] = 200.0;
        assert_eq!(verdict(&A, &b, false, 1.0).unwrap(), Verdict::Improved);
        b[1] = 200.0;
        assert_eq!(verdict(&A, &b, false, 1.0).unwrap(), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wide = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&wide, &scaled(1.0), false, 0.10).unwrap(),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        let fast: Vec<f64> = wide.iter().map(|x| x / 10.0).collect();
        assert_eq!(
            verdict(&wide, &fast, false, 0.10).unwrap(),
            Verdict::Improved
        );
    }

    #[test]
    fn records_parse_from_run_lines() {
        let line = r#"{"workload":"serve_tcp","seed":3,"trace":1,"digest":"00ff","result":{"correct":true,"attempted":5,"failed":0,"metrics":{"market.pool_debits":{"value":0,"unit":"count"},"serve.socket_share":{"value":0.99,"unit":"ratio"}}}}"#;
        let r = parse_record(line).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced),
            ("serve_tcp", 3, true)
        );
        assert_eq!(r.metrics["serve.socket_share"], (0.99, "ratio".to_string()));
        assert!(r.correct && r.failed == 0);
    }
}
