//! `run`: one experiment under a fixed checkpoint policy or, with
//! `--policy adaptive`, under the Adaptive meta-policy. Also the
//! experiment flags `sweep` shares.

use crate::args::{CommonArgs, ParsedArgs};
use crate::CliError;
use redspot_core::{
    AdaptiveRunner, ConfigError, Engine, ExperimentConfig, JsonlRecorder, MetricsRecorder,
    NullRecorder, PolicyKind, Recorder, RunMetrics, RunResult, VecRecorder,
};
use redspot_trace::{Price, SimTime, TraceHandle, TraceSet, ZoneId};
use std::io::BufWriter;

/// The experiment the shared flags describe: `--slack`, `--tc`, `--bid`,
/// `--zones` (default: every zone of the trace), `--workload`, `--seed`
/// and `--era`, sealed through the validating constructor.
pub(crate) fn experiment_config(
    parsed: &ParsedArgs,
    common: &CommonArgs,
    traces: &TraceSet,
) -> Result<ExperimentConfig, String> {
    let slack = parsed.num_or("slack", 15u64)?;
    let tc = parsed.num_or("tc", 300u64)?;
    let bid = Price::from_dollars(parsed.num_or("bid", 0.81f64)?);
    let zones = parsed
        .list("zones", |z| z.parse().ok().map(ZoneId))?
        .unwrap_or_else(|| traces.zone_ids().collect());
    // Adaptive ranks zones before any engine checks them, so range is
    // checked here for every command alike.
    if let Some(&zone) = zones.iter().find(|z| z.0 >= traces.n_zones()) {
        let n_zones = traces.n_zones();
        return Err(ConfigError::ZoneOutOfRange { zone, n_zones }.to_string());
    }
    let mut cfg = ExperimentConfig::paper_default()
        .with_costs(redspot_ckpt::CkptCosts::symmetric_secs(tc))
        .with_bid(bid)
        .with_zones(zones)
        .with_seed(common.seed)
        .with_era(common.era);
    if let Some(name) = parsed.get("workload") {
        let w = redspot_ckpt::workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload: {name} (try `redspot workloads`)"))?;
        cfg.app = w.app;
        cfg.costs = w.costs;
    }
    cfg = cfg.with_slack_percent(slack);
    // Seal through the validating constructor: the engines re-check, but
    // a bad flag combination should fail here with a config error.
    Ok(cfg.build().map_err(|e| e.to_string())?.into_inner())
}

/// `--policy`: a fixed checkpoint policy, or `None` for the Adaptive
/// meta-policy.
pub(crate) fn parse_policy(parsed: &ParsedArgs) -> Result<Option<PolicyKind>, String> {
    let kind = match parsed.get_or("policy", "periodic") {
        "adaptive" => return Ok(None),
        "periodic" => PolicyKind::Periodic,
        "markov-daly" => PolicyKind::MarkovDaly,
        "edge" => PolicyKind::RisingEdge,
        "threshold" => PolicyKind::Threshold,
        "spot-on" => PolicyKind::SpotOnCadence,
        // The randomized-bid draw stream follows the run's master seed,
        // so `--seed` reproduces the whole run including the bids.
        "randomized-bid" => PolicyKind::RandomizedBid(parsed.num_or("seed", 42u64)?),
        other => {
            return Err(format!(
                "unknown policy: {other} \
                 (periodic|markov-daly|edge|threshold|spot-on|randomized-bid|adaptive)"
            ))
        }
    };
    Ok(Some(kind))
}

/// One experiment, ready to simulate.
struct Job {
    traces: TraceHandle,
    start: SimTime,
    cfg: ExperimentConfig,
    /// `None` runs the Adaptive meta-policy over `cfg.zones`.
    kind: Option<PolicyKind>,
}

/// Run `job` to completion with `sink` observing. The engine is
/// monomorphized per sink, so the unobserved path costs nothing. Adaptive
/// also keeps its event log, from which the report lists its switches.
fn simulate<R: Recorder>(job: &Job, sink: R) -> Result<(RunResult, RunMetrics), String> {
    let (traces, cfg) = (job.traces.clone(), job.cfg.clone());
    match job.kind {
        None => {
            Ok(AdaptiveRunner::new(traces, job.start, cfg).run_with((VecRecorder::new(), sink)))
        }
        Some(kind) => Ok(
            Engine::try_with_recorder(traces, job.start, cfg, kind.build(), sink)
                .map_err(|e| e.to_string())?
                .run_full(),
        ),
    }
}

fn report_run(label: &str, start: SimTime, r: &RunResult) -> String {
    format!(
        "{label}: cost ${:.2} (spot ${:.2} + on-demand ${:.2})\n  \
         makespan {:.1}h, deadline met: {}, checkpoints {}, restarts {}, out-of-bid {}\n",
        r.cost_dollars(),
        r.spot_cost.as_dollars(),
        r.od_cost.as_dollars(),
        r.makespan(start).as_hours(),
        r.met_deadline,
        r.checkpoints,
        r.restarts,
        r.out_of_bid_terminations,
    )
}

/// `run`: a single experiment.
///
/// Observation is opt-in: by default the engine runs with a
/// `NullRecorder` (telemetry costs nothing). `--trace-out FILE` streams
/// every event as one JSON line; `--metrics` folds events into counters
/// and appends a telemetry table. Both flags compose (a tee).
pub fn run(parsed: &ParsedArgs) -> Result<String, CliError> {
    let common = parsed.common()?;
    let traces = TraceHandle::new(common.source.resolve()?);
    let cfg = experiment_config(parsed, &common, &traces)?;
    let kind = parse_policy(parsed)?;
    let start = SimTime::from_hours(parsed.num_or("start", 48u64)?);
    if start + cfg.deadline > traces.end() {
        return Err("experiment start too late for the trace".into());
    }
    let job = Job {
        traces,
        start,
        cfg,
        kind,
    };

    let trace_out = parsed.get("trace-out");
    let jsonl = |path: &str| -> Result<JsonlRecorder<BufWriter<std::fs::File>>, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        Ok(JsonlRecorder::new(BufWriter::new(file)))
    };
    let (result, metrics) = match (trace_out, common.metrics) {
        (None, false) => simulate(&job, NullRecorder)?,
        (None, true) => simulate(&job, MetricsRecorder::new())?,
        (Some(path), false) => simulate(&job, jsonl(path)?)?,
        (Some(path), true) => simulate(&job, (jsonl(path)?, MetricsRecorder::new()))?,
    };
    if let Some(path) = trace_out.filter(|_| metrics.trace_write_errors > 0) {
        let errors = metrics.trace_write_errors;
        return Err(format!("{errors} write errors streaming to {path}").into());
    }

    let mut out = match kind {
        Some(kind) => report_run(&format!("{kind}"), start, &result),
        None => {
            let switches: Vec<String> = result
                .events
                .iter()
                .filter_map(|e| match e {
                    redspot_core::Event::AdaptiveSwitch { at, to } => {
                        Some(format!("  {:>6.2}h -> {to}", at.since(start).as_hours()))
                    }
                    _ => None,
                })
                .collect();
            format!(
                "{}adaptive decisions:\n{}\n",
                report_run("Adaptive", start, &result),
                switches.join("\n")
            )
        }
    };
    if let Some(path) = trace_out {
        out.push_str(&format!("  wrote event trace to {path}\n"));
    }
    if common.metrics {
        out.push_str(&redspot_exp::report::sweep_metrics_table(&metrics));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::kit::{err, ok, tmp, trace};

    #[test]
    fn run_validates_start_zones_and_policy() {
        let path = trace("low", 4);
        let run = ["run", "--trace", &path];
        assert!(err(&[&run[..], &["--start", "900"]].concat()).contains("too late"));
        for zones in ["0,zebra", "0,7"] {
            assert!(err(&[&run[..], &["--zones", zones]].concat()).contains("zone"));
        }
        // Out-of-range zones fail cleanly for Adaptive too.
        let bad = err(&[&run[..], &["--policy", "adaptive", "--zones", "0,7"]].concat());
        assert!(bad.contains("outside the trace set"), "{bad}");
        assert!(err(&[&run[..], &["--policy", "psychic"]].concat()).contains("unknown policy"));
    }

    #[test]
    fn run_defaults_to_the_generated_profile() {
        // No --trace required: the shared TraceSource defaults to the
        // generated high-volatility profile at the master seed.
        assert!(ok(&["run", "--start", "48", "--zones", "0"]).contains("cost $"));
        let out = ok(&["run", "--profile", "low", "--start", "48", "--zones", "0"]);
        assert!(out.contains("deadline met: true"), "{out}");
        // Naming two sources at once is a usage error on any subcommand.
        let e = err(&["run", "--trace", "x.json", "--profile", "high"]);
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = err(&["sweep", "--trace", "x.json", "--bootstrap-from", "y.json"]);
        assert!(e.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn bootstrap_from_flag_feeds_simulation_commands() {
        let src = trace("low", 2);
        let args = [
            "run",
            "--bootstrap-from",
            &src,
            "--days",
            "10",
            "--zones",
            "0",
        ];
        assert!(ok(&[&args[..], &["--start", "48"]].concat()).contains("cost $"));
    }

    #[test]
    fn new_policies_run_and_replay_deterministically() {
        let flags = [
            "run",
            "--policy",
            "randomized-bid",
            "--seed",
            "7",
            "--zones",
            "0",
        ];
        let a = ok(&flags);
        assert_eq!(a, ok(&flags), "same seed must replay byte-identically");
        assert!(a.contains("deadline met: true"), "{a}");
        let out = ok(&["run", "--policy", "spot-on", "--zones", "0"]);
        assert!(out.contains("deadline met: true"), "{out}");
    }

    #[test]
    fn run_without_observability_flags_prints_summary_only() {
        let path = trace("low", 5);
        let out = ok(&["run", "--trace", &path, "--start", "48"]);
        assert!(out.contains("cost $"), "{out}");
        assert!(!out.contains("telemetry:"), "{out}");
        assert!(!out.contains("wrote event trace"), "{out}");
    }

    /// Fixed policies and Adaptive share one sink path: `--trace-out`
    /// streams a file `validate-trace` accepts, with as many events as
    /// the `--metrics` table saw.
    #[test]
    fn trace_out_and_metrics_round_trip_through_validate_trace() {
        let path = trace("low", 5);
        for policy in ["periodic", "adaptive"] {
            let jsonl = tmp(&format!("{policy}.jsonl"));
            let out = ok(&[
                "run",
                "--trace",
                &path,
                "--policy",
                policy,
                "--trace-out",
                &jsonl,
                "--metrics",
            ]);
            assert!(out.contains("wrote event trace to"), "{out}");
            assert!(out.contains("| runs | 1 |"), "{out}");
            assert_eq!(out.contains("adaptive decisions:"), policy == "adaptive");

            let data = std::fs::read_to_string(&jsonl).unwrap();
            let lines = data.lines().filter(|l| !l.trim().is_empty()).count();
            assert!(lines > 0);
            let checked = ok(&["validate-trace", &jsonl]);
            assert!(checked.contains(&format!("{lines} events, all lines parse")));
            assert!(out.contains(&format!("| events seen | {lines} |")), "{out}");
        }
    }

    #[test]
    fn adaptive_lists_its_switches_within_the_zone_superset() {
        let path = trace("low", 3);
        let run = ["run", "--trace", &path, "--policy", "adaptive"];
        let out = ok(&run);
        assert!(out.starts_with("Adaptive: cost $"), "{out}");
        assert!(out.contains("adaptive decisions:\n"), "{out}");
        // With one zone to choose from, every switch is to N=1.
        let out = ok(&[&run[..], &["--zones", "2"]].concat());
        let switches: Vec<&str> = out.lines().filter(|l| l.contains(" -> ")).collect();
        assert!(!switches.is_empty(), "{out}");
        assert!(switches.iter().all(|l| l.contains("N=1")), "{out}");
    }
}
