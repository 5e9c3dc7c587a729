//! Command implementations.

use crate::args::{CommonArgs, ParsedArgs};
use crate::CliError;
use redspot_core::{AdaptiveRunner, Engine, ExperimentConfig, PolicyKind, RunResult};
use redspot_trace::{Price, Profile, SimTime, TraceSet, ZoneId};
use std::path::Path;

fn load_trace(parsed: &ParsedArgs, key: &str) -> Result<TraceSet, String> {
    let path = parsed
        .get(key)
        .or_else(|| parsed.positional(0))
        .ok_or_else(|| format!("need --{key} FILE (or a positional path)"))?;
    redspot_trace::load_trace_file(Path::new(path))
}

/// The shared no-clobber guard every artifact-writing command applies to
/// its `--out` before doing any work: refuse to overwrite an existing
/// file unless `--force` was given, leaving the file untouched.
pub(crate) fn guard_out(parsed: &ParsedArgs, path: &str) -> Result<(), String> {
    if Path::new(path).exists() && !parsed.has("force") {
        return Err(format!("{path} already exists; pass --force to overwrite"));
    }
    Ok(())
}

/// `gen-trace`: generate and save a synthetic trace.
pub fn gen_trace(parsed: &ParsedArgs) -> Result<String, String> {
    let seed = parsed.num_or("seed", 42u64)?;
    let profile = Profile::parse(parsed.get_or("profile", "high"))?;
    let traces = profile.generate(seed)?;
    let out = parsed.get_or("out", "trace.json");
    guard_out(parsed, out)?;
    let path = Path::new(out);
    let save = match parsed.get_or("format", "json") {
        "json" => redspot_trace::io::save_json(&traces, path),
        "csv" => redspot_trace::io::save_csv(&traces, path),
        other => return Err(format!("unknown format: {other} (json|csv)")),
    };
    save.map_err(|e| format!("cannot write {out}: {e}"))?;
    let what = match &profile {
        Profile::Calibrated(_) => format!("{profile} trace"),
        _ => format!("{profile}-volatility trace"),
    };
    Ok(format!(
        "wrote {what} (seed {seed}) to {out}\n{}",
        redspot_trace::io::describe(&traces)
    ))
}

/// `calibrate`: fit a generator profile to an observed trace, for
/// re-generation via `--profile calibrated:FILE` (any subcommand) or
/// `gen-trace`.
pub fn calibrate(parsed: &ParsedArgs) -> Result<String, String> {
    let traces = load_trace(parsed, "trace")?;
    let out = parsed.get("out").ok_or("need --out FILE")?;
    guard_out(parsed, out)?;
    let profile = redspot_trace::calibrate::fit(&traces);
    profile
        .save_json(Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "fitted a {}-zone calibrated profile ({} span) to {out}\n\
         regenerate with: redspot gen-trace --profile calibrated:{out}\n",
        profile.zones.len(),
        format_args!("{:.1}h", profile.duration.as_hours()),
    ))
}

/// `describe`: summarize a trace file.
pub fn describe(parsed: &ParsedArgs) -> Result<String, String> {
    let traces = load_trace(parsed, "trace")?;
    Ok(redspot_trace::io::describe(&traces))
}

fn experiment_config(
    parsed: &ParsedArgs,
    common: &CommonArgs,
    traces: &TraceSet,
) -> Result<ExperimentConfig, String> {
    let slack = parsed.num_or("slack", 15u64)?;
    let tc = parsed.num_or("tc", 300u64)?;
    let bid = Price::from_dollars(parsed.num_or("bid", 0.81f64)?);
    let zones: Vec<ZoneId> = match parsed.get("zones") {
        None => traces.zone_ids().collect(),
        Some(spec) => spec
            .split(',')
            .map(|z| {
                z.trim()
                    .parse::<usize>()
                    .map(ZoneId)
                    .map_err(|_| format!("bad zone id: {z}"))
            })
            .collect::<Result<_, _>>()?,
    };
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

/// `workloads`: list the workload catalog.
pub fn workloads(_parsed: &ParsedArgs) -> Result<String, String> {
    let mut out = String::from(
        "workload catalog:
",
    );
    for w in redspot_ckpt::workloads::ALL {
        let iteration = match w.app.iteration {
            Some(it) => format!("{:.0} min iterations", it.secs() as f64 / 60.0),
            None => "continuous progress".into(),
        };
        out.push_str(&format!(
            "  {:<16} C = {:>4.0} h, t_c = {:>3} s, {:<24} — {}
",
            w.name,
            w.app.work.as_hours(),
            w.costs.checkpoint.secs(),
            iteration,
            w.description,
        ));
    }
    Ok(out)
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

fn parse_policy(parsed: &ParsedArgs) -> Result<PolicyKind, String> {
    match parsed.get_or("policy", "periodic") {
        "periodic" => Ok(PolicyKind::Periodic),
        "markov-daly" => Ok(PolicyKind::MarkovDaly),
        "edge" => Ok(PolicyKind::RisingEdge),
        "threshold" => Ok(PolicyKind::Threshold),
        "spot-on" => Ok(PolicyKind::SpotOnCadence),
        // The randomized-bid draw stream follows the run's master seed,
        // so `--seed` reproduces the whole run including the bids.
        "randomized-bid" => Ok(PolicyKind::RandomizedBid(parsed.num_or("seed", 42u64)?)),
        other => Err(format!(
            "unknown policy: {other} \
             (periodic|markov-daly|edge|threshold|spot-on|randomized-bid)"
        )),
    }
}

/// `run`: a single experiment under one policy.
///
/// Observation is opt-in: by default the engine runs with a
/// `NullRecorder` (telemetry costs nothing). `--trace-out FILE` streams
/// every event as one JSON line; `--metrics` folds events into counters
/// and appends a telemetry table. Both flags compose (a tee).
pub fn run(parsed: &ParsedArgs) -> Result<String, String> {
    use redspot_core::{JsonlRecorder, MetricsRecorder, NullRecorder};
    use std::io::BufWriter;

    let common = parsed.common()?;
    let traces = common.source.resolve()?;
    let cfg = experiment_config(parsed, &common, &traces)?;
    let kind = parse_policy(parsed)?;
    let start = SimTime::from_hours(parsed.num_or("start", 48u64)?);
    if start + cfg.deadline > traces.end() {
        return Err("experiment start too late for the trace".into());
    }

    let trace_out = parsed.get("trace-out");
    let want_metrics = common.metrics;
    let jsonl_sink = |path: &str| -> Result<JsonlRecorder<BufWriter<std::fs::File>>, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        Ok(JsonlRecorder::new(BufWriter::new(file)))
    };
    // Four statically-dispatched sink shapes; the engine is monomorphized
    // per recorder type, so the unobserved path carries no recording cost.
    let (result, metrics) = match (trace_out, want_metrics) {
        (None, false) => {
            let r = Engine::try_with_recorder(&traces, start, cfg, kind.build(), NullRecorder)
                .map_err(|e| e.to_string())?
                .run();
            (r, None)
        }
        (None, true) => {
            let (r, m) = Engine::try_with_recorder(
                &traces,
                start,
                cfg,
                kind.build(),
                MetricsRecorder::new(),
            )
            .map_err(|e| e.to_string())?
            .run_full();
            (r, Some(m))
        }
        (Some(path), false) => {
            let (r, m) =
                Engine::try_with_recorder(&traces, start, cfg, kind.build(), jsonl_sink(path)?)
                    .map_err(|e| e.to_string())?
                    .run_full();
            if m.trace_write_errors > 0 {
                return Err(format!(
                    "{} write errors streaming to {path}",
                    m.trace_write_errors
                ));
            }
            (r, None)
        }
        (Some(path), true) => {
            let sink = (jsonl_sink(path)?, MetricsRecorder::new());
            let (r, m) = Engine::try_with_recorder(&traces, start, cfg, kind.build(), sink)
                .map_err(|e| e.to_string())?
                .run_full();
            if m.trace_write_errors > 0 {
                return Err(format!(
                    "{} write errors streaming to {path}",
                    m.trace_write_errors
                ));
            }
            (r, Some(m))
        }
    };

    let mut out = report_run(&format!("{kind}"), start, &result);
    if let Some(path) = trace_out {
        out.push_str(&format!("  wrote event trace to {path}\n"));
    }
    if let Some(m) = metrics {
        out.push_str(&redspot_exp::report::sweep_metrics_table(&m));
    }
    Ok(out)
}

/// Event fields that carry a price. Listed here so the raw-JSON check in
/// [`validate_trace`] stays in sync with the [`redspot_core::Event`]
/// schema.
const PRICE_FIELDS: &[&str] = &["bid", "charged", "rate"];

/// Reject malformed price values in a raw JSON tree *before* the typed
/// `Event` parse gets a chance to coerce them. The actual walk lives in
/// [`redspot_core::serve::check_price_fields`] — the serve daemon's
/// ingestion stream and this offline validator enforce the same
/// discipline through the same code, just over different field lists.
fn check_price_fields(value: &serde::Value) -> Result<(), String> {
    redspot_core::serve::check_price_fields(value, PRICE_FIELDS)
}

/// `validate-trace`: check that a `--trace-out` JSONL file is well formed
/// — every line parses as an [`redspot_core::Event`], every price field
/// is a finite, non-negative integer milli-dollar count, and timestamps
/// never go backwards. CI's observability smoke test.
pub fn validate_trace(parsed: &ParsedArgs) -> Result<String, String> {
    let path = parsed
        .get("trace")
        .or_else(|| parsed.positional(0))
        .ok_or("need a trace file (positional or --trace)")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut events = 0u64;
    let mut last_at = None;
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Two passes per line: the raw tree rejects price values the
        // typed parse would coerce (floats) or mask (null from a
        // non-finite write), then the typed parse checks the schema.
        let raw: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not valid JSON: {e}", i + 1))?;
        check_price_fields(&raw).map_err(|why| format!("{path}:{}: {why}", i + 1))?;
        let event: redspot_core::Event = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not a valid Event: {e}", i + 1))?;
        let at = event.at();
        if let Some(prev) = last_at {
            if at < prev {
                return Err(format!("{path}:{}: timestamps go backwards", i + 1));
            }
        }
        last_at = Some(at);
        events += 1;
    }
    if events == 0 {
        return Err(format!("{path}: no events"));
    }
    Ok(format!(
        "{path}: {events} events, all lines parse, prices finite and non-negative, timestamps non-decreasing\n"
    ))
}

/// `adaptive`: a single experiment under the adaptive meta-policy.
pub fn adaptive(parsed: &ParsedArgs) -> Result<String, String> {
    let common = parsed.common()?;
    let traces = common.source.resolve()?;
    let mut cfg = experiment_config(parsed, &common, &traces)?;
    cfg.zones = traces.zone_ids().collect();
    let start = SimTime::from_hours(parsed.num_or("start", 48u64)?);
    if start + cfg.deadline > traces.end() {
        return Err("experiment start too late for the trace".into());
    }
    let result = AdaptiveRunner::new(&traces, start, cfg).run();
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
    Ok(format!(
        "{}adaptive decisions:\n{}\n",
        report_run("Adaptive", start, &result),
        switches.join("\n")
    ))
}

#[cfg(test)]
mod tests {

    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_describe_run_adaptive_round_trip() {
        let path = tmp("low.json");
        let out = dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "3",
            "--out",
            &path,
        ])
        .unwrap();
        assert!(out.contains("low-volatility trace"));

        let out = dispatch_str(&["describe", &path]).unwrap();
        assert!(out.contains("3 zones"));

        let out = dispatch_str(&[
            "run", "--trace", &path, "--policy", "periodic", "--zones", "0", "--start", "48",
        ])
        .unwrap();
        assert!(out.contains("deadline met: true"), "{out}");

        let out = dispatch_str(&["adaptive", "--trace", &path, "--start", "48"]).unwrap();
        assert!(out.contains("Adaptive: cost $"), "{out}");
    }

    #[test]
    fn csv_format_is_supported() {
        let path = tmp("low.csv");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "3",
            "--out",
            &path,
            "--format",
            "csv",
        ])
        .unwrap();
        let out = dispatch_str(&["describe", &path]).unwrap();
        assert!(out.contains("3 zones"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch_str(&[]).is_err());
        assert!(dispatch_str(&["frobnicate"]).is_err());
        assert!(dispatch_str(&["repro", "fig9"]).is_err());
        assert!(dispatch_str(&["repro", "table5"]).is_err());
        assert!(dispatch_str(&["describe", "/nonexistent/trace.json"]).is_err());
        assert!(dispatch_str(&["gen-trace", "--force", "--profile", "weird"]).is_err());
    }

    #[test]
    fn chaos_runs_and_rejects_bad_intensities() {
        let out = dispatch_str(&["chaos", "--n", "2", "--intensities", "0,0.5"]).unwrap();
        assert!(out.contains("total deadline violations: 0"), "{out}");
        assert!(dispatch_str(&["chaos", "--intensities", "0,2"]).is_err());
        assert!(dispatch_str(&["chaos", "--intensities", "zebra"]).is_err());
    }

    #[test]
    fn chaos_api_flag_composes_both_fault_planes() {
        let out = dispatch_str(&["chaos", "--api", "--n", "2", "--intensities", "0,0.5"]).unwrap();
        assert!(out.contains("Chaos-API+infra"), "{out}");
        assert!(out.contains("total deadline violations: 0"), "{out}");
        // Bad intensities are usage errors regardless of the mode.
        let err = crate::dispatch(&[
            "chaos".to_string(),
            "--api".to_string(),
            "--intensities".to_string(),
            "0,2".to_string(),
        ])
        .unwrap_err();
        assert!(matches!(err, crate::CliError::Usage(_)));
    }

    #[test]
    fn chaos_api_only_flag_keeps_control_plane_faults_alone() {
        let out =
            dispatch_str(&["chaos", "--api-only", "--n", "2", "--intensities", "0,0.5"]).unwrap();
        assert!(out.contains("Chaos-API:"), "{out}");
        assert!(!out.contains("Chaos-API+infra"), "{out}");
        assert!(out.contains("total deadline violations: 0"), "{out}");
    }

    #[test]
    fn fleet_contends_and_writes_the_metrics_artifact() {
        let out_path = tmp("fleet-metrics.json");
        let _ = std::fs::remove_file(&out_path);
        let out = dispatch_str(&[
            "fleet",
            "--jobs",
            "4",
            "--capacity",
            "unbounded,1",
            "--intensities",
            "0",
            "--out",
            &out_path,
        ])
        .unwrap();
        assert!(out.contains("total deadline violations: 0"), "{out}");
        assert!(out.contains("capacity conserved: yes"), "{out}");
        assert!(out.contains("unbounded"), "{out}");
        assert!(out.contains("1/zone"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"runs\""), "{json}");
        // Bad capacity specs are usage errors.
        assert!(dispatch_str(&["fleet", "--capacity", "many"]).is_err());

        // A second run must refuse to clobber the artifact without
        // --force, and must not have touched the file when refusing.
        let before = std::fs::read_to_string(&out_path).unwrap();
        let err = dispatch_str(&[
            "fleet",
            "--jobs",
            "2",
            "--intensities",
            "0",
            "--out",
            &out_path,
        ])
        .unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert!(err.contains("--force"), "{err}");
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), before);
        let forced = dispatch_str(&[
            "fleet",
            "--jobs",
            "2",
            "--intensities",
            "0",
            "--out",
            &out_path,
            "--force",
        ])
        .unwrap();
        assert!(forced.contains("metrics written"), "{forced}");
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch_str(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("gen-trace"));
    }

    #[test]
    fn run_validates_start_and_zones() {
        let path = tmp("low2.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "4",
            "--out",
            &path,
        ])
        .unwrap();
        assert!(dispatch_str(&["run", "--trace", &path, "--start", "900"]).is_err());
        assert!(dispatch_str(&["run", "--trace", &path, "--zones", "0,zebra"]).is_err());
        assert!(dispatch_str(&["run", "--trace", &path, "--policy", "psychic"]).is_err());
    }
}

/// Parse the shared `--intensities` list (values in `[0, 1]`).
fn parse_intensities(parsed: &ParsedArgs, default: &str) -> Result<Vec<f64>, String> {
    let spec = parsed.get_or("intensities", default);
    let intensities: Vec<f64> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("--intensities: cannot parse '{s}'"))
                .and_then(|v| {
                    if (0.0..=1.0).contains(&v) {
                        Ok(v)
                    } else {
                        Err(format!("--intensities: {v} outside [0, 1]"))
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    if intensities.is_empty() {
        return Err("--intensities: need at least one value".into());
    }
    Ok(intensities)
}

/// `chaos`: the deadline guarantee under injected faults — infrastructure
/// faults by default; `--api` *composes* control-plane faults with the
/// infrastructure faults in the same runs; `--api-only` injects the
/// control-plane faults alone. Any deadline violation in the sweep is a
/// [`CliError::Violation`]: the binary prints the table and exits
/// nonzero, so CI can gate on it.
pub fn chaos(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::experiments::{chaos, chaos_api};
    let usage = CliError::Usage;
    let common = parsed.common().map_err(usage)?;
    let n = parsed.n_or(8).map_err(usage)?;
    let intensities = parse_intensities(parsed, "0,0.3,0.6,1").map_err(usage)?;
    let traces = common.source.resolve().map_err(usage)?;
    let (rendered, violations) = if parsed.has("api") || parsed.has("api-only") {
        let composed = !parsed.has("api-only");
        let c = chaos_api::study(
            &traces,
            &intensities,
            n,
            common.threads,
            composed,
            common.era,
        );
        (chaos_api::render(&c), c.total_violations())
    } else {
        let c = chaos::study(&traces, &intensities, n, common.threads, common.era);
        (chaos::render(&c), c.total_violations())
    };
    if violations > 0 {
        return Err(CliError::Violation(rendered));
    }
    Ok(rendered)
}

/// `fleet`: N mixed jobs contending for shared per-zone spot capacity,
/// with both fault planes live and the graceful-degradation ladder
/// enabled. `--capacity` takes a comma list of per-zone unit counts
/// ("unbounded" for the independent-runs control). Exits nonzero on any
/// deadline violation or capacity-conservation failure; `--out` writes
/// the merged fleet metrics as a JSON artifact.
pub fn fleet(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::experiments::chaos_fleet;
    let usage = CliError::Usage;
    let common = parsed.common().map_err(usage)?;
    let n_jobs = parsed.num_or("jobs", 8usize).map_err(usage)?;
    if n_jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".into()));
    }
    let intensities = parse_intensities(parsed, "0,0.5").map_err(usage)?;
    let capacities: Vec<Option<u64>> = parsed
        .get_or("capacity", "unbounded,2")
        .split(',')
        .map(|s| match s.trim() {
            "unbounded" | "inf" => Ok(None),
            v => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("--capacity: cannot parse '{v}'")),
        })
        .collect::<Result<_, _>>()
        .map_err(usage)?;

    let traces = common.source.resolve().map_err(usage)?;
    let c = chaos_fleet::study(
        &traces,
        common.seed,
        &capacities,
        &intensities,
        n_jobs,
        common.threads,
        common.era,
    );
    let mut rendered = chaos_fleet::render(&c);

    if let Some(out) = parsed.get("out") {
        // Never silently clobber an existing artifact: a fleet metrics
        // file is typically the baseline another run diffs against.
        guard_out(parsed, out).map_err(CliError::Usage)?;
        let json = serde_json::to_string(&c.merged_metrics())
            .map_err(|e| CliError::Usage(format!("cannot serialize metrics: {e}")))?;
        std::fs::write(out, json)
            .map_err(|e| CliError::Usage(format!("cannot write {out}: {e}")))?;
        rendered.push_str(&format!("\n  merged fleet metrics written to {out}\n"));
    }
    if c.total_violations() > 0 || !c.all_balanced() {
        return Err(CliError::Violation(rendered));
    }
    Ok(rendered)
}

/// `serve`: the live advisory daemon. Clients stream price rows in over
/// line-JSON (the `validate-trace` discipline, checked per line), query
/// "what would Adaptive do right now?", and subscribe to interruption
/// notices the sentinel classifies under each market's era. `--stdio`
/// serves a single client over stdin/stdout (the CI smoke mode);
/// otherwise `--addr HOST:PORT` (default `127.0.0.1:7071`, port 0 for
/// ephemeral) serves concurrent TCP clients. Exits 1 if any request
/// line failed — a malformed ingestion stream never exits clean.
pub fn serve(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_core::serve::{serve_stdio_with, Daemon, Server};
    let usage = CliError::Usage;
    let dirty =
        CliError::Violation("serve: one or more request lines failed (see replies)\n".into());
    let common = parsed.common().map_err(usage)?;
    // Preload only when a source was named explicitly: a daemon has no
    // natural default market, so a bare `serve` starts empty and waits
    // for clients to open markets themselves.
    let preload = if common.source_explicit {
        let traces = common.source.resolve().map_err(usage)?;
        let market = parsed.get_or("market", "preload").to_string();
        let bid = Price::from_dollars(parsed.num_or("bid", 0.81f64).map_err(usage)?);
        Some((traces, market, bid))
    } else {
        None
    };
    let preload_into = |server: &Server| -> Result<String, CliError> {
        match &preload {
            None => Ok(String::new()),
            Some((traces, market, bid)) => {
                let rows = server
                    .registry()
                    .preload(market, traces, common.era, *bid, common.seed)
                    .map_err(usage)?;
                Ok(format!(
                    "serve: preloaded market '{market}' ({rows} rows from {})\n",
                    common.source
                ))
            }
        }
    };
    if parsed.has("stdio") {
        let server = Server::new();
        let banner = preload_into(&server)?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let clean = serve_stdio_with(&server, stdin.lock(), stdout.lock())
            .map_err(|e| CliError::Usage(format!("serve I/O error: {e}")))?;
        return if clean {
            Ok(format!("{banner}serve: session closed cleanly\n"))
        } else {
            Err(dirty)
        };
    }
    let addr = parsed.get_or("addr", "127.0.0.1:7071");
    let daemon =
        Daemon::bind(addr).map_err(|e| CliError::Usage(format!("cannot bind {addr}: {e}")))?;
    let banner = preload_into(daemon.server())?;
    print!("{banner}");
    let bound = daemon
        .local_addr()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    // Announce the bound address before blocking in the accept loop —
    // scripts (and the CI smoke job) read it to find an ephemeral port.
    println!("serve: listening on {bound}");
    if daemon.run() {
        Ok(format!("serve: shut down cleanly ({bound})\n"))
    } else {
        Err(dirty)
    }
}

/// `policy-compare`: every checkpoint policy head-to-head as redundancy
/// over all zones, under both market eras — the policy × era cost table.
/// Any deadline violation is a [`CliError::Violation`]; `--out FILE`
/// writes the full comparison as a JSON artifact (the `policy-smoke` CI
/// job uploads it), refusing to clobber without `--force`.
pub fn policy_compare(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::experiments::policy_compare as pc;
    let usage = CliError::Usage;
    let common = parsed.common().map_err(usage)?;
    let n = parsed.n_or(8).map_err(usage)?;
    let traces = common.source.resolve().map_err(usage)?;
    let c = pc::study(&traces, n, common.threads);
    let mut rendered = pc::render(&c);
    if let Some(out) = parsed.get("out") {
        guard_out(parsed, out).map_err(usage)?;
        let json = serde_json::to_string_pretty(&c)
            .map_err(|e| CliError::Usage(format!("cannot serialize comparison: {e}")))?;
        std::fs::write(out, json)
            .map_err(|e| CliError::Usage(format!("cannot write {out}: {e}")))?;
        rendered.push_str(&format!("\n  comparison artifact written to {out}\n"));
    }
    if c.total_violations() > 0 {
        return Err(CliError::Violation(rendered));
    }
    Ok(rendered)
}

/// `era-compare`: the paper's 2014 hourly market against the post-2017
/// per-second/interruption-notice market, same traces and schemes. Any
/// deadline violation in either era is a [`CliError::Violation`].
pub fn era_compare(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::experiments::era_compare;
    let usage = CliError::Usage;
    let common = parsed.common().map_err(usage)?;
    let n = parsed.n_or(8).map_err(usage)?;
    let traces = common.source.resolve().map_err(usage)?;
    let c = era_compare::study(&traces, n, common.threads);
    let rendered = era_compare::render(&c);
    if c.total_violations() > 0 {
        return Err(CliError::Violation(rendered));
    }
    Ok(rendered)
}

/// `bootstrap`: resample an observed trace into a synthetic variant.
pub fn bootstrap(parsed: &ParsedArgs) -> Result<String, String> {
    use redspot_trace::bootstrap::{resample, BootstrapConfig};
    use redspot_trace::SimDuration;
    let out = parsed.get("out").ok_or("need --out FILE")?;
    guard_out(parsed, out)?;
    let source = load_trace(parsed, "trace")?;
    let cfg = BootstrapConfig {
        seed: parsed.num_or("seed", 0u64)?,
        block: SimDuration::from_hours(parsed.num_or("block-hours", 12u64)?),
        output_len: SimDuration::from_hours(parsed.num_or("days", 30u64)? * 24),
    };
    let variant = resample(&source, &cfg);
    redspot_trace::io::save_json(&variant, Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote bootstrap variant to {out}\n{}",
        redspot_trace::io::describe(&variant)
    ))
}

#[cfg(test)]
mod extra_tests {
    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn bootstrap_round_trip() {
        let src = tmp("src.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "high",
            "--seed",
            "2",
            "--out",
            &src,
        ])
        .unwrap();
        let dst = tmp("variant.json");
        let _ = std::fs::remove_file(&dst);
        let out = dispatch_str(&[
            "bootstrap",
            "--trace",
            &src,
            "--out",
            &dst,
            "--days",
            "10",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("bootstrap variant"));
        let described = dispatch_str(&["describe", &dst]).unwrap();
        assert!(described.contains("span 240.0h"));
        assert!(dispatch_str(&["bootstrap", "--trace", &src]).is_err()); // no --out

        // The no-clobber guard: a repeat run refuses and leaves the
        // artifact untouched; --force overwrites.
        let before = std::fs::read(&dst).unwrap();
        let err = dispatch_str(&["bootstrap", "--trace", &src, "--out", &dst, "--days", "10"])
            .unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert!(err.contains("--force"), "{err}");
        assert_eq!(std::fs::read(&dst).unwrap(), before);
        dispatch_str(&[
            "bootstrap",
            "--trace",
            &src,
            "--out",
            &dst,
            "--days",
            "10",
            "--force",
        ])
        .unwrap();
    }

    #[test]
    fn gen_trace_refuses_to_clobber_without_force() {
        let path = tmp("clobber-gen.json");
        std::fs::write(&path, b"precious trace").unwrap();
        let err = dispatch_str(&["gen-trace", "--profile", "low", "--out", &path]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert!(err.contains("--force"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious trace".to_vec(),
            "refused run must not touch the file"
        );
        let ok =
            dispatch_str(&["gen-trace", "--profile", "low", "--out", &path, "--force"]).unwrap();
        assert!(ok.contains("low-volatility trace"), "{ok}");
        assert_ne!(std::fs::read(&path).unwrap(), b"precious trace".to_vec());
    }

    #[test]
    fn calibrate_fits_and_regenerates() {
        let src = tmp("calib-src.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "high",
            "--seed",
            "6",
            "--out",
            &src,
        ])
        .unwrap();
        let fit = tmp("calib-profile.json");
        let _ = std::fs::remove_file(&fit);
        let out = dispatch_str(&["calibrate", "--trace", &src, "--out", &fit]).unwrap();
        assert!(out.contains("calibrated profile"), "{out}");
        assert!(out.contains("calibrated:"), "{out}");

        // The no-clobber guard holds here too.
        let before = std::fs::read(&fit).unwrap();
        let err = dispatch_str(&["calibrate", "--trace", &src, "--out", &fit]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert_eq!(std::fs::read(&fit).unwrap(), before);

        // The fitted profile round-trips through gen-trace and the
        // unified --profile flag on a simulation command.
        let regen = tmp("calib-regen.json");
        let spec = format!("calibrated:{fit}");
        let out = dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            &spec,
            "--seed",
            "9",
            "--out",
            &regen,
        ])
        .unwrap();
        assert!(out.contains("wrote calibrated:"), "{out}");
        let out = dispatch_str(&["run", "--profile", &spec, "--start", "48"]).unwrap();
        assert!(out.contains("cost $"), "{out}");
        assert!(dispatch_str(&["calibrate", "--trace", &src]).is_err()); // no --out
    }
}

#[cfg(test)]
mod workload_tests {
    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn workload_catalog_lists_and_runs() {
        let list = dispatch_str(&["workloads"]).unwrap();
        assert!(list.contains("nas-ft-e"));
        assert!(list.contains("paper-heavy"));

        let path = tmp("wl.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "5",
            "--out",
            &path,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "run",
            "--trace",
            &path,
            "--workload",
            "nas-ft-e",
            "--zones",
            "0",
            "--start",
            "48",
            "--slack",
            "40",
        ])
        .unwrap();
        assert!(out.contains("deadline met: true"), "{out}");
        assert!(dispatch_str(&["run", "--trace", &path, "--workload", "bogus"]).is_err());
    }
}

/// A sweep's full grid: the flat, canonically-ordered cell list every
/// sweep mode (single-process, sharded, merged) agrees on. The order is
/// bid-major — bids outer, experiment starts inner, zones innermost for
/// single-zone schemes — so cell `i` means the same `RunSpec` to every
/// invocation with the same flags, which is what makes `--shard K/N`
/// journals from different processes mergeable.
struct SweepGrid {
    bids: Vec<Price>,
    n_starts: usize,
    specs: Vec<redspot_exp::scheme::RunSpec>,
    adaptive: bool,
    redundant: bool,
    kind: PolicyKind,
}

fn sweep_grid(
    parsed: &ParsedArgs,
    traces: &TraceSet,
    base: &ExperimentConfig,
) -> Result<SweepGrid, String> {
    use redspot_exp::scheme::{RunSpec, Scheme};
    use redspot_exp::windows::{experiment_starts, run_span_for};

    let adaptive = parsed.get_or("policy", "periodic") == "adaptive";
    let kind = if adaptive {
        PolicyKind::Periodic // unused; the meta-policy picks per decision
    } else {
        parse_policy(parsed)?
    };
    let redundant = parsed.get_or("redundant", "false") == "true";
    let n = parsed.n_or(16)?;
    let bids: Vec<Price> = match parsed.get("bids") {
        None => vec![
            Price::from_millis(270),
            Price::from_millis(810),
            Price::from_millis(2_400),
        ],
        Some(spec) => spec
            .split(',')
            .map(|b| {
                b.trim()
                    .parse::<f64>()
                    .map(Price::from_dollars)
                    .map_err(|_| format!("bad bid: {b}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let starts = experiment_starts(traces, run_span_for(base.deadline), n);
    if starts.is_empty() {
        return Err(
            "trace too short for this deadline (need 48h bootstrap + deadline + 1h)".into(),
        );
    }
    let mut specs = Vec::new();
    for &bid in &bids {
        for &start in &starts {
            if adaptive {
                specs.push(RunSpec {
                    start,
                    bid,
                    scheme: Scheme::Adaptive,
                });
            } else if redundant {
                specs.push(RunSpec {
                    start,
                    bid,
                    scheme: Scheme::Redundant {
                        kind,
                        zones: traces.zone_ids().collect(),
                    },
                });
            } else {
                for zone in traces.zone_ids() {
                    specs.push(RunSpec {
                        start,
                        bid,
                        scheme: Scheme::Single { kind, zone },
                    });
                }
            }
        }
    }
    Ok(SweepGrid {
        bids,
        n_starts: starts.len(),
        specs,
        adaptive,
        redundant,
        kind,
    })
}

/// Parse `--shard K/N`.
fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard: expected K/N (e.g. 2/4), got '{spec}'");
    let (k, n) = spec.split_once('/').ok_or_else(bad)?;
    let k: usize = k.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    Ok((k, n))
}

/// Write a merged sweep artifact. One function shared by `sweep --out`
/// and `merge --out`, so the two paths are byte-identical by
/// construction (same serializer, same call).
fn write_merged(path: &str, merged: &redspot_exp::MergedSweep) -> Result<(), String> {
    let json = serde_json::to_string(merged).map_err(|e| format!("cannot serialize: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `sweep`: run many overlapping experiments on a user-provided trace and
/// print a cost boxplot per bid — the Figure-4 machinery pointed at your
/// own data. `--policy adaptive` sweeps the meta-policy instead of a
/// fixed checkpoint policy; `--cache-stats` reports how well the shared
/// decision cache deduplicated adaptive sub-simulations.
///
/// Crash-safe sharding: `--shard K/N --journal DIR` runs only shard `K`
/// of the grid, appending each completed cell to a checksummed
/// write-ahead journal; a killed invocation re-run with the same flags
/// resumes, skipping journaled cells. `redspot merge --journal DIR`
/// combines the `N` journals. `--out FILE` (without `--shard`) writes
/// the same merged artifact from an uninterrupted in-process run.
pub fn sweep(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_core::MarketCtx;
    use redspot_exp::exec::RunRequest;
    use redspot_exp::report::{boxplot_panel, sweep_metrics_table, LabeledBox, REF_LINES};
    use redspot_exp::shard::journal::DEFAULT_SYNC_EVERY;
    use redspot_exp::shard::run::run_shard;
    use redspot_exp::{fingerprint, MergedSweep, ShardManifest};

    let common = parsed.common().map_err(CliError::Usage)?;
    let traces = common.source.resolve().map_err(CliError::Usage)?;
    let base = experiment_config(parsed, &common, &traces).map_err(CliError::Usage)?;
    let grid = sweep_grid(parsed, &traces, &base).map_err(CliError::Usage)?;
    let fp = fingerprint(&base, &grid.specs);

    // One shared context for the whole sweep: every bid row reuses the
    // same whole-trace scan seed and decision cache.
    let mkt = if grid.adaptive {
        MarketCtx::for_sweep(traces.clone())
    } else {
        MarketCtx::new(traces.clone())
    };

    if let Some(shard_spec) = parsed.get("shard") {
        let dir = parsed
            .get("journal")
            .ok_or_else(|| CliError::Usage("--shard needs --journal DIR".into()))?;
        let (k, n) = parse_shard(shard_spec).map_err(CliError::Usage)?;
        let manifest = ShardManifest::plan(grid.specs.len(), k, n, fp.clone())
            .map_err(|e| CliError::Usage(e.to_string()))?;
        let sync_every = parsed
            .num_or("sync-every", DEFAULT_SYNC_EVERY)
            .map_err(CliError::Usage)?;
        // Journal problems are integrity violations, not usage errors:
        // print the diagnosis and exit 1, like merge and chaos do.
        let report = run_shard(
            &mkt,
            &base,
            &grid.specs,
            &manifest,
            Path::new(dir),
            Some(sync_every),
        )
        .map_err(|e| CliError::Violation(format!("shard journal error: {e}\n")))?;
        return Ok(format!(
            "shard {k}/{n}: cells {}..{} of {} ({} this shard)\n\
             executed {} cell(s), skipped {} already-journaled{}{}\n\
             fingerprint {fp}\njournal {}\n",
            manifest.cell_lo,
            manifest.cell_hi,
            manifest.n_cells,
            manifest.cells().len(),
            report.executed,
            report.skipped,
            if report.resumed { " (resumed)" } else { "" },
            if report.truncated_torn_tail {
                ", truncated a torn final record"
            } else {
                ""
            },
            report.journal.display(),
        ));
    }
    if parsed.get("journal").is_some() {
        return Err(CliError::Usage("--journal needs --shard K/N".into()));
    }

    let out_path = parsed.get("out");
    // Never silently clobber an existing artifact (checked before the
    // sweep runs, so a refused invocation costs nothing): a sweep
    // artifact is typically the baseline another run diffs against —
    // the same guard every artifact-writing command applies.
    if let Some(path) = out_path {
        guard_out(parsed, path).map_err(CliError::Usage)?;
    }
    let want_cache_stats = parsed.has("cache-stats");
    // `--out` always meters: the artifact embeds merged per-cell metrics
    // and must match what `merge` assembles from journaled shards.
    let outcome = RunRequest::new(&mkt, &base, &grid.specs)
        .threads(common.threads)
        .metered(common.metrics || out_path.is_some())
        .execute()
        .map_err(|e| CliError::Usage(e.to_string()))?;

    let mut rows = Vec::new();
    for &bid in &grid.bids {
        let costs: Vec<f64> = grid
            .specs
            .iter()
            .zip(&outcome.results)
            .filter(|(s, _)| s.bid == bid)
            .map(|(_, r)| r.cost_dollars())
            .collect();
        let label = if grid.adaptive {
            format!("A@{bid}")
        } else {
            format!("{}@{bid}", grid.kind.label())
        };
        if let Some(row) = LabeledBox::from_costs(label, &costs) {
            rows.push(row);
        }
    }
    let policy_label = if grid.adaptive {
        "Adaptive".to_string()
    } else {
        format!("{}", grid.kind)
    };
    let title = format!(
        "{policy_label} sweep over {} experiments ({})",
        grid.n_starts,
        if grid.adaptive {
            "meta-policy, all zones"
        } else if grid.redundant {
            "redundant, all zones"
        } else {
            "single zones merged"
        },
    );
    let mut out = boxplot_panel(&title, &rows, &REF_LINES);
    if common.metrics {
        if let Some(m) = &outcome.metrics {
            out.push_str(&sweep_metrics_table(m));
        }
    }
    if want_cache_stats {
        let (cache, uptime) = (&outcome.cache, &outcome.uptime);
        out.push_str(&format!(
            "decision cache: {} hits / {} misses ({:.1}% hit rate), {} tables\n",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.entries,
        ));
        out.push_str(&format!(
            "uptime memo: {} hits / {} misses ({:.1}% hit rate), {} scalars\n",
            uptime.hits,
            uptime.misses,
            uptime.hit_rate() * 100.0,
            uptime.entries,
        ));
    }
    if let Some(path) = out_path {
        let merged = MergedSweep::from_run(
            fp.clone(),
            outcome.results,
            outcome.metrics.unwrap_or_default(),
        );
        write_merged(path, &merged).map_err(CliError::Usage)?;
        out.push_str(&format!(
            "merged sweep artifact ({} cells, fingerprint {fp}) written to {path}\n",
            merged.n_cells
        ));
    }
    Ok(out)
}

/// `merge`: verify and combine the `N` shard journals of a sharded sweep
/// into the single merged artifact an uninterrupted `sweep --out` would
/// have produced. Any integrity violation — schema version skew,
/// fingerprint disagreement, a missing or incomplete shard, a corrupt
/// record — is diagnosed precisely and exits 1.
pub fn merge(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::shard::merge::merge_dir;

    let dir = parsed
        .get("journal")
        .or_else(|| parsed.positional(0))
        .ok_or_else(|| CliError::Usage("need --journal DIR (or a positional path)".into()))?;
    // Guard the artifact before the (possibly expensive) merge runs.
    if let Some(path) = parsed.get("out") {
        guard_out(parsed, path).map_err(CliError::Usage)?;
    }
    let (merged, report) = merge_dir(Path::new(dir))
        .map_err(|e| CliError::Violation(format!("merge failed: {e}\n")))?;
    let mut out = format!(
        "merged {} shard journal(s): {} cells, {} checksummed records verified\n\
         fingerprint {}\n",
        report.n_shards, report.n_cells, report.records_verified, merged.fingerprint,
    );
    for file in &report.files {
        out.push_str(&format!("  {}\n", file.display()));
    }
    if let Some(path) = parsed.get("out") {
        write_merged(path, &merged).map_err(CliError::Usage)?;
        out.push_str(&format!("merged sweep artifact written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod sweep_tests {
    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn sweep_out_refuses_to_clobber_without_force() {
        let trace = tmp("sweep-clobber-trace.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &trace,
        ])
        .unwrap();
        let out = tmp("sweep-clobber.json");
        std::fs::write(&out, b"precious baseline").unwrap();
        let args = [
            "sweep",
            "--trace",
            &trace,
            "--policy",
            "markov-daly",
            "--bids",
            "0.81",
            "--n",
            "1",
            "--out",
            &out,
        ];
        let err = dispatch_str(&args).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"precious baseline".to_vec(),
            "refused run must not touch the file"
        );
        let mut forced = args.to_vec();
        forced.push("--force");
        let ok = dispatch_str(&forced).unwrap();
        assert!(ok.contains("written to"), "{ok}");
        assert_ne!(std::fs::read(&out).unwrap(), b"precious baseline".to_vec());
    }

    #[test]
    fn serve_rejects_an_unbindable_address() {
        let err = dispatch_str(&["serve", "--addr", "definitely not an address"]).unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
    }

    #[test]
    fn sweep_renders_boxplots_per_bid() {
        let path = tmp("sweep.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &path,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "sweep",
            "--trace",
            &path,
            "--policy",
            "markov-daly",
            "--bids",
            "0.81,2.40",
            "--n",
            "4",
        ])
        .unwrap();
        assert!(out.contains("M@$0.81"), "{out}");
        assert!(out.contains("M@$2.40"));
        assert!(out.contains("on-demand = $48.00"));
        assert!(dispatch_str(&["sweep", "--trace", &path, "--bids", "xx"]).is_err());
    }

    #[test]
    fn adaptive_sweep_reports_cache_stats() {
        let path = tmp("sweep-adaptive.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &path,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "sweep",
            "--trace",
            &path,
            "--policy",
            "adaptive",
            "--bids",
            "0.81",
            "--n",
            "3",
            "--threads",
            "2",
            "--cache-stats",
        ])
        .unwrap();
        assert!(out.contains("A@$0.81"), "{out}");
        assert!(out.contains("meta-policy, all zones"), "{out}");
        assert!(out.contains("decision cache:"), "{out}");
        assert!(out.contains("uptime memo:"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
    }

    #[test]
    fn redundant_sweep_works() {
        let path = tmp("sweep2.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &path,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "sweep",
            "--trace",
            &path,
            "--redundant",
            "true",
            "--bids",
            "0.81",
            "--n",
            "3",
        ])
        .unwrap();
        assert!(out.contains("redundant, all zones"));
    }

    #[test]
    fn sweep_metrics_flag_appends_merged_telemetry() {
        let path = tmp("sweep3.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &path,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "sweep",
            "--trace",
            &path,
            "--policy",
            "markov-daly",
            "--bids",
            "0.81,2.40",
            "--n",
            "3",
            "--metrics",
        ])
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        // 3 experiment starts × 3 single zones × 2 bids merged into one table.
        assert!(out.contains("| runs | 18 |"), "{out}");
    }

    #[test]
    fn sharded_sweep_merges_byte_identical_to_single_process() {
        let trace = tmp("sweep-shard.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &trace,
        ])
        .unwrap();
        let sweep_flags = [
            "--trace",
            trace.as_str(),
            "--policy",
            "markov-daly",
            "--bids",
            "0.81,2.40",
            "--n",
            "3",
        ];
        // Reference: uninterrupted single-process run.
        let reference = tmp("sweep-ref.json");
        let _ = std::fs::remove_file(&reference);
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--out", &reference]);
        dispatch_str(&args).unwrap();

        // The same grid, run as two journaled shards and merged.
        let dir = tmp("sweep-shard-journal");
        let _ = std::fs::remove_dir_all(&dir);
        for shard in ["1/2", "2/2"] {
            let mut args = vec!["sweep"];
            args.extend_from_slice(&sweep_flags);
            args.extend_from_slice(&["--shard", shard, "--journal", &dir]);
            let out = dispatch_str(&args).unwrap();
            assert!(out.contains("executed 9 cell(s), skipped 0"), "{out}");
        }
        let merged = tmp("sweep-merged.json");
        let _ = std::fs::remove_file(&merged);
        let out = dispatch_str(&["merge", "--journal", &dir, "--out", &merged]).unwrap();
        assert!(out.contains("merged 2 shard journal(s): 18 cells"), "{out}");
        assert_eq!(
            std::fs::read(&reference).unwrap(),
            std::fs::read(&merged).unwrap(),
            "merged artifact must be byte-identical to the single-process run"
        );

        // merge --out honors the same no-clobber guard as sweep --out,
        // and a refused merge leaves the artifact untouched.
        let before = std::fs::read(&merged).unwrap();
        let err = dispatch_str(&["merge", "--journal", &dir, "--out", &merged]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert!(err.contains("--force"), "{err}");
        assert_eq!(std::fs::read(&merged).unwrap(), before);
        let out = dispatch_str(&["merge", "--journal", &dir, "--out", &merged, "--force"]).unwrap();
        assert!(out.contains("written to"), "{out}");

        // Re-running a completed shard executes nothing and the merge
        // (and artifact) are unchanged.
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--shard", "1/2", "--journal", &dir]);
        let out = dispatch_str(&args).unwrap();
        assert!(out.contains("executed 0 cell(s), skipped 9"), "{out}");

        // Different flags -> different fingerprint -> merge-poisoning
        // append is refused.
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--shard", "1/2", "--journal", &dir, "--slack", "40"]);
        let err = dispatch_str(&args).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Usage errors: shard without journal, journal without shard,
        // malformed K/N, K outside 1..=N.
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--shard", "1/2"]);
        assert!(dispatch_str(&args).unwrap_err().contains("--journal"));
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--journal", &dir]);
        assert!(dispatch_str(&args).unwrap_err().contains("--shard"));
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--shard", "banana", "--journal", &dir]);
        assert!(dispatch_str(&args).unwrap_err().contains("K/N"));
        let mut args = vec!["sweep"];
        args.extend_from_slice(&sweep_flags);
        args.extend_from_slice(&["--shard", "3/2", "--journal", &dir]);
        assert!(dispatch_str(&args).unwrap_err().contains("outside"));
    }

    #[test]
    fn merge_refuses_incomplete_and_missing_journals() {
        let trace = tmp("sweep-shard2.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "8",
            "--out",
            &trace,
        ])
        .unwrap();
        let dir = tmp("sweep-shard2-journal");
        let _ = std::fs::remove_dir_all(&dir);
        // Merging an absent/empty directory is an error.
        assert!(dispatch_str(&["merge", "--journal", &dir]).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        let err = dispatch_str(&["merge", "--journal", &dir]).unwrap_err();
        assert!(err.contains("no shard-"), "{err}");
        // Only shard 1 of 2 journaled: merge names the missing shard.
        dispatch_str(&[
            "sweep",
            "--trace",
            &trace,
            "--policy",
            "markov-daly",
            "--bids",
            "0.81",
            "--n",
            "3",
            "--shard",
            "1/2",
            "--journal",
            &dir,
        ])
        .unwrap();
        let err = dispatch_str(&["merge", "--journal", &dir]).unwrap_err();
        assert!(err.contains("missing journals for shard(s) [2]"), "{err}");
    }
}

#[cfg(test)]
mod source_tests {
    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn run_and_adaptive_default_to_the_generated_profile() {
        // No --trace required anymore: the shared TraceSource defaults to
        // the generated high-volatility profile at the master seed.
        let out = dispatch_str(&["run", "--start", "48", "--zones", "0"]).unwrap();
        assert!(out.contains("cost $"), "{out}");
        let out =
            dispatch_str(&["run", "--profile", "low", "--start", "48", "--zones", "0"]).unwrap();
        assert!(out.contains("deadline met: true"), "{out}");
        // Naming two sources at once is a usage error on any subcommand.
        let err = dispatch_str(&["run", "--trace", "x.json", "--profile", "high"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = dispatch_str(&["sweep", "--trace", "x.json", "--bootstrap-from", "y.json"])
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn bootstrap_from_flag_feeds_simulation_commands() {
        let src = tmp("boot-feed.json");
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "2",
            "--out",
            &src,
        ])
        .unwrap();
        let out = dispatch_str(&[
            "run",
            "--bootstrap-from",
            &src,
            "--days",
            "10",
            "--zones",
            "0",
            "--start",
            "48",
        ])
        .unwrap();
        assert!(out.contains("cost $"), "{out}");
    }

    #[test]
    fn new_policies_run_and_replay_deterministically() {
        let flags = [
            "run",
            "--policy",
            "randomized-bid",
            "--seed",
            "7",
            "--start",
            "48",
            "--zones",
            "0",
        ];
        let a = dispatch_str(&flags).unwrap();
        let b = dispatch_str(&flags).unwrap();
        assert_eq!(a, b, "same seed must replay byte-identically");
        assert!(a.contains("deadline met: true"), "{a}");
        let out = dispatch_str(&[
            "run", "--policy", "spot-on", "--start", "48", "--zones", "0",
        ])
        .unwrap();
        assert!(out.contains("deadline met: true"), "{out}");
    }

    #[test]
    fn policy_compare_sweeps_the_roster_and_writes_the_artifact() {
        let out_path = tmp("policy-compare.json");
        let _ = std::fs::remove_file(&out_path);
        let out = dispatch_str(&["policy-compare", "--n", "2", "--out", &out_path]).unwrap();
        assert!(out.contains("total deadline violations: 0"), "{out}");
        assert!(out.contains("cheapest under classic"), "{out}");
        assert!(out.contains("cheapest under modern"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"cells\""), "{json}");
        // Same no-clobber contract as every other artifact.
        let before = std::fs::read(&out_path).unwrap();
        let err = dispatch_str(&["policy-compare", "--n", "2", "--out", &out_path]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert_eq!(std::fs::read(&out_path).unwrap(), before);
    }

    #[test]
    fn serve_preload_resolves_the_source_before_binding() {
        // A bad preload source fails as a usage error without ever
        // binding a socket or blocking in the accept loop.
        let err = dispatch_str(&[
            "serve",
            "--trace",
            "/nonexistent/preload.json",
            "--addr",
            "127.0.0.1:0",
        ])
        .unwrap_err();
        assert!(err.contains("cannot load trace"), "{err}");
    }
}

#[cfg(test)]
mod observability_tests {
    use crate::dispatch;

    fn dispatch_str(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn gen(path: &str) {
        dispatch_str(&[
            "gen-trace",
            "--force",
            "--profile",
            "low",
            "--seed",
            "5",
            "--out",
            path,
        ])
        .unwrap();
    }

    #[test]
    fn run_without_observability_flags_prints_summary_only() {
        let path = tmp("plain.json");
        gen(&path);
        let out = dispatch_str(&["run", "--trace", &path, "--start", "48"]).unwrap();
        assert!(out.contains("cost $"), "{out}");
        assert!(!out.contains("telemetry:"), "{out}");
        assert!(!out.contains("wrote event trace"), "{out}");
    }

    #[test]
    fn trace_out_and_metrics_round_trip_through_validate_trace() {
        let path = tmp("obs.json");
        gen(&path);
        let jsonl = tmp("obs.jsonl");
        let out = dispatch_str(&[
            "run",
            "--trace",
            &path,
            "--start",
            "48",
            "--trace-out",
            &jsonl,
            "--metrics",
        ])
        .unwrap();
        assert!(out.contains("wrote event trace to"), "{out}");
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("| runs | 1 |"), "{out}");

        let lines = std::fs::read_to_string(&jsonl)
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        assert!(lines > 0);
        let checked = dispatch_str(&["validate-trace", &jsonl]).unwrap();
        assert!(
            checked.contains(&format!("{lines} events, all lines parse")),
            "{checked}"
        );

        // The streamed event count matches the metrics sink's count.
        assert!(out.contains(&format!("| events seen | {lines} |")), "{out}");
    }

    #[test]
    fn validate_trace_rejects_garbage_and_missing_files() {
        let bad = tmp("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let err = dispatch_str(&["validate-trace", &bad]).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        assert!(dispatch_str(&["validate-trace", &tmp("absent.jsonl")]).is_err());
        assert!(dispatch_str(&["validate-trace"]).is_err());
        let empty = tmp("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(dispatch_str(&["validate-trace", &empty]).is_err());
    }

    #[test]
    fn validate_trace_rejects_bad_prices_with_line_numbers() {
        let ok = r#"{"Requested":{"at":0,"zone":0,"bid":810}}"#;
        for (bad_line, why) in [
            (
                r#"{"Requested":{"at":300,"zone":0,"bid":810.0}}"#,
                "not an integer milli-dollar count",
            ),
            (
                r#"{"Requested":{"at":300,"zone":0,"bid":-810}}"#,
                "negative",
            ),
            (
                r#"{"Requested":{"at":300,"zone":0,"bid":810.5}}"#,
                "not an integer milli-dollar count",
            ),
            (r#"{"Requested":{"at":300,"zone":0,"bid":null}}"#, "null"),
            (
                r#"{"HourCharged":{"at":300,"zone":0,"rate":"810"}}"#,
                "not a number",
            ),
        ] {
            let path = tmp("bad-price.jsonl");
            std::fs::write(&path, format!("{ok}\n{bad_line}\n")).unwrap();
            let err = dispatch_str(&["validate-trace", &path]).unwrap_err();
            assert!(err.contains(why), "{bad_line} -> {err}");
            assert!(err.contains(":2:"), "must name line 2: {bad_line} -> {err}");
        }
        // A fully valid file still passes and reports the price check.
        let good = tmp("good-price.jsonl");
        std::fs::write(&good, format!("{ok}\n")).unwrap();
        let out = dispatch_str(&["validate-trace", &good]).unwrap();
        assert!(out.contains("prices finite and non-negative"), "{out}");
    }
}
