//! The guarantee studies: `chaos` (fault injection), `fleet` (capacity
//! contention), `era-compare` and `policy-compare`. Each exits nonzero
//! on any deadline violation, so CI can gate on it.

use crate::args::ParsedArgs;
use crate::{write_json, CliError};
use redspot_core::ExperimentConfig;
use redspot_exp::experiments::guarantee::{self as g, GridCell, ERAS};

/// `--intensities`: fault intensities in `[0, 1]`.
fn intensities(parsed: &ParsedArgs, default: &[f64]) -> Result<Vec<f64>, String> {
    let list = parsed.list("intensities", |s| s.parse().ok())?;
    let list = list.unwrap_or_else(|| default.to_vec());
    match list.iter().find(|v| !(0.0..=1.0).contains(*v)) {
        Some(v) => Err(format!("flag --intensities: {v} outside [0, 1]")),
        None => Ok(list),
    }
}

/// A study's table, or a [`CliError::Violation`] carrying it when any
/// run of the grid missed its deadline.
fn gate<V>(rendered: String, cells: &[GridCell<V>]) -> Result<String, CliError> {
    match g::total_violations(cells) {
        0 => Ok(rendered),
        _ => Err(CliError::Violation(rendered)),
    }
}

/// `chaos`: the deadline guarantee under injected faults — infrastructure
/// faults by default; `--api` *composes* control-plane faults with the
/// infrastructure faults in the same runs; `--api-only` injects the
/// control-plane faults alone. Any deadline violation in the sweep is a
/// [`CliError::Violation`]: the binary prints the table and exits
/// nonzero.
pub fn chaos(parsed: &ParsedArgs) -> Result<String, CliError> {
    let common = parsed.common()?;
    let n = parsed.n_or(8)?;
    let intensities = intensities(parsed, &[0.0, 0.3, 0.6, 1.0])?;
    let traces = common.source.resolve()?;
    let infra = !parsed.has("api-only");
    let api = parsed.has("api") || parsed.has("api-only");
    let era = common.era;
    let inject = |cfg: ExperimentConfig, i| g::faults(cfg.with_era(era), i, infra, api);
    let suite = g::guarantee_suite(traces.zone_ids().collect());
    let cells = g::grid(&traces, &suite, &intensities, inject, n, common.threads)?;
    gate(g::render_chaos(&cells, infra, api), &cells)
}

/// `fleet`: N mixed jobs contending for shared per-zone spot capacity,
/// with both fault planes live and the graceful-degradation ladder
/// enabled. `--capacity` takes a comma list of per-zone unit counts
/// ("unbounded" for the independent-runs control). Exits nonzero on any
/// deadline violation or capacity-conservation failure; `--out` writes
/// the merged fleet metrics as a JSON artifact.
pub fn fleet(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::experiments::chaos_fleet;
    let common = parsed.common()?;
    let n_jobs = parsed.num_or("jobs", 8usize)?;
    if n_jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let intensities = intensities(parsed, &[0.0, 0.5])?;
    let capacities = parsed
        .list("capacity", |s| match s {
            "unbounded" | "inf" => Some(None),
            units => units.parse().ok().map(Some),
        })?
        .unwrap_or(vec![None, Some(2)]);
    let out_path = parsed.out()?;

    let traces = common.source.resolve()?;
    let c = chaos_fleet::study(
        &traces,
        common.seed,
        &capacities,
        &intensities,
        n_jobs,
        common.threads,
        common.era,
    )?;
    let mut rendered = chaos_fleet::render(&c);
    if let Some(path) = out_path {
        write_json(path, &c.merged_metrics(), false)?;
        rendered.push_str(&format!("\n  merged fleet metrics written to {path}\n"));
    }
    if c.total_violations() > 0 || !c.all_balanced() {
        return Err(CliError::Violation(rendered));
    }
    Ok(rendered)
}

/// `era-compare`: the paper's 2014 hourly market against the post-2017
/// per-second/interruption-notice market, same traces and schemes. Any
/// deadline violation in either era is a [`CliError::Violation`].
pub fn era_compare(parsed: &ParsedArgs) -> Result<String, CliError> {
    let common = parsed.common()?;
    let n = parsed.n_or(8)?;
    let traces = common.source.resolve()?;
    let suite = g::guarantee_suite(traces.zone_ids().collect());
    let cells = g::grid(
        &traces,
        &suite,
        &ERAS,
        ExperimentConfig::with_era,
        n,
        common.threads,
    )?;
    gate(g::render_era(&cells), &cells)
}

/// `policy-compare`: every checkpoint policy head-to-head as redundancy
/// over all zones, under both market eras — the policy × era cost table.
/// Any deadline violation is a [`CliError::Violation`]; `--out FILE`
/// writes the full comparison as a JSON artifact (the `policy-smoke` CI
/// job uploads it).
pub fn policy_compare(parsed: &ParsedArgs) -> Result<String, CliError> {
    let common = parsed.common()?;
    let n = parsed.n_or(8)?;
    let out_path = parsed.out()?;
    let traces = common.source.resolve()?;
    let roster = g::policy_roster(traces.zone_ids().collect());
    let cells = g::grid(
        &traces,
        &roster,
        &ERAS,
        ExperimentConfig::with_era,
        n,
        common.threads,
    )?;
    let mut rendered = g::render_policy(&cells);
    if let Some(path) = out_path {
        write_json(path, &g::PolicyTable::new(&cells), true)?;
        rendered.push_str(&format!("\n  comparison artifact written to {path}\n"));
    }
    gate(rendered, &cells)
}

#[cfg(test)]
mod tests {
    use crate::kit::{cli, err, ok, tmp, trace};
    use crate::CliError;

    #[test]
    fn chaos_runs_and_rejects_bad_intensities() {
        let out = ok(&["chaos", "--n", "2", "--intensities", "0,0.5"]);
        assert!(out.contains("total deadline violations: 0"), "{out}");
        for bad in ["0,2", "zebra", ""] {
            let e = err(&["chaos", "--intensities", bad]);
            assert!(e.contains("--intensities"), "{bad:?}: {e}");
        }
        assert!(err(&["chaos", "--intensities", "0,2"]).contains("2 outside [0, 1]"));
    }

    #[test]
    fn chaos_api_flag_composes_both_fault_planes() {
        let out = ok(&["chaos", "--api", "--n", "2", "--intensities", "0,0.5"]);
        assert!(out.contains("Chaos-API+infra"), "{out}");
        assert!(out.contains("total deadline violations: 0"), "{out}");
        // Bad intensities are usage errors regardless of the mode.
        let bad = cli(&["chaos", "--api", "--intensities", "0,2"]);
        assert!(matches!(bad, Err(CliError::Usage(_))), "{bad:?}");
    }

    #[test]
    fn chaos_api_only_flag_keeps_control_plane_faults_alone() {
        let out = ok(&["chaos", "--api-only", "--n", "2", "--intensities", "0,0.5"]);
        assert!(out.contains("Chaos-API:"), "{out}");
        assert!(!out.contains("Chaos-API+infra"), "{out}");
        assert!(out.contains("total deadline violations: 0"), "{out}");
    }

    #[test]
    fn fleet_contends_and_writes_the_metrics_artifact() {
        let path = tmp("fleet-metrics.json");
        let fleet = ["fleet", "--jobs", "4", "--intensities", "0", "--out", &path];
        let out = ok(&[&fleet[..], &["--capacity", "unbounded,1"]].concat());
        assert!(out.contains("total deadline violations: 0"), "{out}");
        assert!(out.contains("capacity conserved: yes"), "{out}");
        assert!(out.contains("unbounded"), "{out}");
        assert!(out.contains("1/zone"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"runs\""), "{json}");
        assert!(err(&["fleet", "--capacity", "many"]).contains("--capacity"));

        // A second run must refuse to clobber the artifact without
        // --force, and must not have touched the file when refusing.
        let refused = err(&fleet);
        assert!(refused.contains("already exists"), "{refused}");
        assert!(refused.contains("--force"), "{refused}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        let forced = ok(&[&fleet[..], &["--jobs", "2", "--force"]].concat());
        assert!(forced.contains("metrics written"), "{forced}");
    }

    #[test]
    fn policy_compare_sweeps_the_roster_and_writes_the_artifact() {
        let path = tmp("policy-compare.json");
        let out = ok(&["policy-compare", "--n", "2", "--out", &path]);
        assert!(out.contains("total deadline violations: 0"), "{out}");
        assert!(out.contains("cheapest under classic"), "{out}");
        assert!(out.contains("cheapest under modern"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"cells\""), "{json}");
        // Same no-clobber contract as every other artifact.
        let refused = err(&["policy-compare", "--n", "2", "--out", &path]);
        assert!(refused.contains("already exists"), "{refused}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
    }

    /// A 48-hour trace leaves no room for the 48 h bootstrap plus a
    /// deadline: every study refuses it as a usage error instead of
    /// passing its gate on zero runs (or, for `fleet`, panicking).
    #[test]
    fn every_study_refuses_a_trace_too_short_for_one_experiment() {
        let low = trace("low", 1);
        let short = tmp("short.json");
        ok(&[
            "gen-trace",
            "--bootstrap-from",
            &low,
            "--seed",
            "3",
            "--days",
            "2",
            "--block-hours",
            "6",
            "--out",
            &short,
        ]);
        for study in [
            &["chaos"][..],
            &["chaos", "--api-only"],
            &["era-compare"],
            &["policy-compare"],
            &["fleet", "--jobs", "4", "--intensities", "0"],
        ] {
            match cli(&[study, &["--trace", &short]].concat()) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("too short"), "{study:?}: {msg}"),
                other => panic!("{study:?} on a 48 h trace gave {other:?}"),
            }
        }
    }
}
