//! `sweep`: many overlapping experiments on one trace, optionally sharded
//! across processes with crash-safe journals, and `merge`, which combines
//! those journals.

use crate::args::ParsedArgs;
use crate::run::{experiment_config, parse_policy};
use crate::{write_json, CliError};
use redspot_core::{ExperimentConfig, PolicyKind};
use redspot_exp::scheme::{RunSpec, Scheme};
use redspot_trace::{Price, TraceSet};
use std::path::Path;

/// A sweep's full grid: the flat, canonically-ordered cell list every
/// sweep mode (single-process, sharded, merged) agrees on. The order is
/// bid-major — bids outer, experiment starts inner, zones innermost for
/// single-zone schemes — so cell `i` means the same `RunSpec` to every
/// invocation with the same flags, which is what makes `--shard K/N`
/// journals from different processes mergeable.
struct SweepGrid {
    bids: Vec<Price>,
    n_starts: usize,
    specs: Vec<RunSpec>,
    /// `None` sweeps the Adaptive meta-policy.
    kind: Option<PolicyKind>,
    redundant: bool,
}

impl SweepGrid {
    fn new(
        parsed: &ParsedArgs,
        traces: &TraceSet,
        base: &ExperimentConfig,
    ) -> Result<SweepGrid, String> {
        use redspot_exp::experiments::guarantee::TOO_SHORT;
        use redspot_exp::windows::{experiment_starts, run_span_for};

        let kind = parse_policy(parsed)?;
        let redundant = parsed.has("redundant");
        let n = parsed.n_or(16)?;
        let bids = parsed
            .list("bids", |b| b.parse().ok().map(Price::from_dollars))?
            .unwrap_or_else(|| [270, 810, 2_400].map(Price::from_millis).to_vec());
        let starts = experiment_starts(traces, run_span_for(base.deadline), n);
        if starts.is_empty() {
            return Err(TOO_SHORT.into());
        }
        let mut specs = Vec::new();
        for &bid in &bids {
            for &start in &starts {
                let spec = |scheme| RunSpec { start, bid, scheme };
                match kind {
                    None => specs.push(spec(Scheme::Adaptive)),
                    Some(kind) if redundant => specs.push(spec(Scheme::Redundant {
                        kind,
                        zones: traces.zone_ids().collect(),
                    })),
                    Some(kind) => specs.extend(
                        traces
                            .zone_ids()
                            .map(|zone| spec(Scheme::Single { kind, zone })),
                    ),
                }
            }
        }
        Ok(SweepGrid {
            bids,
            n_starts: starts.len(),
            specs,
            kind,
            redundant,
        })
    }

    /// The boxplot title: the policy, the experiment count and the zone
    /// layout.
    fn title(&self) -> String {
        let (policy, layout) = match self.kind {
            None => ("Adaptive".to_string(), "meta-policy, all zones"),
            Some(kind) if self.redundant => (kind.to_string(), "redundant, all zones"),
            Some(kind) => (kind.to_string(), "single zones merged"),
        };
        format!(
            "{policy} sweep over {} experiments ({layout})",
            self.n_starts
        )
    }
}

/// Parse `--shard K/N`.
fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard: expected K/N (e.g. 2/4), got '{spec}'");
    let (k, n) = spec.split_once('/').ok_or_else(bad)?;
    let k: usize = k.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    Ok((k, n))
}

/// `sweep`: run many overlapping experiments on a user-provided trace and
/// print a cost boxplot per bid — the Figure-4 machinery pointed at your
/// own data. `--policy adaptive` sweeps the meta-policy instead of a
/// fixed checkpoint policy; `--metrics` appends the merged telemetry and
/// how well the shared decision cache and uptime memo deduplicated work.
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

    let common = parsed.common()?;
    let traces = common.source.resolve()?;
    let base = experiment_config(parsed, &common, &traces)?;
    let grid = SweepGrid::new(parsed, &traces, &base)?;
    let fp = fingerprint(&base, &grid.specs);

    // One shared context for the whole sweep: every bid row reuses the
    // same whole-trace scan seed and decision cache.
    let mkt = match grid.kind {
        None => MarketCtx::for_sweep(traces),
        Some(_) => MarketCtx::new(traces),
    };

    if let Some(shard_spec) = parsed.get("shard") {
        let dir = parsed.get("journal").ok_or("--shard needs --journal DIR")?;
        let (k, n) = parse_shard(shard_spec)?;
        let manifest =
            ShardManifest::plan(grid.specs.len(), k, n, fp.clone()).map_err(|e| e.to_string())?;
        let sync_every = parsed.num_or("sync-every", DEFAULT_SYNC_EVERY)?;
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
        return Err("--journal needs --shard K/N".into());
    }

    // Checked before the sweep runs, so a refused invocation costs
    // nothing.
    let out_path = parsed.out()?;
    // `--out` always meters: the artifact embeds merged per-cell metrics
    // and must match what `merge` assembles from journaled shards.
    let outcome = RunRequest::new(&mkt, &base, &grid.specs)
        .threads(common.threads)
        .metered(common.metrics || out_path.is_some())
        .execute()
        .map_err(|e| e.to_string())?;

    let mut rows = Vec::new();
    for &bid in &grid.bids {
        let costs: Vec<f64> = grid
            .specs
            .iter()
            .zip(&outcome.results)
            .filter(|(s, _)| s.bid == bid)
            .map(|(_, r)| r.cost_dollars())
            .collect();
        let label = grid.kind.map_or("A", |kind| kind.label());
        if let Some(row) = LabeledBox::from_costs(format!("{label}@{bid}"), &costs) {
            rows.push(row);
        }
    }
    let mut out = boxplot_panel(&grid.title(), &rows, &REF_LINES);
    if let Some(m) = outcome.metrics.as_ref().filter(|_| common.metrics) {
        let (cache, uptime) = (&outcome.cache, &outcome.uptime);
        out.push_str(&sweep_metrics_table(m));
        out.push_str(&format!(
            "decision cache: {} hits / {} misses ({:.1}% hit rate), {} tables\n\
             uptime memo: {} hits / {} misses ({:.1}% hit rate), {} scalars\n",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.entries,
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
        write_json(path, &merged, false)?;
        out.push_str(&format!(
            "merged sweep artifact ({} cells, fingerprint {fp}) written to {path}\n",
            merged.n_cells
        ));
    }
    Ok(out)
}

/// `merge`: verify and combine the `N` shard journals of a sharded sweep
/// into the single merged artifact an uninterrupted `sweep --out` would
/// have produced (the same writer, so byte-identical). Any integrity
/// violation — schema version skew, fingerprint disagreement, a missing
/// or incomplete shard, a corrupt record — is diagnosed precisely and
/// exits 1.
pub fn merge(parsed: &ParsedArgs) -> Result<String, CliError> {
    use redspot_exp::shard::merge::merge_dir;

    let dir = parsed
        .get("journal")
        .or_else(|| parsed.positional(0))
        .ok_or("need --journal DIR (or a positional path)")?;
    // Guard the artifact before the (possibly expensive) merge runs.
    let out_path = parsed.out()?;
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
    if let Some(path) = out_path {
        write_json(path, &merged, false)?;
        out.push_str(&format!("merged sweep artifact written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::kit::{err, ok, tmp, trace};

    /// A Markov-Daly sweep over `bids` with `n` starts on `trace`.
    fn sweep_args<'a>(trace: &'a str, bids: &'a str, n: &'a str) -> Vec<&'a str> {
        let policy = "markov-daly";
        vec![
            "sweep", "--trace", trace, "--policy", policy, "--bids", bids, "--n", n,
        ]
    }

    #[test]
    fn sweep_renders_boxplots_per_bid() {
        let path = trace("low", 8);
        let out = ok(&sweep_args(&path, "0.81,2.40", "4"));
        assert!(out.contains("M@$0.81"), "{out}");
        assert!(out.contains("M@$2.40"));
        assert!(out.contains("on-demand = $48.00"));
        assert!(!out.contains("telemetry:"), "{out}");
        assert!(err(&["sweep", "--trace", &path, "--bids", "xx"]).contains("--bids"));
    }

    #[test]
    fn sweep_metrics_flag_appends_telemetry_and_cache_hit_rates() {
        let path = trace("low", 8);
        let out = ok(&[&sweep_args(&path, "0.81,2.40", "3")[..], &["--metrics"]].concat());
        assert!(out.contains("telemetry:"), "{out}");
        // 3 experiment starts × 3 single zones × 2 bids merged into one table.
        assert!(out.contains("| runs | 18 |"), "{out}");
        assert!(out.contains("uptime memo:"), "{out}");

        let adaptive = [
            "sweep", "--trace", &path, "--policy", "adaptive", "--bids", "0.81", "--n", "3",
        ];
        let out = ok(&[&adaptive[..], &["--threads", "2", "--metrics"]].concat());
        assert!(out.contains("A@$0.81"), "{out}");
        assert!(out.contains("meta-policy, all zones"), "{out}");
        assert!(out.contains("| decision cache (hits/misses) |"), "{out}");
        assert!(out.contains("decision cache: "), "{out}");
        assert!(out.contains("hit rate"), "{out}");
    }

    #[test]
    fn redundant_is_a_bare_flag() {
        let path = trace("low", 8);
        let sweep = ["sweep", "--trace", &path, "--bids", "0.81", "--n", "3"];
        let out = ok(&[&sweep[..], &["--redundant"]].concat());
        assert!(out.contains("redundant, all zones"), "{out}");
        // A value after it is a stray positional, not a silent "false".
        let e = err(&[&sweep[..], &["--redundant", "yes"]].concat());
        assert!(e.contains("unexpected argument 'yes'"), "{e}");
    }

    #[test]
    fn sweep_out_refuses_to_clobber_without_force() {
        let path = trace("low", 8);
        let out = tmp("sweep-clobber.json");
        std::fs::write(&out, b"precious baseline").unwrap();
        let args = [&sweep_args(&path, "0.81", "1")[..], &["--out", &out]].concat();
        assert!(err(&args).contains("already exists"));
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"precious baseline".to_vec(),
            "refused run must not touch the file"
        );
        assert!(ok(&[&args[..], &["--force"]].concat()).contains("written to"));
        assert_ne!(std::fs::read(&out).unwrap(), b"precious baseline".to_vec());
    }

    #[test]
    fn sharded_sweep_merges_byte_identical_to_single_process() {
        let path = trace("low", 8);
        let sweep = sweep_args(&path, "0.81,2.40", "3");
        let with = |extra: &[&str]| ok(&[&sweep[..], extra].concat());
        let fails = |extra: &[&str]| err(&[&sweep[..], extra].concat());
        // Reference: uninterrupted single-process run.
        let reference = tmp("sweep-ref.json");
        with(&["--out", &reference]);

        // The same grid, run as two journaled shards and merged.
        let dir = tmp("journal");
        for shard in ["1/2", "2/2"] {
            let out = with(&["--shard", shard, "--journal", &dir]);
            assert!(out.contains("executed 9 cell(s), skipped 0"), "{out}");
        }
        let merged = tmp("sweep-merged.json");
        let out = ok(&["merge", "--journal", &dir, "--out", &merged]);
        assert!(out.contains("merged 2 shard journal(s): 18 cells"), "{out}");
        assert_eq!(
            std::fs::read(&reference).unwrap(),
            std::fs::read(&merged).unwrap(),
            "merged artifact must be byte-identical to the single-process run"
        );

        // merge --out honors the same no-clobber guard as sweep --out,
        // and a refused merge leaves the artifact untouched.
        let before = std::fs::read(&merged).unwrap();
        let refused = err(&["merge", "--journal", &dir, "--out", &merged]);
        assert!(refused.contains("already exists"), "{refused}");
        assert!(refused.contains("--force"), "{refused}");
        assert_eq!(std::fs::read(&merged).unwrap(), before);
        let out = ok(&["merge", &dir, "--out", &merged, "--force"]);
        assert!(out.contains("written to"), "{out}");

        // Re-running a completed shard executes nothing.
        let out = with(&["--shard", "1/2", "--journal", &dir]);
        assert!(out.contains("executed 0 cell(s), skipped 9"), "{out}");

        // Different flags -> different fingerprint -> merge-poisoning
        // append is refused.
        let e = fails(&["--shard", "1/2", "--journal", &dir, "--slack", "40"]);
        assert!(e.contains("fingerprint"), "{e}");

        // Usage errors: shard without journal, journal without shard,
        // malformed K/N, K outside 1..=N.
        assert!(fails(&["--shard", "1/2"]).contains("--journal"));
        assert!(fails(&["--journal", &dir]).contains("--shard"));
        assert!(fails(&["--shard", "banana", "--journal", &dir]).contains("K/N"));
        assert!(fails(&["--shard", "3/2", "--journal", &dir]).contains("outside"));
    }

    #[test]
    fn merge_refuses_incomplete_and_missing_journals() {
        let path = trace("low", 8);
        let dir = tmp("journal");
        // Merging an absent/empty directory is an error.
        err(&["merge", "--journal", &dir]);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(err(&["merge", "--journal", &dir]).contains("no shard-"));
        // Only shard 1 of 2 journaled: merge names the missing shard.
        let shard = ["--shard", "1/2", "--journal", &dir];
        ok(&[&sweep_args(&path, "0.81", "3")[..], &shard].concat());
        let e = err(&["merge", "--journal", &dir]);
        assert!(e.contains("missing journals for shard(s) [2]"), "{e}");
    }
}
