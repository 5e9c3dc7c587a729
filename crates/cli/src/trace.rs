//! Trace files: `gen-trace`, `calibrate`, `describe`, `validate-trace`
//! and the `workloads` catalog.

use crate::args::ParsedArgs;
use crate::CliError;
use redspot_trace::{Profile, TraceSet, TraceSource};
use std::path::Path;

/// The trace file named by `--trace FILE` or the first positional.
fn load_trace(parsed: &ParsedArgs) -> Result<TraceSet, String> {
    let path = parsed
        .get("trace")
        .or_else(|| parsed.positional(0))
        .ok_or("need --trace FILE (or a positional path)")?;
    redspot_trace::load_trace_file(Path::new(path))
}

/// `gen-trace`: write the trace the shared source flags resolve to —
/// generated from `--profile`, block-bootstrapped from
/// `--bootstrap-from`, or loaded from `--trace` — in the format the
/// `--out` extension names.
pub fn gen_trace(parsed: &ParsedArgs) -> Result<String, CliError> {
    let seed = parsed.num_or("seed", 42u64)?;
    let source = parsed.trace_source(seed)?;
    let out = parsed.guard(parsed.get_or("out", "trace.json"))?;
    let traces = source.resolve()?;
    redspot_trace::save_trace_file(&traces, Path::new(out))?;
    let what = match &source {
        TraceSource::Generate {
            profile: profile @ Profile::Calibrated(_),
            ..
        } => format!("{profile} trace (seed {seed})"),
        TraceSource::Generate { profile, .. } => {
            format!("{profile}-volatility trace (seed {seed})")
        }
        TraceSource::Bootstrap { .. } => "bootstrap variant".to_string(),
        TraceSource::File { path } => format!("trace from {}", path.display()),
    };
    Ok(format!(
        "wrote {what} to {out}\n{}",
        redspot_trace::io::describe(&traces)
    ))
}

/// `calibrate`: fit a generator profile to an observed trace, for
/// re-generation via `--profile calibrated:FILE` (any subcommand) or
/// `gen-trace`.
pub fn calibrate(parsed: &ParsedArgs) -> Result<String, CliError> {
    let traces = load_trace(parsed)?;
    let out = parsed.out()?.ok_or("need --out FILE")?;
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
pub fn describe(parsed: &ParsedArgs) -> Result<String, CliError> {
    Ok(redspot_trace::io::describe(&load_trace(parsed)?))
}

/// `workloads`: list the workload catalog.
pub fn workloads(_parsed: &ParsedArgs) -> Result<String, CliError> {
    let mut out = String::from("workload catalog:\n");
    for w in redspot_ckpt::workloads::ALL {
        let iteration = match w.app.iteration {
            Some(it) => format!("{:.0} min iterations", it.secs() as f64 / 60.0),
            None => "continuous progress".into(),
        };
        out.push_str(&format!(
            "  {:<16} C = {:>4.0} h, t_c = {:>3} s, {:<24} — {}\n",
            w.name,
            w.app.work.as_hours(),
            w.costs.checkpoint.secs(),
            iteration,
            w.description,
        ));
    }
    Ok(out)
}

/// Event fields that carry a price. Listed here so the raw-JSON check in
/// [`validate_trace`] stays in sync with the [`redspot_core::Event`]
/// schema. The walk itself is [`redspot_core::serve::check_price_fields`]:
/// the serve daemon's ingestion stream and this offline validator enforce
/// the same discipline through the same code.
const PRICE_FIELDS: &[&str] = &["bid", "charged", "rate"];

/// `validate-trace`: check that a `--trace-out` JSONL file is well formed
/// — every line parses as an [`redspot_core::Event`], every price field
/// is a finite, non-negative integer milli-dollar count, and timestamps
/// never go backwards. CI's observability smoke test.
pub fn validate_trace(parsed: &ParsedArgs) -> Result<String, CliError> {
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
        let at_line = |why: String| format!("{path}:{}: {why}", i + 1);
        // Two passes per line: the raw tree rejects price values the
        // typed parse would coerce (floats) or mask (null from a
        // non-finite write), then the typed parse checks the schema.
        let raw: serde::Value =
            serde_json::from_str(line).map_err(|e| at_line(format!("not valid JSON: {e}")))?;
        redspot_core::serve::check_price_fields(&raw, PRICE_FIELDS).map_err(at_line)?;
        let event: redspot_core::Event =
            serde_json::from_str(line).map_err(|e| at_line(format!("not a valid Event: {e}")))?;
        let at = event.at();
        if last_at.is_some_and(|prev| at < prev) {
            return Err(at_line("timestamps go backwards".into()).into());
        }
        last_at = Some(at);
        events += 1;
    }
    if events == 0 {
        return Err(format!("{path}: no events").into());
    }
    Ok(format!(
        "{path}: {events} events, all lines parse, prices finite and non-negative, timestamps non-decreasing\n"
    ))
}

#[cfg(test)]
mod tests {
    use crate::kit::{err, ok, tmp, trace};

    #[test]
    fn gen_trace_writes_the_format_its_extension_names() {
        let json = trace("low", 3);
        assert!(ok(&["describe", &json]).contains("3 zones"));
        let csv = tmp("low.csv");
        let out = ok(&[
            "gen-trace",
            "--profile",
            "low",
            "--seed",
            "3",
            "--out",
            &csv,
        ]);
        assert!(out.contains("low-volatility trace (seed 3)"), "{out}");
        assert!(std::fs::read_to_string(&csv)
            .unwrap()
            .starts_with("time_s,"));
        assert_eq!(ok(&["describe", &csv]), ok(&["describe", &json]));

        // --trace converts: CSV back to JSON is byte-identical to the
        // JSON generated directly.
        let back = tmp("back.json");
        let out = ok(&["gen-trace", "--trace", &csv, "--out", &back]);
        assert!(out.contains("trace from"), "{out}");
        assert_eq!(std::fs::read(&back).unwrap(), std::fs::read(&json).unwrap());

        assert!(err(&["describe", "/nonexistent/trace.json"]).contains("cannot load"));
        assert!(err(&["gen-trace", "--force", "--profile", "weird"]).contains("profile"));
        let both = err(&["gen-trace", "--trace", &json, "--profile", "low"]);
        assert!(both.contains("mutually exclusive"), "{both}");
    }

    #[test]
    fn gen_trace_bootstraps_from_an_observed_trace() {
        let src = trace("high", 2);
        let dst = tmp("variant.json");
        let args = ["gen-trace", "--bootstrap-from", &src, "--out", &dst];
        let out = ok(&[&args[..], &["--days", "10", "--seed", "3"]].concat());
        assert!(out.contains("bootstrap variant"), "{out}");
        assert!(ok(&["describe", &dst]).contains("span 240.0h"));

        // The no-clobber guard: a repeat run refuses and leaves the
        // artifact untouched; --force overwrites.
        let before = std::fs::read(&dst).unwrap();
        let refused = err(&[&args[..], &["--days", "10"]].concat());
        assert!(refused.contains("already exists"), "{refused}");
        assert!(refused.contains("--force"), "{refused}");
        assert_eq!(std::fs::read(&dst).unwrap(), before);
        ok(&[&args[..], &["--days", "10", "--force"]].concat());
    }

    #[test]
    fn gen_trace_refuses_to_clobber_without_force() {
        let path = tmp("clobber-gen.json");
        std::fs::write(&path, b"precious trace").unwrap();
        let refused = err(&["gen-trace", "--profile", "low", "--out", &path]);
        assert!(refused.contains("already exists"), "{refused}");
        assert!(refused.contains("--force"), "{refused}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious trace".to_vec(),
            "refused run must not touch the file"
        );
        let forced = ok(&["gen-trace", "--profile", "low", "--out", &path, "--force"]);
        assert!(forced.contains("low-volatility trace"), "{forced}");
        assert_ne!(std::fs::read(&path).unwrap(), b"precious trace".to_vec());
    }

    #[test]
    fn calibrate_fits_and_regenerates() {
        let src = trace("high", 6);
        let fit = tmp("calib-profile.json");
        let out = ok(&["calibrate", "--trace", &src, "--out", &fit]);
        assert!(out.contains("calibrated profile"), "{out}");
        assert!(out.contains("calibrated:"), "{out}");

        // The no-clobber guard holds here too.
        let before = std::fs::read(&fit).unwrap();
        let refused = err(&["calibrate", "--trace", &src, "--out", &fit]);
        assert!(refused.contains("already exists"), "{refused}");
        assert_eq!(std::fs::read(&fit).unwrap(), before);

        // The fitted profile round-trips through gen-trace and the
        // unified --profile flag on a simulation command.
        let spec = format!("calibrated:{fit}");
        let regen = tmp("calib-regen.json");
        let out = ok(&[
            "gen-trace",
            "--profile",
            &spec,
            "--seed",
            "9",
            "--out",
            &regen,
        ]);
        assert!(out.contains("wrote calibrated:"), "{out}");
        assert!(ok(&["run", "--profile", &spec, "--start", "48"]).contains("cost $"));
        assert!(err(&["calibrate", "--trace", &src]).contains("--out"));
    }

    #[test]
    fn workload_catalog_lists_and_runs() {
        let list = ok(&["workloads"]);
        assert!(list.contains("nas-ft-e"));
        assert!(list.contains("paper-heavy"));

        let path = trace("low", 5);
        let run = ["run", "--trace", &path, "--zones", "0", "--start", "48"];
        let out = ok(&[&run[..], &["--workload", "nas-ft-e", "--slack", "40"]].concat());
        assert!(out.contains("deadline met: true"), "{out}");
        assert!(err(&[&run[..], &["--workload", "bogus"]].concat()).contains("bogus"));
    }

    #[test]
    fn validate_trace_rejects_garbage_and_missing_files() {
        let bad = tmp("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(err(&["validate-trace", &bad]).contains("not valid JSON"));
        assert!(err(&["validate-trace", &tmp("absent.jsonl")]).contains("cannot read"));
        assert!(err(&["validate-trace"]).contains("need a trace file"));
        let empty = tmp("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(err(&["validate-trace", &empty]).contains("no events"));
    }

    #[test]
    fn validate_trace_rejects_bad_prices_with_line_numbers() {
        let ok_line = r#"{"Requested":{"at":0,"zone":0,"bid":810}}"#;
        let path = tmp("bad-price.jsonl");
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
            std::fs::write(&path, format!("{ok_line}\n{bad_line}\n")).unwrap();
            let e = err(&["validate-trace", &path]);
            assert!(e.contains(why), "{bad_line} -> {e}");
            assert!(e.contains(":2:"), "must name line 2: {bad_line} -> {e}");
        }
        // A fully valid file still passes and reports the price check.
        std::fs::write(&path, format!("{ok_line}\n")).unwrap();
        let out = ok(&["validate-trace", &path]);
        assert!(out.contains("prices finite and non-negative"), "{out}");
    }
}
