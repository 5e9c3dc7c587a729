//! `repro`: print one artifact of the paper's evaluation, or `all` of
//! it, from the artifact list in [`redspot_exp::repro`].

use crate::args::ParsedArgs;
use crate::cmd::guard_out;
use redspot_exp::report::REF_LINES;
use redspot_exp::repro::{self, ARTIFACTS};
use redspot_exp::{results, svg, PaperSetup};
use std::path::Path;

/// The names `repro` accepts, for error messages.
fn names() -> String {
    let mut names = vec!["all"];
    names.extend(ARTIFACTS.iter().map(|(name, _)| *name));
    names.join(", ")
}

/// `repro <artifact|all>`: render the artifact at `--n` experiments per
/// volatility window, optionally writing its figure panels as SVG files
/// (`--svg DIR`) and as JSON (`--out FILE`).
pub fn repro(parsed: &ParsedArgs) -> Result<String, String> {
    let which = parsed
        .positional(0)
        .ok_or_else(|| format!("which artifact? ({})", names()))?;
    let render = match which {
        "all" => repro::all,
        name => ARTIFACTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, render)| render)
            .ok_or_else(|| format!("unknown artifact: {name} ({})", names()))?,
    };
    let (seed, n) = (parsed.num_or("seed", 42)?, parsed.n_or(16)?);
    let threads = parsed.num_or("threads", 0)?;
    let out_path = parsed.get("out");
    if let Some(path) = out_path {
        guard_out(parsed, path)?;
    }

    let mut setup = PaperSetup::new(seed, n);
    setup.threads = threads;
    let rendered = render(&setup);
    let mut text = rendered.text;
    if let Some(dir) = parsed.get("svg") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for panel in &rendered.panels {
            let path = Path::new(dir).join(format!("{}.svg", panel.stem));
            svg::save_panel(&path, &panel.title, &panel.rows, &REF_LINES)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        text.push_str(&format!(
            "wrote {} SVG panel(s) to {dir}\n",
            rendered.panels.len()
        ));
    }
    if let Some(path) = out_path {
        let json: Vec<_> = rendered.panels.into_iter().map(|p| p.json).collect();
        results::save(Path::new(path), &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        text.push_str(&format!("wrote {} panel(s) to {path}\n", json.len()));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use crate::{dispatch, CliError};

    fn run(args: &[&str]) -> Result<String, CliError> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("redspot-cli-repro-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn unknown_or_missing_artifact_lists_the_valid_names() {
        for args in [&["repro", "fig9"][..], &["repro"]] {
            let Err(CliError::Usage(msg)) = run(args) else {
                panic!("{args:?} should be a usage error");
            };
            for name in ["all", "fig2", "table3", "ablate-history"] {
                assert!(msg.contains(name), "{msg}");
            }
        }
    }

    #[test]
    fn usage_lists_every_artifact() {
        let text = crate::usage();
        for (name, _) in redspot_exp::repro::ARTIFACTS {
            assert!(text.contains(name), "usage() misses {name}");
        }
    }

    #[test]
    fn mechanics_prints_both_timelines() {
        let out = run(&["repro", "mechanics"]).unwrap();
        assert!(out.starts_with("Figure 1 — "), "{out}");
        assert!(out.contains("\nFigure 3 — "), "{out}");
        assert_eq!(out.matches("price : ").count(), 2, "{out}");
    }

    #[test]
    fn analysis_commands_produce_output() {
        let out = run(&["repro", "var-analysis", "--n", "1"]).unwrap();
        assert!(out.contains("orders of magnitude"));
        let out = run(&["repro", "queuing-delay", "--n", "1"]).unwrap();
        assert!(out.contains("299.6"));
    }

    #[test]
    fn fig6_writes_every_panel_and_refuses_to_clobber() {
        let dir = tmp("fig6-svg");
        let out = tmp("fig6.json");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);
        let (dir_s, out_s) = (dir.to_str().unwrap(), out.to_str().unwrap());
        let args = ["repro", "fig6", "--n", "1", "--svg", dir_s, "--out", out_s];
        let text = run(&args).unwrap();
        assert!(text.contains("Figure 6 (stress)"), "{text}");
        for stem in ["fig6a", "fig6b", "fig6_stress"] {
            let svg = std::fs::read_to_string(dir.join(format!("{stem}.svg"))).unwrap();
            assert!(svg.ends_with("</svg>"), "{stem}");
        }
        let panels = redspot_exp::results::load(&out).unwrap();
        let titles: Vec<&str> = panels.iter().map(|p| p.title.as_str()).collect();
        assert_eq!(titles.len(), 3, "{titles:?}");
        assert_eq!(titles[2], "fig6 stress");
        assert!(panels.iter().all(|p| !p.series.is_empty()));

        // A second run without --force refuses before doing any work and
        // leaves the artifact untouched.
        let before = std::fs::read(&out).unwrap();
        let Err(CliError::Usage(msg)) = run(&args) else {
            panic!("a second run must refuse to overwrite {out_s}");
        };
        assert!(msg.contains("already exists"), "{msg}");
        assert_eq!(std::fs::read(&out).unwrap(), before);
    }
}
