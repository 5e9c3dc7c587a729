//! Unified trace acquisition: every consumer of market data — one-off
//! runs, sweeps, chaos suites, the era comparison, the serve daemon's
//! preload — names *where its prices come from* as one [`TraceSource`]
//! value, resolved exactly once.
//!
//! Before this existed each subcommand grew its own flag plumbing (`run`
//! required `--trace`, `chaos` silently generated, `bootstrap` had its
//! own loader), so identical flags meant different things in different
//! places. A `TraceSource` is the single answer to "which market?":
//!
//! * [`TraceSource::Generate`] — synthesize from a named [`Profile`]
//!   (stock `low`/`high`/`year`, or `calibrated:FILE` for a fitted
//!   [`CalibratedProfile`]) and a seed;
//! * [`TraceSource::File`] — load a recorded trace (CSV or JSON, by
//!   extension);
//! * [`TraceSource::Bootstrap`] — load a recorded trace and block-
//!   bootstrap a resampled variant from it.

use crate::bootstrap::{resample, BootstrapConfig};
use crate::calibrate::CalibratedProfile;
use crate::gen::{year_history, GenConfig};
use crate::io;
use crate::traceset::TraceSet;
use std::path::{Path, PathBuf};

/// A named generator profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Profile {
    /// The stock low-volatility market.
    Low,
    /// The stock high-volatility market.
    High,
    /// The 12-month mixed history with the $20.02 spike.
    Year,
    /// A fitted [`CalibratedProfile`] loaded from a JSON file.
    Calibrated(PathBuf),
}

impl Profile {
    /// Parse a profile spec: `low`, `high`, `year`, or `calibrated:FILE`.
    pub fn parse(spec: &str) -> Result<Profile, String> {
        match spec {
            "low" => Ok(Profile::Low),
            "high" => Ok(Profile::High),
            "year" => Ok(Profile::Year),
            other => match other.strip_prefix("calibrated:") {
                Some(path) if !path.is_empty() => Ok(Profile::Calibrated(PathBuf::from(path))),
                _ => Err(format!(
                    "unknown profile: {other} (low|high|year|calibrated:FILE)"
                )),
            },
        }
    }

    /// Generate a trace set from this profile.
    pub fn generate(&self, seed: u64) -> Result<TraceSet, String> {
        match self {
            Profile::Low => Ok(GenConfig::low_volatility(seed).generate()),
            Profile::High => Ok(GenConfig::high_volatility(seed).generate()),
            Profile::Year => Ok(year_history(seed)),
            Profile::Calibrated(path) => {
                let profile = CalibratedProfile::load_json(path).map_err(|e| {
                    format!("cannot load calibrated profile {}: {e}", path.display())
                })?;
                Ok(profile.generate(seed))
            }
        }
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Profile::Low => write!(f, "low"),
            Profile::High => write!(f, "high"),
            Profile::Year => write!(f, "year"),
            Profile::Calibrated(path) => write!(f, "calibrated:{}", path.display()),
        }
    }
}

/// Where a subcommand's market trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// Synthesize from a generator profile.
    Generate {
        /// The profile to synthesize from.
        profile: Profile,
        /// Generator seed.
        seed: u64,
    },
    /// Load a recorded trace file (CSV by `.csv` extension, else JSON).
    File {
        /// The trace file.
        path: PathBuf,
    },
    /// Load a recorded trace and block-bootstrap a resampled variant.
    Bootstrap {
        /// The source trace file.
        path: PathBuf,
        /// Resampling parameters (block length, output length, seed).
        config: BootstrapConfig,
    },
}

/// The one format rule for trace files: CSV by `.csv` extension, else
/// JSON.
fn is_csv(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "csv")
}

/// Load a trace file, dispatching on the extension. The shared loader
/// behind [`TraceSource::File`] and [`TraceSource::Bootstrap`]; CLI
/// commands with genuinely file-only semantics (`describe`,
/// `validate-trace`) use it directly.
pub fn load_trace_file(path: &Path) -> Result<TraceSet, String> {
    let load = if is_csv(path) {
        io::load_csv(path)
    } else {
        io::load_json(path)
    };
    load.map_err(|e| format!("cannot load trace {}: {e}", path.display()))
}

/// Save a trace file in the format its extension names — the inverse of
/// [`load_trace_file`].
pub fn save_trace_file(set: &TraceSet, path: &Path) -> Result<(), String> {
    let save = if is_csv(path) {
        io::save_csv(set, path)
    } else {
        io::save_json(set, path)
    };
    save.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

impl TraceSource {
    /// Resolve the source into a concrete trace set. Deterministic: the
    /// same source value always yields the same prices.
    pub fn resolve(&self) -> Result<TraceSet, String> {
        match self {
            TraceSource::Generate { profile, seed } => profile.generate(*seed),
            TraceSource::File { path } => load_trace_file(path),
            TraceSource::Bootstrap { path, config } => {
                Ok(resample(&load_trace_file(path)?, config))
            }
        }
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::Generate { profile, seed } => {
                write!(f, "generated ({profile}, seed {seed})")
            }
            TraceSource::File { path } => write!(f, "file {}", path.display()),
            TraceSource::Bootstrap { path, config } => {
                write!(f, "bootstrap of {} (seed {})", path.display(), config.seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("redspot-test-source");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn profiles_parse_and_roundtrip_display() {
        for spec in ["low", "high", "year", "calibrated:/tmp/p.json"] {
            let p = Profile::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec);
        }
        assert!(Profile::parse("weird").is_err());
        assert!(Profile::parse("calibrated:").is_err());
    }

    #[test]
    fn generate_matches_the_direct_generators() {
        let s = TraceSource::Generate {
            profile: Profile::High,
            seed: 9,
        };
        assert_eq!(
            s.resolve().unwrap(),
            GenConfig::high_volatility(9).generate()
        );
        let s = TraceSource::Generate {
            profile: Profile::Year,
            seed: 3,
        };
        assert_eq!(s.resolve().unwrap(), year_history(3));
    }

    #[test]
    fn file_source_loads_csv_and_json_by_extension() {
        let set = GenConfig::low_volatility(4).generate();
        let json = tmp("src.json");
        let csv = tmp("src.csv");
        io::save_json(&set, &json).unwrap();
        io::save_csv(&set, &csv).unwrap();
        // save_trace_file applies the same extension rule on the way out.
        let saved = tmp("saved.csv");
        save_trace_file(&set, &saved).unwrap();
        for path in [json, csv, saved] {
            let loaded = TraceSource::File { path }.resolve().unwrap();
            assert_eq!(loaded, set);
        }
        let missing = TraceSource::File {
            path: tmp("absent.json"),
        };
        let err = missing.resolve().unwrap_err();
        assert!(err.contains("cannot load trace"), "{err}");
    }

    #[test]
    fn bootstrap_source_matches_direct_resampling() {
        let set = GenConfig::high_volatility(6).generate();
        let path = tmp("boot-src.json");
        io::save_json(&set, &path).unwrap();
        let config = BootstrapConfig {
            seed: 11,
            ..BootstrapConfig::default()
        };
        let via_source = TraceSource::Bootstrap { path, config }.resolve().unwrap();
        assert_eq!(via_source, resample(&set, &config));
    }

    #[test]
    fn calibrated_profile_resolves_through_generate() {
        let set = GenConfig::low_volatility(2).generate();
        let fitted = calibrate::fit(&set);
        let path = tmp("profile.json");
        fitted.save_json(&path).unwrap();
        let source = TraceSource::Generate {
            profile: Profile::Calibrated(path),
            seed: 21,
        };
        assert_eq!(source.resolve().unwrap(), fitted.generate(21));
        let bad = TraceSource::Generate {
            profile: Profile::Calibrated(tmp("absent-profile.json")),
            seed: 21,
        };
        assert!(bad.resolve().unwrap_err().contains("calibrated profile"));
    }
}
