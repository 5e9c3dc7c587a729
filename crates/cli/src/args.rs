//! Flag parsing. Hand-rolled (the offline crate set has no argument
//! parser, and the surface is small).

use redspot_core::Era;
use redspot_trace::bootstrap::BootstrapConfig;
use redspot_trace::{Profile, SimDuration, TraceSource};
use std::collections::BTreeMap;
use std::path::Path;

/// Flags that take no value: present means `true`.
const BOOL_FLAGS: &[&str] = &["api", "api-only", "metrics", "force", "redundant", "stdio"];

/// Flags that take a value. Any `--flag` in neither list is a usage
/// error, so a typo never silently falls back to a default.
const VALUE_FLAGS: &[&str] = &[
    "addr",
    "bid",
    "bids",
    "block-hours",
    "bootstrap-from",
    "capacity",
    "days",
    "era",
    "intensities",
    "jobs",
    "journal",
    "market",
    "n",
    "out",
    "policy",
    "profile",
    "seed",
    "shard",
    "slack",
    "start",
    "svg",
    "sync-every",
    "tc",
    "threads",
    "trace",
    "trace-out",
    "workload",
    "zones",
];

/// Parsed flags plus positional arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl ParsedArgs {
    /// Parse `--key value` pairs (plus bare boolean flags) and positionals.
    pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let mut out = ParsedArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    out.flags.insert(key.to_string(), "true".to_string());
                    continue;
                }
                if !VALUE_FLAGS.contains(&key) {
                    return Err(format!("unknown flag --{key}"));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                out.flags.insert(key.to_string(), value.clone());
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// A string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a bare boolean flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }

    /// The experiment count `--n`, which must be at least 1: a sweep
    /// over zero experiments would report vacuous medians and pass every
    /// deadline gate.
    pub fn n_or(&self, default: usize) -> Result<usize, String> {
        match self.num_or("n", default)? {
            0 => Err("--n must be at least 1".into()),
            n => Ok(n),
        }
    }

    /// A comma-separated list flag (`--zones 0,1,2`), each item trimmed
    /// and parsed by `item`; `None` when the flag is absent.
    pub(crate) fn list<T>(
        &self,
        key: &str,
        item: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, String> {
        self.get(key)
            .map(|spec| {
                spec.split(',')
                    .map(|s| item(s.trim()).ok_or_else(|| format!("flag --{key}: bad value '{s}'")))
                    .collect()
            })
            .transpose()
    }

    /// `--out FILE`, refused up front by [`guard`](Self::guard).
    pub(crate) fn out(&self) -> Result<Option<&str>, String> {
        self.get("out").map(|path| self.guard(path)).transpose()
    }

    /// The shared no-clobber guard every artifact-writing command applies
    /// before doing any work: refuse to overwrite an existing file unless
    /// `--force` was given, leaving the file untouched.
    pub(crate) fn guard<'a>(&self, path: &'a str) -> Result<&'a str, String> {
        if Path::new(path).exists() && !self.has("force") {
            return Err(format!("{path} already exists; pass --force to overwrite"));
        }
        Ok(path)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The flags shared by every simulation subcommand, parsed in one
    /// place so `run`, `sweep` and `chaos` agree on names and defaults.
    pub fn common(&self) -> Result<CommonArgs, String> {
        let seed = self.num_or("seed", 42)?;
        Ok(CommonArgs {
            threads: self.num_or("threads", 0)?,
            seed,
            metrics: self.has("metrics"),
            era: Era::parse(self.get_or("era", "classic"))?,
            source: self.trace_source(seed)?,
            source_explicit: self.names_a_source(),
        })
    }

    /// Whether any trace-source flag was given explicitly (as opposed to
    /// falling back to the generated default). Commands with no natural
    /// default market (`serve` preload) only resolve a source when this
    /// is true.
    pub fn names_a_source(&self) -> bool {
        self.has("trace") || self.has("bootstrap-from") || self.has("profile")
    }

    /// Resolve the shared trace-source flags into one [`TraceSource`].
    ///
    /// Precedence (the flags are mutually exclusive, erroring otherwise):
    /// `--trace FILE` loads a recorded trace; `--bootstrap-from FILE`
    /// (with `--block-hours` and `--days`) block-bootstraps from one;
    /// otherwise `--profile` (default `high`, matching what the batch
    /// studies historically generated) synthesizes with `--seed`.
    pub fn trace_source(&self, seed: u64) -> Result<TraceSource, String> {
        let exclusive: Vec<&str> = ["trace", "bootstrap-from", "profile"]
            .into_iter()
            .filter(|f| self.has(f))
            .collect();
        if exclusive.len() > 1 {
            let list: Vec<String> = exclusive.iter().map(|f| format!("--{f}")).collect();
            return Err(format!(
                "{} are mutually exclusive: name one trace source",
                list.join(" and ")
            ));
        }
        if let Some(path) = self.get("trace") {
            return Ok(TraceSource::File { path: path.into() });
        }
        if let Some(path) = self.get("bootstrap-from") {
            return Ok(TraceSource::Bootstrap {
                path: path.into(),
                config: BootstrapConfig {
                    block: SimDuration::from_hours(self.num_or("block-hours", 12)?),
                    output_len: SimDuration::from_hours(24 * self.num_or("days", 30)?),
                    seed,
                },
            });
        }
        Ok(TraceSource::Generate {
            profile: Profile::parse(self.get_or("profile", "high"))?,
            seed,
        })
    }
}

/// Flags every simulation subcommand shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Worker threads for batch execution (0 = one per CPU).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Whether to print the telemetry table.
    pub metrics: bool,
    /// Market rules era (`classic` = the paper's 2014 hourly market,
    /// `modern` = post-2017 per-second billing with interruption notices).
    pub era: Era,
    /// Where the market trace comes from (`--trace`, `--bootstrap-from`,
    /// or `--profile` + `--seed`; defaults to the generated
    /// high-volatility profile).
    pub source: TraceSource,
    /// Whether any source flag was given explicitly rather than
    /// defaulted.
    pub source_explicit: bool,
}

/// The help text.
pub fn usage() -> String {
    "\
redspot — cost-effective, time-constrained HPC on the EC2 spot market (HPDC'14 reproduction)

USAGE:
  redspot gen-trace [--profile low|high|year|calibrated:FILE | --bootstrap-from FILE
                    | --trace FILE] [--seed N] [--out FILE] [--force]
                                    # write the trace any source below resolves to;
                                    # the format follows the --out extension (.csv
                                    # is CSV, anything else JSON), so --trace FILE
                                    # converts between the two
  redspot calibrate (--trace FILE | FILE | --bootstrap-from FILE | --profile P)
                    [--seed N] --out PROFILE.json [--force]
                                    # fit generator parameters (price level,
                                    # volatility, spell lengths, change-point
                                    # density) to an observed trace; the emitted
                                    # profile regenerates synthetic look-alikes via
                                    # gen-trace --profile calibrated:PROFILE.json
  redspot describe FILE
  redspot run [--policy periodic|markov-daly|edge|threshold|spot-on|randomized-bid|adaptive]
              [--bid DOLLARS] [--zones 0,1,2] [--slack PCT] [--tc SECS]
              [--start HOURS] [--seed N] [--trace-out FILE.jsonl] [--metrics]
                                    # adaptive chooses bid, redundancy and policy at
                                    # every decision point, using --zones as the
                                    # zones it may pick from, and lists its switches;
                                    # observation is opt-in: --trace-out streams the
                                    # event log as JSONL, --metrics prints telemetry
  redspot validate-trace FILE.jsonl # check a --trace-out file line by line: schema,
                                    # finite non-negative prices, ordered timestamps
  redspot repro ARTIFACT|all [--n COUNT] [--seed N] [--threads N] [--svg DIR]
                [--out FILE] [--force]
                                    # reproduce the paper's evaluation: `all` prints
                                    # fig2 var-analysis queuing-delay fig4 table2
                                    # table3 fig5 fig6 headline in turn; mechanics
                                    # markov-validation robustness ablate-n
                                    # ablate-daly ablate-history run alone. --n is
                                    # experiments per volatility window (default 16,
                                    # paper scale 80); --svg writes each figure panel
                                    # to DIR/<panel>.svg; --out writes the panels as
                                    # JSON (refuses to overwrite without --force)
  redspot chaos [--api | --api-only] [--n COUNT] [--seed N] [--intensities 0,0.3,0.6,1]
                                    # --api composes control-plane faults WITH the
                                    # infrastructure faults in the same runs; --api-only
                                    # injects control-plane faults alone; exits 1 on any
                                    # deadline violation
  redspot fleet [--jobs N] [--capacity unbounded,2,1] [--intensities 0,0.5]
                [--seed N] [--threads N] [--out metrics.json] [--force]
                                    # N mixed jobs contending for shared per-zone spot
                                    # capacity with the degradation ladder enabled;
                                    # exits 1 on any deadline violation or capacity leak;
                                    # --out writes the merged fleet metrics as JSON
                                    # (refuses to overwrite an existing file without
                                    # --force)
  redspot era-compare [--n COUNT] [--seed N] [--threads N]
                                    # the paper's 2014 hourly market vs the post-2017
                                    # per-second/interruption-notice market, same traces
                                    # and schemes; exits 1 on any deadline violation
  redspot policy-compare [--n COUNT] [--seed N] [--threads N] [--out FILE] [--force]
                                    # every checkpoint/bid policy (including spot-on
                                    # and randomized-bid) under both eras on the same
                                    # traces: median cost, checkpoints, interruptions,
                                    # on-demand rate, violations; --out writes the
                                    # comparison artifact as JSON; exits 1 on any
                                    # deadline violation
  redspot workloads                 # list the workload catalog
  redspot sweep [--policy P|adaptive] [--bids 0.27,0.81,2.40] [--n COUNT]
                [--redundant] [--slack PCT] [--tc SECS] [--seed N] [--metrics]
                [--threads N] [--out sweep.json]
                [--shard K/N --journal DIR [--sync-every N]] [--force]
                                    # --threads 0 (default) = one worker per CPU;
                                    # --redundant runs every zone at once instead of
                                    # each zone alone; --metrics appends the merged
                                    # telemetry and the decision-cache and uptime-memo
                                    # hit rates (adaptive sweeps share one cache);
                                    # --out writes the merged sweep artifact as JSON;
                                    # --shard K/N --journal DIR runs only shard K of
                                    # the grid, journaling each completed cell — a
                                    # killed invocation re-run with the same flags
                                    # resumes, skipping already-journaled cells
  redspot merge --journal DIR [--out sweep.json] [--force]
                                    # verify and combine all N shard journals into the
                                    # artifact an uninterrupted sweep --out produces
                                    # (byte-identical); exits 1 with a diagnosis on
                                    # schema/fingerprint/coverage/checksum violations
  redspot serve [--addr HOST:PORT | --stdio] [--market NAME] [--bid DOLLARS]
                                    # live advisory daemon: stream price rows in over
                                    # line-JSON (validated like validate-trace), query
                                    # what Adaptive would do right now, subscribe to
                                    # era-classified interruption notices; --stdio
                                    # serves one client on stdin/stdout; --addr
                                    # (default 127.0.0.1:7071, port 0 = ephemeral)
                                    # serves concurrent TCP clients; exits 1 if any
                                    # request line failed; naming a trace source
                                    # (--trace/--profile/--bootstrap-from) preloads
                                    # it as market NAME (default \"preload\") at --bid
                                    # (default 0.81) before serving
  redspot help

Every simulating command (run, sweep, chaos, fleet, era-compare,
policy-compare, serve preload), gen-trace and calibrate draw their market
from one shared trace source, resolved in this order:
  --trace FILE                      # load a recorded JSON/CSV trace verbatim
  --bootstrap-from FILE [--block-hours H] [--days D]
                                    # block-bootstrap a synthetic ensemble member
                                    # from an observed trace, seeded by --seed
  --profile low|high|year|calibrated:FILE   (default: high)
                                    # regenerate from a stock or fitted profile,
                                    # seeded by --seed
Naming more than one source is a usage error; calibrate has no default
and needs one named. Commands that write files (--out) refuse to
overwrite an existing file unless --force is passed.

Flag --workload NAME (on run) overrides C, t_c and iteration structure
from the catalog.
Shared flags on run/sweep/chaos: --threads N, --seed N, --metrics.
Shared flag --era classic|modern (default classic) selects the market
rules: classic is the paper's 2014 hourly market; modern is post-2017
per-second billing with 2-minute interruption notices and no user bids.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        ParsedArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["4", "--n", "16", "--seed", "7"]).unwrap();
        assert_eq!(a.positional(0), Some("4"));
        assert_eq!(a.get("n"), Some("16"));
        assert_eq!(a.num_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.num_or("missing", 5u64).unwrap(), 5);
        assert_eq!(a.get_or("profile", "low"), "low");
    }

    #[test]
    fn comma_lists_trim_items_and_name_the_flag_on_error() {
        let zone = |z: &str| z.parse::<usize>().ok();
        let a = parse(&["--zones", "0, 2"]).unwrap();
        assert_eq!(a.list("zones", zone), Ok(Some(vec![0, 2])));
        assert_eq!(a.list("bids", zone), Ok(None));
        let e = parse(&["--zones", "0,x"]).unwrap().list("zones", zone);
        assert_eq!(e, Err("flag --zones: bad value 'x'".into()));
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(
            parse(&["--polcy", "edge"]),
            Err("unknown flag --polcy".into())
        );
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_knows() {
        let text = usage();
        let in_usage: BTreeSet<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let known: BTreeSet<&str> = BOOL_FLAGS.iter().chain(VALUE_FLAGS).copied().collect();
        assert_eq!(in_usage, known);
    }

    #[test]
    fn zero_experiments_is_a_usage_error_everywhere() {
        for cmd in [
            "repro fig2",
            "chaos",
            "era-compare",
            "policy-compare",
            "sweep",
        ] {
            let mut args: Vec<String> = cmd.split(' ').map(String::from).collect();
            args.extend(["--n", "0"].map(String::from));
            match crate::dispatch(&args) {
                Err(crate::CliError::Usage(msg)) => assert!(msg.contains("--n"), "{cmd}: {msg}"),
                other => panic!("{cmd} --n 0 gave {other:?}"),
            }
        }
    }

    #[test]
    fn bare_boolean_flags_take_no_value() {
        let a = parse(&["--api", "--n", "4"]).unwrap();
        assert!(a.has("api"));
        assert_eq!(a.get("n"), Some("4"));
        assert!(!a.has("n-missing"));
        // --api must not swallow the following token.
        let a = parse(&["--api", "positional"]).unwrap();
        assert!(a.has("api"));
        assert_eq!(a.positional(0), Some("positional"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["--n", "many"]).unwrap();
        assert!(a.num_or("n", 1usize).is_err());
    }

    #[test]
    fn common_args_share_defaults_and_flags() {
        let c = parse(&[]).unwrap().common().unwrap();
        assert_eq!(
            c,
            CommonArgs {
                threads: 0,
                seed: 42,
                metrics: false,
                era: Era::Classic,
                source: TraceSource::Generate {
                    profile: Profile::High,
                    seed: 42
                },
                source_explicit: false,
            }
        );
        let c = parse(&[
            "--threads",
            "3",
            "--seed",
            "9",
            "--metrics",
            "--era",
            "modern",
        ])
        .unwrap()
        .common()
        .unwrap();
        assert_eq!(
            c,
            CommonArgs {
                threads: 3,
                seed: 9,
                metrics: true,
                era: Era::Modern,
                source: TraceSource::Generate {
                    profile: Profile::High,
                    seed: 9
                },
                source_explicit: false,
            }
        );
        assert!(parse(&["--threads", "x"]).unwrap().common().is_err());
        assert!(parse(&["--era", "2019"]).unwrap().common().is_err());
    }

    #[test]
    fn trace_source_resolution_order() {
        // --trace wins, and the same flag means the same thing everywhere.
        let c = parse(&["--trace", "prices.csv"]).unwrap().common().unwrap();
        assert_eq!(
            c.source,
            TraceSource::File {
                path: "prices.csv".into()
            }
        );
        assert!(c.source_explicit);

        // --bootstrap-from carries the block/length knobs and the seed.
        let c = parse(&[
            "--bootstrap-from",
            "prices.json",
            "--block-hours",
            "6",
            "--days",
            "10",
            "--seed",
            "7",
        ])
        .unwrap()
        .common()
        .unwrap();
        assert_eq!(
            c.source,
            TraceSource::Bootstrap {
                path: "prices.json".into(),
                config: BootstrapConfig {
                    block: SimDuration::from_hours(6),
                    output_len: SimDuration::from_hours(240),
                    seed: 7,
                },
            }
        );

        // --profile selects a generator, including calibrated:FILE.
        let c = parse(&["--profile", "low"]).unwrap().common().unwrap();
        assert_eq!(
            c.source,
            TraceSource::Generate {
                profile: Profile::Low,
                seed: 42
            }
        );
        let c = parse(&["--profile", "calibrated:fit.json"])
            .unwrap()
            .common()
            .unwrap();
        assert_eq!(
            c.source,
            TraceSource::Generate {
                profile: Profile::Calibrated("fit.json".into()),
                seed: 42
            }
        );
        assert!(parse(&["--profile", "weird"]).unwrap().common().is_err());
    }

    #[test]
    fn conflicting_trace_sources_are_an_error() {
        let err = parse(&["--trace", "a.json", "--profile", "high"])
            .unwrap()
            .common()
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse(&["--trace", "a.json", "--bootstrap-from", "b.json"])
            .unwrap()
            .common()
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }
}
