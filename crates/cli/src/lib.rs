//! # redspot-cli
//!
//! Command dispatch for the `redspot` binary. Kept in the library so the
//! whole surface is unit-testable; `main.rs` is a thin shell. Each
//! subcommand lives in the module for its job, with its tests beside it.

#![warn(missing_docs)]

mod args;
#[cfg(test)]
mod kit;
mod repro;
mod run;
mod serve;
mod study;
mod sweep;
mod trace;

use std::fmt;

pub use args::{usage, ParsedArgs};

/// How a command invocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments or I/O trouble: exit 2 and show usage.
    Usage(String),
    /// The command ran to completion but its result breaks a guarantee
    /// the tool is supposed to uphold (a chaos sweep with deadline
    /// violations): print the output, exit 1, no usage text.
    Violation(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Violation(output) => write!(f, "{output}"),
        }
    }
}

/// Plain error strings are usage errors, so handlers can `?` them.
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_string())
    }
}

/// A subcommand: parsed flags in, the text to print out.
type Handler = fn(&ParsedArgs) -> Result<String, CliError>;

/// Every subcommand: its name, the most positional arguments it takes,
/// and its handler.
const COMMANDS: &[(&str, usize, Handler)] = &[
    ("gen-trace", 0, trace::gen_trace),
    ("calibrate", 1, trace::calibrate),
    ("describe", 1, trace::describe),
    ("validate-trace", 1, trace::validate_trace),
    ("workloads", 0, trace::workloads),
    ("run", 0, run::run),
    ("repro", 1, repro::repro),
    ("chaos", 0, study::chaos),
    ("fleet", 0, study::fleet),
    ("era-compare", 0, study::era_compare),
    ("policy-compare", 0, study::policy_compare),
    ("sweep", 0, sweep::sweep),
    ("merge", 1, sweep::merge),
    ("serve", 0, serve::serve),
];

/// Dispatch a command line (without the program name) and return the text
/// to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let parsed = ParsedArgs::parse(rest)?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let &(_, positionals, handler) = COMMANDS
        .iter()
        .find(|(name, _, _)| name == cmd)
        .ok_or_else(|| format!("unknown command: {cmd}"))?;
    if let Some(extra) = parsed.positional(positionals) {
        return Err(format!("{cmd}: unexpected argument '{extra}'").into());
    }
    handler(&parsed)
}

/// Write an `--out` JSON artifact whose path already passed
/// [`ParsedArgs::out`]: compact, or indented for artifacts meant to be
/// read.
fn write_json(path: &str, value: &impl serde::Serialize, pretty: bool) -> Result<(), String> {
    let json = if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    };
    let json = json.map_err(|e| format!("cannot serialize {path}: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;
    use crate::kit::{cli, err, ok};
    use crate::CliError;
    use std::collections::BTreeSet;

    #[test]
    fn usage_names_exactly_the_commands_dispatch_knows() {
        let text = crate::usage();
        let in_usage: BTreeSet<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("  redspot "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let mut known: BTreeSet<&str> = COMMANDS.iter().map(|&(name, _, _)| name).collect();
        known.insert("help");
        assert_eq!(in_usage, known);
    }

    /// One word more than a command takes is a usage error, caught before
    /// the handler runs (so `serve` never binds and nothing is written).
    #[test]
    fn every_command_rejects_a_stray_positional() {
        for &(name, positionals, _) in COMMANDS {
            let mut args = vec![name];
            args.extend(std::iter::repeat_n("stray", positionals + 1));
            match cli(&args) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("unexpected argument 'stray'"), "{name}: {msg}");
                }
                other => panic!("{args:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(ok(&["help"]).contains("USAGE"));
        assert!(err(&[]).contains("no command"));
        assert!(err(&["frobnicate"]).contains("unknown command"));
        // Retired spellings are gone, not aliased.
        for retired in ["adaptive", "bootstrap"] {
            assert!(err(&[retired]).contains("unknown command"), "{retired}");
        }
    }
}
