//! # redspot-cli
//!
//! Command dispatch for the `redspot` binary. Kept in the library so the
//! whole surface is unit-testable; `main.rs` is a thin shell.

#![warn(missing_docs)]

mod args;
mod cmd;
mod repro;

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

/// Dispatch a command line (without the program name) and return the text
/// to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    let parsed = ParsedArgs::parse(rest).map_err(CliError::Usage)?;
    match cmd.as_str() {
        "gen-trace" => cmd::gen_trace(&parsed).map_err(CliError::Usage),
        "calibrate" => cmd::calibrate(&parsed).map_err(CliError::Usage),
        "describe" => cmd::describe(&parsed).map_err(CliError::Usage),
        "run" => cmd::run(&parsed).map_err(CliError::Usage),
        "validate-trace" => cmd::validate_trace(&parsed).map_err(CliError::Usage),
        "adaptive" => cmd::adaptive(&parsed).map_err(CliError::Usage),
        "repro" => repro::repro(&parsed).map_err(CliError::Usage),
        "chaos" => cmd::chaos(&parsed),
        "fleet" => cmd::fleet(&parsed),
        "era-compare" => cmd::era_compare(&parsed),
        "policy-compare" => cmd::policy_compare(&parsed),
        "bootstrap" => cmd::bootstrap(&parsed).map_err(CliError::Usage),
        "workloads" => cmd::workloads(&parsed).map_err(CliError::Usage),
        "sweep" => cmd::sweep(&parsed),
        "merge" => cmd::merge(&parsed),
        "serve" => cmd::serve(&parsed),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command: {other}"))),
    }
}
