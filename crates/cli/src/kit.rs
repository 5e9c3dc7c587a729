//! Test kit shared by every command module's tests: dispatch from words,
//! per-test temp paths, and a generated-trace fixture.

use crate::{dispatch, CliError};
use std::cell::Cell;

/// Dispatch a command line given as words.
pub fn cli(args: &[&str]) -> Result<String, CliError> {
    dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// The output of a command that must succeed.
pub fn ok(args: &[&str]) -> String {
    cli(args).unwrap_or_else(|e| panic!("redspot {} failed: {e}", args.join(" ")))
}

/// The error text of a command that must fail.
pub fn err(args: &[&str]) -> String {
    match cli(args) {
        Ok(out) => panic!("redspot {} should fail, printed:\n{out}", args.join(" ")),
        Err(e) => e.to_string(),
    }
}

/// A path for `name` in a fresh directory owned by the calling test. The
/// directory is keyed by the test's name (the harness names each test's
/// thread after it), so tests running in parallel never share a file, and
/// it is emptied on first use so every run starts clean.
pub fn tmp(name: &str) -> String {
    let test = std::thread::current()
        .name()
        .unwrap_or("main")
        .replace("::", "-");
    let dir = std::env::temp_dir().join("redspot-cli-test").join(test);
    thread_local!(static USED: Cell<bool> = const { Cell::new(false) });
    if !USED.with(|used| used.replace(true)) {
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// Generate a trace with `gen-trace --profile PROFILE --seed SEED` into
/// this test's directory and return its path.
pub fn trace(profile: &str, seed: u64) -> String {
    let path = tmp(&format!("{profile}-{seed}.json"));
    let seed = seed.to_string();
    ok(&[
        "gen-trace",
        "--force",
        "--profile",
        profile,
        "--seed",
        &seed,
        "--out",
        &path,
    ]);
    path
}
