//! `serve`: the live advisory daemon.

use crate::args::ParsedArgs;
use crate::CliError;
use redspot_core::serve::{serve_stdio_with, Daemon, Server};
use redspot_trace::Price;

/// `serve`: clients stream price rows in over line-JSON (the
/// `validate-trace` discipline, checked per line), query "what would
/// Adaptive do right now?", and subscribe to interruption notices the
/// sentinel classifies under each market's era. `--stdio` serves a
/// single client over stdin/stdout (the CI smoke mode); otherwise
/// `--addr HOST:PORT` (default `127.0.0.1:7071`, port 0 for ephemeral)
/// serves concurrent TCP clients. Exits 1 if any request line failed — a
/// malformed ingestion stream never exits clean.
pub fn serve(parsed: &ParsedArgs) -> Result<String, CliError> {
    let dirty =
        || CliError::Violation("serve: one or more request lines failed (see replies)\n".into());
    let common = parsed.common()?;
    // Preload only when a source was named explicitly: a daemon has no
    // natural default market, so a bare `serve` starts empty and waits
    // for clients to open markets themselves.
    let preload = if common.source_explicit {
        let traces = common.source.resolve()?;
        let market = parsed.get_or("market", "preload").to_string();
        let bid = Price::from_dollars(parsed.num_or("bid", 0.81f64)?);
        Some((traces, market, bid))
    } else {
        None
    };
    let preload_into = |server: &Server| -> Result<String, String> {
        let Some((traces, market, bid)) = &preload else {
            return Ok(String::new());
        };
        let rows = server
            .registry()
            .preload(market, traces, common.era, *bid, common.seed)?;
        Ok(format!(
            "serve: preloaded market '{market}' ({rows} rows from {})\n",
            common.source
        ))
    };
    if parsed.has("stdio") {
        let server = Server::new();
        let banner = preload_into(&server)?;
        let clean = serve_stdio_with(&server, std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("serve I/O error: {e}"))?;
        if !clean {
            return Err(dirty());
        }
        return Ok(format!("{banner}serve: session closed cleanly\n"));
    }
    let addr = parsed.get_or("addr", "127.0.0.1:7071");
    let daemon = Daemon::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    print!("{}", preload_into(daemon.server())?);
    let bound = daemon.local_addr().map_err(|e| e.to_string())?;
    // Announce the bound address before blocking in the accept loop —
    // scripts (and the CI smoke job) read it to find an ephemeral port.
    println!("serve: listening on {bound}");
    if !daemon.run() {
        return Err(dirty());
    }
    Ok(format!("serve: shut down cleanly ({bound})\n"))
}

#[cfg(test)]
mod tests {
    use crate::kit::err;

    #[test]
    fn serve_rejects_an_unbindable_address() {
        let e = err(&["serve", "--addr", "definitely not an address"]);
        assert!(e.contains("cannot bind"), "{e}");
    }

    #[test]
    fn serve_preload_resolves_the_source_before_binding() {
        // A bad preload source fails as a usage error without ever
        // binding a socket or blocking in the accept loop.
        let missing = ["--trace", "/nonexistent/preload.json"];
        let e = err(&[&["serve", "--addr", "127.0.0.1:0"][..], &missing].concat());
        assert!(e.contains("cannot load trace"), "{e}");
    }
}
