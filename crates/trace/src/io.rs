//! Trace persistence: JSON (self-describing, via serde) and CSV export for
//! external plotting tools.

use crate::price::Price;
use crate::time::{SimDuration, HORIZON};
use crate::traceset::TraceSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Save a trace set as JSON.
pub fn save_json(set: &TraceSet, path: &Path) -> io::Result<()> {
    let file = BufWriter::new(File::create(path)?);
    serde_json::to_writer(file, set).map_err(io::Error::other)
}

/// Load a trace set from JSON.
///
/// Deserialization bypasses [`TraceSet::new`]'s alignment asserts, so the
/// structural invariants are re-checked here: a hand-edited file with no
/// zones, misaligned series, or a single sample is rejected with a
/// diagnostic instead of panicking later inside the simulator.
pub fn load_json(path: &Path) -> io::Result<TraceSet> {
    let file = BufReader::new(File::open(path)?);
    let set: TraceSet = serde_json::from_reader(file).map_err(io::Error::other)?;
    validate_structure(&set).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        )
    })?;
    Ok(set)
}

/// Structural invariants every loaded trace must satisfy (mirrors what
/// [`TraceSet::new`] asserts, plus the two-sample minimum the simulator
/// needs to infer a step).
fn validate_structure(set: &TraceSet) -> Result<(), String> {
    let zones = set.zones();
    if zones.is_empty() {
        return Err("trace has no zones".into());
    }
    let (s0, st0, l0) = (zones[0].start(), zones[0].step(), zones[0].len());
    for (i, z) in zones.iter().enumerate() {
        if z.start() != s0 || z.step() != st0 || z.len() != l0 {
            return Err(format!(
                "zone {i} is misaligned (start {} step {} len {}, expected start {} step {st0} len {l0})",
                z.start().secs(),
                z.step(),
                z.len(),
                s0.secs(),
            ));
        }
    }
    if l0 < 2 {
        return Err(format!("need at least two samples per zone, got {l0}"));
    }
    if st0 == 0 {
        return Err("zone step is zero".into());
    }
    let end = (l0 as u64)
        .checked_mul(st0)
        .and_then(|span| s0.secs().checked_add(span));
    if end.is_none_or(|end| end > HORIZON.secs()) {
        return Err(format!(
            "trace ends past the horizon (start {} + step {st0} × {l0} samples > {} s)",
            s0.secs(),
            HORIZON.secs()
        ));
    }
    Ok(())
}

/// Export a trace set as CSV: `time_s,zone0_usd,zone1_usd,...`.
pub fn export_csv<W: Write>(set: &TraceSet, out: &mut W) -> io::Result<()> {
    write!(out, "time_s")?;
    for id in set.zone_ids() {
        write!(out, ",{id}")?;
    }
    writeln!(out)?;
    let z0 = set.zone(crate::traceset::ZoneId(0));
    for i in 0..z0.len() {
        let t = z0.start().secs() + i as u64 * z0.step();
        write!(out, "{t}")?;
        for z in set.zones() {
            write!(out, ",{:.3}", z.samples()[i].as_dollars())?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Import a trace set from CSV in the [`export_csv`] format. All zones use
/// the row spacing of the first two rows as the sampling step.
///
/// Every rejection names the 1-based line it happened on (the header is
/// line 1), the same discipline `validate-trace` applies to event logs:
/// duplicate or backwards timestamps, irregular row spacing, missing or
/// extra columns, a row whose next sample would lie past [`HORIZON`], and
/// non-finite, negative or unrepresentable prices (beyond `u64::MAX`
/// milli-dollars) are all errors, never silently accepted.
pub fn import_csv<R: BufRead>(input: R) -> io::Result<TraceSet> {
    use crate::series::PriceSeries;
    use crate::time::SimTime;

    fn bad(lineno: usize, why: impl std::fmt::Display) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {why}"))
    }

    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))??;
    let n_zones = header.split(',').count().saturating_sub(1);
    if n_zones == 0 {
        return Err(bad(1, "no zone columns in header"));
    }

    let mut times: Vec<u64> = Vec::new();
    let mut cols: Vec<Vec<Price>> = vec![Vec::new(); n_zones];
    let mut step: Option<u64> = None;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2; // 1-based, after the header
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != n_zones + 1 {
            return Err(bad(
                lineno,
                format!("expected {} fields, got {}", n_zones + 1, fields.len()),
            ));
        }
        let t: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| bad(lineno, format!("bad time field {:?}", fields[0].trim())))?;
        if let Some(&prev) = times.last() {
            if t == prev {
                return Err(bad(lineno, format!("duplicate timestamp {t}")));
            }
            if t < prev {
                return Err(bad(
                    lineno,
                    format!("timestamp {t} goes backwards (previous row was {prev})"),
                ));
            }
            let gap = t - prev;
            match step {
                None => step = Some(gap),
                Some(s) if s != gap => {
                    return Err(bad(
                        lineno,
                        format!("irregular step: expected {s}s between rows, got {gap}s"),
                    ))
                }
                Some(_) => {}
            }
        }
        // The series would end one step after this row.
        if t.checked_add(step.unwrap_or(1))
            .is_none_or(|end| end > HORIZON.secs())
        {
            return Err(bad(
                lineno,
                format!(
                    "timestamp {t} leaves no room for a step before the horizon ({} s)",
                    HORIZON.secs()
                ),
            ));
        }
        times.push(t);
        for (z, col) in cols.iter_mut().enumerate() {
            let field = fields[z + 1].trim();
            let v: f64 = field
                .parse()
                .map_err(|_| bad(lineno, format!("bad price field {field:?}")))?;
            if !v.is_finite() {
                return Err(bad(lineno, format!("non-finite price {field:?}")));
            }
            if v < 0.0 {
                return Err(bad(lineno, format!("negative price {field:?}")));
            }
            if (v * 1000.0).round() >= u64::MAX as f64 {
                return Err(bad(
                    lineno,
                    format!("price {field:?} is beyond u64::MAX milli-dollars"),
                ));
            }
            col.push(Price::from_dollars(v));
        }
    }
    if times.len() < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("need at least two samples, got {}", times.len()),
        ));
    }
    let step = step.expect("two samples imply a step");
    let start = SimTime::from_secs(times[0]);
    let zones = cols
        .into_iter()
        .map(|samples| PriceSeries::with_step(start, step, samples))
        .collect();
    Ok(TraceSet::new(zones))
}

/// Round-trip helper used by the CLI: write CSV to a file.
pub fn save_csv(set: &TraceSet, path: &Path) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    export_csv(set, &mut file)?;
    file.flush()
}

/// Load a trace set from a CSV file. Errors are prefixed with the path so
/// a failing `--trace` names both file and line, like `validate-trace`.
pub fn load_csv(path: &Path) -> io::Result<TraceSet> {
    import_csv(BufReader::new(File::open(path)?))
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// A short human-readable description of a trace set.
pub fn describe(set: &TraceSet) -> String {
    let mut s = format!(
        "{} zones, {} samples/zone, span {}\n",
        set.n_zones(),
        set.zone(crate::traceset::ZoneId(0)).len(),
        fmt_span(set.duration()),
    );
    for (id, z) in set.zone_ids().zip(set.zones()) {
        s.push_str(&format!(
            "  {id}: mean {:.3} var {:.4} min {} max {}\n",
            z.mean_dollars(),
            z.variance_dollars(),
            z.min_price(),
            z.max_price()
        ));
    }
    s
}

fn fmt_span(d: SimDuration) -> String {
    format!("{:.1}h", d.as_hours())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;
    use std::io::Cursor;

    #[test]
    fn json_round_trip() {
        let set = GenConfig::low_volatility(1).generate();
        let dir = std::env::temp_dir().join("redspot-test-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        save_json(&set, &path).unwrap();
        let loaded = load_json(&path).unwrap();
        assert_eq!(set, loaded);
    }

    #[test]
    fn csv_round_trip() {
        let set = GenConfig::high_volatility(2).generate();
        let mut buf = Vec::new();
        export_csv(&set, &mut buf).unwrap();
        let loaded = import_csv(Cursor::new(buf)).unwrap();
        assert_eq!(set.n_zones(), loaded.n_zones());
        assert_eq!(
            set.zone(crate::traceset::ZoneId(0)).len(),
            loaded.zone(crate::traceset::ZoneId(0)).len()
        );
        // CSV stores 3 decimals = exact milli-dollars, so prices round-trip.
        assert_eq!(set, loaded);
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(import_csv(Cursor::new(b"".as_slice())).is_err());
        assert!(import_csv(Cursor::new(b"time_s\n".as_slice())).is_err());
        assert!(import_csv(Cursor::new(b"time_s,z\nx,y\n".as_slice())).is_err());
        assert!(import_csv(Cursor::new(b"time_s,z\n0,0.3\n".as_slice())).is_err());
    }

    fn import_err(body: &str) -> String {
        import_csv(Cursor::new(body.as_bytes()))
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn import_errors_name_the_offending_line() {
        // Duplicate timestamp.
        let e = import_err("time_s,z\n0,0.3\n300,0.3\n300,0.4\n");
        assert!(
            e.contains("line 4") && e.contains("duplicate timestamp 300"),
            "{e}"
        );
        // Out-of-order rows.
        let e = import_err("time_s,z\n0,0.3\n600,0.3\n300,0.4\n");
        assert!(e.contains("line 4") && e.contains("goes backwards"), "{e}");
        // Irregular spacing.
        let e = import_err("time_s,z\n0,0.3\n300,0.3\n900,0.4\n");
        assert!(e.contains("line 4") && e.contains("irregular step"), "{e}");
        // NaN, infinity, and negative prices.
        let e = import_err("time_s,z\n0,0.3\n300,NaN\n");
        assert!(
            e.contains("line 3") && e.contains("non-finite price"),
            "{e}"
        );
        let e = import_err("time_s,z\n0,0.3\n300,inf\n");
        assert!(
            e.contains("line 3") && e.contains("non-finite price"),
            "{e}"
        );
        let e = import_err("time_s,z\n0,0.3\n300,-0.5\n");
        assert!(e.contains("line 3") && e.contains("negative price"), "{e}");
        // Ragged rows, both short and long.
        let e = import_err("time_s,a,b\n0,0.3\n");
        assert!(
            e.contains("line 2") && e.contains("expected 3 fields, got 2"),
            "{e}"
        );
        let e = import_err("time_s,a\n0,0.3,0.4\n");
        assert!(
            e.contains("line 2") && e.contains("expected 2 fields, got 3"),
            "{e}"
        );
        // Bad time and price tokens name themselves.
        let e = import_err("time_s,z\nsoon,0.3\n");
        assert!(
            e.contains("line 2") && e.contains("bad time field \"soon\""),
            "{e}"
        );
        let e = import_err("time_s,z\n0,cheap\n");
        assert!(
            e.contains("line 2") && e.contains("bad price field \"cheap\""),
            "{e}"
        );
        // Values later arithmetic cannot hold: a step that carries the
        // end past the horizon (here u64::MAX seconds, which `end()`
        // could not compute), a first row at the horizon, and a price
        // `Price::from_dollars` would clamp to u64::MAX milli-dollars.
        let e = import_err("time_s,z\n0,0.3\n18446744073709551615,0.3\n");
        assert!(e.contains("line 3") && e.contains("horizon"), "{e}");
        let e = import_err(&format!("time_s,z\n{},0.3\n", HORIZON.secs()));
        assert!(e.contains("line 2") && e.contains("horizon"), "{e}");
        let e = import_err("time_s,z\n0,0.3\n300,99999999999999999999\n");
        assert!(e.contains("line 3") && e.contains("u64::MAX"), "{e}");
        // A series may end exactly at the horizon.
        let last = HORIZON.secs() - 300;
        let body = format!("time_s,z\n{},0.3\n{last},0.3\n", last - 300);
        let set = import_csv(Cursor::new(body)).unwrap();
        assert_eq!(set.zones()[0].end(), HORIZON);
    }

    #[test]
    fn load_csv_prefixes_errors_with_the_path() {
        let dir = std::env::temp_dir().join("redspot-test-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.csv");
        std::fs::write(&path, "time_s,z\n0,0.3\n0,0.4\n").unwrap();
        let e = load_csv(&path).unwrap_err().to_string();
        assert!(e.contains("dup.csv") && e.contains("line 3"), "{e}");
    }

    #[test]
    fn load_json_rejects_structurally_broken_traces() {
        let dir = std::env::temp_dir().join("redspot-test-io");
        std::fs::create_dir_all(&dir).unwrap();

        // No zones: deserializes fine, must still be rejected.
        let path = dir.join("empty-zones.json");
        std::fs::write(&path, r#"{"zones":[]}"#).unwrap();
        let e = load_json(&path).unwrap_err().to_string();
        assert!(e.contains("no zones"), "{e}");

        // Misaligned zones: serde cannot see this, validation must.
        let set = GenConfig::low_volatility(1).generate();
        let good = serde_json::to_string(&set).unwrap();
        let z0 = serde_json::to_string(set.zone(crate::traceset::ZoneId(0))).unwrap();
        let short = {
            let mut s: crate::series::PriceSeries = serde_json::from_str(&z0).unwrap();
            s = s.slice(crate::window::Window::new(
                s.start(),
                s.start() + crate::time::SimDuration::from_hours(2),
            ));
            serde_json::to_string(&s).unwrap()
        };
        let path = dir.join("misaligned.json");
        std::fs::write(&path, format!(r#"{{"zones":[{z0},{short}]}}"#)).unwrap();
        let e = load_json(&path).unwrap_err().to_string();
        assert!(e.contains("zone 1 is misaligned"), "{e}");

        // A non-finite price in the JSON is a parse error with position
        // info from serde, not a silent acceptance.
        let path = dir.join("nan.json");
        std::fs::write(&path, good.replacen(char::is_numeric, "NaN", 1)).unwrap();
        assert!(load_json(&path).is_err());

        // A series that ends past the horizon, where `end()` would
        // overflow.
        let path = dir.join("late.json");
        std::fs::write(
            &path,
            r#"{"zones":[{"start":18446744073709551615,"step":300,"prices":[270,270]}]}"#,
        )
        .unwrap();
        let e = load_json(&path).unwrap_err().to_string();
        assert!(e.contains("past the horizon"), "{e}");

        // And the good trace still loads.
        let path = dir.join("good.json");
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load_json(&path).unwrap(), set);
    }

    #[test]
    fn describe_mentions_all_zones() {
        let set = GenConfig::low_volatility(1).generate();
        let d = describe(&set);
        assert!(d.contains("us-east-1a"));
        assert!(d.contains("us-east-1c"));
    }
}
