//! Machine-readable experiment results: every figure panel can be dumped
//! as JSON for downstream plotting or regression tracking.

use crate::experiments::{fig4, fig5, fig6};
use crate::report::LabeledBox;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

/// One labeled cost sample series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesJson {
    /// Row label (policy/bid/threshold).
    pub label: String,
    /// Cost samples in dollars.
    pub samples: Vec<f64>,
    /// Convenience: the median of `samples`.
    pub median: f64,
}

impl SeriesJson {
    /// Build from a label and samples.
    pub fn new(label: impl Into<String>, samples: Vec<f64>) -> SeriesJson {
        let median = crate::report::median(&samples);
        SeriesJson {
            label: label.into(),
            samples,
            median,
        }
    }
}

/// One figure panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelJson {
    /// Panel title.
    pub title: String,
    /// The series, in display order.
    pub series: Vec<SeriesJson>,
}

impl PanelJson {
    /// Convert boxplot rows (loses raw samples — prefer the dedicated
    /// converters below when samples are available).
    pub fn from_rows(title: impl Into<String>, rows: &[LabeledBox]) -> PanelJson {
        PanelJson {
            title: title.into(),
            series: rows
                .iter()
                .map(|r| SeriesJson {
                    label: r.label.clone(),
                    samples: Vec::new(),
                    median: r.plot.median,
                })
                .collect(),
        }
    }
}

/// Convert a Figure-4 panel, raw samples included.
pub fn from_fig4(panel: &fig4::Fig4Panel) -> PanelJson {
    let cell = &panel.cell;
    let mut series: Vec<SeriesJson> = cell
        .singles
        .iter()
        .map(|(k, b, c)| SeriesJson::new(format!("{}@{b}", k.label()), c.clone()))
        .collect();
    if let Some((label, costs)) = cell.best_redundant() {
        series.push(SeriesJson::new(format!("{label}*"), costs));
    }
    PanelJson {
        title: format!(
            "fig4 {} volatility slack {}% tc {}s",
            cell.volatility, cell.slack_pct, cell.tc_secs
        ),
        series,
    }
}

/// Convert a Figure-5 panel.
pub fn from_fig5(panel: &fig5::Fig5Panel) -> PanelJson {
    PanelJson {
        title: format!(
            "fig5 {} volatility tc {}s slack {}%",
            panel.volatility, panel.tc_secs, panel.slack_pct
        ),
        series: vec![
            SeriesJson::new("P@$0.81", panel.periodic.clone()),
            SeriesJson::new("M@$0.81", panel.markov.clone()),
            SeriesJson::new(
                format!("{}*", panel.redundancy.0),
                panel.redundancy.1.clone(),
            ),
            SeriesJson::new("Adaptive", panel.adaptive.clone()),
        ],
    }
}

/// Convert a Figure-6 panel.
pub fn from_fig6(panel: &fig6::Fig6Panel) -> PanelJson {
    let mut series: Vec<SeriesJson> = panel
        .large_bid
        .iter()
        .map(|(l, c)| SeriesJson::new(format!("L={l}"), c.clone()))
        .collect();
    series.push(SeriesJson::new("Adaptive", panel.adaptive.clone()));
    PanelJson {
        title: format!(
            "fig6 {} volatility tc {}s slack {}%",
            panel.volatility, panel.tc_secs, panel.slack_pct
        ),
        series,
    }
}

/// Write panels as pretty JSON.
pub fn save(path: &Path, panels: &[PanelJson]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    serde_json::to_writer_pretty(&mut file, panels).map_err(io::Error::other)?;
    file.flush()
}

/// Load panels back (regression tracking).
pub fn load(path: &Path) -> io::Result<Vec<PanelJson>> {
    let file = io::BufReader::new(std::fs::File::open(path)?);
    serde_json::from_reader(file).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_median() {
        let s = SeriesJson::new("x", vec![1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.samples.len(), 3);
    }

    #[test]
    fn round_trip_through_disk() {
        let panels = vec![PanelJson {
            title: "test".into(),
            series: vec![SeriesJson::new("a", vec![1.0, 2.0])],
        }];
        let dir = std::env::temp_dir().join("redspot-results-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panels.json");
        save(&path, &panels).unwrap();
        assert_eq!(load(&path).unwrap(), panels);
    }

    #[test]
    fn from_rows_keeps_medians() {
        let rows = vec![LabeledBox::from_costs("a", &[2.0, 4.0]).unwrap()];
        let p = PanelJson::from_rows("t", &rows);
        assert_eq!(p.series[0].median, 3.0);
        assert!(p.series[0].samples.is_empty());
    }
}
