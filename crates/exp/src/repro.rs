//! The reproduction surface: every artifact of the paper's evaluation
//! that `redspot repro` prints, by name, each rendered by exactly one
//! function from the shared [`PaperSetup`].

use crate::experiments::{
    ablation, fig2, fig4, fig5, fig6, headline, markov_validation, mechanics, queuing, robustness,
    tables, var_analysis,
};
use crate::report::{boxplot_panel, LabeledBox, REF_LINES};
use crate::results::{self, PanelJson};
use crate::PaperSetup;
use redspot_core::PolicyKind;
use redspot_trace::vol::Volatility;
use redspot_trace::Price;

/// What one artifact produced: the text it prints and its figure panels.
#[derive(Default)]
pub struct Rendered {
    /// The text the artifact prints.
    pub text: String,
    /// Its boxplot panels, in print order.
    pub panels: Vec<Panel>,
}

/// One boxplot panel, kept for `--svg` and `--out`.
pub struct Panel {
    /// SVG file stem (`fig4a`, `fig6_stress`, …).
    pub stem: String,
    /// SVG title.
    pub title: String,
    /// The rows.
    pub rows: Vec<LabeledBox>,
    /// The panel with its raw samples, as JSON.
    pub json: PanelJson,
}

impl Rendered {
    fn plain(text: String) -> Rendered {
        Rendered {
            text,
            ..Rendered::default()
        }
    }

    /// Print panel `i` of Figure `fig` and keep it.
    fn figure(
        &mut self,
        fig: u8,
        i: usize,
        caption: String,
        rows: Vec<LabeledBox>,
        json: PanelJson,
    ) {
        let letter = char::from(b'a' + i as u8);
        let title = format!("Figure {fig}({letter}) — {caption} (cost/instance, $)");
        self.text
            .push_str(&boxplot_panel(&title, &rows, &REF_LINES));
        self.panels.push(Panel {
            stem: format!("fig{fig}{letter}"),
            title,
            rows,
            json,
        });
    }
}

/// Renders one artifact.
pub type Render = fn(&PaperSetup) -> Rendered;

/// Every artifact, by the name `redspot repro` takes.
pub const ARTIFACTS: [(&str, Render); 15] = [
    ("fig2", render_fig2),
    ("fig4", render_fig4),
    ("fig5", render_fig5),
    ("fig6", render_fig6),
    ("table2", render_table2),
    ("table3", render_table3),
    ("var-analysis", render_var_analysis),
    ("queuing-delay", render_queuing),
    ("headline", render_headline),
    ("mechanics", render_mechanics),
    ("markov-validation", render_markov_validation),
    ("robustness", render_robustness),
    ("ablate-n", render_ablate_n),
    ("ablate-daly", render_ablate_daly),
    ("ablate-history", render_ablate_history),
];

/// The paper's nine §5–7 artifacts, in the order [`all`] prints them.
pub const PAPER: [Render; 9] = [
    render_fig2,
    render_var_analysis,
    render_queuing,
    render_fig4,
    render_table2,
    render_table3,
    render_fig5,
    render_fig6,
    render_headline,
];

/// The full reproduction: a header line, then the nine paper artifacts,
/// each exactly as it prints alone.
pub fn all(setup: &PaperSetup) -> Rendered {
    let mut out = Rendered::plain(format!(
        "== redspot: full reproduction (n = {} experiments/window, seed {}) ==\n\n",
        setup.n_experiments, setup.seed
    ));
    for render in PAPER {
        let r = render(setup);
        out.text.push_str(&r.text);
        out.panels.extend(r.panels);
    }
    out
}

/// Figure 2: zone availability over a 15-hour volatile window, and the
/// combined availability redundancy buys.
fn render_fig2(setup: &PaperSetup) -> Rendered {
    let fig = fig2::fig2(setup, Price::from_millis(810));
    let best_single = fig.zones.iter().map(|z| z.2).fold(0.0f64, f64::max);
    Rendered::plain(format!(
        "{}redundancy adds {:.1} percentage points of availability over the best zone\n",
        fig2::render(&fig),
        (fig.combined.1 - best_single) * 100.0
    ))
}

/// Figure 4: single-zone checkpoint policies vs best-case redundancy.
fn render_fig4(setup: &PaperSetup) -> Rendered {
    let mut out = Rendered::default();
    for (i, panel) in fig4::fig4(setup).iter().enumerate() {
        let c = &panel.cell;
        let caption = format!(
            "{} volatility, slack {}%, t_c = {} s",
            c.volatility, c.slack_pct, c.tc_secs
        );
        out.figure(4, i, caption, panel.rows.clone(), results::from_fig4(panel));
        if let Some(saving) = fig4::redundancy_saving(c) {
            out.text.push_str(&format!(
                "  best redundancy vs best single-zone: {:+.1}% median cost\n\n",
                -saving * 100.0
            ));
        }
    }
    out
}

/// Figure 5: Adaptive vs the best existing policies over the whole grid.
fn render_fig5(setup: &PaperSetup) -> Rendered {
    let mut out = Rendered::default();
    for (i, p) in fig5::fig5(setup).iter().enumerate() {
        let caption = format!(
            "{} volatility, t_c = {} s, slack {}%",
            p.volatility, p.tc_secs, p.slack_pct
        );
        out.figure(5, i, caption, p.rows(), results::from_fig5(p));
        out.text.push_str(&format!(
            "  adaptive median ${:.2} vs best existing ${:.2}; adaptive worst {:.2}x on-demand\n\n",
            p.adaptive_median(),
            p.best_existing_median(),
            p.adaptive_worst_vs_od(),
        ));
    }
    out
}

/// Figure 6: Large-bid across cost-control thresholds vs Adaptive, plus
/// the worst-case stress panel.
fn render_fig6(setup: &PaperSetup) -> Rendered {
    let mut out = Rendered::default();
    for (i, p) in fig6::fig6(setup).iter().enumerate() {
        let caption = format!(
            "{} volatility, t_c = {} s, slack {}%",
            p.volatility, p.tc_secs, p.slack_pct
        );
        out.figure(6, i, caption, p.rows(), results::from_fig6(p));
        out.text.push_str(&format!(
            "  worst case vs on-demand: Large-bid {:.2}x, Adaptive {:.2}x\n\n",
            p.large_bid_worst_vs_od(),
            p.adaptive_worst_vs_od(),
        ));
    }

    // The worst-case stress: experiments bracketing the $20.02 spike in
    // the 12-month history (the source of the paper's 3.8x observation).
    let stress = fig6::spike_stress(setup.seed, setup.n_experiments.min(12));
    let rows = stress.rows();
    out.text.push_str(&boxplot_panel(
        "Figure 6 (stress) — 12-month history, starts bracketing the $20.02 spike",
        &rows,
        &REF_LINES,
    ));
    out.text.push_str(&format!(
        "  worst case vs on-demand: Large-bid {:.2}x (paper: up to 3.8x), Adaptive {:.2}x\n\n",
        stress.large_bid_worst_vs_od(),
        stress.adaptive_worst_vs_od(),
    ));
    out.panels.push(Panel {
        stem: "fig6_stress".into(),
        title: "Figure 6 (stress)".into(),
        json: PanelJson::from_rows("fig6 stress", &rows),
        rows,
    });
    out
}

/// Table 2: optimal policies at t_c = 300 s.
fn render_table2(setup: &PaperSetup) -> Rendered {
    Rendered::plain(tables::render(&tables::optimal_policies(setup, 300)))
}

/// Table 3: optimal policies at t_c = 900 s.
fn render_table3(setup: &PaperSetup) -> Rendered {
    Rendered::plain(tables::render(&tables::optimal_policies(setup, 900)))
}

/// Section 3.1: own-zone vs cross-zone lagged price effects.
fn render_var_analysis(setup: &PaperSetup) -> Rendered {
    let analyses: Vec<_> = [Volatility::Low, Volatility::High]
        .into_iter()
        .filter_map(|v| var_analysis::analyse(setup, v))
        .collect();
    Rendered::plain(var_analysis::render(&analyses))
}

/// Section 5: two months of twice-daily spot queuing delays.
fn render_queuing(setup: &PaperSetup) -> Rendered {
    Rendered::plain(queuing::render(&queuing::study(setup.seed, 60)))
}

/// The abstract's claims, checked end to end.
fn render_headline(setup: &PaperSetup) -> Rendered {
    Rendered::plain(headline::render(&headline::headline(setup)))
}

/// Figures 1 and 3 as timelines of engine runs on the scenario trace.
fn render_mechanics(_: &PaperSetup) -> Rendered {
    let figure = |title: &str, kind| {
        let m = mechanics::run(kind);
        format!(
            "{title}\n\n{}\ncost ${:.2}, checkpoints {}, out-of-bid {}, deadline met {}\n",
            mechanics::render(&m),
            m.result.cost_dollars(),
            m.result.checkpoints,
            m.result.out_of_bid_terminations,
            m.result.met_deadline
        )
    };
    Rendered::plain(format!(
        "{}\n{}",
        figure(
            "Figure 1 — spot mechanics under Periodic checkpointing:",
            PolicyKind::Periodic
        ),
        figure(
            "Figure 3 — the Rising-Edge policy on the same market:",
            PolicyKind::RisingEdge
        ),
    ))
}

/// Appendix B: the Markov model's predicted vs observed up-times.
fn render_markov_validation(setup: &PaperSetup) -> Rendered {
    let mut text = String::new();
    for bid in [810, 1_610, 2_400].map(Price::from_millis) {
        let v = markov_validation::validate(setup, bid);
        text.push_str(&markov_validation::render(&v, bid));
    }
    Rendered::plain(text)
}

/// The redundancy conclusion on five block-bootstrap resamples.
fn render_robustness(setup: &PaperSetup) -> Rendered {
    let r = robustness::study(setup.seed, 5, setup.n_experiments, setup.threads);
    Rendered::plain(robustness::render(&r))
}

fn render_ablate_n(setup: &PaperSetup) -> Rendered {
    Rendered::plain(ablation::render_degree(&ablation::degree(setup)))
}

fn render_ablate_daly(setup: &PaperSetup) -> Rendered {
    Rendered::plain(ablation::render_daly(&ablation::daly(setup)))
}

fn render_ablate_history(setup: &PaperSetup) -> Rendered {
    Rendered::plain(ablation::render_history(&ablation::history(setup)))
}
