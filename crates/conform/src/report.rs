//! Campaign execution and rendering: fans a seed range out over the
//! `mmr_sim::sweep` harness and renders the outcome as text or JSON.
//!
//! Determinism contract: case `i` runs with seed
//! `point_seed(base_seed, i)` and its entire lifecycle (generate, run,
//! shrink) happens inside its own sweep slot, so the output is
//! byte-identical at any `--jobs` level — `mmr-bench check` diffs a
//! `--jobs 1` run against a `--jobs 4` run byte for byte. No wall-clock
//! data appears in the output.

use mmr_sim::sweep::{point_seed, SweepOptions};

use crate::runner::{run_scenario, Hooks};
use crate::scenario::Scenario;
use crate::shrink::{shrink, Shrunk, DEFAULT_BUDGET};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Base seed; case `i` uses `point_seed(base_seed, i)`.
    pub base_seed: u64,
    /// Number of cases.
    pub cases: usize,
    /// Worker-thread options from the sweep harness; `dense` runs every
    /// case on the dense stepping engine ([`Hooks::dense_stepping`]).
    pub opts: SweepOptions,
}

/// One case's reportable outcome.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index within the campaign.
    pub index: usize,
    /// The case's derived seed.
    pub seed: u64,
    /// Scenario summary.
    pub spec: String,
    /// Connections admitted / rejected at setup.
    pub admitted: usize,
    /// Connections rejected by admission control.
    pub rejected: usize,
    /// Churn arrivals the admission controller granted.
    pub churn_admitted: usize,
    /// Churn arrivals turned away with a typed verdict.
    pub churn_rejected: usize,
    /// Flits injected.
    pub injected: u64,
    /// Flits delivered.
    pub delivered: u64,
    /// Cycles simulated.
    pub cycles_run: u64,
    /// Rendered divergences (empty = conformant).
    pub divergences: Vec<String>,
    /// Minimal reproducer, for a divergent case.
    pub shrunk: Option<ShrunkOutcome>,
}

/// Rendered minimal reproducer.
#[derive(Debug, Clone)]
pub struct ShrunkOutcome {
    /// Shrunken scenario summary.
    pub spec: String,
    /// Connections remaining.
    pub conns: usize,
    /// Injection window remaining.
    pub cycles: u64,
    /// Divergences of the minimal scenario.
    pub divergences: Vec<String>,
    /// Re-runs the shrinker spent.
    pub attempts: usize,
}

impl From<&Shrunk> for ShrunkOutcome {
    fn from(s: &Shrunk) -> ShrunkOutcome {
        ShrunkOutcome {
            spec: s.scenario.spec_string(),
            conns: s.scenario.conns.len(),
            cycles: s.scenario.cycles,
            divergences: s.divergences.iter().map(|d| d.to_string()).collect(),
            attempts: s.attempts,
        }
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct Report {
    /// Base seed of the campaign.
    pub base_seed: u64,
    /// Case count.
    pub cases: usize,
    /// Cases that diverged.
    pub divergent: usize,
    /// Per-case outcomes, in index order.
    pub outcomes: Vec<CaseOutcome>,
}

impl Report {
    /// Whether every case conformed.
    pub fn is_clean(&self) -> bool {
        self.divergent == 0
    }

    /// Machine-readable rendering (hand-rolled: the workspace carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"tool\": \"mmr-conform\",\n");
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        out.push_str(&format!("  \"divergent\": {},\n", self.divergent));
        out.push_str("  \"results\": [\n");
        for (i, c) in self.outcomes.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"case\": {},\n", c.index));
            out.push_str(&format!("      \"seed\": {},\n", c.seed));
            out.push_str(&format!("      \"spec\": \"{}\",\n", escape(&c.spec)));
            out.push_str(&format!("      \"admitted\": {},\n", c.admitted));
            out.push_str(&format!("      \"rejected\": {},\n", c.rejected));
            out.push_str(&format!("      \"churn_admitted\": {},\n", c.churn_admitted));
            out.push_str(&format!("      \"churn_rejected\": {},\n", c.churn_rejected));
            out.push_str(&format!("      \"injected\": {},\n", c.injected));
            out.push_str(&format!("      \"delivered\": {},\n", c.delivered));
            out.push_str(&format!("      \"cycles\": {},\n", c.cycles_run));
            out.push_str(&format!("      \"divergences\": [{}]", render_list(&c.divergences)));
            if let Some(s) = &c.shrunk {
                out.push_str(",\n      \"shrunk\": {\n");
                out.push_str(&format!("        \"spec\": \"{}\",\n", escape(&s.spec)));
                out.push_str(&format!("        \"conns\": {},\n", s.conns));
                out.push_str(&format!("        \"cycles\": {},\n", s.cycles));
                out.push_str(&format!("        \"attempts\": {},\n", s.attempts));
                out.push_str(&format!(
                    "        \"divergences\": [{}]\n",
                    render_list(&s.divergences)
                ));
                out.push_str("      }\n");
            } else {
                out.push('\n');
            }
            out.push_str(if i + 1 == self.outcomes.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable rendering: one summary line, then details for every
    /// divergent case.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mmr-conform: {} case(s) from base seed {:#x}: {} divergent\n",
            self.cases, self.base_seed, self.divergent
        ));
        for c in &self.outcomes {
            if c.divergences.is_empty() {
                continue;
            }
            out.push_str(&format!("\ncase {} (seed {:#x}) DIVERGED\n  {}\n", c.index, c.seed, c.spec));
            for d in &c.divergences {
                out.push_str(&format!("  - {d}\n"));
            }
            if let Some(s) = &c.shrunk {
                out.push_str(&format!(
                    "  shrunk to {} conn(s), {} cycles in {} attempt(s):\n    {}\n",
                    s.conns, s.cycles, s.attempts, s.spec
                ));
                for d in &s.divergences {
                    out.push_str(&format!("    - {d}\n"));
                }
            }
        }
        out
    }
}

fn render_list(items: &[String]) -> String {
    items.iter().map(|d| format!("\"{}\"", escape(d))).collect::<Vec<_>>().join(", ")
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the campaign: each case generates, executes, and (when divergent)
/// shrinks inside its own sweep slot, so a clean campaign never shrinks.
pub fn run(cfg: &RunConfig) -> Report {
    let hooks = Hooks { dense_stepping: cfg.opts.dense, ..Hooks::default() };
    let outcomes = cfg.opts.run_indexed(cfg.cases, |i| {
        let seed = point_seed(cfg.base_seed, i);
        let scenario = Scenario::generate(seed);
        let run = run_scenario(&scenario, hooks);
        let shrunk = (!run.is_clean())
            .then(|| {
                let rerun = |s: &Scenario| run_scenario(s, hooks).divergences;
                ShrunkOutcome::from(&shrink(&scenario, rerun, DEFAULT_BUDGET))
            });
        CaseOutcome {
            index: i,
            seed,
            spec: scenario.spec_string(),
            admitted: run.admitted,
            rejected: run.rejected,
            churn_admitted: run.churn_admitted,
            churn_rejected: run.churn_rejected,
            injected: run.injected,
            delivered: run.delivered,
            cycles_run: run.cycles_run,
            divergences: run.divergences.iter().map(|d| d.to_string()).collect(),
            shrunk,
        }
    });
    let divergent = outcomes.iter().filter(|c| !c.divergences.is_empty()).count();
    Report { base_seed: cfg.base_seed, cases: cfg.cases, divergent, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_serial_reports_are_byte_identical() {
        let base = RunConfig {
            base_seed: 0x5EED,
            cases: 8,
            opts: SweepOptions::serial(),
        };
        let serial = run(&base).to_json();
        let parallel = run(&RunConfig { opts: SweepOptions { jobs: 4, ..SweepOptions::serial() }, ..base }).to_json();
        assert_eq!(serial, parallel);
    }

    /// A divergent case renders its divergences and its shrunk reproducer,
    /// in the text report and in the JSON record; a clean case beside it
    /// renders neither.
    #[test]
    fn a_divergent_report_renders_its_reproducer() {
        let case = |index: usize, divergences: Vec<&str>, shrunk| CaseOutcome {
            index,
            seed: 0x10 + index as u64,
            spec: format!("ring{index}"),
            admitted: 3,
            rejected: 1,
            churn_admitted: 2,
            churn_rejected: 0,
            injected: 40,
            delivered: 39,
            cycles_run: 900,
            divergences: divergences.into_iter().map(String::from).collect(),
            shrunk,
        };
        let shrunk = ShrunkOutcome {
            spec: "ring4 \"min\"".into(),
            conns: 1,
            cycles: 64,
            divergences: vec!["credit leak".into()],
            attempts: 17,
        };
        let report = Report {
            base_seed: 0x2a,
            cases: 2,
            divergent: 1,
            outcomes: vec![
                case(0, vec![], None),
                case(1, vec!["credit leak", "late"], Some(shrunk)),
            ],
        };
        assert!(!report.is_clean());
        assert_eq!(
            report.to_text(),
            "mmr-conform: 2 case(s) from base seed 0x2a: 1 divergent\n\
             \ncase 1 (seed 0x11) DIVERGED\n  ring1\n  - credit leak\n  - late\n\
             \x20 shrunk to 1 conn(s), 64 cycles in 17 attempt(s):\n    ring4 \"min\"\n\
             \x20   - credit leak\n"
        );
        let json = report.to_json();
        assert!(json.contains("\"divergent\": 1,\n"), "{json}");
        assert!(json.contains("\"divergences\": []\n    },\n"), "the clean case: {json}");
        assert!(
            json.contains(
                "      \"divergences\": [\"credit leak\", \"late\"],\n      \"shrunk\": {\n\
                 \x20       \"spec\": \"ring4 \\\"min\\\"\",\n        \"conns\": 1,\n\
                 \x20       \"cycles\": 64,\n        \"attempts\": 17,\n\
                 \x20       \"divergences\": [\"credit leak\"]\n      }\n    }\n  ]\n}\n"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_escapes_are_safe() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
