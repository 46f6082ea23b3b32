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

use crate::oracle::Divergence;
use crate::runner::{run_scenario, CaseRun, Hooks};
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
    /// The run: verdict counts, flit totals, cycles and divergences (none
    /// = conformant).
    pub run: CaseRun,
    /// Minimal reproducer, for a divergent case.
    pub shrunk: Option<Shrunk>,
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
            let run = &c.run;
            out.push_str(&format!("      \"admitted\": {},\n", run.admitted));
            out.push_str(&format!("      \"rejected\": {},\n", run.rejected));
            out.push_str(&format!("      \"churn_admitted\": {},\n", run.churn_admitted));
            out.push_str(&format!("      \"churn_rejected\": {},\n", run.churn_rejected));
            out.push_str(&format!("      \"injected\": {},\n", run.injected));
            out.push_str(&format!("      \"delivered\": {},\n", run.delivered));
            out.push_str(&format!("      \"cycles\": {},\n", run.cycles_run));
            out.push_str(&format!("      \"divergences\": [{}]", render_list(&run.divergences)));
            if let Some(s) = &c.shrunk {
                out.push_str(",\n      \"shrunk\": {\n");
                let spec = escape(&s.scenario.spec_string());
                out.push_str(&format!("        \"spec\": \"{spec}\",\n"));
                out.push_str(&format!("        \"conns\": {},\n", s.scenario.conns.len()));
                out.push_str(&format!("        \"cycles\": {},\n", s.scenario.cycles));
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
        for c in self.outcomes.iter().filter(|c| !c.run.is_clean()) {
            out.push_str(&format!("\ncase {} (seed {:#x}) DIVERGED\n  {}\n", c.index, c.seed, c.spec));
            for d in &c.run.divergences {
                out.push_str(&format!("  - {d}\n"));
            }
            if let Some(s) = &c.shrunk {
                out.push_str(&format!(
                    "  shrunk to {} conn(s), {} cycles in {} attempt(s):\n    {}\n",
                    s.scenario.conns.len(),
                    s.scenario.cycles,
                    s.attempts,
                    s.scenario.spec_string()
                ));
                for d in &s.divergences {
                    out.push_str(&format!("    - {d}\n"));
                }
            }
        }
        out
    }
}

fn render_list(items: &[Divergence]) -> String {
    items.iter().map(|d| format!("\"{}\"", escape(&d.to_string()))).collect::<Vec<_>>().join(", ")
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
    run_with(cfg, |s| run_scenario(s, hooks))
}

/// [`run`] with the case runner given. A case whose generation or run
/// panics is divergent — [`Divergence::Panicked`] — rather than the end of
/// the campaign: the report keeps its seed, and a panicking run is shrunk
/// like any other divergence.
fn run_with(cfg: &RunConfig, runner: impl Fn(&Scenario) -> CaseRun + Sync) -> Report {
    let panicked = |d| CaseRun { divergences: vec![d], ..CaseRun::default() };
    let run_caught = |s: &Scenario| caught(|| runner(s)).unwrap_or_else(panicked);
    let outcomes = cfg.opts.run_indexed(cfg.cases, |index| {
        let seed = point_seed(cfg.base_seed, index);
        let scenario = match caught(|| Scenario::generate(seed)) {
            Ok(scenario) => scenario,
            Err(d) => {
                let run = panicked(d);
                return CaseOutcome { index, seed, spec: String::new(), run, shrunk: None };
            }
        };
        let run = run_caught(&scenario);
        let shrunk = (!run.is_clean()).then(|| {
            let rerun = |s: &Scenario| run_caught(s).divergences;
            shrink(&scenario, rerun, DEFAULT_BUDGET)
        });
        CaseOutcome { index, seed, spec: scenario.spec_string(), run, shrunk }
    });
    let divergent = outcomes.iter().filter(|c| !c.run.is_clean()).count();
    Report { base_seed: cfg.base_seed, cases: cfg.cases, divergent, outcomes }
}

/// `f()`, or the [`Divergence::Panicked`] carrying its panic message.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, Divergence> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = (payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Divergence::Panicked { message }
    })
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
        let case = |index: usize, messages: Vec<&str>, shrunk| CaseOutcome {
            index,
            seed: 0x10 + index as u64,
            spec: format!("ring{index}"),
            run: CaseRun {
                admitted: 3,
                rejected: 1,
                churn_admitted: 2,
                injected: 40,
                delivered: 39,
                cycles_run: 900,
                divergences: (messages.into_iter())
                    .map(|m| Divergence::Panicked { message: m.into() })
                    .collect(),
                ..CaseRun::default()
            },
            shrunk,
        };
        let mut scenario = Scenario::generate(0x2a);
        scenario.conns.truncate(1);
        scenario.cycles = 64;
        let spec = scenario.spec_string();
        let divergences = vec![Divergence::Panicked { message: "credit leak".into() }];
        let shrunk = Shrunk { scenario, divergences, attempts: 17 };
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
            format!(
                "mmr-conform: 2 case(s) from base seed 0x2a: 1 divergent\n\
                 \ncase 1 (seed 0x11) DIVERGED\n  ring1\n  - panicked: credit leak\n  - panicked: late\n\
                 \x20 shrunk to 1 conn(s), 64 cycles in 17 attempt(s):\n    {spec}\n\
                 \x20   - panicked: credit leak\n"
            )
        );
        let json = report.to_json();
        assert!(json.contains("\"divergent\": 1,\n"), "{json}");
        assert!(json.contains("\"divergences\": []\n    },\n"), "the clean case: {json}");
        assert!(
            json.contains(&format!(
                "      \"divergences\": [\"panicked: credit leak\", \"panicked: late\"],\n      \"shrunk\": {{\n\
                 \x20       \"spec\": \"{}\",\n        \"conns\": 1,\n\
                 \x20       \"cycles\": 64,\n        \"attempts\": 17,\n\
                 \x20       \"divergences\": [\"panicked: credit leak\"]\n      }}\n    }}\n  ]\n}}\n",
                escape(&spec)
            )),
            "{json}"
        );
    }

    /// A case whose run panics is divergent, not the end of the campaign:
    /// it keeps its seed, the cases beside it still run, and the shrinker
    /// reduces it like any other divergence.
    #[test]
    fn a_panicking_case_is_reported_and_shrunk() {
        // Cases 1, 2 and 4 of this campaign hold five or more connections.
        let cfg = RunConfig { base_seed: 0x5EED, cases: 6, opts: SweepOptions::serial() };
        let report = run_with(&cfg, |s: &Scenario| {
            assert!(s.conns.len() < 5, "{} connections", s.conns.len());
            CaseRun::default()
        });
        let divergent: Vec<&CaseOutcome> =
            report.outcomes.iter().filter(|c| !c.run.is_clean()).collect();
        let indices: Vec<usize> = divergent.iter().map(|c| c.index).collect();
        assert_eq!((report.divergent, indices), (3, vec![1, 2, 4]), "{}", report.to_text());
        for case in divergent {
            let message = format!("{} connections", Scenario::generate(case.seed).conns.len());
            assert_eq!(case.run.divergences, [Divergence::Panicked { message }]);
            let shrunk = case.shrunk.as_ref().expect("a panicking case is shrunk");
            assert_eq!(shrunk.scenario.conns.len(), 5, "the fewest connections that still panic");
            let message = "5 connections".to_string();
            assert_eq!(shrunk.divergences, [Divergence::Panicked { message }]);
        }
    }

    #[test]
    fn json_escapes_are_safe() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
