//! The `mmr-bench` command line: one registry of campaigns, one strict
//! argument parser, one runner, and `check` — every campaign's quick grid
//! at `--jobs 1` vs `--jobs 4`, bytes compared, verdicts enforced.
//!
//! ```text
//! mmr-bench <campaign> [part ...] [--table PATH] [flags]
//! mmr-bench check [campaign ...]
//! ```
//!
//! A run prints its text rendering; `--table` also writes it to a file,
//! `--out` writes the JSON record and `paper --dir` writes each of its four
//! renderings to its own file. Nothing is written unless asked for, so
//! no invocation can clobber a committed artefact by accident. Anything the
//! parser does not recognise — a flag, a flag for another campaign, a
//! missing or malformed value, a campaign or part name — and any value an
//! entry refuses before it runs, a file destination in a missing directory
//! among them, is a usage error (exit 2), never a guess.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mmr_conform::{parse_seed, RunConfig};
use mmr_sim::sweep::SweepOptions;
use mmr_sim::SweepTable;

use crate::campaign::{self, Campaign, Output};
use crate::churn::Churn;
use crate::experiments::{calls, cost, network, router};
use crate::faults::{Chaos, Faults};
use crate::scale::Scale;
use crate::{ablations, extensions, render_tables, Quality};

/// What one campaign run was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// `--quick`: the CI-sized grid / windows instead of the paper's.
    pub quick: bool,
    /// Worker count (`--jobs`, default all cores) and engine (`--dense`).
    pub opts: SweepOptions,
    /// Sub-experiments selected by name; empty selects all.
    pub parts: Vec<&'static str>,
    /// `--plot`: an ASCII rendering under each table.
    pub plot: bool,
    /// `--table PATH`: also write the text rendering there.
    pub table: Option<String>,
    /// `--out PATH`: write the JSON record there.
    pub out: Option<String>,
    /// `--dir DIR`: write each of the run's files there.
    pub dir: Option<String>,
    /// `--seed S`: base seed, decimal, `0x` hex or a mnemonic; each entry
    /// has its own default.
    pub seed: Option<u64>,
    /// Every other valued flag (`--load 0.5`), read where it is used.
    pub values: Values,
}

/// Valued flags as typed, read by name (`"load"` for `--load`) and parsed
/// at the width of the field each one feeds, so an out-of-range number is
/// an error rather than a silent wrap. The last occurrence wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(String, String)>);

impl Values {
    /// The flag's text, if given.
    pub(crate) fn text(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The flag parsed as a `T`, or `default` when absent.
    pub(crate) fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.text(name) {
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}: {v}")),
            None => Ok(default),
        }
    }

    /// `--load`: an offered load, a fraction of the switch bandwidth.
    pub(crate) fn load(&self, default: f64) -> Result<f64, String> {
        let load = self.get("load", default)?;
        if (0.0..=1.0).contains(&load) {
            Ok(load)
        } else {
            Err(format!("--load must be between 0 and 1, got {load}"))
        }
    }

    /// A rate or duration that must be positive and finite.
    pub(crate) fn positive(&self, name: &str, default: f64) -> Result<f64, String> {
        let x = self.get(name, default)?;
        if x > 0.0 && x.is_finite() {
            Ok(x)
        } else {
            Err(format!("--{name} must be positive and finite, got {x}"))
        }
    }
}

impl Request {
    /// A request for everything the campaign offers.
    pub fn new(quick: bool, opts: SweepOptions) -> Self {
        Request {
            quick,
            opts,
            parts: Vec::new(),
            plot: false,
            table: None,
            out: None,
            dir: None,
            seed: None,
            values: Values::default(),
        }
    }

    fn quality(&self) -> Quality {
        if self.quick {
            Quality::quick()
        } else {
            Quality::paper()
        }
    }

    /// Trial count of a seed-replicated extension: a quarter of the paper
    /// figure under `--quick`.
    fn trials(&self, paper: u64) -> u64 {
        if self.quick {
            paper / 4
        } else {
            paper
        }
    }

    /// Runs the selected parts (all when none is named), in table order.
    fn run_parts(&self, parts: &[Part]) -> Result<Output, String> {
        let selected =
            parts.iter().filter(|(name, _)| self.parts.is_empty() || self.parts.contains(name));
        let tables: Vec<SweepTable> = selected.map(|(_, sweep)| sweep(self)).collect();
        let text = render_tables(&tables, self.plot);
        Ok(Output { text, json: None, files: Vec::new(), verdict: Ok(()) })
    }
}

/// A named sub-experiment of a campaign.
pub type Part = (&'static str, fn(&Request) -> SweepTable);

/// One runnable campaign.
pub struct Entry {
    /// `mmr-bench <name>`.
    pub name: &'static str,
    /// Sub-experiments selectable by positional name.
    pub parts: &'static [Part],
    /// Flags accepted besides the common `--table`, spelt as in the usage
    /// text (`--panel a|b`).
    pub flags: &'static [&'static str],
    /// Runs the campaign; `Err` refuses the request before anything ran.
    pub run: fn(&Request) -> Result<Output, String>,
}

impl Entry {
    fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|spelling| spelling.split(' ').next() == Some(flag))
    }
}

const ABLATIONS: &[Part] = &[
    ("link-speed", |r| ablations::link_speed(&r.quality(), &r.opts)),
    ("candidates", |r| ablations::candidates(&r.quality(), &r.opts)),
    ("round-k", |r| ablations::round_k(&r.quality(), &r.opts)),
    ("vc-count", |r| ablations::vc_count(&r.quality(), &r.opts)),
    ("vcm-banks", |r| ablations::vcm_banks(&r.quality(), &r.opts)),
    ("candidate-policy", |r| ablations::candidate_policy(&r.quality(), &r.opts)),
    ("hardware-cost", |r| ablations::hardware_cost(&r.quality())),
];

const EXTENSIONS: &[Part] = &[
    ("vbr", |r| extensions::vbr_concurrency(&r.quality(), &r.opts)),
    ("hybrid", |r| extensions::hybrid(&r.quality(), &r.opts)),
    ("epb", |r| extensions::epb_vs_greedy(r.trials(24), &r.opts)),
    ("setup-latency", |r| extensions::setup_latency(r.trials(16), &r.opts)),
    ("calls", |r| extensions::call_blocking(&r.quality(), &r.opts)),
    ("faults", |r| extensions::fault_recovery(r.trials(24), &r.opts)),
    ("network-load", |r| extensions::network_load(&r.quality(), &r.opts)),
];

/// Figures 3–5 and the §5.2 claims table from one run of each grid; fails
/// the run when a claim stops holding.
fn paper(request: &Request) -> Result<Output, String> {
    let paper = crate::paper(&request.quality(), &request.opts);
    let failures = paper.claims.iter().filter(|row| !row.holds).count();
    let verdict = (failures == 0).then_some(()).ok_or(format!("{failures} claim(s) did not hold"));
    let files = paper.files(request.plot).to_vec();
    let text = files.iter().map(|(_, text)| text.as_str()).collect();
    Ok(Output { text, json: None, files, verdict })
}

/// The conformance campaign a request asks for; its defaults (200 cases
/// from seed `0xMMR5`, the default engines) are the fuzz gate `check` runs.
fn conform_config(request: &Request) -> Result<RunConfig, String> {
    let cases = request.values.get("cases", 200);
    Ok(RunConfig {
        base_seed: request.seed.unwrap_or_else(|| parse_seed("0xMMR5")),
        cases: cases.map_err(|_| "--cases expects a non-negative integer")?,
        opts: request.opts,
    })
}

/// Seeded scenarios against the reference-model oracle, divergent ones
/// shrunk; fails the run when any case diverged.
fn conform(request: &Request) -> Result<Output, String> {
    let report = mmr_conform::run(&conform_config(request)?);
    let diverged = format!("{} case(s) diverged from the reference model", report.divergent);
    let verdict = report.is_clean().then_some(()).ok_or(diverged);
    Ok(Output { text: report.to_text(), json: Some(report.to_json()), files: Vec::new(), verdict })
}

const fn grid_campaign<C: Campaign>() -> Entry {
    Entry {
        name: C::NAME,
        parts: &[],
        flags: &["--quick", "--jobs N", "--out PATH"],
        run: |r| Ok(campaign::run_cells::<C>(&C::grid(r.quick), &r.opts)),
    }
}

/// The flags of a campaign with a quick grid and a worker pool.
const SWEEP: &[&str] = &["--quick", "--jobs N"];

/// Every campaign `mmr-bench` can run, in `check` order.
pub const REGISTRY: &[Entry] = &[
    Entry {
        name: "paper",
        parts: &[],
        flags: &["--quick", "--jobs N", "--plot", "--dense", "--dir DIR"],
        run: paper,
    },
    Entry { name: "ablations", parts: ABLATIONS, flags: SWEEP, run: |r| r.run_parts(ABLATIONS) },
    Entry { name: "extensions", parts: EXTENSIONS, flags: SWEEP, run: |r| r.run_parts(EXTENSIONS) },
    grid_campaign::<Faults>(),
    grid_campaign::<Chaos>(),
    grid_campaign::<Churn>(),
    grid_campaign::<Scale>(),
    Entry {
        name: "conform",
        parts: &[],
        flags: &["--jobs N", "--seed S", "--cases K", "--dense", "--out PATH"],
        run: conform,
    },
    Entry {
        name: "router",
        parts: &[],
        flags: &[
            "--load L",
            "--arbiter biased|fixed|autonet|islip|rr|oldest|perfect",
            "--candidates C",
            "--vcs V",
            "--ports P",
            "--warmup N",
            "--measure N",
            "--seed S",
            "--out PATH",
        ],
        run: router,
    },
    Entry {
        name: "network",
        parts: &[],
        flags: &[
            "--topology mesh3x3|mesh4x4|torus3x3|ring6|irregular10",
            "--load L",
            "--warmup N",
            "--measure N",
            "--seed S",
            "--admission-attempts N",
            "--out PATH",
        ],
        run: network,
    },
    Entry {
        name: "calls",
        parts: &[],
        flags: &["--arrival R", "--holding T", "--cycles N", "--vcs V", "--seed S", "--out PATH"],
        run: calls,
    },
    Entry {
        name: "cost",
        parts: &[],
        flags: &["--candidates C", "--vcs V", "--ports P", "--ns-per-gate NS"],
        run: cost,
    },
];

/// A parsed command line.
pub enum Command {
    /// Run one campaign.
    Run(&'static Entry, Request),
    /// The determinism gate over the named campaigns (all when none named).
    Check(Vec<&'static Entry>),
}

fn find(name: &str) -> Result<&'static Entry, String> {
    let entry = REGISTRY.iter().find(|entry| entry.name == name);
    entry.ok_or_else(|| format!("unknown campaign '{name}'"))
}

/// Parses the arguments after the program name. `Err` is the complaint to
/// print above [`usage`] before exiting 2.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter().map(String::as_str);
    let name = args.next().ok_or("no campaign named")?;
    if name == "check" {
        let named = args.map(find).collect::<Result<Vec<_>, _>>()?;
        return Ok(Command::Check(if named.is_empty() {
            REGISTRY.iter().collect()
        } else {
            named
        }));
    }
    let entry = find(name)?;
    let mut request = Request::new(false, SweepOptions::all_cores());
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} expects a value"))
        };
        match arg {
            "--table" => request.table = Some(value()?.to_string()),
            flag if flag.starts_with("--") && !entry.accepts(flag) => {
                return Err(format!("unknown flag '{flag}' for {}", entry.name));
            }
            "--quick" => request.quick = true,
            "--jobs" => {
                request.opts.jobs = value()?
                    .parse()
                    .ok()
                    .filter(|&jobs| jobs >= 1)
                    .ok_or("--jobs expects a positive integer")?;
            }
            "--out" => request.out = Some(value()?.to_string()),
            "--dir" => request.dir = Some(value()?.to_string()),
            "--dense" => request.opts.dense = true,
            "--plot" => request.plot = true,
            "--seed" => request.seed = Some(parse_seed(value()?)),
            flag if flag.starts_with("--") => {
                let value = value()?.to_string();
                request.values.0.push((flag[2..].to_string(), value));
            }
            part => match entry.parts.iter().find(|(name, _)| *name == part) {
                Some((name, _)) => request.parts.push(*name),
                None => return Err(format!("unknown {} name '{part}'", entry.name)),
            },
        }
    }
    Ok(Command::Run(entry, request))
}

/// The usage text, generated from the registry.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: mmr-bench <campaign> [part ...] [--table PATH] [flags]\n\
         \x20      mmr-bench check [campaign ...]\ncampaigns:\n",
    );
    for entry in REGISTRY {
        text.push_str(&format!("  {}", entry.name));
        if !entry.parts.is_empty() {
            let names: Vec<&str> = entry.parts.iter().map(|(name, _)| *name).collect();
            text.push_str(&format!(" [{} ...]", names.join("|")));
        }
        for flag in entry.flags {
            text.push_str(&format!(" [{flag}]"));
        }
        text.push('\n');
    }
    text
}

/// Refuses a `--table`, `--out` or `--dir` destination in a directory that
/// does not exist, so a run that could not save its result never starts.
fn check_destinations(request: &Request) -> Result<(), String> {
    let files = [&request.table, &request.out].into_iter().flatten();
    let parents = files.filter_map(|file| Path::new(".").join(file).parent().map(Path::to_path_buf));
    match parents.chain(request.dir.iter().map(PathBuf::from)).find(|dir| !dir.is_dir()) {
        Some(dir) => Err(format!("no directory {}", dir.display())),
        None => Ok(()),
    }
}

fn write(path: Option<&str>, content: &str) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Runs a parsed command: exit 0 on success, 1 when a verdict or the
/// determinism gate fails or a file cannot be written. `Err` is a request
/// the entry refused before running anything, to report as [`parse`]'s.
pub fn execute(command: Command) -> Result<ExitCode, String> {
    let result = match command {
        Command::Check(entries) => check(&entries),
        Command::Run(entry, request) => {
            check_destinations(&request)?;
            let output = (entry.run)(&request)?;
            print!("{}", output.text);
            write(request.table.as_deref(), &output.text)
                .and_then(|()| write(request.out.as_deref(), &output.json.unwrap_or_default()))
                .and_then(|()| {
                    let Some(dir) = &request.dir else { return Ok(()) };
                    let mut files = output.files.iter();
                    files.try_for_each(|(name, text)| write(Some(&format!("{dir}/{name}")), text))
                })
                .and(output.verdict)
        }
    };
    Ok(result.map_or_else(
        |why| {
            eprintln!("FAIL: {why}");
            ExitCode::FAILURE
        },
        |()| ExitCode::SUCCESS,
    ))
}

/// Runs each entry's quick grid with one worker and with four; the bytes
/// must match and the verdict must pass.
fn check(entries: &[&'static Entry]) -> Result<(), String> {
    let mut failed = Vec::new();
    for entry in entries {
        let gate = campaign::jobs_identity(|opts| (entry.run)(&Request::new(true, *opts)))
            .flatten()
            .and_then(|output| output.verdict);
        match gate {
            Ok(()) => println!("ok    {}", entry.name),
            Err(why) => {
                println!("FAIL  {}: {why}", entry.name);
                failed.push(entry.name);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("check failed for: {}", failed.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(&words.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    fn request(words: &[&str]) -> Request {
        match parse_words(words) {
            Ok(Command::Run(entry, request)) if entry.name == words[0] => request,
            _ => panic!("{words:?} should run {}", words[0]),
        }
    }

    #[test]
    fn well_formed_command_lines_parse() {
        let faults =
            request(&["faults", "--quick", "--jobs", "3", "--out", "f.json", "--table", "f.txt"]);
        assert!(faults.quick);
        assert_eq!(faults.opts, SweepOptions { jobs: 3, dense: false });
        assert_eq!(
            (faults.table.as_deref(), faults.out.as_deref()),
            (Some("f.txt"), Some("f.json"))
        );

        let paper = request(&["paper", "--dir", "results", "--plot", "--dense"]);
        assert_eq!(paper.dir.as_deref(), Some("results"));
        assert!(paper.plot && paper.opts.dense && !paper.quick);
        assert_eq!(request(&["ablations", "round-k", "vc-count"]).parts, ["round-k", "vc-count"]);

        let gate = conform_config(&request(&["conform"])).expect("the default campaign runs");
        assert_eq!((gate.base_seed, gate.cases), (parse_seed("0xMMR5"), 200));
        assert!(!gate.opts.dense);
        let words = ["conform", "--seed", "0x2A", "--cases", "5", "--dense"];
        let dense = conform_config(&request(&words)).expect("a dense campaign runs");
        assert_eq!((dense.base_seed, dense.cases), (42, 5));
        assert!(dense.opts.dense);

        // Seeds are decimal too; a repeated value flag takes its last value.
        let router = request(&["router", "--load", "0.5", "--seed", "7", "--load", "0.6"]);
        assert_eq!((router.seed, router.values.load(0.8)), (Some(7), Ok(0.6)));

        let checked = |words: &[&str]| match parse_words(words) {
            Ok(Command::Check(entries)) => entries.len(),
            _ => panic!("{words:?} should be a check"),
        };
        assert_eq!(checked(&["check"]), REGISTRY.len());
        assert_eq!(checked(&["check", "scale", "conform"]), 2);
    }

    /// `Entry::flags` says which flags a campaign takes, `parse`'s arms what
    /// they do; a switch without its arm would be read as a valued flag and
    /// demand a value, a spelling the entry does not accept is unknown.
    #[test]
    fn every_advertised_flag_has_a_parse_arm() {
        for entry in REGISTRY {
            for spelling in entry.flags {
                let mut words = vec![entry.name];
                words.extend(spelling.split(' '));
                let refused = matches!(parse_words(&words),
                    Err(why) if why.starts_with("unknown") || why.ends_with("expects a value"));
                assert!(!refused, "{} advertises {spelling}; parse has no arm for it", entry.name);
            }
        }
    }
}
