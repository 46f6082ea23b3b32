//! `mmr-cli` — run MMR experiments from the command line.
//!
//! ```text
//! mmr-cli router  [--load 0.8] [--arbiter biased|fixed|autonet|islip|rr|oldest|perfect]
//!                 [--candidates 8] [--vcs 256] [--ports 8] [--warmup N] [--measure N]
//!                 [--seed N] [--json]
//! mmr-cli network [--topology mesh3x3|mesh4x4|torus3x3|ring6|irregular10] [--load 0.4]
//!                 [--warmup N] [--measure N] [--seed N] [--admission-attempts 400] [--json]
//! mmr-cli calls   [--arrival 0.01] [--holding 20000] [--cycles 400000] [--vcs 128]
//!                 [--seed N] [--json]
//! mmr-cli cost    [--candidates 8] [--vcs 256] [--ports 8] [--ns-per-gate 0.8]
//! ```
//!
//! Every subcommand prints a human-readable report by default, or a flat
//! JSON object with `--json` for scripting. Input that cannot be run — an
//! unknown flag, a missing or out-of-range value, a router no
//! [`RouterConfig::validate`] accepts — exits 2 with `error: …` on stderr.

use std::fmt::Display;
use std::str::FromStr;

use mmr::core::arbiter::ArbiterKind;
use mmr::core::cost::CostModel;
use mmr::core::router::RouterConfig;
use mmr::net::{NetExperiment, Topology};
use mmr::sim::SeededRng;
use mmr::traffic::calls::{run_calls, CallWorkload};
use mmr::traffic::driver::Experiment;

/// One subcommand's flags, checked against the list it declares: an unknown
/// flag, a flag without its value or a stray word is an error, not ignored.
struct Args {
    values: Vec<(String, String)>,
    json: bool,
}

impl Args {
    /// Parses `argv` (after the subcommand); every flag in `valued` takes
    /// one value, `--json` (where `json_ok`) takes none.
    fn parse(argv: &[String], valued: &[&str], json_ok: bool) -> Result<Args, String> {
        let mut args = Args { values: Vec::new(), json: false };
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("json") if json_ok => args.json = true,
                Some(name) if valued.contains(&name) => {
                    let value = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.values.push((name.to_owned(), value.clone()));
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => return Err(format!("unexpected argument: {arg}")),
            }
        }
        Ok(args)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The flag parsed at the width of the field it feeds, so an
    /// out-of-range number is an error rather than a silent wrap.
    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.text(name) {
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}: {v}")),
            None => Ok(default),
        }
    }

    /// An offered load: a fraction of the switch bandwidth.
    fn load(&self, default: f64) -> Result<f64, String> {
        let load = self.get("load", default)?;
        if (0.0..=1.0).contains(&load) {
            Ok(load)
        } else {
            Err(format!("--load must be between 0 and 1, got {load}"))
        }
    }

    /// A rate or duration that must be positive and finite.
    fn positive(&self, name: &str, default: f64) -> Result<f64, String> {
        let x = self.get(name, default)?;
        if x > 0.0 && x.is_finite() {
            Ok(x)
        } else {
            Err(format!("--{name} must be positive and finite, got {x}"))
        }
    }
}

fn arbiter_from(name: &str) -> Result<ArbiterKind, String> {
    Ok(match name {
        "biased" => ArbiterKind::BiasedPriority,
        "fixed" => ArbiterKind::FixedPriority,
        "autonet" | "dec" | "pim" => ArbiterKind::autonet_default(),
        "islip" => ArbiterKind::Islip { iterations: 4 },
        "rr" | "round-robin" => ArbiterKind::RoundRobin,
        "oldest" | "fcfs" => ArbiterKind::OldestFirst,
        "perfect" => ArbiterKind::Perfect,
        other => return Err(format!("unknown arbiter: {other}")),
    })
}

fn topology_from(name: &str, seed: u64) -> Result<Topology, String> {
    match name {
        "mesh3x3" => Topology::mesh2d(3, 3, 8),
        "mesh4x4" => Topology::mesh2d(4, 4, 8),
        "torus3x3" => Topology::torus2d(3, 3, 8),
        "ring6" => Topology::ring(6, 4),
        "irregular10" => Topology::irregular(10, 6, 5, &mut SeededRng::new(seed)),
        other => {
            return Err(format!(
                "unknown topology: {other} (use mesh3x3|mesh4x4|torus3x3|ring6|irregular10)"
            ))
        }
    }
    .map_err(|e| format!("topology {name}: {e}"))
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn cmd_router(argv: &[String]) -> Result<(), String> {
    let valued = ["load", "arbiter", "candidates", "vcs", "ports", "warmup", "measure", "seed"];
    let args = Args::parse(argv, &valued, true)?;
    let config = RouterConfig::paper_default()
        .ports(args.get("ports", 8)?)
        .vcs_per_port(args.get("vcs", 256)?)
        .candidates(args.get("candidates", 8)?)
        .arbiter(arbiter_from(args.text("arbiter").unwrap_or("biased"))?);
    config.validate().map_err(|e| e.to_string())?;
    let result = Experiment::new(config, args.load(0.8)?)
        .windows(args.get("warmup", 10_000)?, args.get("measure", 50_000)?)
        .seed(args.get("seed", 1999)?)
        .run();
    if args.json {
        println!(
            "{}",
            json_object(&[
                ("offered_load", format!("{:.4}", result.offered_load)),
                ("connections", result.connections.to_string()),
                ("mean_delay_cycles", format!("{:.4}", result.mean_delay_cycles)),
                ("mean_delay_us", format!("{:.4}", result.mean_delay_us)),
                ("mean_jitter_cycles", format!("{:.4}", result.mean_jitter_cycles)),
                ("utilization", format!("{:.4}", result.utilization)),
                ("flits_measured", result.flits_measured.to_string()),
            ])
        );
    } else {
        println!("single-router experiment @ {:.0}% offered load", result.offered_load * 100.0);
        println!("  connections     {}", result.connections);
        println!(
            "  delay           {:.2} cycles ({:.3} us)",
            result.mean_delay_cycles, result.mean_delay_us
        );
        println!("  jitter          {:.2} cycles", result.mean_jitter_cycles);
        println!("  utilization     {:.1}%", result.utilization * 100.0);
        println!("  per rate class:");
        for c in &result.per_rate {
            println!(
                "    {:>12}: delay {:>8.2} cyc, jitter {:>8.2} cyc ({} flits)",
                c.rate.to_string(),
                c.mean_delay_cycles,
                c.mean_jitter_cycles,
                c.flits
            );
        }
    }
    Ok(())
}

fn cmd_network(argv: &[String]) -> Result<(), String> {
    let valued = ["topology", "load", "warmup", "measure", "seed", "admission-attempts"];
    let args = Args::parse(argv, &valued, true)?;
    let seed = args.get("seed", 2026)?;
    let topology = topology_from(args.text("topology").unwrap_or("mesh3x3"), seed)?;
    let result = NetExperiment::new(
        topology,
        RouterConfig::paper_default().vcs_per_port(32).candidates(4),
        args.load(0.4)?,
    )
    .windows(args.get("warmup", 3_000)?, args.get("measure", 15_000)?)
    .seed(seed)
    .admission_attempts(args.get("admission-attempts", 400)?)
    .run();
    if args.json {
        println!(
            "{}",
            json_object(&[
                ("offered_load", format!("{:.4}", result.offered_load)),
                ("streams", result.streams.to_string()),
                ("mean_latency_cycles", format!("{:.4}", result.mean_latency_cycles)),
                ("mean_latency_us", format!("{:.4}", result.mean_latency_us)),
                ("mean_jitter_cycles", format!("{:.4}", result.mean_jitter_cycles)),
                ("flits_delivered", result.flits_delivered.to_string()),
                ("out_of_order", result.out_of_order.to_string()),
                ("admission_rejected", result.admission_rejected.to_string()),
            ])
        );
    } else {
        println!("network experiment @ {:.0}% offered load", result.offered_load * 100.0);
        println!("  streams            {}", result.streams);
        println!(
            "  end-to-end latency {:.2} cycles ({:.3} us)",
            result.mean_latency_cycles, result.mean_latency_us
        );
        println!("  end-to-end jitter  {:.2} cycles", result.mean_jitter_cycles);
        println!("  flits delivered    {}", result.flits_delivered);
        println!("  out of order       {}", result.out_of_order);
        println!("  admission rejected {}", result.admission_rejected);
    }
    Ok(())
}

fn cmd_calls(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["arrival", "holding", "cycles", "vcs", "seed"], true)?;
    let workload = CallWorkload {
        arrival_rate: args.positive("arrival", 0.01)?,
        mean_holding: args.positive("holding", 20_000.0)?,
        ladder: mmr::traffic::rates::paper_rate_ladder().to_vec(),
        seed: args.get("seed", 55)?,
    };
    let config =
        RouterConfig::paper_default().vcs_per_port(args.get("vcs", 128)?).seed(workload.seed);
    config.validate().map_err(|e| e.to_string())?;
    let stats = run_calls(&mut config.build(), &workload, args.get("cycles", 400_000)?);
    if args.json {
        println!(
            "{}",
            json_object(&[
                ("offered_erlangs", format!("{:.2}", workload.offered_erlangs())),
                ("offered_calls", stats.offered.to_string()),
                ("admitted", stats.admitted.to_string()),
                ("blocked_bandwidth", stats.blocked_bandwidth.to_string()),
                ("blocked_vcs", stats.blocked_vcs.to_string()),
                ("blocking_probability", format!("{:.4}", stats.blocking_probability())),
                ("carried_erlangs", format!("{:.2}", stats.carried_erlangs)),
            ])
        );
    } else {
        println!("call-level admission @ {:.1} offered erlangs", workload.offered_erlangs());
        println!("  calls offered        {}", stats.offered);
        println!("  admitted             {}", stats.admitted);
        println!("  blocked (bandwidth)  {}", stats.blocked_bandwidth);
        println!("  blocked (VCs)        {}", stats.blocked_vcs);
        println!("  blocking probability {:.2}%", stats.blocking_probability() * 100.0);
        println!("  carried erlangs      {:.1}", stats.carried_erlangs);
    }
    Ok(())
}

fn cmd_cost(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["candidates", "vcs", "ports", "ns-per-gate"], false)?;
    let model = CostModel {
        ports: args.get("ports", 8)?,
        vcs_per_port: args.get("vcs", 256)?,
        candidates: args.get("candidates", 8)?,
        datapath_bits: 128,
        ns_per_gate: args.positive("ns-per-gate", 0.8)?,
    };
    println!(
        "hardware model: {} ports, {} VCs/port, {} candidates, {} ns/gate",
        model.ports, model.vcs_per_port, model.candidates, model.ns_per_gate
    );
    println!("  candidate selection  {:.1} gates", model.candidate_select_delay());
    println!("  switch arbitration   {:.1} gates", model.switch_arbitration_delay());
    println!("  schedule time        {:.1} ns", model.schedule_time_ns());
    println!(
        "  max link rate        {:.2} Gbps (128-bit flits)",
        model.max_link_rate(128).bits_per_sec() / 1e9
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "router" => cmd_router(rest),
        Some((cmd, rest)) if cmd == "network" => cmd_network(rest),
        Some((cmd, rest)) if cmd == "calls" => cmd_calls(rest),
        Some((cmd, rest)) if cmd == "cost" => cmd_cost(rest),
        _ => {
            eprintln!("usage: mmr-cli <router|network|calls|cost> [flags]");
            eprintln!("       (see the module docs of this binary for the flag list)");
            std::process::exit(2);
        }
    };
    if let Err(msg) = outcome {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}
