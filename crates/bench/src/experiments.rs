//! The four single runs of the command line: `router` (§5's router at one
//! offered load), `network` (the §3.5 EPB fabric), `calls` (§4.1 call-level
//! admission) and `cost` (the hardware-feasibility model).
//!
//! Each reads its valued flags through [`Values`] and refuses what it
//! cannot run — a value out of range or wider than its field, a router
//! [`RouterConfig::validate`] rejects, a window that measures nothing —
//! before it runs anything. The report is the text to print; all but
//! `cost` also carry a one-line JSON record for `--out`.

use mmr_core::arbiter::ArbiterKind;
use mmr_core::cost::CostModel;
use mmr_core::router::RouterConfig;
use mmr_net::{NetExperiment, Topology};
use mmr_sim::SeededRng;
use mmr_traffic::calls::{run_calls, CallWorkload};
use mmr_traffic::rates::paper_rate_ladder;

use crate::campaign::{Output, Value};
use crate::cli::{Request, Values};
use crate::{experiment, Quality};

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

/// The `--ports`, `--vcs` and `--candidates` of the router under study —
/// the paper's 8 × 8 with 256 VCs and 8 candidates unless given — held to
/// [`RouterConfig::validate`], and the cost model of that router.
fn dimensions(v: &Values) -> Result<(RouterConfig, CostModel), String> {
    let (ports, vcs, candidates) =
        (v.get("ports", 8)?, v.get("vcs", 256)?, v.get("candidates", 8)?);
    let config =
        RouterConfig::paper_default().ports(ports).vcs_per_port(vcs).candidates(candidates);
    config.validate().map_err(|e| e.to_string())?;
    let (ports, vcs_per_port) = (usize::from(ports), usize::from(vcs));
    Ok((config, CostModel { ports, vcs_per_port, candidates, ..CostModel::paper_default() }))
}

/// A measurement window or horizon in cycles: an empty one would report
/// its means as NaN.
fn cycles(v: &Values, name: &str, default: u64) -> Result<u64, String> {
    match v.get(name, default)? {
        0 => Err(format!("--{name} must be at least 1 cycle, got 0")),
        n => Ok(n),
    }
}

/// The report's text and its one-line JSON record.
fn report(text: String, record: Option<&[(&str, Value)]>) -> Result<Output, String> {
    let json = record.map(|fields| {
        let fields: Vec<String> =
            fields.iter().map(|(k, v)| format!("\"{k}\": {}", v.json())).collect();
        format!("{{{}}}\n", fields.join(", "))
    });
    Ok(Output { text, json, files: Vec::new(), verdict: Ok(()) })
}

/// `router`: the paper's single-router experiment at one offered load,
/// with the per-rate-class breakdown.
pub(crate) fn router(request: &Request) -> Result<Output, String> {
    let v = &request.values;
    let config = dimensions(v)?.0.arbiter(arbiter_from(v.text("arbiter").unwrap_or("biased"))?);
    let load = v.load(0.8)?;
    let windows = Quality {
        warmup: v.get("warmup", 10_000)?,
        measure: cycles(v, "measure", 50_000)?,
        loads: Vec::new(),
    };
    let r = experiment(config, load, &windows, request.seed.unwrap_or(1999)).run();
    let mut text = [
        format!("single-router experiment @ {:.0}% offered load\n", r.offered_load * 100.0),
        format!("  connections     {}\n", r.connections),
        format!(
            "  delay           {:.2} cycles ({:.3} us)\n",
            r.mean_delay_cycles, r.mean_delay_us
        ),
        format!("  jitter          {:.2} cycles\n", r.mean_jitter_cycles),
        format!("  utilization     {:.1}%\n", r.utilization * 100.0),
        "  per rate class:\n".to_string(),
    ]
    .concat();
    text.extend(r.per_rate.iter().map(|c| {
        format!(
            "    {:>12}: delay {:>8.2} cyc, jitter {:>8.2} cyc ({} flits)\n",
            c.rate.to_string(),
            c.mean_delay_cycles,
            c.mean_jitter_cycles,
            c.flits
        )
    }));
    let record = [
        ("offered_load", Value::Fixed(r.offered_load, 4)),
        ("connections", Value::Int(r.connections as u64)),
        ("mean_delay_cycles", Value::Fixed(r.mean_delay_cycles, 4)),
        ("mean_delay_us", Value::Fixed(r.mean_delay_us, 4)),
        ("mean_jitter_cycles", Value::Fixed(r.mean_jitter_cycles, 4)),
        ("utilization", Value::Fixed(r.utilization, 4)),
        ("flits_measured", Value::Int(r.flits_measured)),
    ];
    report(text, Some(&record))
}

/// `network`: CBR streams set up by EPB across a small fabric of MMRs.
pub(crate) fn network(request: &Request) -> Result<Output, String> {
    let v = &request.values;
    let seed = request.seed.unwrap_or(2026);
    let topology = topology_from(v.text("topology").unwrap_or("mesh3x3"), seed)?;
    let router = RouterConfig::paper_default().vcs_per_port(32).candidates(4);
    let r = NetExperiment::new(topology, router, v.load(0.4)?)
        .windows(v.get("warmup", 3_000)?, cycles(v, "measure", 15_000)?)
        .seed(seed)
        .admission_attempts(v.get("admission-attempts", 400)?)
        .run();
    let text = [
        format!("network experiment @ {:.0}% offered load\n", r.offered_load * 100.0),
        format!("  streams            {}\n", r.streams),
        format!(
            "  end-to-end latency {:.2} cycles ({:.3} us)\n",
            r.mean_latency_cycles, r.mean_latency_us
        ),
        format!("  end-to-end jitter  {:.2} cycles\n", r.mean_jitter_cycles),
        format!("  flits delivered    {}\n", r.flits_delivered),
        format!("  out of order       {}\n", r.out_of_order),
        format!("  admission rejected {}\n", r.admission_rejected),
    ];
    let record = [
        ("offered_load", Value::Fixed(r.offered_load, 4)),
        ("streams", Value::Int(r.streams as u64)),
        ("mean_latency_cycles", Value::Fixed(r.mean_latency_cycles, 4)),
        ("mean_latency_us", Value::Fixed(r.mean_latency_us, 4)),
        ("mean_jitter_cycles", Value::Fixed(r.mean_jitter_cycles, 4)),
        ("flits_delivered", Value::Int(r.flits_delivered)),
        ("out_of_order", Value::Int(r.out_of_order)),
        ("admission_rejected", Value::Int(u64::from(r.admission_rejected))),
    ];
    report(text.concat(), Some(&record))
}

/// `calls`: Poisson call arrivals against one router's admission control.
pub(crate) fn calls(request: &Request) -> Result<Output, String> {
    let v = &request.values;
    let workload = CallWorkload {
        arrival_rate: v.positive("arrival", 0.01)?,
        mean_holding: v.positive("holding", 20_000.0)?,
        ladder: paper_rate_ladder().to_vec(),
        seed: request.seed.unwrap_or(55),
    };
    let config = RouterConfig::paper_default().vcs_per_port(v.get("vcs", 128)?).seed(workload.seed);
    config.validate().map_err(|e| e.to_string())?;
    let s = run_calls(&mut config.build(), &workload, cycles(v, "cycles", 400_000)?);
    let (erlangs, blocking) = (workload.offered_erlangs(), s.blocking_probability());
    let text = [
        format!("call-level admission @ {erlangs:.1} offered erlangs\n"),
        format!("  calls offered        {}\n", s.offered),
        format!("  admitted             {}\n", s.admitted),
        format!("  blocked (bandwidth)  {}\n", s.blocked_bandwidth),
        format!("  blocked (VCs)        {}\n", s.blocked_vcs),
        format!("  blocking probability {:.2}%\n", blocking * 100.0),
        format!("  carried erlangs      {:.1}\n", s.carried_erlangs),
    ];
    let record = [
        ("offered_erlangs", Value::Fixed(erlangs, 2)),
        ("offered_calls", Value::Int(s.offered)),
        ("admitted", Value::Int(s.admitted)),
        ("blocked_bandwidth", Value::Int(s.blocked_bandwidth)),
        ("blocked_vcs", Value::Int(s.blocked_vcs)),
        ("blocking_probability", Value::Fixed(blocking, 4)),
        ("carried_erlangs", Value::Fixed(s.carried_erlangs, 2)),
    ];
    report(text.concat(), Some(&record))
}

/// `cost`: the hardware model's scheduling delays and the fastest link it
/// can keep up with.
pub(crate) fn cost(request: &Request) -> Result<Output, String> {
    let v = &request.values;
    let (_, m) = dimensions(v)?;
    let m = CostModel { ns_per_gate: v.positive("ns-per-gate", m.ns_per_gate)?, ..m };
    let text = [
        format!(
            "hardware model: {} ports, {} VCs/port, {} candidates, {} ns/gate\n",
            m.ports, m.vcs_per_port, m.candidates, m.ns_per_gate
        ),
        format!("  candidate selection  {:.1} gates\n", m.candidate_select_delay()),
        format!("  switch arbitration   {:.1} gates\n", m.switch_arbitration_delay()),
        format!("  schedule time        {:.1} ns\n", m.schedule_time_ns()),
        format!(
            "  max link rate        {:.2} Gbps (128-bit flits)\n",
            m.max_link_rate(128).bits_per_sec() / 1e9
        ),
    ];
    report(text.concat(), None)
}
