//! Integration tests for the QoS machinery: VBR three-phase scheduling,
//! hybrid traffic isolation, best-effort reserve, and dynamic
//! control words.

use mmr::core::arbiter::ArbiterKind;
use mmr::core::conn::{ConnectionRequest, QosClass};
use mmr::core::flit::{CommandWord, FlitKind};
use mmr::core::ids::PortId;
use mmr::core::router::RouterConfig;
use mmr::sim::{Bandwidth, Cycles, DelayJitterRecorder, SeededRng, Warmup};
use mmr::traffic::cbr::{CbrSource, CbrWorkload};
use mmr::traffic::rates::paper_rate_ladder;
use mmr::traffic::vbr::{MpegGopModel, VbrSource};

#[test]
fn vbr_permanent_bandwidth_is_guaranteed_under_contention() {
    // A VBR stream's permanent share must survive a CBR-saturated link.
    let mut router = RouterConfig::paper_default().vcs_per_port(32).candidates(8).seed(5).build();
    let timing = router.config().timing();
    let vbr = router
        .establish(ConnectionRequest {
            input: PortId(0),
            output: PortId(1),
            class: QosClass::Vbr {
                permanent: Bandwidth::from_mbps(248.0), // 20%
                peak: Bandwidth::from_mbps(496.0),
                priority: 1,
            },
        })
        .expect("fits");
    // Fill the remaining 80% of output 1 with CBR from other inputs.
    let mut cbr_sources = Vec::new();
    let mut rng = SeededRng::new(5);
    for i in 2..6u8 {
        let conn = router
            .establish(ConnectionRequest {
                input: PortId(i),
                output: PortId(1),
                class: QosClass::Cbr { rate: Bandwidth::from_mbps(248.0) },
            })
            .expect("fits");
        cbr_sources.push(CbrSource::new(conn, timing.interarrival_cycles(Bandwidth::from_mbps(248.0)), &mut rng));
    }
    // Pump the VBR connection at exactly its permanent rate.
    let mut vbr_source =
        CbrSource::new(vbr, timing.interarrival_cycles(Bandwidth::from_mbps(248.0)), &mut rng);
    let total = 20_000u64;
    for t in 0..total {
        let now = Cycles(t);
        vbr_source.pump(&mut router, now);
        for s in &mut cbr_sources {
            s.pump(&mut router, now);
        }
        router.step(now);
    }
    let forwarded = router.connection(vbr).expect("live").flits_forwarded;
    let expected = (total as f64 / timing.interarrival_cycles(Bandwidth::from_mbps(248.0))) as u64;
    assert!(
        forwarded as f64 > expected as f64 * 0.95,
        "VBR permanent share delivered: {forwarded} of ~{expected}"
    );
}

#[test]
fn vbr_excess_follows_dynamic_priority() {
    // Two identical VBR streams overload one output; the higher-priority one
    // gets the excess bandwidth (§4.3: excess serviced in priority order).
    let mut router = RouterConfig::paper_default()
        .vcs_per_port(16)
        .candidates(4)
        .vc_depth(8)
        .seed(6)
        .build();
    let class = |prio| QosClass::Vbr {
        permanent: Bandwidth::from_mbps(124.0), // 10% guaranteed
        peak: Bandwidth::from_gbps(1.24),       // may burst to full link
        priority: prio,
    };
    let high = router
        .establish(ConnectionRequest { input: PortId(0), output: PortId(2), class: class(9) })
        .expect("fits");
    let low = router
        .establish(ConnectionRequest { input: PortId(1), output: PortId(2), class: class(1) })
        .expect("fits");
    // Both try to send at 75% of the link: together they exceed capacity.
    for t in 0..30_000u64 {
        let now = Cycles(t);
        for conn in [high, low] {
            if t % 4 != 3 && router.can_inject(conn) {
                router.inject(conn, now).expect("checked");
            }
        }
        router.step(now);
    }
    let high_fwd = router.connection(high).expect("live").flits_forwarded;
    let low_fwd = router.connection(low).expect("live").flits_forwarded;
    assert!(
        high_fwd > low_fwd + low_fwd / 2,
        "priority 9 ({high_fwd}) gets markedly more excess than priority 1 ({low_fwd})"
    );
    // But the low-priority stream still received its permanent share.
    let permanent_share = 30_000 / 10; // 10% of cycles
    assert!(
        low_fwd as f64 > permanent_share as f64 * 0.9,
        "low priority keeps its permanent bandwidth: {low_fwd} >= ~{permanent_share}"
    );
}

#[test]
fn streams_keep_their_jitter_when_best_effort_floods() {
    // §2: "The MMR should handle this hybrid traffic efficiently."
    let measure = |with_flood: bool| -> f64 {
        let mut router =
            RouterConfig::paper_default().vcs_per_port(64).candidates(8).seed(8).build();
        let mut rng = SeededRng::new(8);
        let mut streams = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.5, &mut rng);
        let mut recorder = DelayJitterRecorder::new();
        let warmup = Warmup::until(Cycles(4_000));
        let mut flood_rng = SeededRng::new(88);
        for t in 0..20_000u64 {
            let now = Cycles(t);
            streams.pump(&mut router, now);
            if with_flood {
                for p in 0..8u8 {
                    if flood_rng.chance(0.3) {
                        let dest = PortId(flood_rng.index(8) as u8);
                        let _ = router.inject_packet(PortId(p), dest, FlitKind::BestEffort, now);
                    }
                }
            }
            let report = router.step(now);
            if warmup.measuring(now) {
                for tx in &report.transmitted {
                    if tx.flit.kind == FlitKind::Data {
                        recorder.record(tx.conn.raw(), tx.delay);
                    }
                }
            }
        }
        recorder.mean_jitter_cycles()
    };
    let quiet = measure(false);
    let flooded = measure(true);
    assert!(
        flooded < quiet * 3.0 + 3.0,
        "stream jitter under flood ({flooded:.2}) stays near quiet baseline ({quiet:.2})"
    );
}

#[test]
fn best_effort_reserve_prevents_starvation() {
    // §4.2: "it is possible to reserve some bandwidth/round for best-effort
    // traffic in order to prevent starvation of best-effort packets."
    let deliveries = |reserve: f64| -> u64 {
        // 128 VCs per port so the VC pools never bind — the reserve under
        // test is about *bandwidth*, not channel exhaustion.
        let mut router = RouterConfig::paper_default()
            .vcs_per_port(128)
            .candidates(8)
            .best_effort_reserve(reserve)
            .seed(9)
            .build();
        // Saturate every output with CBR as far as admission allows.
        let mut rng = SeededRng::new(9);
        let mut streams = CbrWorkload::build(&mut router, &paper_rate_ladder(), 1.0, &mut rng);
        let mut delivered = 0u64;
        let mut be_rng = SeededRng::new(99);
        for t in 0..10_000u64 {
            let now = Cycles(t);
            streams.pump(&mut router, now);
            // Heavy best-effort demand: one packet offered every cycle.
            let src = PortId(be_rng.index(8) as u8);
            let dst = PortId(be_rng.index(8) as u8);
            let _ = router.inject_packet(src, dst, FlitKind::BestEffort, now);
            let report = router.step(now);
            delivered +=
                report.transmitted.iter().filter(|t| t.flit.kind == FlitKind::BestEffort).count()
                    as u64;
        }
        delivered
    };
    let without = deliveries(0.0);
    let with = deliveries(0.15);
    assert!(
        with as f64 > without as f64 * 1.2,
        "a 15% reserve delivers markedly more best-effort packets ({with}) than none ({without})"
    );
    assert!(with > 1_000, "reserved bandwidth actually flows: {with}");
}

#[test]
fn scale_rate_command_word_slows_biased_aging() {
    // After halving a connection's rate via ScaleRate, its biased priority
    // grows half as fast — observable through the connection state.
    let mut router = RouterConfig::paper_default()
        .vcs_per_port(8)
        .candidates(4)
        .arbiter(ArbiterKind::BiasedPriority)
        .seed(10)
        .build();
    let conn = router
        .establish(ConnectionRequest {
            input: PortId(0),
            output: PortId(1),
            class: QosClass::Cbr { rate: Bandwidth::from_mbps(124.0) },
        })
        .expect("fits");
    let before = router.connection(conn).expect("live").interarrival_cycles;
    router
        .inject_command(conn, CommandWord::ScaleRate { num: 1, den: 2 }, Cycles(0))
        .expect("room");
    router.step(Cycles(0));
    let after = router.connection(conn).expect("live").interarrival_cycles;
    assert!((after / before - 2.0).abs() < 1e-12);
}

#[test]
fn vbr_source_peaks_do_not_break_flow_control() {
    // An MPEG GoP source bursting into a small VC buffer must defer, not
    // lose flits.
    let mut router =
        RouterConfig::paper_default().vcs_per_port(8).candidates(2).vc_depth(2).seed(11).build();
    let model = MpegGopModel::sd_5mbps();
    let timing = router.config().timing();
    let conn = router
        .establish(ConnectionRequest {
            input: PortId(0),
            output: PortId(1),
            class: QosClass::Vbr {
                permanent: model.mean_rate(),
                peak: model.peak_rate(),
                priority: 3,
            },
        })
        .expect("fits");
    let mut source = VbrSource::new(conn, model, timing, SeededRng::new(12));
    let mut injected = 0u64;
    let mut forwarded_last = 0u64;
    for t in 0..50_000u64 {
        let now = Cycles(t);
        injected += u64::from(source.pump(&mut router, now));
        router.step(now);
        forwarded_last = router.connection(conn).expect("live").flits_forwarded;
    }
    assert!(injected > 100, "the source produced traffic: {injected}");
    assert!(
        forwarded_last + 2 >= injected,
        "everything injected is forwarded (±buffer): {forwarded_last} of {injected}"
    );
}
