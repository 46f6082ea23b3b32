//! Video-on-demand scenario: VBR MPEG-2 streams with CBR voice alongside.
//!
//! Motivated by the paper's introduction (web servers, video-on-demand,
//! telemedicine): a server node pushes several MPEG-2 video streams through
//! the router as VBR connections — permanent bandwidth equal to the mean
//! rate, peak gated by the concurrency factor — while CBR voice channels
//! share the same links. Mid-run, one stream's priority is raised with an
//! in-band command word (§4.3 dynamic bandwidth/priority management) and its
//! excess-service share visibly improves.
//!
//! Run with: `cargo run --release --example video_server`

use mmr::core::conn::{ConnectionRequest, QosClass};
use mmr::core::flit::CommandWord;
use mmr::core::ids::PortId;
use mmr::core::router::RouterConfig;
use mmr::sim::{Bandwidth, Cycles, SeededRng};
use mmr::traffic::vbr::{MpegGopModel, VbrSource};

fn main() {
    let mut router = RouterConfig::paper_default()
        .vcs_per_port(64)
        .candidates(8)
        .concurrency_factor(4.0)
        .seed(7)
        .build();
    let timing = router.config().timing();
    let mut rng = SeededRng::new(7);

    // Eight MPEG-2 SD streams from server ports 0-3 to client ports 4-7.
    let model = MpegGopModel::sd_5mbps();
    let class = QosClass::Vbr {
        permanent: model.mean_rate(),
        peak: model.peak_rate(),
        priority: 1,
    };
    println!(
        "MPEG-2 GoP model: mean {:.2} Mbps, peak {:.2} Mbps, frame interval {:.0} cycles",
        model.mean_rate().mbps(),
        model.peak_rate().mbps(),
        model.frame_interval_cycles(timing)
    );

    let mut streams = Vec::new();
    for i in 0..8u8 {
        let conn = router
            .establish(ConnectionRequest {
                input: PortId(i % 4),
                output: PortId(4 + i % 4),
                class,
            })
            .expect("the links have ample bandwidth for eight SD streams");
        streams.push(VbrSource::new(conn, model.clone(), timing, rng.fork(u64::from(i))));
    }

    // Sixteen CBR voice channels share the same ports.
    let mut voice = Vec::new();
    for i in 0..16u8 {
        let conn = router
            .establish(ConnectionRequest {
                input: PortId(i % 4),
                output: PortId(4 + (i + 1) % 4),
                class: QosClass::Cbr { rate: Bandwidth::from_kbps(64.0) },
            })
            .expect("voice is tiny");
        voice.push(mmr::traffic::cbr::CbrSource::new(
            conn,
            timing.interarrival_cycles(Bandwidth::from_kbps(64.0)),
            &mut rng,
        ));
    }

    // Run two phases; between them, promote stream 0 with a command word.
    let phase_cycles = 60_000u64;
    let mut now = 0u64;
    for phase in 0..2 {
        let before: Vec<u64> =
            streams.iter().map(|s| router.connection(s.conn()).expect("live").flits_forwarded).collect();
        if phase == 1 {
            router
                .inject_command(streams[0].conn(), CommandWord::SetPriority(9), Cycles(now))
                .expect("room for a command word");
            println!("\n>> raising stream 0 priority to 9 via in-band command word\n");
        }
        for _ in 0..phase_cycles {
            let t = Cycles(now);
            for s in &mut streams {
                s.pump(&mut router, t);
            }
            for v in &mut voice {
                v.pump(&mut router, t);
            }
            router.step(t);
            now += 1;
        }
        println!("phase {phase}: flits forwarded per video stream over {phase_cycles} cycles");
        for (i, s) in streams.iter().enumerate() {
            let total = router.connection(s.conn()).expect("live").flits_forwarded;
            let dyn_prio = router.connection(s.conn()).expect("live").dynamic_priority;
            println!(
                "  stream {i}: {:>6} flits (priority {dyn_prio})",
                total - before[i]
            );
        }
    }

    let stats = router.stats();
    println!(
        "\ntotals: {} flits switched, utilization {:.1}%, {} crossbar reconfigurations",
        stats.flits_transmitted,
        router.utilization() * 100.0,
        stats.reconfigurations
    );
    println!("stream 0 now outranks its peers in the VBR excess phase (§4.3).");
}
