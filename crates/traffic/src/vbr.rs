//! Variable-bit-rate traffic: a synthetic MPEG-2 group-of-pictures model.
//!
//! The MMR project evaluated VBR service with MPEG-2 video traces in
//! follow-up work; the traces themselves are not available, so this module
//! generates the closest synthetic equivalent (documented in DESIGN.md):
//! a deterministic 12-frame GoP pattern (`IBBPBBPBBPBB`) at 25 frames/s with
//! lognormal frame-size jitter around type-dependent means. This exercises
//! the identical code path — VBR connections with (permanent, peak)
//! reservations, three-phase link scheduling and priority-ordered excess
//! service.

use mmr_core::ids::ConnRef;
use mmr_core::router::Router;
use mmr_sim::{Bandwidth, Cycles, FlitTiming, SeededRng};

/// MPEG frame types in transmission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra-coded frame (largest).
    I,
    /// Predicted frame.
    P,
    /// Bidirectionally predicted frame (smallest).
    B,
}

/// The synthetic MPEG-2 GoP source model.
#[derive(Debug, Clone)]
pub struct MpegGopModel {
    /// Mean I-frame size in bits.
    pub i_bits: f64,
    /// Mean P-frame size in bits.
    pub p_bits: f64,
    /// Mean B-frame size in bits.
    pub b_bits: f64,
    /// Lognormal sigma of frame-size jitter (0 = deterministic).
    pub sigma: f64,
    /// Frames per second.
    pub fps: f64,
}

/// The canonical 12-frame GoP pattern.
pub const GOP_PATTERN: [FrameType; 12] = [
    FrameType::I,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
];

impl MpegGopModel {
    /// A ~5 Mbps mean-rate MPEG-2 SD stream (the classic simulation
    /// setting): 25 fps, I/P/B ≈ 540/270/135 kbit, giving a GoP of
    /// ~2.43 Mbit over 0.48 s.
    pub fn sd_5mbps() -> Self {
        MpegGopModel { i_bits: 540_000.0, p_bits: 270_000.0, b_bits: 135_000.0, sigma: 0.25, fps: 25.0 }
    }

    /// Mean size of one frame of the given type, in bits.
    pub fn mean_bits(&self, frame: FrameType) -> f64 {
        match frame {
            FrameType::I => self.i_bits,
            FrameType::P => self.p_bits,
            FrameType::B => self.b_bits,
        }
    }

    /// The stream's mean (permanent) rate over a GoP.
    pub fn mean_rate(&self) -> Bandwidth {
        let gop_bits: f64 = GOP_PATTERN.iter().map(|&f| self.mean_bits(f)).sum();
        let gop_seconds = GOP_PATTERN.len() as f64 / self.fps;
        Bandwidth::from_bps(gop_bits / gop_seconds)
    }

    /// The stream's peak rate: the largest frame (I, with +2σ jitter)
    /// delivered within one frame interval.
    pub fn peak_rate(&self) -> Bandwidth {
        let worst_frame = self.i_bits * (2.0 * self.sigma).exp();
        Bandwidth::from_bps(worst_frame * self.fps)
    }

    /// Samples the size of one frame in bits.
    pub fn sample_bits(&self, frame: FrameType, rng: &mut SeededRng) -> f64 {
        let mean = self.mean_bits(frame);
        if self.sigma == 0.0 {
            mean
        } else {
            // Lognormal with the requested mean: mu = ln(mean) - sigma²/2.
            let mu = mean.ln() - self.sigma * self.sigma / 2.0;
            rng.lognormal(mu, self.sigma)
        }
    }

    /// Frame interval in flit cycles on a link with the given timing.
    pub fn frame_interval_cycles(&self, timing: FlitTiming) -> f64 {
        (1.0 / self.fps) * 1e9 / timing.cycle_time_ns()
    }
}

/// A VBR source: paces the flits of successive frames of an
/// [`MpegGopModel`] into a router connection, spreading each frame's flits
/// evenly over its frame interval.
#[derive(Debug, Clone)]
pub struct VbrSource {
    conn: ConnRef,
    model: MpegGopModel,
    timing: FlitTiming,
    rng: SeededRng,
    frame_index: usize,
    /// Cycle at which the current frame started.
    frame_start: f64,
    /// Flits of the current frame and how many have been injected.
    frame_flits: u32,
    injected_in_frame: u32,
    backlog: u32,
}

impl VbrSource {
    /// Creates a source for `conn` with its own RNG stream.
    pub fn new(conn: ConnRef, model: MpegGopModel, timing: FlitTiming, rng: SeededRng) -> Self {
        let mut src = VbrSource {
            conn,
            model,
            timing,
            rng,
            frame_index: 0,
            frame_start: 0.0,
            frame_flits: 0,
            injected_in_frame: 0,
            backlog: 0,
        };
        src.begin_frame();
        src
    }

    /// The connection this source feeds.
    pub fn conn(&self) -> ConnRef {
        self.conn
    }

    fn begin_frame(&mut self) {
        let ftype = GOP_PATTERN[self.frame_index % GOP_PATTERN.len()];
        let bits = self.model.sample_bits(ftype, &mut self.rng);
        self.frame_flits = (bits / f64::from(self.timing.flit_bits())).ceil() as u32;
        self.injected_in_frame = 0;
    }

    /// Number of flits due at or before `now`.
    pub fn due(&mut self, now: Cycles) -> u32 {
        let interval = self.model.frame_interval_cycles(self.timing);
        // Advance frames that have fully elapsed.
        while now.as_f64() >= self.frame_start + interval {
            // Any remainder of the old frame becomes immediately due.
            self.backlog += self.frame_flits - self.injected_in_frame;
            self.frame_start += interval;
            self.frame_index += 1;
            self.begin_frame();
        }
        // Within the current frame, flits are spread evenly.
        let elapsed = (now.as_f64() - self.frame_start).max(0.0);
        let target = ((elapsed / interval) * f64::from(self.frame_flits)).floor() as u32;
        let fresh = target.saturating_sub(self.injected_in_frame);
        self.injected_in_frame += fresh;
        let due = self.backlog + fresh;
        self.backlog = 0;
        due
    }

    /// Injects all due flits, deferring on backpressure. Returns the number
    /// injected.
    pub fn pump(&mut self, router: &mut Router, now: Cycles) -> u32 {
        let due = self.due(now);
        let mut injected = 0;
        for _ in 0..due {
            if router.inject(self.conn, now).is_ok() {
                injected += 1;
            } else {
                self.backlog += due - injected;
                break;
            }
        }
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_core::ids::{ConnectionId, VcRef};

    /// A handle for sources that are only asked what is due.
    fn unused() -> ConnRef {
        ConnRef { vc: VcRef::new(0, 0), id: ConnectionId(0) }
    }

    #[test]
    fn gop_pattern_shape() {
        assert_eq!(GOP_PATTERN.len(), 12);
        assert_eq!(GOP_PATTERN.iter().filter(|&&f| f == FrameType::I).count(), 1);
        assert_eq!(GOP_PATTERN.iter().filter(|&&f| f == FrameType::P).count(), 3);
        assert_eq!(GOP_PATTERN.iter().filter(|&&f| f == FrameType::B).count(), 8);
    }

    #[test]
    fn sd_model_mean_rate_is_about_5mbps() {
        let m = MpegGopModel::sd_5mbps();
        let mean = m.mean_rate().mbps();
        assert!((mean - 5.06).abs() < 0.5, "mean {mean} Mbps");
        assert!(m.peak_rate() > m.mean_rate(), "peak above mean");
        // Peak is one worst-case I frame per interval: ~10+ Mbps.
        assert!(m.peak_rate().mbps() > 10.0);
    }

    #[test]
    fn deterministic_sampling_with_zero_sigma() {
        let mut m = MpegGopModel::sd_5mbps();
        m.sigma = 0.0;
        let mut rng = SeededRng::new(1);
        assert_eq!(m.sample_bits(FrameType::I, &mut rng), 540_000.0);
    }

    #[test]
    fn lognormal_sampling_centres_on_mean() {
        let m = MpegGopModel::sd_5mbps();
        let mut rng = SeededRng::new(2);
        let n = 20_000;
        let mean: f64 =
            (0..n).map(|_| m.sample_bits(FrameType::I, &mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean / 540_000.0 - 1.0).abs() < 0.05, "sampled mean {mean}");
    }

    #[test]
    fn source_emits_frame_sized_bursts() {
        let mut m = MpegGopModel::sd_5mbps();
        m.sigma = 0.0;
        let timing = FlitTiming::paper_default();
        let interval = m.frame_interval_cycles(timing);
        let mut src = VbrSource::new(unused(), m.clone(), timing, SeededRng::new(3));
        // Over exactly one frame interval, the source should emit the
        // I-frame's worth of flits (frame 0 of the GoP).
        let mut total = 0u32;
        let cycles = interval.ceil() as u64;
        for t in 0..cycles {
            total += src.due(Cycles(t));
        }
        let expected = (540_000.0 / 128.0_f64).ceil() as u32;
        assert!(
            (i64::from(total) - i64::from(expected)).abs() <= 1,
            "one I frame of flits: got {total}, expected ~{expected}"
        );
    }

    #[test]
    fn long_run_rate_matches_mean() {
        let m = MpegGopModel::sd_5mbps();
        let timing = FlitTiming::paper_default();
        let mut src = VbrSource::new(unused(), m.clone(), timing, SeededRng::new(4));
        // 4 GoPs worth of cycles.
        let cycles = (m.frame_interval_cycles(timing) * 48.0) as u64;
        let total: u64 = (0..cycles).map(|t| u64::from(src.due(Cycles(t)))).sum();
        let bits = total as f64 * 128.0;
        let seconds = cycles as f64 * timing.cycle_time_ns() * 1e-9;
        let rate = bits / seconds / 1e6;
        let mean = m.mean_rate().mbps();
        assert!((rate / mean - 1.0).abs() < 0.25, "long-run {rate} Mbps vs mean {mean}");
    }
}
