//! The paper's connection-rate ladder.
//!
//! §5: "Connections were randomly selected from the set (64 Kbps, 128 Kbps,
//! 1.54 Mbps, 2 Mbps, 5 Mbps, 10 Mbps, 20 Mbps, 55 Mbps, 120 Mbps) and
//! assigned to random input and output ports on the router." (The 10/20/120
//! values are reconstructed from the OCR'd text; see DESIGN.md.)

use mmr_sim::Bandwidth;

/// The nine CBR rates of the paper's evaluation, ascending.
pub fn paper_rate_ladder() -> [Bandwidth; 9] {
    [
        Bandwidth::from_kbps(64.0),   // voice
        Bandwidth::from_kbps(128.0),  // ISDN
        Bandwidth::from_mbps(1.54),   // T1
        Bandwidth::from_mbps(2.0),    // E1 / compressed video
        Bandwidth::from_mbps(5.0),    // MPEG-2 SD
        Bandwidth::from_mbps(10.0),   // high-quality video
        Bandwidth::from_mbps(20.0),   // MPEG-2 HD
        Bandwidth::from_mbps(55.0),   // uncompressed SD tiles
        Bandwidth::from_mbps(120.0),  // HDTV contribution feed
    ]
}

/// The same ladder scaled so its largest rate keeps the same *fraction* of a
/// different link speed — used by the link-speed ablation (155/622 Mbps
/// links behave "qualitatively the same", §5).
pub fn scaled_rate_ladder(scale: f64) -> [Bandwidth; 9] {
    paper_rate_ladder().map(|r| r * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ascending_with_nine_entries() {
        let ladder = paper_rate_ladder();
        assert_eq!(ladder.len(), 9);
        for pair in ladder.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(ladder[0], Bandwidth::from_kbps(64.0));
        assert_eq!(ladder[8], Bandwidth::from_mbps(120.0));
    }

    #[test]
    fn mean_is_about_24_mbps() {
        let ladder = paper_rate_ladder();
        let m = ladder.iter().map(|r| r.mbps()).sum::<f64>() / ladder.len() as f64;
        assert!((m - 23.74).abs() < 0.1, "mean {m} Mbps");
    }

    #[test]
    fn scaling_preserves_ratios() {
        let half = scaled_rate_ladder(0.5);
        let full = paper_rate_ladder();
        for (h, f) in half.iter().zip(&full) {
            assert!((h.bits_per_sec() * 2.0 - f.bits_per_sec()).abs() < 1e-6);
        }
    }
}
