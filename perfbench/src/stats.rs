//! Small statistics helpers: seed derivation, percentiles, medians and
//! the self-time accounting of the traced run.

/// Derives the seed of repetition `rep` from the workload seed
/// (SplitMix64 over the pair), so every repetition of a run feeds
/// distinct inputs and the same workload seed always yields the same
/// sequence.
pub fn derive_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule,
/// or `None` unless at least ten samples lie beyond it, so a reported
/// tail is never one or two outliers.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    if n == 0 || rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Wall time a layer breakdown leaves unattributed: the point wall time
/// minus the sum of the layers' self times. Negative when replayed
/// layer calls cost more than the point they were captured from.
pub fn residual(point_wall_s: f64, self_times_s: &[f64]) -> f64 {
    point_wall_s - self_times_s.iter().sum::<f64>()
}

/// 64-bit FNV-1a digest, used to fingerprint golden snapshots.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let seeds: BTreeSet<u64> = (0..10_000).map(|r| derive_seed(7, r)).collect();
        assert_eq!(seeds.len(), 10_000, "repetitions of one run never collide");
        let other: BTreeSet<u64> = (0..10_000).map(|r| derive_seed(8, r)).collect();
        assert!(
            seeds.is_disjoint(&other),
            "neighbouring workload seeds differ"
        );
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(
            percentile(&xs, 0.9),
            Some(90.0),
            "exactly ten beyond the 90th"
        );
        assert_eq!(percentile(&xs[..99], 0.9), None, "only nine beyond");
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        let ys: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&ys, 0.5),
            Some(10.0),
            "input order does not matter"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn residual_subtracts_every_self_time() {
        assert_eq!(residual(1.0, &[0.25, 0.5]), 0.25);
        assert_eq!(residual(0.5, &[]), 0.5);
        assert!(
            residual(0.1, &[0.2]) < 0.0,
            "over-attribution shows as negative"
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
