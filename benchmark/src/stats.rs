//! Sample statistics and the two small deterministic primitives the
//! harness needs: a splitmix64 stream (samples derive from `--seed`,
//! never from ambient randomness) and FNV-1a-64 (the log fingerprint in
//! `expected_counts.json`).

/// Median: the mean of the two middle values for an even count (what
/// Python's `statistics.median` reports, so the harness and the
/// comparison protocol read the same number).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// splitmix64: the harness's only source of randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `k` indices drawn from `0..n` (with replacement; sorted order is
    /// not imposed so consecutive probes do not walk memory linearly).
    /// Empty when `n == 0`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if n == 0 {
            return Vec::new();
        }
        (0..k)
            .map(|_| (self.next_u64() % n as u64) as usize)
            .collect()
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn splitmix_and_fnv_match_reference_vectors() {
        // First outputs of splitmix64 seeded with 0 (reference
        // implementation by Vigna).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.sample_indices(10, 5), b.sample_indices(10, 5));
        assert!(a.sample_indices(0, 5).is_empty());
    }
}
