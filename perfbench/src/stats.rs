//! Order statistics, SLO accounting and the seed derivation the
//! benchmark's workloads draw their inputs from.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it
/// (0 for an empty slice).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones for an even
/// count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median and 99th percentile of a latency sample, with the sample
/// count and how many samples lie beyond the p99 value — the numbers a
/// reader needs to judge whether the tail estimate means anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples strictly greater than `p99`.
    pub beyond_p99: usize,
}

impl Tail {
    /// Summarizes unsorted samples.
    pub fn of(values: &[f64]) -> Tail {
        let sorted = sorted(values);
        let p99 = percentile(&sorted, 99.0);
        Tail {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99,
            beyond_p99: sorted.iter().filter(|&&v| v > p99).count(),
        }
    }
}

/// Jobs per block latency percentiles are taken over: enough that every
/// block has at least ten samples beyond its p99.
pub const BLOCK: usize = 1000;

/// Latency percentiles that one bad stretch cannot move: the jobs, in
/// send order, are cut into consecutive blocks of `block` (a shorter
/// last block joins the one before it), p50 and p99 are taken in each
/// block, and the medians over the blocks are kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTail {
    /// Median over blocks of the block p50.
    pub p50: f64,
    /// Median over blocks of the block p99.
    pub p99: f64,
    /// Blocks.
    pub blocks: usize,
    /// Samples in the smallest block.
    pub min_count: usize,
    /// Samples beyond p99 in the smallest block.
    pub min_beyond_p99: usize,
}

impl BlockTail {
    /// From (send time, latency) pairs.
    pub fn of(samples: &[(f64, f64)], block: usize) -> BlockTail {
        let mut ordered = samples.to_vec();
        ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let latencies: Vec<f64> = ordered.iter().map(|s| s.1).collect();
        let mut blocks: Vec<&[f64]> = latencies.chunks(block.max(1)).collect();
        if blocks.len() > 1 && blocks[blocks.len() - 1].len() < block {
            let n = blocks.len();
            let start = (n - 2) * block;
            blocks.truncate(n - 2);
            blocks.push(&latencies[start..]);
        }
        let tails: Vec<Tail> = blocks.iter().map(|b| Tail::of(b)).collect();
        let smallest = tails.iter().min_by_key(|t| t.count);
        BlockTail {
            p50: median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>()),
            p99: median(&tails.iter().map(|t| t.p99).collect::<Vec<_>>()),
            blocks: tails.len(),
            min_count: smallest.map_or(0, |t| t.count),
            min_beyond_p99: smallest.map_or(0, |t| t.beyond_p99),
        }
    }
}

/// Share of `attempted` requests that completed within `limit`.
/// `latencies` holds the completed requests only, so a request that was
/// shed, failed or cancelled counts as a miss.
pub fn slo_attainment(latencies: &[f64], attempted: u64, limit: f64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    let met = latencies.iter().filter(|&&l| l <= limit).count();
    met as f64 / attempted as f64
}

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seed derived from `seed` for the stream named by `salt`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
    }

    #[test]
    fn tail_counts_samples_beyond_p99() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.count, 1000);
        assert_eq!(t.p50, 500.0);
        assert_eq!(t.p99, 990.0);
        assert_eq!(t.beyond_p99, 10);
    }

    #[test]
    fn block_tail_ignores_one_bad_block() {
        // Three blocks of 100 samples, sent in reverse time order; the
        // middle block is ten times slower.
        let mut samples = Vec::new();
        for k in (0..300).rev() {
            let slow = if (100..200).contains(&k) { 10.0 } else { 1.0 };
            samples.push((k as f64 / 100.0, slow * (1 + k % 100) as f64));
        }
        let b = BlockTail::of(&samples, 100);
        assert_eq!(b.blocks, 3);
        assert_eq!((b.p50, b.p99), (50.0, 99.0));
        assert_eq!((b.min_count, b.min_beyond_p99), (100, 1));
        // Whole-run percentiles would have moved.
        let whole: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert!(Tail::of(&whole).p99 > 500.0);
        assert_eq!(BlockTail::of(&[], 100).blocks, 0);
        // A short last block joins the one before it.
        samples.extend((0..10).map(|k| (3.0 + k as f64 / 100.0, 1.0)));
        let b = BlockTail::of(&samples, 100);
        assert_eq!((b.blocks, b.min_count), (3, 100));
        assert_eq!(BlockTail::of(&samples[..50], 100).min_count, 50);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slo_counts_failures_as_misses() {
        // Four completed (one too slow) out of five attempted: the fifth
        // was shed and has no latency.
        let lat = [1.0, 2.0, 3.0, 9.0];
        assert_eq!(slo_attainment(&lat, 5, 5.0), 3.0 / 5.0);
        // The limit is inclusive.
        assert_eq!(slo_attainment(&[5.0], 1, 5.0), 1.0);
        assert_eq!(slo_attainment(&[], 0, 5.0), 0.0);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(3);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(derive(1, 2), derive(2, 1));
    }
}
