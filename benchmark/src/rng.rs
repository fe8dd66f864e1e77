//! Seeded input generation. Every workload input that is not a fixed model
//! comes from here, so `--seed N` reproduces a run's request sequence,
//! cold shapes and replay streams exactly.

/// SplitMix64: tiny, fast, and good enough to drive load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of one
    /// `--seed` (request draws, cold shapes, replay addresses) do not walk
    /// the same sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2⁻⁴⁰ for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Uniform draws without sampling noise: every block of `n` draws is a
/// seeded permutation of `0..n`, so each index comes up exactly equally
/// often whatever the seed. (With plain uniform draws the share of each
/// index wanders by a few percent from seed to seed — enough to move the
/// median of a latency mixture from one cluster of request costs to the
/// next.)
#[derive(Debug, Clone)]
pub struct Shuffled {
    order: Vec<usize>,
    next: usize,
}

impl Shuffled {
    /// Draws over `0..n`.
    pub fn new(n: usize) -> Self {
        Shuffled { order: (0..n).collect(), next: n }
    }

    /// The next index; reshuffles (Fisher–Yates) at every block boundary.
    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(7, 2), |r, _| Some(r.next_u64())).collect();
        let d: Vec<u64> = (0..8).scan(Rng::new(8, 1), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn shuffled_draws_cover_every_index_once_per_block() {
        let mut rng = Rng::new(5, 0);
        let mut draws = Shuffled::new(64);
        let first: Vec<usize> = (0..64).map(|_| draws.draw(&mut rng)).collect();
        let second: Vec<usize> = (0..64).map(|_| draws.draw(&mut rng)).collect();
        for block in [&first, &second] {
            let mut sorted = (*block).clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        }
        assert_ne!(first, second);
        assert_ne!(first, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(64, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[z.draw(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63]);
        // Rank 0 carries 1/H(64) ≈ 21 % of the mass.
        assert!((3_600..4_800).contains(&hits[0]), "{}", hits[0]);
    }
}
