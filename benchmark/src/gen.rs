//! Seeded input generation. Everything a workload feeds the library
//! comes from here, so the same `--seed` gives the same inputs.

/// splitmix64: small, seedable, good enough for workload shaping.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The check word a message with sequence number `x` must carry.
pub fn mix(seed: u64, x: u64) -> u64 {
    finalize(seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fills `buf` with the byte pattern of `(seed, slot)`.
pub fn fill_pattern(buf: &mut [u8], seed: u64, slot: u64) {
    let mut rng = Rng::new(mix(seed, slot));
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Zipf distribution over `n` items whose popularity ranks are a seeded
/// permutation, so which item is hot depends on the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    item: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64, rng: &mut Rng) -> Self {
        let mut item: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut item);
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf, item }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.item.len() - 1);
        self.item[rank]
    }
}
