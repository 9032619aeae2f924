//! The benchmark's own seeded generator, so inputs depend on `--seed` and
//! on nothing the program under test could change.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seed: different streams
    /// of one seed, and one stream of different seeds, are independent.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is below 2^-40
    /// for the small bounds used here).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `count` distinct values from `0..bound`, in draw order.
    pub fn distinct(&mut self, count: usize, bound: usize) -> Vec<usize> {
        assert!(
            count <= bound,
            "cannot draw {count} distinct values below {bound}"
        );
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count {
            let value = self.below(bound);
            if !picked.contains(&value) {
                picked.push(value);
            }
        }
        picked
    }
}
