//! Seeded randomness and arrival schedules. Every input the benchmark
//! sends is drawn from these, so one seed gives one set of inputs.

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
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

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Poisson arrival offsets (nanoseconds from the start of the phase) at
/// `rate` per second over `duration_ns`: a pure function of its inputs.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u is in (0, 1], so the gap is finite and non-negative.
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Cumulative weights of a popularity law where rank `r` (0 = hottest)
/// is drawn with probability proportional to `1 / (r + 1)`.
pub fn harmonic_cdf(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative weight table.
pub fn draw(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.next_f64();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_arrivals(&mut Rng::new(7, 1), 5000.0, 200_000_000);
        let b = poisson_arrivals(&mut Rng::new(7, 1), 5000.0, 200_000_000);
        let c = poisson_arrivals(&mut Rng::new(8, 1), 5000.0, 200_000_000);
        let d = poisson_arrivals(&mut Rng::new(7, 2), 5000.0, 200_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 200_000_000));
        // About rate x duration arrivals (1000 expected; 5 sigma ~ 160).
        assert!((840..1160).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn harmonic_popularity_favours_low_ranks() {
        let cdf = harmonic_cdf(16);
        assert!((cdf[15] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(3, 0);
        let mut hits = [0usize; 16];
        for _ in 0..20_000 {
            hits[draw(&mut rng, &cdf)] += 1;
        }
        assert!(hits[0] > 2 * hits[3] && hits[3] > hits[15]);
    }
}
