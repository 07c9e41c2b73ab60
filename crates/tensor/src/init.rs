//! Seeded random tensor initialization.
//!
//! All randomness in the suite flows through [`TensorRng`] so that every
//! experiment is reproducible bit-for-bit from its seed. The generator is
//! a self-contained xoshiro256++ (seeded through SplitMix64), so the
//! workspace builds with no external crates and the stream is stable
//! across toolchains.

use crate::Tensor;

/// Weight-initialization schemes used by the DGNN layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// Uniform over `[-a, a]`.
    Uniform(f32),
    /// Gaussian with the given standard deviation.
    Normal(f32),
    /// Xavier/Glorot uniform: `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// All zeros (bias default).
    Zeros,
}

/// Deterministic random number source for tensor initialization.
///
/// ```
/// use dgnn_tensor::{Initializer, TensorRng};
///
/// let mut rng = TensorRng::seed(42);
/// let w = rng.init(&[4, 3], Initializer::XavierUniform);
/// assert_eq!(w.dims(), &[4, 3]);
/// assert!(w.all_finite());
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    state: [u64; 4],
}

impl TensorRng {
    /// Creates a generator from a fixed seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state, as
        // recommended by the xoshiro authors; guarantees a non-zero state.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        TensorRng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit_f32()
    }

    /// Draws a uniform `f64` in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit_f64()
    }

    /// Bernoulli draw: true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Draws a standard-normal `f32` via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        let u1 = self.unit_f32().max(f32::EPSILON);
        let u2 = self.unit_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Draws a uniform usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "high 64 bits of a 128-bit product"
    )]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Multiply-shift range reduction (Lemire); bias is < 2^-64 for the
        // small ranges used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Initializes a tensor with the given scheme. For
    /// [`Initializer::XavierUniform`] the first dimension is treated as
    /// fan-out and the second (or 1) as fan-in.
    pub fn init(&mut self, dims: &[usize], scheme: Initializer) -> Tensor {
        let mut data = Vec::with_capacity(dims.iter().product());
        self.init_into(&mut data, dims, scheme);
        Tensor::from_vec(data, dims).expect("init produces matching length")
    }

    /// Appends to `out` the values [`TensorRng::init`] would draw for
    /// `dims`, consuming the same draws.
    pub fn init_into(&mut self, out: &mut Vec<f32>, dims: &[usize], scheme: Initializer) {
        let len: usize = dims.iter().product();
        match scheme {
            Initializer::Zeros => out.resize(out.len() + len, 0.0),
            Initializer::Uniform(a) => out.extend((0..len).map(|_| self.uniform(-a, a))),
            Initializer::Normal(std) => out.extend((0..len).map(|_| self.normal() * std)),
            Initializer::XavierUniform => {
                let fan_out = dims.first().copied().unwrap_or(1);
                let fan_in = dims.get(1).copied().unwrap_or(1);
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                out.extend((0..len).map(|_| self.uniform(-a, a)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = TensorRng::seed(7).init(&[3, 3], Initializer::Normal(1.0));
        let b = TensorRng::seed(7).init(&[3, 3], Initializer::Normal(1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn init_into_appends_the_init_stream() {
        for scheme in [
            Initializer::Normal(1.0),
            Initializer::Uniform(0.5),
            Initializer::Zeros,
        ] {
            let whole = TensorRng::seed(9).init(&[5, 3], scheme);
            let mut rng = TensorRng::seed(9);
            let mut out = vec![7.0];
            rng.init_into(&mut out, &[2, 3], scheme);
            rng.init_into(&mut out, &[3, 3], scheme);
            assert_eq!(out[0], 7.0);
            assert_eq!(&out[1..], whole.as_slice(), "{scheme:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorRng::seed(1).init(&[16], Initializer::Uniform(1.0));
        let b = TensorRng::seed(2).init(&[16], Initializer::Uniform(1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn xavier_bound_respected() {
        let w = TensorRng::seed(3).init(&[10, 20], Initializer::XavierUniform);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zeros_scheme_is_zero() {
        let w = TensorRng::seed(4).init(&[5], Initializer::Zeros);
        assert_eq!(w.sum(), 0.0);
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = TensorRng::seed(5);
        let samples: Vec<f32> = (0..4000).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = TensorRng::seed(6);
        for _ in 0..10_000 {
            let f = rng.unit_f32();
            assert!((0.0..1.0).contains(&f));
            let d = rng.unit_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn index_covers_range_without_bias_holes() {
        let mut rng = TensorRng::seed(8);
        let mut counts = [0usize; 7];
        for _ in 0..7_000 {
            counts[rng.index(7)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "{counts:?}");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = TensorRng::seed(9);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }
}
