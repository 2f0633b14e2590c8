//! Random tensor initializers.
//!
//! All initializers take an explicit RNG so experiments are reproducible from
//! a single seed. The SNN training pipeline uses [`kaiming_uniform`] for
//! convolution and linear weights (matching PyTorch's default for conv
//! layers, which the paper's SpikingJelly stack inherits).

use rand::distributions::Distribution;
use rand::Rng;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Uniform values in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.num_elements();
    let dist = rand::distributions::Uniform::new(lo, hi);
    let data: Vec<f32> = (0..n).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

/// Standard-normal values scaled by `std` around `mean` (Box–Muller).
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.num_elements();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        // Box–Muller transform: two uniforms -> two independent normals.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

/// Fan-in/fan-out of a weight shape.
///
/// For rank-2 `[out, in]` weights this is `(in, out)`. For rank-4
/// `[out_c, in_c, kh, kw]` convolution weights the receptive-field size
/// multiplies the channel counts.
pub fn fan_in_out(dims: &[usize]) -> (usize, usize) {
    match dims {
        [out, inp] => (*inp, *out),
        [out_c, in_c, kh, kw] => (in_c * kh * kw, out_c * kh * kw),
        _ => {
            let n: usize = dims.iter().product();
            (n.max(1), n.max(1))
        }
    }
}

/// Kaiming (He) uniform initialization: `U(-b, b)` with
/// `b = sqrt(6 / fan_in)` (gain for a ReLU-family nonlinearity, `a = √5`
/// variant is not used; this matches `kaiming_uniform_` with default gain).
pub fn kaiming_uniform(shape: impl Into<Shape>, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let (fan_in, _) = fan_in_out(shape.dims());
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

/// Kaiming (He) normal initialization: `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal(shape: impl Into<Shape>, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let (fan_in, _) = fan_in_out(shape.dims());
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform([1000], -0.5, 0.5, &mut rng);
        assert!(t.max() < 0.5 && t.min() >= -0.5);
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = normal([20000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn fan_for_conv_and_linear() {
        assert_eq!(fan_in_out(&[64, 32]), (32, 64));
        assert_eq!(fan_in_out(&[16, 8, 3, 3]), (72, 144));
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = kaiming_uniform([64, 32, 3, 3], &mut rng);
        let bound = (6.0f32 / (32.0 * 9.0)).sqrt();
        assert!(t.max() <= bound && t.min() >= -bound);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = kaiming_normal([4, 4], &mut StdRng::seed_from_u64(7));
        let b = kaiming_normal([4, 4], &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
