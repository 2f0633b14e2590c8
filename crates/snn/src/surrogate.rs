//! Surrogate gradients for the Heaviside spike function.
//!
//! The LIF output `o[t] = u(v[t] − ϑ)` (paper Eq. 1b/1c) has a Dirac-delta
//! derivative, so BPTT replaces it with a smooth pseudo-derivative φ. The
//! paper (Eq. 3, following Fang et al. 2021) uses
//! `∂u/∂x ≈ 1 / (1 + π² x²)`, which is the derivative of
//! `(1/π)·arctan(πx) + 1/2` — the *arctangent surrogate*.

use serde::{Deserialize, Serialize};

/// Selects the pseudo-derivative used for the Heaviside step in the backward
/// pass. The forward pass always emits binary spikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Surrogate {
    /// `φ(x) = 1 / (1 + π² x²)` — paper Eq. 3 (default).
    #[default]
    Atan,
    /// `φ(x) = 1 / (1 + |α x|)²` — the fast-sigmoid / SuperSpike surrogate.
    FastSigmoid {
        /// Slope parameter (typically 1–10).
        alpha: f32,
    },
    /// `φ(x) = 1[|x| < w/2] / w` — rectangular window (STBP).
    Rectangle {
        /// Window width.
        width: f32,
    },
    /// `φ(x) = exp(−x²/(2σ²)) / (σ·√(2π))` — Gaussian window.
    Gaussian {
        /// Standard deviation.
        sigma: f32,
    },
}

impl Surrogate {
    /// Pseudo-derivative φ(x) evaluated at `x = v − ϑ`.
    #[inline]
    pub fn grad(&self, x: f32) -> f32 {
        match *self {
            Surrogate::Atan => {
                let px = std::f32::consts::PI * x;
                1.0 / (1.0 + px * px)
            }
            Surrogate::FastSigmoid { alpha } => {
                let d = 1.0 + (alpha * x).abs();
                1.0 / (d * d)
            }
            Surrogate::Rectangle { width } => {
                if x.abs() < width * 0.5 {
                    1.0 / width
                } else {
                    0.0
                }
            }
            Surrogate::Gaussian { sigma } => {
                let z = x / sigma;
                (-0.5 * z * z).exp() / (sigma * (2.0 * std::f32::consts::PI).sqrt())
            }
        }
    }

    /// Active-window membership test for the sparse-gradient backward:
    /// `|φ(x)| > tau`. At `tau = 0.0` this is exactly "the pseudo-derivative
    /// is nonzero", so skipping inactive neurons multiplies only exact-zero
    /// factors out of the chain and the restricted backward stays
    /// bit-identical to the dense one. Positive `tau` additionally drops the
    /// surrogate's small tails (bounded-error mode).
    #[inline]
    pub fn active(&self, x: f32, tau: f32) -> bool {
        self.grad(x).abs() > tau
    }

    /// The backward's surrogate term `dldo · φ(x)`, with positive `tau`
    /// making it `0.0` outside the active window — the exact value the
    /// active-set backward leaves there, so `tau` is a training
    /// hyperparameter and the dispatch between the two paths stays a pure
    /// speed choice. At `tau = 0.0` it is the plain product.
    #[inline]
    pub fn grad_term(&self, dldo: f32, x: f32, tau: f32) -> f32 {
        let d = self.grad(x);
        if tau > 0.0 && d.abs() <= tau {
            0.0
        } else {
            dldo * d
        }
    }

    /// Whether the active set is, for all practical purposes, the full
    /// neuron set at threshold `tau` — in which case emitting index lists
    /// would be pure overhead and the caller should stay on the dense path.
    ///
    /// `Atan` and `FastSigmoid` have strictly positive rational tails: their
    /// f32 evaluation stays nonzero for any `|x|` below ~10¹⁸ (far beyond
    /// anything finite membrane dynamics produce), so at `tau = 0` their
    /// active density is 100% and sparsifying gains nothing. Returning
    /// `true` only ever forces the dense backward, which is correct for any
    /// input, so this is a performance gate rather than a correctness
    /// contract. `Rectangle` has compact support and `Gaussian` underflows,
    /// so both can genuinely deactivate neurons even at `tau = 0`.
    #[inline]
    pub fn always_active_at(&self, tau: f32) -> bool {
        match *self {
            Surrogate::Atan | Surrogate::FastSigmoid { .. } => tau <= 0.0,
            Surrogate::Rectangle { .. } | Surrogate::Gaussian { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atan_matches_paper_formula() {
        let s = Surrogate::Atan;
        assert!((s.grad(0.0) - 1.0).abs() < 1e-6);
        let x = 0.5f32;
        let expect = 1.0 / (1.0 + std::f32::consts::PI.powi(2) * x * x);
        assert!((s.grad(x) - expect).abs() < 1e-6);
    }

    #[test]
    fn all_surrogates_peak_at_zero_and_are_symmetric() {
        for s in [
            Surrogate::Atan,
            Surrogate::FastSigmoid { alpha: 2.0 },
            Surrogate::Rectangle { width: 1.0 },
            Surrogate::Gaussian { sigma: 0.5 },
        ] {
            assert!(s.grad(0.0) >= s.grad(0.7), "{s:?} not peaked at 0");
            assert!(
                (s.grad(0.3) - s.grad(-0.3)).abs() < 1e-6,
                "{s:?} asymmetric"
            );
            assert!(s.grad(100.0) < 1e-2, "{s:?} does not vanish at infinity");
        }
    }

    #[test]
    fn atan_integrates_to_one() {
        // ∫ 1/(1+π²x²) dx over ℝ = 1/π · π = 1.
        let s = Surrogate::Atan;
        let dx = 1e-3;
        let integral: f64 = (-200_000..200_000)
            .map(|i| s.grad(i as f32 * dx) as f64 * dx as f64)
            .sum();
        // Tail beyond ±200 is (2/π)·arctan'(…) ≈ 1e-3.
        assert!((integral - 1.0).abs() < 5e-3, "integral {integral}");
    }

    #[test]
    fn rectangle_window() {
        let s = Surrogate::Rectangle { width: 2.0 };
        assert_eq!(s.grad(0.9), 0.5);
        assert_eq!(s.grad(1.1), 0.0);
    }

    /// Deterministic pseudo-random membrane potentials spanning the window
    /// cores, the tails, and exact boundary values.
    fn sample_potentials() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..2048)
            .map(|i| {
                // xorshift so the sweep is reproducible without a rand dep.
                let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                z ^= z >> 29;
                z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 32;
                ((z % 20_001) as f32 / 1000.0) - 10.0
            })
            .collect();
        xs.extend_from_slice(&[
            0.0, -0.5, 0.5, 0.499_999, -0.499_999, 1.0, -1.0, 88.0, -88.0,
        ]);
        xs
    }

    #[test]
    fn active_membership_matches_nonzero_derivative_exactly() {
        // Satellite: at tau = 0 the active window is *exactly* the set of
        // inputs whose dense pseudo-derivative is nonzero — the property the
        // sparse backward's bit-identity argument rests on.
        for s in [
            Surrogate::Atan,
            Surrogate::FastSigmoid { alpha: 2.0 },
            Surrogate::Rectangle { width: 1.0 },
            Surrogate::Gaussian { sigma: 0.4 },
        ] {
            for &x in &sample_potentials() {
                assert_eq!(
                    s.active(x, 0.0),
                    s.grad(x) != 0.0,
                    "{s:?} membership diverges from dense derivative at x={x}"
                );
            }
        }
    }

    #[test]
    fn tolerance_mode_only_drops_bounded_mass() {
        // With tau > 0 every dropped neuron carries |φ(x)| <= tau, and raising
        // tau only shrinks the active set (monotone window).
        let tau_lo = 1e-3f32;
        let tau_hi = 1e-2f32;
        for s in [
            Surrogate::Atan,
            Surrogate::FastSigmoid { alpha: 2.0 },
            Surrogate::Rectangle { width: 1.0 },
            Surrogate::Gaussian { sigma: 0.4 },
        ] {
            for &x in &sample_potentials() {
                if !s.active(x, tau_lo) {
                    assert!(
                        s.grad(x).abs() <= tau_lo,
                        "{s:?} dropped |φ({x})| = {} above tau",
                        s.grad(x).abs()
                    );
                }
                if s.active(x, tau_hi) {
                    assert!(s.active(x, tau_lo), "{s:?} window not monotone at x={x}");
                }
            }
        }
    }

    #[test]
    fn always_active_gate_matches_reachable_zeros() {
        // Heavy-tailed surrogates never hit exact zero at realistic
        // potentials, so the gate keeps them on the structurally-dense path;
        // compact/underflowing windows must report false because they really
        // do deactivate neurons.
        assert!(Surrogate::Atan.always_active_at(0.0));
        assert!(Surrogate::FastSigmoid { alpha: 4.0 }.always_active_at(0.0));
        assert!(!Surrogate::Atan.always_active_at(1e-6));
        assert!(!Surrogate::Rectangle { width: 1.0 }.always_active_at(0.0));
        assert!(!Surrogate::Gaussian { sigma: 0.4 }.always_active_at(0.0));
        for &x in &sample_potentials() {
            assert!(Surrogate::Atan.grad(x) != 0.0);
            assert!(Surrogate::FastSigmoid { alpha: 4.0 }.grad(x) != 0.0);
        }
        // Gaussian genuinely underflows in f32 well inside the sweep range.
        assert_eq!(Surrogate::Gaussian { sigma: 0.4 }.grad(8.0), 0.0);
        assert_eq!(Surrogate::Rectangle { width: 1.0 }.grad(0.5), 0.0);
    }
}
