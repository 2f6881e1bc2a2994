//! Sturm chains and exact real-root counting.
//!
//! Used as ground truth by the test suite and as the isolation engine of
//! the sequential comparator (`rr-baseline`, the PARI stand-in). The
//! algorithm under study deliberately does *not* use Sturm chains — its
//! root isolation comes from the interleaving tree — which is exactly the
//! comparison Figure 8 of the paper draws.

use crate::division::pseudo_div_rem;
use crate::eval::{eval, ScaledPoly};
use crate::Poly;
use rr_mp::Int;

/// A Sturm chain `s_0 = p, s_1 = p', s_{i+1} = −(s_{i−1} mod s_i)`,
/// computed exactly over the integers with positive scalings only (which
/// preserve the sign-variation property).
#[derive(Debug, Clone)]
pub struct SturmChain {
    chain: Vec<Poly>,
}

impl SturmChain {
    /// Builds the Sturm chain of `p`.
    ///
    /// # Panics
    /// Panics on the zero polynomial.
    pub fn new(p: &Poly) -> SturmChain {
        assert!(!p.is_zero(), "Sturm chain of the zero polynomial");
        let mut chain = vec![p.clone()];
        if p.deg() >= 1 {
            chain.push(p.derivative());
            loop {
                let [.., prev, cur] = &chain[..] else { unreachable!() };
                if cur.is_zero() || cur.is_constant() {
                    break;
                }
                let pd = pseudo_div_rem(prev, cur);
                if pd.rem.is_zero() {
                    break;
                }
                // s_{i+1} = −rem, corrected for the sign of the pseudo
                // scaling (a negative scale already flipped the sign), and
                // reduced to its primitive part (a positive scalar).
                let next = if pd.scale.is_negative() {
                    pd.rem.primitive_part()
                } else {
                    (-pd.rem).primitive_part()
                };
                chain.push(next);
            }
        }
        SturmChain { chain }
    }

    /// The chain polynomials `s_0 …` (ends at the gcd of `p` and `p'`, up
    /// to a positive constant).
    pub fn polys(&self) -> &[Poly] {
        &self.chain
    }

    /// Sign variations of the chain evaluated at the integer `x`
    /// (zeros skipped, per Sturm's theorem).
    pub fn variations_at(&self, x: &Int) -> usize {
        count_variations(self.chain.iter().map(|s| eval(s, x).signum()))
    }

    /// Sign variations at the dyadic rational `y / 2^µ`, evaluated exactly
    /// in scaled integer arithmetic.
    pub fn variations_at_dyadic(&self, y: &Int, mu: u64) -> usize {
        count_variations(self.chain.iter().map(|s| {
            if s.is_zero() {
                0
            } else {
                // sign of 2^{dµ}·s(y/2^µ) equals sign of s(y/2^µ)
                ScaledPoly::new(s, mu).sign_at(y)
            }
        }))
    }

    /// Sign variations as `x → −∞`.
    pub fn variations_at_neg_inf(&self) -> usize {
        count_variations(self.chain.iter().map(Poly::sign_at_neg_inf))
    }

    /// Sign variations as `x → +∞`.
    pub fn variations_at_pos_inf(&self) -> usize {
        count_variations(self.chain.iter().map(Poly::sign_at_pos_inf))
    }

    /// Number of **distinct** real roots of `p`.
    pub fn count_distinct_real_roots(&self) -> usize {
        self.variations_at_neg_inf() - self.variations_at_pos_inf()
    }

    /// Number of distinct real roots in the half-open interval `(a, b]`,
    /// for integers `a < b` (Sturm's theorem; exact).
    pub fn count_roots_in(&self, a: &Int, b: &Int) -> usize {
        debug_assert!(a < b);
        self.variations_at(a) - self.variations_at(b)
    }

    /// Number of distinct real roots in `(a/2^µ, b/2^µ]` for scaled
    /// integers `a < b`.
    pub fn count_roots_in_dyadic(&self, a: &Int, b: &Int, mu: u64) -> usize {
        debug_assert!(a < b);
        self.variations_at_dyadic(a, mu) - self.variations_at_dyadic(b, mu)
    }
}

fn count_variations(signs: impl Iterator<Item = i32>) -> usize {
    let mut last = 0;
    let mut count = 0;
    for s in signs {
        if s == 0 {
            continue;
        }
        if last != 0 && s != last {
            count += 1;
        }
        last = s;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> Poly {
        Poly::from_i64(coeffs)
    }

    #[test]
    fn variation_counting() {
        assert_eq!(count_variations([1, -1, 1].into_iter()), 2);
        assert_eq!(count_variations([1, 0, -1].into_iter()), 1);
        assert_eq!(count_variations([1, 1, 1].into_iter()), 0);
        assert_eq!(count_variations([0, 0].into_iter()), 0);
        assert_eq!(count_variations([-1, 0, 0, 1, 0, -1].into_iter()), 2);
    }

    #[test]
    fn counts_all_real_distinct() {
        let f = Poly::from_roots(&[Int::from(-3), Int::from(0), Int::from(2), Int::from(7)]);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_distinct_real_roots(), 4);
    }

    #[test]
    fn counts_no_real_roots() {
        let chain = SturmChain::new(&p(&[1, 0, 1])); // x^2 + 1
        assert_eq!(chain.count_distinct_real_roots(), 0);
        let chain = SturmChain::new(&p(&[1, 0, 0, 0, 1])); // x^4 + 1
        assert_eq!(chain.count_distinct_real_roots(), 0);
    }

    #[test]
    fn counts_mixed_real_complex() {
        // (x^2+1)(x-1)(x+2) = x^4 + x^3 - x^2 + x - 2
        let f = &p(&[1, 0, 1]) * &p(&[-2, -1, 1]);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_distinct_real_roots(), 2);
    }

    #[test]
    fn repeated_roots_counted_once() {
        // (x-1)^3 (x+4)^2
        let f = &p(&[-1, 1]) * &p(&[-1, 1]) * &p(&[-1, 1]) * &p(&[4, 1]) * &p(&[4, 1]);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_distinct_real_roots(), 2);
    }

    #[test]
    fn interval_counts() {
        let f = Poly::from_roots(&[Int::from(1), Int::from(3), Int::from(5)]);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_roots_in(&Int::from(0), &Int::from(6)), 3);
        assert_eq!(chain.count_roots_in(&Int::from(0), &Int::from(2)), 1);
        assert_eq!(chain.count_roots_in(&Int::from(2), &Int::from(4)), 1);
        assert_eq!(chain.count_roots_in(&Int::from(4), &Int::from(6)), 1);
        assert_eq!(chain.count_roots_in(&Int::from(-10), &Int::from(0)), 0);
        // half-open: (a, b] includes b
        assert_eq!(chain.count_roots_in(&Int::from(2), &Int::from(3)), 1);
        assert_eq!(chain.count_roots_in(&Int::from(3), &Int::from(4)), 0);
    }

    #[test]
    fn dyadic_interval_counts() {
        // roots at 1/2 and 3/2: 4x^2 - 8x + 3 = (2x-1)(2x-3)
        let f = p(&[3, -8, 4]);
        let chain = SturmChain::new(&f);
        // (0, 1] at µ=1: scaled (0, 2] contains 1/2
        assert_eq!(chain.count_roots_in_dyadic(&Int::from(0), &Int::from(2), 1), 1);
        // (0, 2] at µ=1 → (0,1] real: contains 1/2 only
        assert_eq!(chain.count_roots_in_dyadic(&Int::from(0), &Int::from(4), 1), 2);
        // exactly hitting the root: (1/2, 3/2] contains 3/2
        assert_eq!(chain.count_roots_in_dyadic(&Int::from(1), &Int::from(3), 1), 1);
    }

    #[test]
    fn constant_polynomial_has_no_roots() {
        let chain = SturmChain::new(&p(&[42]));
        assert_eq!(chain.count_distinct_real_roots(), 0);
    }

    #[test]
    fn linear_polynomial() {
        let chain = SturmChain::new(&p(&[-6, 2])); // 2x - 6, root 3
        assert_eq!(chain.count_distinct_real_roots(), 1);
        assert_eq!(chain.count_roots_in(&Int::from(2), &Int::from(3)), 1);
        assert_eq!(chain.count_roots_in(&Int::from(3), &Int::from(5)), 0);
    }

    #[test]
    fn wilkinson_like_dense_roots() {
        let roots: Vec<Int> = (1..=12i64).map(Int::from).collect();
        let f = Poly::from_roots(&roots);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_distinct_real_roots(), 12);
        for k in 1..=12i64 {
            assert_eq!(
                chain.count_roots_in(&Int::from(k - 1), &Int::from(k)),
                1,
                "one root in ({}, {}]",
                k - 1,
                k
            );
        }
    }
}
