//! Edge-focused tests for evaluation and scaled evaluation: huge points,
//! zero coefficients, extreme precisions, and Horner-vs-naive agreement
//! at sizes the unit tests don't reach.

use proptest::prelude::*;
use rr_mp::{scratch, Int};
use rr_poly::eval::{eval, ScaledPoly};
use rr_poly::Poly;

#[test]
fn evaluation_at_huge_points() {
    // p(x) = x^5 - x + 1 at x = 2^200: dominated by the top term.
    let p = Poly::from_i64(&[1, -1, 0, 0, 0, 1]);
    let x = Int::pow2(200);
    let v = eval(&p, &x);
    let expect = Int::pow2(1000) - Int::pow2(200) + Int::one();
    assert_eq!(v, expect);
}

#[test]
fn sparse_polynomials() {
    // Only two nonzero coefficients far apart.
    let p = Poly::monomial(Int::from(3), 40) + Poly::constant(Int::from(-7));
    assert_eq!(p.deg(), 40);
    let v = eval(&p, &Int::from(2));
    assert_eq!(v, Int::from(3) * Int::pow2(40) - Int::from(7));
}

#[test]
fn scaled_poly_extreme_mu() {
    // µ = 500 bits on a quadratic: values get large but stay exact.
    let p = Poly::from_i64(&[-2, 0, 1]);
    let mu = 500;
    let sp = ScaledPoly::new(&p, mu);
    // point 3/2 scaled: 3·2^(µ−1)
    let y = Int::from(3) << (mu - 1);
    // 2^(2µ)·((3/2)² − 2) = 2^(2µ)/4 = 2^(2µ−2)
    assert_eq!(sp.eval(&y), Int::pow2(2 * mu - 2));
}

#[test]
fn scaled_poly_mu_zero_is_plain_eval() {
    let p = Poly::from_i64(&[4, -1, 0, 2]);
    let sp = ScaledPoly::new(&p, 0);
    for x in -5i64..=5 {
        assert_eq!(sp.eval(&Int::from(x)), eval(&p, &Int::from(x)));
    }
}

#[test]
fn sign_at_returns_its_accumulator_to_the_arena() {
    let p = Poly::from_roots(&(1..=24i64).map(Int::from).collect::<Vec<_>>());
    let sp = ScaledPoly::new(&p, 54);
    let outstanding = scratch::outstanding_on_thread();
    // One-limb, two-limb and zero points; signs agree with `eval`.
    for y in [Int::from(5) << 53, -(Int::from(7) << 80), Int::zero()] {
        assert_eq!(sp.sign_at(&y), sp.eval(&y).signum());
        assert_eq!(scratch::outstanding_on_thread(), outstanding);
    }
    let retained = scratch::retained_on_thread();
    sp.sign_at(&(Int::from(3) << 54));
    assert_eq!(scratch::retained_on_thread(), retained, "steady state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn horner_matches_naive_summation(
        coeffs in prop::collection::vec(-1_000_000i64..1_000_000, 1..=12),
        x in -1000i64..1000,
    ) {
        let p = Poly::from_i64(&coeffs);
        let xi = Int::from(x);
        let naive: Int = p.coeffs().iter().enumerate()
            .map(|(j, c)| c * xi.pow(j as u32))
            .sum();
        prop_assert_eq!(eval(&p, &xi), naive);
    }

    #[test]
    fn scaled_value_exact_identity(
        coeffs in prop::collection::vec(-1000i64..1000, 2..=8),
        y in -100_000i64..100_000,
        mu in 0u64..24,
    ) {
        let p = Poly::from_i64(&coeffs);
        prop_assume!(!p.is_zero());
        let d = p.deg();
        let sp = ScaledPoly::new(&p, mu);
        // identity: sp.eval(y) == Σ p_j · y^j · 2^{(d−j)µ}
        let direct: Int = p.coeffs().iter().enumerate()
            .map(|(j, c)| (c * Int::from(y).pow(j as u32)) << ((d - j) as u64 * mu))
            .sum();
        prop_assert_eq!(sp.eval(&Int::from(y)), direct);
    }

    #[test]
    fn reflection_evaluation_identity(
        coeffs in prop::collection::vec(-500i64..500, 1..=10),
        x in -50i64..50,
    ) {
        let p = Poly::from_i64(&coeffs);
        prop_assert_eq!(
            eval(&p.reflect(), &Int::from(x)),
            eval(&p, &Int::from(-x))
        );
    }

    #[test]
    fn composition_with_shift_up(
        coeffs in prop::collection::vec(-500i64..500, 1..=6),
        k in 0usize..5,
        x in -20i64..20,
    ) {
        // (p·x^k)(x) == p(x)·x^k
        let p = Poly::from_i64(&coeffs);
        let xi = Int::from(x);
        prop_assert_eq!(
            eval(&p.shift_up(k), &xi),
            eval(&p, &xi) * xi.pow(k as u32)
        );
    }
}
