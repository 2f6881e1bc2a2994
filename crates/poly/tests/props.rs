//! Property-based tests for the polynomial substrate, including the
//! paper's structural invariants on the remainder sequence.

use proptest::prelude::*;
use rr_mp::Int;
use rr_poly::division::{div_exact, pseudo_div_rem};
use rr_poly::eval::{eval, ScaledPoly};
use rr_poly::remainder::remainder_sequence;
use rr_poly::sturm::SturmChain;
use rr_poly::{bounds, gcd, Poly};

fn arb_poly(max_deg: usize, coeff_range: i64) -> impl Strategy<Value = Poly> {
    prop::collection::vec(-coeff_range..=coeff_range, 0..=max_deg + 1)
        .prop_map(|v| Poly::from_i64(&v))
}

fn arb_nonzero_poly(max_deg: usize, coeff_range: i64) -> impl Strategy<Value = Poly> {
    arb_poly(max_deg, coeff_range).prop_filter("nonzero", |p| !p.is_zero())
}

/// Distinct sorted integer roots — a real-rooted squarefree polynomial
/// via `Poly::from_roots`.
fn arb_distinct_roots(max_n: usize) -> impl Strategy<Value = Vec<Int>> {
    prop::collection::btree_set(-50i64..=50, 1..=max_n)
        .prop_map(|s| s.into_iter().map(Int::from).collect())
}

/// Sign variations of `chain` at `y/2^µ` the way `variations_at_dyadic`
/// computed them before it evaluated through `ScaledPoly`: Horner with
/// the operator `*` and `+`, re-shifting each coefficient per step — a
/// test-local reference for the fused path.
fn variations_reference(chain: &SturmChain, y: &Int, mu: u64) -> usize {
    let (mut last, mut count) = (0, 0);
    for s in chain.polys() {
        let sign = if s.is_zero() {
            0
        } else {
            let d = s.deg();
            let mut it = s.coeffs().iter().enumerate().rev();
            let (_, first) = it.next().expect("nonzero");
            let mut acc = first.clone();
            for (j, c) in it {
                acc = &(&acc * y) + &(c << ((d - j) as u64 * mu));
            }
            acc.signum()
        };
        if sign != 0 {
            if last != 0 && sign != last {
                count += 1;
            }
            last = sign;
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sturm_dyadic_variations_match_shift_per_step_reference(
        roots in arb_distinct_roots(6),
        extra in arb_nonzero_poly(2, 30),
        mu in prop::sample::select(vec![0u64, 1, 54, 200]),
        at_root in 0usize..8,
        offset in -3i64..=3,
        far in -80i64..=80,
    ) {
        // Real roots (hit exactly when `offset` is 0) times a factor that
        // may add complex or repeated roots.
        let f = &Poly::from_roots(&roots) * &extra;
        let chain = SturmChain::new(&f);
        let base = roots.get(at_root).cloned().unwrap_or_else(|| Int::from(far));
        let y = &(&base << mu) + &Int::from(offset);
        prop_assert_eq!(
            chain.variations_at_dyadic(&y, mu),
            variations_reference(&chain, &y, mu)
        );
    }

    #[test]
    fn ring_axioms(a in arb_poly(6, 100), b in arb_poly(6, 100), c in arb_poly(6, 100)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
        prop_assert_eq!((&a * &b) * &c, &a * (&b * &c));
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
        prop_assert_eq!(&a - &a, Poly::zero());
    }

    #[test]
    fn degree_of_product(a in arb_nonzero_poly(6, 100), b in arb_nonzero_poly(6, 100)) {
        prop_assert_eq!((&a * &b).deg(), a.deg() + b.deg());
    }

    #[test]
    fn evaluation_is_ring_homomorphism(a in arb_poly(5, 50), b in arb_poly(5, 50), x in -30i64..=30) {
        let x = Int::from(x);
        prop_assert_eq!(eval(&(&a + &b), &x), eval(&a, &x) + eval(&b, &x));
        prop_assert_eq!(eval(&(&a * &b), &x), eval(&a, &x) * eval(&b, &x));
    }

    #[test]
    fn derivative_is_linear_and_leibniz(a in arb_poly(5, 50), b in arb_poly(5, 50)) {
        prop_assert_eq!((&a + &b).derivative(), a.derivative() + b.derivative());
        prop_assert_eq!(
            (&a * &b).derivative(),
            &a.derivative() * &b + &a * &b.derivative()
        );
    }

    #[test]
    fn pseudo_division_invariant(a in arb_poly(8, 100), b in arb_nonzero_poly(4, 100)) {
        let pd = pseudo_div_rem(&a, &b);
        prop_assert_eq!(a.scale(&pd.scale), &pd.quot * &b + &pd.rem);
        prop_assert!(pd.rem.is_zero() || pd.rem.deg() < b.deg());
    }

    #[test]
    fn exact_division_roundtrip(a in arb_nonzero_poly(4, 50), b in arb_nonzero_poly(4, 50)) {
        let prod = &a * &b;
        prop_assert_eq!(div_exact(&prod, &a), Some(b.clone()));
        prop_assert_eq!(div_exact(&prod, &b), Some(a.clone()));
    }

    #[test]
    fn scaled_eval_sign_matches_rational_sign(p in arb_nonzero_poly(5, 50), y in -200i64..=200, mu in 0u64..6) {
        // sign of ScaledPoly eval at y equals sign of p evaluated at the
        // rational y/2^mu, cross-checked by clearing denominators by hand.
        let sp = ScaledPoly::new(&p, mu);
        let got = sp.sign_at(&Int::from(y));
        // compute 2^{d·mu} p(y/2^mu) directly: sum p_j y^j 2^{(d-j)mu}
        let d = p.deg();
        let direct: Int = p.coeffs().iter().enumerate()
            .map(|(j, c)| (c * Int::from(y).pow(j as u32)) << ((d - j) as u64 * mu))
            .sum();
        prop_assert_eq!(got, direct.signum());
        prop_assert_eq!(sp.eval(&Int::from(y)), direct);
    }

    #[test]
    fn sturm_counts_match_construction(roots in arb_distinct_roots(7)) {
        let f = Poly::from_roots(&roots);
        let chain = SturmChain::new(&f);
        prop_assert_eq!(chain.count_distinct_real_roots(), roots.len());
        // each unit interval (r-1, r] contains exactly the roots equal to r
        for r in &roots {
            let lo = r - Int::one();
            prop_assert_eq!(chain.count_roots_in(&lo, r), 1);
        }
    }

    #[test]
    fn sturm_on_multiplied_roots_counts_distinct(roots in arb_distinct_roots(4), extra in 0usize..3) {
        // square some factors: counts must not change
        let mut f = Poly::from_roots(&roots);
        for r in roots.iter().take(extra) {
            f = &f * &Poly::from_coeffs(vec![-r, Int::one()]);
        }
        let chain = SturmChain::new(&f);
        prop_assert_eq!(chain.count_distinct_real_roots(), roots.len());
    }

    #[test]
    fn root_bound_encloses_all_roots(roots in arb_distinct_roots(6)) {
        let f = Poly::from_roots(&roots);
        let bits = bounds::root_bound_bits(&f);
        let b = Int::pow2(bits);
        for r in &roots {
            prop_assert!(r.abs() < b);
        }
    }

    #[test]
    fn remainder_sequence_structure(roots in arb_distinct_roots(8)) {
        let n = roots.len();
        prop_assume!(n >= 2);
        let f = Poly::from_roots(&roots);
        let rs = remainder_sequence(&f).unwrap();
        prop_assert_eq!(rs.n, n);
        prop_assert_eq!(rs.n_star, n);
        // normality: deg F_i = n - i, Q_i linear
        for i in 0..=n {
            prop_assert_eq!(rs.f[i].deg(), n - i);
        }
        for i in 1..n {
            prop_assert_eq!(rs.q[i].deg(), 1);
        }
        // each F_{i+1} has exactly n-i-1 distinct real roots (full count)
        for i in 0..n.min(3) {
            if rs.f[i + 1].deg() >= 1 {
                let chain = SturmChain::new(&rs.f[i + 1]);
                prop_assert_eq!(chain.count_distinct_real_roots(), n - i - 1);
            }
        }
    }

    #[test]
    fn remainder_sequence_repeated_roots(roots in arb_distinct_roots(4), dup in 0usize..4) {
        let n_star = roots.len();
        prop_assume!(n_star >= 1);
        let dup = dup.min(n_star);
        let mut all = roots.clone();
        all.extend(roots.iter().take(dup).cloned());
        prop_assume!(all.len() >= 2);
        let f = Poly::from_roots(&all);
        let rs = remainder_sequence(&f).unwrap();
        prop_assert_eq!(rs.n, all.len());
        prop_assert_eq!(rs.n_star, n_star);
        prop_assert_eq!(rs.gcd.is_some(), dup > 0);
        if let Some(g) = &rs.gcd {
            // the gcd's roots are exactly the duplicated ones
            let chain = SturmChain::new(g);
            prop_assert_eq!(chain.count_distinct_real_roots(), dup);
        }
    }

    #[test]
    fn poly_gcd_divides(a in arb_nonzero_poly(3, 20), b in arb_nonzero_poly(3, 20), common in arb_nonzero_poly(2, 10)) {
        let f = &a * &common;
        let g = &b * &common;
        let d = gcd::gcd(&f, &g);
        // common divides d (up to content): deg d >= deg common's primitive
        prop_assert!(d.deg() >= common.primitive_part().deg());
        // d divides both f and g after clearing leading coefficients
        let fd = div_exact(&f.scale(&d.lc().pow((f.deg()) as u32 + 1)), &d);
        prop_assert!(fd.is_some() || div_exact(&f, &d).is_some());
    }

    #[test]
    fn squarefree_part_has_simple_roots(roots in arb_distinct_roots(4)) {
        let mut f = Poly::from_roots(&roots);
        // square everything
        f = &f * &f;
        let sf = gcd::squarefree_part(&f);
        prop_assert_eq!(sf.deg(), roots.len());
        let chain = SturmChain::new(&sf);
        prop_assert_eq!(chain.count_distinct_real_roots(), roots.len());
    }
}
