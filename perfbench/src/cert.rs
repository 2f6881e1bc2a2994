//! The correctness gate: certifies a reference answer with public
//! `rr-poly` calls, independently of the solver pipeline.
//!
//! An answer `Y_1 < … < Y_k` claims that the distinct real roots of `p`
//! are `x_i` with `⌈2^µ·x_i⌉ = Y_i`, i.e. `x_i ∈ ((Y_i−1)/2^µ, Y_i/2^µ]`.
//! The certificate checks, for the squarefree part `s` of `p`:
//!
//! 1. the `Y_i` are strictly increasing, so the intervals are disjoint;
//! 2. `s` vanishes at `Y_i/2^µ`, or is nonzero with opposite signs at the
//!    two ends of the interval, so each interval holds a root;
//! 3. `k` equals the number of distinct real roots of `p`.
//!
//! Together these put exactly one root in each interval. When `k = deg p`
//! the degree bound already gives 3 (a degree-`k` polynomial with a root
//! in each of `k` disjoint intervals has exactly those `k` roots, all
//! simple, so `s = p`), and the certificate evaluates `p` directly. Only
//! inputs with repeated roots pay for `squarefree_part` and the Sturm
//! count, which take seconds at n = 80.

use rr_mp::Int;
use rr_poly::eval::ScaledPoly;
use rr_poly::gcd::squarefree_part;
use rr_poly::sturm::SturmChain;
use rr_poly::Poly;
use std::time::Instant;

/// Checks that `ys` (scaled numerators at precision `mu`) is the
/// µ-approximation of the distinct real roots of `p`. Appends the wall
/// time of each `ScaledPoly::sign_at` call, in µs, to `sign_us`.
pub fn certify(p: &Poly, ys: &[Int], mu: u64, sign_us: &mut Vec<f64>) -> Result<(), String> {
    if let Some(i) = ys.windows(2).position(|w| w[0] >= w[1]) {
        return Err(format!(
            "roots {i} and {} are not strictly increasing",
            i + 1
        ));
    }
    let deg = p.deg();
    let s = match ys.len() {
        k if k > deg => return Err(format!("{k} roots for a degree-{deg} polynomial")),
        k if k == deg => p.clone(),
        k => {
            let s = squarefree_part(p);
            let count = SturmChain::new(&s).count_distinct_real_roots();
            if k != count {
                return Err(format!("{k} roots but {count} distinct real roots"));
            }
            s
        }
    };
    let scaled = ScaledPoly::new(&s, mu);
    let mut sign = |y: &Int| {
        let t = Instant::now();
        let v = scaled.sign_at(y);
        sign_us.push(t.elapsed().as_secs_f64() * 1e6);
        v
    };
    for (i, y) in ys.iter().enumerate() {
        let hi = sign(y);
        if hi == 0 {
            continue;
        }
        let lo = sign(&(y - &Int::one()));
        if lo == 0 || lo == hi {
            return Err(format!(
                "root {i}: no sign change on ((Y-1)/2^mu, Y/2^mu] for Y = {y}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::{Session, SolverConfig};

    const MU: u64 = 54;

    fn solved(p: &Poly) -> Vec<Int> {
        let r = Session::new(SolverConfig::sequential(MU))
            .solve(p)
            .expect("solve");
        r.roots.into_iter().map(|d| d.num).collect()
    }

    fn rejects_every_one_ulp_perturbation(p: &Poly) {
        let ys = solved(p);
        certify(p, &ys, MU, &mut Vec::new()).expect("the solver's answer certifies");
        for i in 0..ys.len() {
            for delta in [Int::one(), -Int::one()] {
                let mut bad = ys.clone();
                bad[i] = &bad[i] + &delta;
                assert!(
                    certify(p, &bad, MU, &mut Vec::new()).is_err(),
                    "root {i} moved by {delta} passed"
                );
            }
        }
    }

    #[test]
    fn rejects_a_root_off_by_one_ulp_on_a_paper_input() {
        // Squarefree: the degree-bound path.
        rejects_every_one_ulp_perturbation(&rr_workload::charpoly_input(12, 3));
    }

    #[test]
    fn rejects_a_root_off_by_one_ulp_with_repeated_roots() {
        // Exact dyadic roots with multiplicities: the Sturm path, and the
        // interval's open left end.
        rejects_every_one_ulp_perturbation(&rr_workload::with_multiplicities(&[
            (-2, 3),
            (1, 2),
            (3, 1),
        ]));
    }

    #[test]
    fn rejects_missing_and_unordered_roots() {
        let p = rr_workload::charpoly_input(10, 1);
        let ys = solved(&p);
        assert!(certify(&p, &ys[1..], MU, &mut Vec::new()).is_err());
        let mut swapped = ys.clone();
        swapped.swap(0, 1);
        assert!(certify(&p, &swapped, MU, &mut Vec::new()).is_err());
        let mut timings = Vec::new();
        certify(&p, &ys, MU, &mut timings).unwrap();
        assert!(timings.len() >= ys.len());
    }
}
