//! End-to-end differential test of the multiplication kernels.
//!
//! `Kernels::Fast` runs Karatsuba limb products and Kronecker-packed
//! polynomial products where their size gates say they pay;
//! `Kernels::Paper` runs schoolbook everywhere. The cost model records
//! model events and operand bit lengths above both, so the two must
//! agree event for event. This suite drives the multiplication-heavy
//! corner — high precision and multi-limb coefficients — and the
//! metrics exactness of parallel solves; `kernels_diff.rs` covers the
//! paper's workload at µ = 53 and the division counters.

use polyroots::core::{Kernels, RootsResult, Session};
use polyroots::workload::charpoly_input;
use polyroots::{Int, Poly, SolverConfig};

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

fn assert_same_mathematics(a: &RootsResult, b: &RootsResult, cell: &str) {
    assert_eq!(a.roots, b.roots, "roots {cell}");
    assert_eq!(a.n_star, b.n_star, "n_star {cell}");
    assert_eq!(a.n, b.n, "n {cell}");
    assert_eq!(a.stats.cost, b.stats.cost, "stats.cost {cell}");
    assert!(a.stats.cost.total().mul_count > 0, "instrumentation alive {cell}");
}

#[test]
fn backends_differ_only_in_wall_clock() {
    // High precision lengthens every tree-stage and refinement operand;
    // roots at ±10^9 make every coefficient multi-limb from the start.
    let big = 1_000_000_000i64;
    let wide = Poly::from_roots(&[-big, -7, 0, 3, big].map(Int::from));
    let cases = [
        ("charpoly n=12 µ=256", charpoly_input(12, 0), 256u64),
        ("charpoly n=18 µ=512", charpoly_input(18, 1), 512),
        ("roots ±1e9 µ=200", wide, 200),
    ];
    for (cell, p, mu) in &cases {
        let paper = solve(SolverConfig::sequential(*mu).with_kernels(Kernels::Paper), p);
        let fast = solve(SolverConfig::sequential(*mu), p);
        assert_same_mathematics(&paper, &fast, cell);
    }

    // Metrics exactness around a parallel solve: per-solve cost must be
    // deterministic (no events lost or double-counted across worker
    // threads) and kernel-invariant.
    let mu = 53;
    let p = charpoly_input(20, 0);
    let cfg = SolverConfig::parallel(mu, 4);
    let par1 = solve(cfg, &p);
    let par2 = solve(cfg, &p);
    assert_same_mathematics(&par1, &par2, "repeated parallel solve");
    let par_paper = solve(cfg.with_kernels(Kernels::Paper), &p);
    assert_same_mathematics(&par_paper, &par1, "parallel Paper vs Fast");

    // Scheduling never changes the mathematics.
    let seq = solve(SolverConfig::sequential(mu), &p);
    assert_eq!(seq.roots, par1.roots);
    assert_eq!(seq.n_star, par1.n_star);
}
