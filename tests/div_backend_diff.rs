//! End-to-end differential test of the division kernels.
//!
//! Under `Kernels::Fast` every long `Int` division of the pipeline
//! leaves Knuth's Algorithm D: the remainder sequence's exact divisions
//! and the tree stage's `c²`-scalings take the 2-adic (Hensel) exact
//! kernel with shared `ExactDivisor` inverse caches, and any remaining
//! truncating divisions take the Newton reciprocal. `Kernels::Paper`
//! keeps Algorithm D. The mathematics and the recorded cost model must
//! be bit-identical across the two, under every execution mode; only
//! wall clock and the physical `NewtonDivStats` counters may differ.

use polyroots::core::{ExecMode, Kernels, RootsResult, Session};
use polyroots::mp::NewtonDivStats;
use polyroots::workload::charpoly_input;
use polyroots::{Poly, SolverConfig};

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

fn assert_same_mathematics(a: &RootsResult, b: &RootsResult, cell: &str) {
    assert_eq!(a.roots, b.roots, "roots {cell}");
    assert_eq!(a.n_star, b.n_star, "n_star {cell}");
    assert_eq!(a.n, b.n, "n {cell}");
    assert_eq!(a.stats.cost, b.stats.cost, "stats.cost {cell}");
}

/// `Paper` never enters a Newton kernel; `Fast` routes the pipeline's
/// long exact divisions through the 2-adic kernel, and its shared
/// `ExactDivisor`s lift far fewer inverses than they serve divisions.
fn assert_division_split(paper: &RootsResult, fast: &RootsResult, cell: &str) {
    assert_eq!(paper.stats.newton_div, NewtonDivStats::default(), "{cell}");
    let nd = &fast.stats.newton_div;
    assert!(nd.exact_divs > 0, "2-adic kernel dispatched at {cell}: {nd:?}");
    assert!(nd.hensel_steps < nd.exact_divs, "inverse cache amortizes at {cell}: {nd:?}");
}

#[test]
fn div_backends_differ_only_in_wall_clock() {
    // Higher precision than the paper's µ = 53 lengthens the tree
    // stage's scalings; the remainder sequence's divisions are long from
    // n ≈ 10 on regardless.
    for (n, seed, mu) in [(10usize, 0u64, 128u64), (18, 1, 256), (24, 2, 96)] {
        let p = charpoly_input(n, seed);
        let cell = format!("n={n} seed={seed} µ={mu}");
        let paper = solve(SolverConfig::sequential(mu).with_kernels(Kernels::Paper), &p);
        let fast = solve(SolverConfig::sequential(mu), &p);
        // Division cost is charged at the `Int` layer before either
        // kernel runs, so every phase matches event for event.
        assert_same_mathematics(&paper, &fast, &cell);
        assert_division_split(&paper, &fast, &cell);
    }
}

#[test]
fn full_backend_grid_is_invariant() {
    // Kernel policy × execution mode at one representative size. The
    // roots agree everywhere; the cost model agrees across policies
    // within a mode (the pooled remainder stage attributes its phases
    // differently from the sequential one, so costs are compared per
    // mode).
    let mu = 53;
    let p = charpoly_input(20, 0);
    let reference = solve(SolverConfig::sequential(mu), &p);
    let modes = [
        ExecMode::Sequential,
        ExecMode::Dynamic { threads: 2 },
        ExecMode::Static { threads: 2 },
    ];
    for mode in modes {
        let mut cfg = SolverConfig::parallel(mu, 2);
        cfg.mode = mode;
        let paper = solve(cfg.with_kernels(Kernels::Paper), &p);
        let fast = solve(cfg.with_kernels(Kernels::Fast), &p);
        let cell = format!("{mode:?}");
        assert_same_mathematics(&paper, &fast, &cell);
        assert_eq!(reference.roots, fast.roots, "roots {cell} vs sequential");
        assert_eq!(reference.n_star, fast.n_star, "n_star {cell} vs sequential");
    }
}

#[test]
fn parallel_solves_are_div_backend_invariant() {
    // Worker threads inherit the solve's context, so the kernel policy
    // (and its counters) must follow tasks across the pool.
    let mu = 53;
    let p = charpoly_input(30, 1);
    let cfg = SolverConfig::parallel(mu, 4);
    let paper = solve(cfg.with_kernels(Kernels::Paper), &p);
    let fast = solve(cfg, &p);
    assert_same_mathematics(&paper, &fast, "parallel");
    assert_division_split(&paper, &fast, "parallel");

    // A second identical solve records the same cost, and the same
    // physical counters: dispatch is size-driven, not schedule-driven.
    let again = solve(cfg, &p);
    assert_same_mathematics(&fast, &again, "repeated parallel");
    assert_eq!(
        fast.stats.newton_div, again.stats.newton_div,
        "dispatch decisions are size-driven, hence deterministic"
    );
}
