//! End-to-end differential test of the two kernel policies.
//!
//! `Kernels::Fast` (the default) swaps every schoolbook kernel of the
//! pipeline for the fastest one at each operand size: Karatsuba limb
//! products, Kronecker-packed polynomial products, and the Newton /
//! 2-adic division kernels with their shared `ExactDivisor` inverse
//! caches. `Kernels::Paper` runs the schoolbook kernels the paper timed.
//! The mathematics and the recorded cost model must be bit-identical
//! across the two; only wall clock and the physical counters
//! (`SolveStats::newton_div`, `SolveStats::alloc`) may differ.
//!
//! Solves run under the session API, so every solve owns its metrics:
//! `stats.cost` *is* the exact per-phase event count of that solve, and
//! these assertions stay exact while other tests run concurrently. The
//! kernels themselves are compared limb for limb by the `rr-mp` and
//! `rr-poly` differential suites, which call them directly.

use polyroots::core::{Kernels, RootsResult, Session};
use polyroots::mp::NewtonDivStats;
use polyroots::workload::{charpoly_input, with_multiplicities};
use polyroots::{Poly, SolverConfig};

const MU: u64 = 53;

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

/// One test input: a label, the polynomial, and whether its divisions
/// are long enough for the 2-adic kernel to take them under `Fast`.
struct Input {
    cell: String,
    p: Poly,
    long_divisions: bool,
}

/// The paper's charpoly workload at a few sizes (long divisions from
/// n ≈ 10 on), plus one input with repeated roots, whose remainder
/// sequence stops early at the gcd and whose small coefficients stay
/// below every fast-division threshold.
fn inputs() -> Vec<Input> {
    let mut out: Vec<Input> = [(10usize, 0u64), (18, 1), (24, 2), (30, 0)]
        .into_iter()
        .map(|(n, seed)| Input {
            cell: format!("charpoly n={n} seed={seed}"),
            p: charpoly_input(n, seed),
            long_divisions: true,
        })
        .collect();
    let spec = [(-9i64, 2usize), (-2, 1), (0, 3), (5, 1), (13, 2)];
    out.push(Input {
        cell: "multiplicities".into(),
        p: with_multiplicities(&spec),
        long_divisions: false,
    });
    out
}

/// Same roots, same degree bookkeeping, same recorded cost model.
fn assert_same_mathematics(paper: &RootsResult, fast: &RootsResult, cell: &str) {
    assert_eq!(paper.roots, fast.roots, "roots {cell}");
    assert_eq!(paper.n_star, fast.n_star, "n_star {cell}");
    assert_eq!(paper.n, fast.n, "n {cell}");
    // The cost model records events and operand bit lengths at the
    // `Int` layer before any kernel runs, and the Kronecker path replays
    // the schoolbook charge, so every phase matches event for event.
    assert_eq!(paper.stats.cost, fast.stats.cost, "stats.cost {cell}");
    assert!(paper.stats.cost.total().mul_count > 0, "instrumentation alive {cell}");
}

/// Paper never enters a Newton kernel; Fast routes the pipeline's long
/// exact divisions through the 2-adic kernel, and its counters are a
/// function of operand sizes alone, so a second Fast solve repeats them
/// exactly.
fn assert_division_counters(
    input: &Input,
    paper: &RootsResult,
    fast: &RootsResult,
    again: &RootsResult,
) {
    let cell = &input.cell;
    assert_eq!(paper.stats.newton_div, NewtonDivStats::default(), "{cell}");
    let nd = &fast.stats.newton_div;
    if input.long_divisions {
        assert!(nd.exact_divs > 0, "2-adic kernel dispatched at {cell}: {nd:?}");
        // The shared `ExactDivisor`s lift far fewer inverses than they
        // serve divisions.
        assert!(nd.hensel_steps < nd.exact_divs, "inverse cache amortizes at {cell}: {nd:?}");
    }
    assert_eq!(
        again.stats.newton_div, fast.stats.newton_div,
        "division dispatch is size-driven, hence repeatable, at {cell}"
    );
}

#[test]
fn sequential_solves_differ_only_in_wall_clock() {
    for input in inputs() {
        let (cell, p) = (&input.cell, &input.p);
        let paper = solve(SolverConfig::sequential(MU).with_kernels(Kernels::Paper), p);
        let fast = solve(SolverConfig::sequential(MU), p);
        let again = solve(SolverConfig::sequential(MU), p);
        assert_same_mathematics(&paper, &fast, cell);
        assert_same_mathematics(&fast, &again, cell);
        assert_division_counters(&input, &paper, &fast, &again);
    }
}

#[test]
fn parallel_solves_differ_only_in_wall_clock() {
    // Worker tasks inherit the solve's context, so the kernel policy —
    // and the counters it produces — must follow them across the pool.
    for input in inputs() {
        let (cell, p) = (&input.cell, &input.p);
        let cfg = SolverConfig::parallel(MU, 2);
        let paper = solve(cfg.with_kernels(Kernels::Paper), p);
        let fast = solve(cfg, p);
        let again = solve(cfg, p);
        assert_same_mathematics(&paper, &fast, cell);
        assert_same_mathematics(&fast, &again, cell);
        assert_division_counters(&input, &paper, &fast, &again);

        // Scheduling never changes the mathematics either.
        let seq = solve(SolverConfig::sequential(MU), p);
        assert_eq!(seq.roots, fast.roots, "sequential vs parallel roots {cell}");
        assert_eq!(seq.n_star, fast.n_star, "sequential vs parallel n_star {cell}");
    }
}

/// Solves never leak events into the process-global default sink — the
/// whole point of session-scoped metrics.
#[test]
fn solves_do_not_pollute_global_metrics() {
    use polyroots::mp::metrics::{self, Phase};
    let before = metrics::snapshot();
    let p = charpoly_input(14, 3);
    let _ = solve(SolverConfig::parallel(24, 3), &p);
    let _ = solve(SolverConfig::parallel(24, 3).with_kernels(Kernels::Paper), &p);
    let d = metrics::snapshot() - before;
    for phase in [
        Phase::RemainderSeq,
        Phase::TreePoly,
        Phase::Sieve,
        Phase::Bisection,
        Phase::Newton,
    ] {
        assert_eq!(d.phase(phase).mul_count, 0, "{phase:?} leaked to global sink");
    }
}
