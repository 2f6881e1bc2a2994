//! Determinism of parallel solves on the fast kernel stack.
//!
//! Under a multi-worker pool, work stealing decides which worker runs
//! which task, and so which thread's arena and which `ExactDivisor`
//! cache serves each product and division. None of that may reach the
//! result: the combine order is fixed by the task tree, so two identical
//! solves must agree limb for limb. (The file keeps the name of the
//! fork-join multiplication suite that held this check before that
//! splitter was removed.)

use polyroots::core::{RootsResult, Session};
use polyroots::workload::charpoly_input;
use polyroots::{Poly, SolverConfig};

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

#[test]
fn repeated_engaged_solves_are_deterministic() {
    let p = charpoly_input(30, 1);
    let cfg = SolverConfig::parallel(53, 4);
    let a = solve(cfg, &p);
    let b = solve(cfg, &p);
    assert_eq!(a.roots, b.roots);
    assert_eq!(a.n_star, b.n_star);
    assert_eq!(a.stats.cost, b.stats.cost);
    assert_eq!(a.stats.newton_div, b.stats.newton_div);
    assert!(a.stats.newton_div.exact_divs > 0, "fast division engaged: {:?}", a.stats.newton_div);
}
