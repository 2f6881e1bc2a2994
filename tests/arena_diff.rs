//! End-to-end differential test of the scratch arenas.
//!
//! Every hot-path temporary — the remainder step, the tree-stage matrix
//! products, Karatsuba splits, Newton division — comes from the calling
//! thread's scratch arena. The arena is a pure storage optimization: a
//! solve that finds it cold and one that finds it warm must agree on the
//! mathematics and the recorded cost model, under either kernel policy;
//! only wall clock and the physical allocation counters
//! (`SolveStats::alloc`) may differ. The absolute warm-solve ceiling at
//! n = 64 lives in `alloc_gate.rs`.
//!
//! Each case runs on a freshly spawned thread, so its first solve is
//! guaranteed to find the thread's arena empty whatever other tests ran
//! before on the harness thread.

use polyroots::core::{Kernels, RootsResult, Session};
use polyroots::mp::metrics::Phase;
use polyroots::workload::charpoly_input;
use polyroots::{Poly, SolverConfig};

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

/// Runs `f` on a new thread, whose scratch arena starts empty.
fn on_cold_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().unwrap()
}

/// Same roots, same degree bookkeeping, same recorded cost model.
fn assert_same_mathematics(a: &RootsResult, b: &RootsResult, cell: &str) {
    assert_eq!(a.roots, b.roots, "roots {cell}");
    assert_eq!(a.n_star, b.n_star, "n_star {cell}");
    assert_eq!(a.n, b.n, "n {cell}");
    assert_eq!(a.stats.cost, b.stats.cost, "stats.cost {cell}");
}

#[test]
fn arena_differs_only_in_allocation_counters() {
    for (n, seed) in [(10usize, 0u64), (18, 1), (24, 2), (30, 0)] {
        let cell = format!("n={n} seed={seed}");
        let (cold, warm) = on_cold_thread(move || {
            let p = charpoly_input(n, seed);
            let cfg = SolverConfig::sequential(53);
            (solve(cfg, &p), solve(cfg, &p))
        });

        // The solver charges model costs before any kernel touches a
        // buffer, and buffer reuse never changes which kernels run — so
        // every phase's counts and bit costs match event for event.
        assert_same_mathematics(&cold, &warm, &cell);

        // The physical counters tell the two solves apart: the cold
        // solve fills the arena, the warm one is served from it.
        let (a_cold, a_warm) = (cold.stats.alloc.total(), warm.stats.alloc.total());
        assert!(
            a_cold.allocs > a_warm.allocs,
            "arena reuse at {cell}: cold={a_cold:?} warm={a_warm:?}"
        );
    }
}

#[test]
fn remainder_phase_allocations_collapse_under_arena() {
    // The subresultant remainder sequence is the allocation-bound phase
    // the arena was built for, and both kernel policies route its
    // temporaries through scratch.
    for kernels in [Kernels::Paper, Kernels::Fast] {
        let (cold, warm) = on_cold_thread(move || {
            let p = charpoly_input(28, 0);
            let cfg = SolverConfig::sequential(53).with_kernels(kernels);
            (solve(cfg, &p), solve(cfg, &p))
        });
        let rem_cold = cold.stats.alloc.phase(Phase::RemainderSeq);
        let rem_warm = warm.stats.alloc.phase(Phase::RemainderSeq);
        assert!(
            rem_cold.allocs > 0,
            "{kernels:?}: the remainder step routes temporaries through scratch: {rem_cold:?}"
        );
        assert!(
            rem_warm.allocs * 3 <= rem_cold.allocs,
            "{kernels:?}: remainder-phase reuse: cold={rem_cold:?} warm={rem_warm:?}"
        );
    }
}

#[test]
fn parallel_solves_are_arena_invariant() {
    // Worker threads each hold their own arena, which outlives the
    // solve on the shared pool. How warm each worker's arena is depends
    // on which tasks it stole and what earlier solves left behind, which
    // is why the allocation counters stay outside the cost model; roots
    // and cost may not move.
    let mu = 53;
    let p = charpoly_input(30, 1);
    let cfg = SolverConfig::parallel(mu, 4);
    let first = solve(cfg, &p);
    let second = solve(cfg, &p);
    assert_same_mathematics(&first, &second, "repeated parallel solve");

    // A caller thread whose arena an earlier sequential solve warmed
    // changes nothing either.
    let seq = solve(SolverConfig::sequential(mu), &p);
    let after = solve(cfg, &p);
    assert_same_mathematics(&first, &after, "parallel solve after a warm caller");
    assert_eq!(seq.roots, after.roots);
    assert_eq!(seq.n_star, after.n_star);
}

#[test]
fn arena_composes_with_backend_grid() {
    // Both kernel policies share one thread's arena: buffers a `Paper`
    // solve left behind serve a `Fast` solve and back, and interleaving
    // them leaves roots and cost untouched.
    let solves = on_cold_thread(|| {
        let p = charpoly_input(20, 0);
        [Kernels::Paper, Kernels::Fast, Kernels::Paper, Kernels::Fast]
            .map(|k| (k, solve(SolverConfig::sequential(53).with_kernels(k), &p)))
    });
    let reference = &solves[0].1;
    for (i, (kernels, other)) in solves.iter().enumerate() {
        assert_same_mathematics(reference, other, &format!("solve {i} {kernels:?}"));
    }
    // Each policy's repeat finds the arena at least as warm as its first
    // run did.
    for (first, repeat) in [(&solves[0], &solves[2]), (&solves[1], &solves[3])] {
        let (a, b) = (first.1.stats.alloc.total(), repeat.1.stats.alloc.total());
        assert!(b.allocs <= a.allocs, "{:?}: first={a:?} repeat={b:?}", first.0);
    }
}
