//! Allocation gate: the scratch arenas keep a warm solve off the system
//! allocator.
//!
//! Every hot-path temporary — the remainder step, the tree-stage matrix
//! products, Karatsuba splits, Newton division — comes from the calling
//! thread's scratch arena, and every acquisition that still reaches the
//! allocator is counted per phase in `SolveStats::alloc`. A sequential
//! solve runs on the calling thread, so repeating it there finds the
//! arena warm: the remainder phase must allocate nothing, and the whole
//! solve at most `TOTAL_CEILING` buffers.
//!
//! The gate reads the second repeat. Some scratch buffers leave the
//! arena for good as the storage of a result, so the first repeat may
//! still grow one buffer to a size the cold solve served fresh (one
//! allocation, measured in debug builds, where debug assertions add
//! scratch traffic); from then on the arena holds every size the solve
//! asks for.

use polyroots::core::Session;
use polyroots::mp::metrics::Phase;
use polyroots::workload::charpoly_input;
use polyroots::SolverConfig;

/// Scratch allocations allowed in a whole warm n = 64 solve. The
/// measured count is 0; the ceiling leaves room for operand-size drift
/// without letting a hot path that bypasses the arena through.
const TOTAL_CEILING: u64 = 256;

#[test]
fn repeated_sequential_solve_stays_off_the_allocator() {
    let session = Session::new(SolverConfig::sequential(53));
    let p = charpoly_input(64, 0);
    let cold = session.solve(&p).unwrap();
    let _settle = session.solve(&p).unwrap();
    let warm = session.solve(&p).unwrap();
    assert_eq!(cold.roots, warm.roots);
    assert!(
        cold.stats.alloc.total().allocs > 0,
        "the cold solve fills the arena: {:?}",
        cold.stats.alloc.total()
    );

    let rem = warm.stats.alloc.phase(Phase::RemainderSeq);
    assert_eq!(rem.allocs, 0, "remainder phase allocated on a warm thread: {rem:?}");
    let total = warm.stats.alloc.total();
    assert!(
        total.allocs <= TOTAL_CEILING,
        "warm solve allocated {} scratch buffers (ceiling {TOTAL_CEILING}): {total:?}",
        total.allocs
    );
}
