//! Allocation gate for the interval stage's unit of work: a sign test.
//!
//! `ScaledPoly::sign_at` runs Horner's rule through the fused, in-place
//! `Int::mul_add_assign` step in an accumulator borrowed from the
//! thread's scratch arena, so once the arena is warm a sign test must
//! not reach the heap at all. `alloc_gate` counts only arena misses;
//! this binary installs a counting global allocator and so also catches
//! any allocation outside the arena (a temporary `Int`, a growing
//! accumulator, a metrics buffer).

use polyroots::mp::Int;
use polyroots::poly::eval::ScaledPoly;
use polyroots::workload::charpoly_input;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made by
/// the calling thread (other test threads do not disturb the count).
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn heap_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_sign_test_does_not_allocate() {
    const MU: u64 = 54;
    let sp = ScaledPoly::new(&charpoly_input(64, 0), MU);
    // A one-limb grid point (3/2 at µ = 54) and a two-limb one (−2^20).
    let points = [Int::from(3) << (MU - 1), -(Int::one() << (MU + 20))];
    let limbs: Vec<usize> = points.iter().map(|y| y.magnitude().len()).collect();
    assert_eq!(limbs, [1, 2]);
    for y in &points {
        let warm = sp.sign_at(y);
        let mut sign = 0;
        let allocs = heap_allocations(|| sign = sp.sign_at(y));
        assert_eq!(sign, warm);
        assert_eq!(sign, sp.eval(y).signum());
        let limbs = y.magnitude().len();
        assert_eq!(
            allocs, 0,
            "warm sign test at a {limbs}-limb point allocated"
        );
    }
}
