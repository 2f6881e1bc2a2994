//! The frozen host reference loop.
//!
//! A fixed 32×32-limb schoolbook product written here, in the
//! benchmark's own code: it calls nothing in the repository, so no change
//! to the program can move it. Timing it just before and just after a
//! solve measures how fast the host runs at that moment; solve wall over
//! that reference is the host-normalised solve time.
//!
//! On a shared host the clock swings between speed states about 1.5×
//! apart, and one state can last minutes: raw walls of whole runs move
//! with it, walls over the reference loop do not. The benchmark gates
//! only normalised figures.

use std::hint::black_box;
use std::time::Instant;

const LIMBS: usize = 32;
/// Products per reference loop: 0.3–0.5 ms on one Xeon server core,
/// short next to the solves it brackets.
const REPS: usize = 320;

fn schoolbook(a: &[u64; LIMBS], b: &[u64; LIMBS], out: &mut [u64; 2 * LIMBS]) {
    out.fill(0);
    for i in 0..LIMBS {
        let mut carry = 0u128;
        for j in 0..LIMBS {
            let t = a[i] as u128 * b[j] as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + LIMBS] = carry as u64;
    }
}

/// The reference loop's wall on the host that set-up times are scaled
/// to: one core of a 2-core Xeon server in its slower speed state.
/// Frozen, like the loop: `setup_s` is set-up wall × this ÷ the loop's
/// wall at set-up time, seconds on that nominal host.
pub const NOMINAL_REF_MS: f64 = 0.5;

/// Runs the reference loop once and returns its wall time in ms.
pub fn ref_ms() -> f64 {
    let mut a = [0u64; LIMBS];
    let mut b = [0u64; LIMBS];
    for i in 0..LIMBS {
        a[i] = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
        b[i] = 0xd1b5_4a32_d192_ed03u64.wrapping_mul(i as u64 + 7);
    }
    let mut out = [0u64; 2 * LIMBS];
    let t = Instant::now();
    for _ in 0..REPS {
        schoolbook(black_box(&a), black_box(&b), &mut out);
        // Feed the product back so no iteration can be hoisted.
        a[0] ^= black_box(out[LIMBS / 2]);
    }
    black_box(&out);
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `n` reference loops run back to back, in ms: the host's
/// speed at this moment, robust to one loop being preempted.
pub fn ref_ms_median(n: usize) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| ref_ms()).collect();
    crate::stats::median(&samples)
}

/// Reference loops on each side of a bracketed solve. One loop varies by
/// ±20% on a shared host; the median of three keeps the normalised time
/// of the 3–10 ms solves of small inputs steady.
const BRACKET_LOOPS: usize = 3;

/// Reference samples taken around timed work: each solve adds the
/// reference timed just before and just after it.
#[derive(Default)]
pub struct RefClock {
    pub samples: Vec<f64>,
}

impl RefClock {
    /// Times `f` bracketed by the reference loop; returns its result, its
    /// wall in ms, and the mean of the reference before and after, in ms.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = ref_ms_median(BRACKET_LOOPS);
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64() * 1e3;
        let after = ref_ms_median(BRACKET_LOOPS);
        self.samples.extend([before, after]);
        (out, wall, (before + after) / 2.0)
    }

    /// Times `f` bracketed by the reference loop; returns its result and
    /// its wall over the mean of the reference before and after.
    pub fn normalised<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, wall, reference) = self.bracket(f);
        (out, wall / reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_product_is_exact() {
        let a = [u64::MAX; LIMBS];
        let mut out = [0u64; 2 * LIMBS];
        schoolbook(&a, &a, &mut out);
        // (B^32 − 1)² = B^64 − 2·B^32 + 1 with B = 2^64.
        assert_eq!(out[0], 1);
        assert!(out[1..LIMBS].iter().all(|&l| l == 0));
        assert_eq!(out[LIMBS], u64::MAX - 1);
        assert!(out[LIMBS + 1..].iter().all(|&l| l == u64::MAX));
    }

    #[test]
    fn reference_loop_takes_measurable_time() {
        assert!(ref_ms() > 0.0);
    }
}
