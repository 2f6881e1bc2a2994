//! Schoolbook multiplication of magnitudes — the `Kernels::Paper`
//! kernel and the `Fast` base case.
//!
//! Quadratic: multiplying a `p`-bit by a `q`-bit integer costs
//! `Θ(p·q)` bit operations, matching the UNIX `mp` package whose
//! timings the paper's Section 4 analysis models. The subquadratic
//! alternative lives in [`super::kmul`] (Karatsuba, the
//! [`crate::Kernels::Fast`] kernel), which falls through to these
//! routines below its threshold; the
//! `rr-model` predictors are stated in multiplication events and bit
//! lengths, which [`crate::metrics`] records identically under either
//! kernel.

use super::{normalized, trim};
use crate::limb::{mac, Limb};

/// Product of two magnitudes.
pub fn mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_into(a, b, &mut out);
    out
}

/// Schoolbook product written into `out`.
///
/// `out` is cleared and every limb of the product is written before any
/// is read back, so a dirty scratch buffer (see [`crate::scratch`]) is a
/// valid destination; its spare capacity is reused, never read. The
/// operands may alias each other (squaring passes `a` twice) but, as the
/// borrow checker already enforces for safe callers, neither may alias
/// `out`.
pub fn mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    // Keep the inner loop running over the longer operand for better
    // locality of the carry chain.
    let (outer, inner) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.resize(a.len() + b.len(), 0);
    for (i, &x) in outer.iter().enumerate() {
        if x == 0 {
            continue;
        }
        // Row i accumulates x·inner into out[i..i + inner.len()]; its
        // final carry is the row's top limb. No earlier row has written
        // out[i + inner.len()] (row k < i reaches k + inner.len() at
        // most), so it is still zero and the carry is stored, not added.
        let (row, rest) = out[i..].split_at_mut(inner.len());
        let mut carry: Limb = 0;
        for (o, &y) in row.iter_mut().zip(inner) {
            let (lo, hi) = mac(x, y, *o, carry);
            *o = lo;
            carry = hi;
        }
        rest[0] = carry;
    }
    trim(out);
}

/// Product of a magnitude and a single limb.
pub fn mul_limb(a: &[Limb], m: Limb) -> Vec<Limb> {
    if a.is_empty() || m == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry: Limb = 0;
    for &x in a {
        let (lo, hi) = mac(x, m, carry, 0);
        out.push(lo);
        carry = hi;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// In-place `a = a·m + c` in one carry pass — the same-sign Horner
/// step for a one-limb point. `a` is normalized and nonzero, `m`
/// nonzero; the result stays normalized. `a` grows only when the sum
/// needs more limbs than its capacity holds.
pub(crate) fn mul_limb_add_assign(a: &mut Vec<Limb>, m: Limb, c: &[Limb]) {
    debug_assert!(m != 0 && a.last().is_some_and(|&top| top != 0));
    let n = a.len().min(c.len());
    let mut carry: Limb = 0;
    let (low, high) = a.split_at_mut(n);
    for (x, &ci) in low.iter_mut().zip(c) {
        let (lo, hi) = mac(*x, m, ci, carry);
        *x = lo;
        carry = hi;
    }
    for x in high {
        let (lo, hi) = mac(*x, m, 0, carry);
        *x = lo;
        carry = hi;
    }
    // c longer than a: a's product is spent, the rest of c rides the carry.
    for &ci in &c[n..] {
        let (s, o) = ci.overflowing_add(carry);
        a.push(s);
        carry = o as Limb;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// In-place `a = |a·m − c|` in one borrow pass, returning `true` when
/// `a·m < c` (the caller flips the sign). `a` is normalized and
/// nonzero, `m` nonzero; the result is normalized (empty when
/// `a·m = c`). The pass computes `a·m − c` modulo `2^(64·len)`; a
/// final borrow means the true difference is negative, and one
/// two's-complement negation recovers its magnitude.
pub(crate) fn mul_limb_sub_assign(a: &mut Vec<Limb>, m: Limb, c: &[Limb]) -> bool {
    debug_assert!(m != 0 && a.last().is_some_and(|&top| top != 0));
    if a.len() < c.len() {
        a.resize(c.len(), 0);
    }
    let mut carry: Limb = 0;
    let mut borrow = false;
    let (low, high) = a.split_at_mut(c.len());
    for (x, &ci) in low.iter_mut().zip(c) {
        let (lo, hi) = mac(*x, m, carry, 0);
        carry = hi;
        let (d, b1) = lo.overflowing_sub(ci);
        let (d, b2) = d.overflowing_sub(borrow as Limb);
        *x = d;
        borrow = b1 | b2;
    }
    for x in high {
        let (lo, hi) = mac(*x, m, carry, 0);
        carry = hi;
        let (d, b) = lo.overflowing_sub(borrow as Limb);
        *x = d;
        borrow = b;
    }
    // The value is the stored limbs plus (carry − borrow)·2^(64·len);
    // carry − borrow < 0 only when carry is 0 and a borrow is out.
    let negative = carry == 0 && borrow;
    if negative {
        negate_twos_complement(a);
    } else if carry - borrow as Limb != 0 {
        a.push(carry - borrow as Limb);
    }
    trim(a);
    negative
}

/// `a = 2^(64·len) − a` over `a`'s limbs: every limb is complemented
/// and one is added, which ripples through the low zero limbs only.
fn negate_twos_complement(a: &mut [Limb]) {
    let mut limbs = a.iter_mut();
    for x in limbs.by_ref() {
        if *x != 0 {
            *x = x.wrapping_neg();
            break;
        }
    }
    for x in limbs {
        *x = !*x;
    }
}

/// Square of a magnitude (schoolbook; same cost model as [`mul`]).
pub fn square(a: &[Limb]) -> Vec<Limb> {
    mul(a, a)
}

/// In-place multiply-accumulate used by Algorithm D's trial subtraction:
/// subtracts `q * v` from the `v.len() + 1` limbs of `u` starting at
/// offset 0, returning the final borrow.
pub(crate) fn sub_mul_limb(u: &mut [Limb], v: &[Limb], q: Limb) -> Limb {
    debug_assert_eq!(u.len(), v.len() + 1);
    let mut borrow: Limb = 0; // borrow + carry of q*v, ≤ 2^64 - 1
    for (ui, &vi) in u.iter_mut().zip(v) {
        // t = q*vi + borrow fits in 128 bits.
        let t = q as u128 * vi as u128 + borrow as u128;
        let (lo, hi) = ((t as Limb), (t >> 64) as Limb);
        let (d, under) = ui.overflowing_sub(lo);
        *ui = d;
        borrow = hi + under as Limb; // ≤ 2^64-1: hi ≤ 2^64-2 when under can be 1
    }
    let last = u.len() - 1;
    let (d, under) = u[last].overflowing_sub(borrow);
    u[last] = d;
    under as Limb
}

/// Adds `v` into the `v.len() + 1` limbs of `u` (Algorithm D's add-back),
/// returning the final carry (always consumed by the preceding borrow).
pub(crate) fn add_back(u: &mut [Limb], v: &[Limb]) -> Limb {
    debug_assert_eq!(u.len(), v.len() + 1);
    let mut carry: Limb = 0;
    for (ui, &vi) in u.iter_mut().zip(v) {
        let s = *ui as u128 + vi as u128 + carry as u128;
        *ui = s as Limb;
        carry = (s >> 64) as Limb;
    }
    let last = u.len() - 1;
    let (s, c) = u[last].overflowing_add(carry);
    u[last] = s;
    c as Limb
}

/// Convenience wrapper producing a normalized result from possibly
/// denormalized inputs (used by tests). Dispatches under the active
/// kernel policy, so under `Fast` large products divide-and-conquer.
pub fn mul_normalizing(a: Vec<Limb>, b: Vec<Limb>) -> Vec<Limb> {
    super::mul_auto(&normalized(a), &normalized(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat;

    fn n(v: u128) -> Vec<Limb> {
        nat::normalized(vec![v as Limb, (v >> 64) as Limb])
    }

    fn val(a: &[Limb]) -> u128 {
        assert!(a.len() <= 2, "value too large for u128");
        a.first().copied().unwrap_or(0) as u128
            | (a.get(1).copied().unwrap_or(0) as u128) << 64
    }

    #[test]
    fn small_products_match_u128() {
        let cases: &[(u128, u128)] = &[
            (0, 0),
            (0, 7),
            (1, 1),
            (12345, 6789),
            (u64::MAX as u128, u64::MAX as u128),
            (u64::MAX as u128, 2),
            ((1u128 << 100) - 3, 5),
        ];
        for &(x, y) in cases {
            if x.checked_mul(y).is_some() {
                assert_eq!(val(&mul(&n(x), &n(y))), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn max_times_max_two_limbs() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let p = mul(&n(u128::MAX), &n(u128::MAX));
        assert_eq!(p, vec![1, 0, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn mul_limb_matches_mul() {
        for &m in &[0u64, 1, 7, u64::MAX] {
            let a = n(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
            assert_eq!(mul_limb(&a, m), mul(&a, &n(m as u128)));
        }
    }

    #[test]
    fn square_matches_mul() {
        let a = n(0xdead_beef_cafe_babe_1234_5678_9abc_def0);
        assert_eq!(square(&a), mul(&a, &a));
    }

    #[test]
    fn commutative_on_uneven_lengths() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![9, 8];
        assert_eq!(mul(&a, &b), mul(&b, &a));
    }

    #[test]
    fn distributes_over_add() {
        let a = n(0xffff_ffff_ffff_ffff_ffff);
        let b = n(0x1234_5678_9abc);
        let c = n(0xfedc_ba98_7654_3210);
        let lhs = mul(&a, &nat::add(&b, &c));
        let rhs = nat::add(&mul(&a, &b), &mul(&a, &c));
        assert_eq!(lhs, rhs);
    }
}
