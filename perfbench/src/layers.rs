//! Per-layer probes that call `rr-poly` and `rr-mp` directly: the
//! remainder sequence, and the limb rate of public `Int` operations on
//! operands taken from the workload's own inputs.

use crate::metrics::{self, MP_BUCKETS, MP_OPS};
use crate::obs::Spans;
use crate::stats;
use rr_mp::Int;
use rr_poly::remainder::{remainder_sequence, RemainderSeq};
use rr_poly::Poly;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operands kept per size bucket.
const SAMPLES: usize = 6;
/// Minimum timed span per (operation, bucket) cell.
const CELL_TIME: Duration = Duration::from_millis(25);

/// Times `remainder_sequence` once per input; returns the median wall in
/// ms and the sequences (the operand source for [`mp_rates`]).
pub fn remainder_sequences(inputs: &[Poly], spans: &mut Spans) -> (f64, Vec<RemainderSeq>) {
    let mut walls = Vec::new();
    let mut seqs = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let t = Instant::now();
        let seq =
            remainder_sequence(input).expect("workload inputs have a normal remainder sequence");
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        spans.record("poly.remainder_sequence", None, i as u64, t, Instant::now());
        seqs.push(seq);
    }
    (stats::median(&walls), seqs)
}

fn limbs(x: &Int) -> usize {
    x.magnitude().len()
}

fn bucket_of(n: usize) -> usize {
    MP_BUCKETS
        .iter()
        .position(|&(_, max)| n <= max)
        .expect("the last bucket is unbounded")
}

/// Operands by bucket: the coefficients of every remainder polynomial,
/// then products of the largest of them, as the tree stage forms
/// products of remainder polynomials, until every bucket is stocked.
fn operands(seqs: &[RemainderSeq]) -> Vec<Vec<Int>> {
    let mut level: Vec<Int> = seqs
        .iter()
        .flat_map(|s| s.f.iter().flat_map(|f| f.coeffs().iter()))
        .filter(|c| !c.is_zero())
        .map(Int::abs)
        .collect();
    let mut all = level.clone();
    let top_bucket = MP_BUCKETS.len() - 1;
    for _ in 0..8 {
        if all
            .iter()
            .filter(|x| bucket_of(limbs(x)) == top_bucket)
            .count()
            >= SAMPLES
        {
            break;
        }
        level.sort_by_key(|x| std::cmp::Reverse(limbs(x)));
        level = level
            .windows(2)
            .take(4 * SAMPLES)
            .map(|p| &p[0] * &p[1])
            .collect();
        all.extend(level.iter().cloned());
    }
    let mut buckets = vec![Vec::new(); MP_BUCKETS.len()];
    all.sort_by_key(limbs);
    all.dedup();
    for x in all {
        buckets[bucket_of(limbs(&x))].push(x);
    }
    // Spread the samples evenly over each bucket's size range.
    buckets
        .into_iter()
        .map(|b| {
            let step = (b.len() / SAMPLES).max(1);
            b.into_iter().step_by(step).take(SAMPLES).collect()
        })
        .collect()
}

/// Nanoseconds per limb-pair product of `op` over the operand pairs:
/// whole passes over the pairs are timed until [`CELL_TIME`] has passed.
fn rate(pairs: &[(Int, Int)], op: &str) -> f64 {
    // Work of one pass, in limb pairs: operand × operand for products,
    // quotient × divisor for divisions.
    let work: usize = pairs.iter().map(|(a, b)| limbs(a) * limbs(b)).sum();
    let prepared: Vec<(Int, Int)> = pairs
        .iter()
        .map(|(a, b)| match op {
            "div_rem" => (&(a * b) + &(b >> 1), b.clone()),
            "div_exact" => (a * b, b.clone()),
            _ => (a.clone(), b.clone()),
        })
        .collect();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < CELL_TIME {
        for (a, b) in &prepared {
            match op {
                "mul" => drop(black_box(black_box(a) * black_box(b))),
                "sqr" => drop(black_box(black_box(a).square())),
                "div_rem" => drop(black_box(black_box(a).div_rem(black_box(b)))),
                "div_exact" => drop(black_box(black_box(a).div_exact(black_box(b)))),
                _ => unreachable!("unknown op {op}"),
            }
        }
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * work as f64)
}

/// Sets `mp.<op>.ns_per_limbpair.<bucket>` for every op and bucket.
pub fn mp_rates(seqs: &[RemainderSeq], spans: &mut Spans, out: &mut metrics::RunResult) {
    let buckets = operands(seqs);
    for op in MP_OPS {
        for ((bucket, _), xs) in MP_BUCKETS.iter().zip(&buckets) {
            assert!(!xs.is_empty(), "no operands in bucket {bucket}");
            let pairs: Vec<(Int, Int)> = (0..xs.len())
                .map(|j| {
                    let a = xs[j].clone();
                    let b = if op == "sqr" {
                        a.clone()
                    } else {
                        xs[(j + 1) % xs.len()].clone()
                    };
                    (a, b)
                })
                .collect();
            let name = format!("mp.{op}.ns_per_limbpair.{bucket}");
            let (r, _) = spans.time(&name, None, 0, || rate(&pairs, op));
            out.set(&name, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_stock_every_bucket_from_small_inputs() {
        let inputs: Vec<Poly> = (0..2).map(|s| rr_workload::charpoly_input(16, s)).collect();
        let (_, seqs) = remainder_sequences(&inputs, &mut Spans::new(false));
        let buckets = operands(&seqs);
        for (b, (name, max)) in buckets.iter().zip(MP_BUCKETS) {
            assert!(!b.is_empty(), "bucket {name} empty");
            assert!(b
                .iter()
                .all(|x| limbs(x) <= max && bucket_of(limbs(x)) == bucket_of(limbs(&b[0]))));
        }
    }
}
