//! **Figure 8**: comparison with the sequential comparator at
//! µ = 30 digits for degrees up to 30.
//!
//! The paper compared against the PARI package's root finder; this repo's
//! stand-in is Sturm isolation + bisection over the same arithmetic (see
//! DESIGN.md's substitution table). The three paper observations to
//! reproduce:
//!
//! 1. the baseline is competitive (or better) at small degree;
//! 2. the tree algorithm wins beyond a crossover degree;
//! 3. the baseline is insensitive to µ while the tree algorithm's cost
//!    falls with µ (PARI computed at full precision regardless; our
//!    baseline reproduces that with `--fixed-internal` which refines at
//!    a fixed working precision and rounds).
//!
//! Both methods run on the paper's kernels ([`Kernels::Paper`]): this is
//! a wall-clock comparison, and the paper timed the quadratic `mp`
//! arithmetic.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin fig8_baseline -- \
//!     [--max-n 30] [--reps 1] [--json fig8.json]
//! ```

use rr_baseline::{find_real_roots, BaselineConfig};
use rr_bench::{digits_to_bits, impl_to_json, maybe_write_json, time_best, Args};
use rr_core::{Kernels, RootApproximator, SolverConfig};
use rr_mp::SolveCtx;
use rr_workload::charpoly_input;

struct Row {
    n: usize,
    tree_secs: f64,
    baseline_secs: f64,
}
impl_to_json!(Row { n, tree_secs, baseline_secs });

fn main() {
    let args = Args::parse();
    let max_n: usize = args.get("max-n").unwrap_or(30);
    let reps: usize = args.get("reps").unwrap_or(1);
    let mu = digits_to_bits(30);
    let paper = SolveCtx::new(Kernels::Paper);
    let config = |mu| SolverConfig::sequential(mu).with_kernels(Kernels::Paper);

    println!("Figure 8 reproduction: tree algorithm vs Sturm baseline, µ = 30 digits ({mu} bits)");
    println!("  n  | tree (s)   | sturm (s)  | sturm/tree");
    println!(" ----+------------+------------+-----------");
    let mut rows = Vec::new();
    for n in (6..=max_n).step_by(4) {
        let p = charpoly_input(n, 0);
        let solver = RootApproximator::new(config(mu));
        let (ours, t_tree) = time_best(reps, || solver.approximate_roots(&p).unwrap());
        let cfg = BaselineConfig::new(mu);
        let (theirs, t_base) =
            time_best(reps, || paper.run(|| find_real_roots(&p, &cfg).unwrap()));
        assert_eq!(
            ours.roots.iter().map(|r| r.num.clone()).collect::<Vec<_>>(),
            theirs,
            "methods must agree bit for bit"
        );
        println!(
            " {:>3} | {:>10.4} | {:>10.4} | {:>9.2}",
            n,
            t_tree.as_secs_f64(),
            t_base.as_secs_f64(),
            t_base.as_secs_f64() / t_tree.as_secs_f64()
        );
        rows.push(Row {
            n,
            tree_secs: t_tree.as_secs_f64(),
            baseline_secs: t_base.as_secs_f64(),
        });
    }

    // µ-(in)sensitivity: the paper's side observation.
    println!("\nµ-sensitivity at n = 20 (paper: PARI insensitive, our algorithm's cost falls):");
    println!("  µ digits | tree (s)   | baseline fixed-precision (s)");
    let p = charpoly_input(20, 0);
    let full = digits_to_bits(32);
    for digits in [4u64, 8, 16, 24, 32] {
        let mu = digits_to_bits(digits);
        let solver = RootApproximator::new(config(mu));
        let (_r, t_tree) = time_best(reps, || solver.approximate_roots(&p).unwrap());
        let cfg = BaselineConfig { mu, fixed_internal_precision: Some(full) };
        let (_b, t_base) = time_best(reps, || paper.run(|| find_real_roots(&p, &cfg).unwrap()));
        println!(
            "  {:>8} | {:>10.4} | {:>10.4}",
            digits,
            t_tree.as_secs_f64(),
            t_base.as_secs_f64()
        );
    }
    maybe_write_json(args.get::<String>("json"), &rows);
    rr_bench::maybe_trace(&args, config(digits_to_bits(30)), &charpoly_input(max_n, 0));
}
