//! **Tables 3–7 and Figures 9–13** (and, with `--full`, the Appendix B
//! Tables 8–12): execution times and speedups for P ∈ {1, 2, 4, 8, 16}
//! processors at µ ∈ {4, 8, 16, 24, 32} digits.
//!
//! Two speedup columns are produced for every (n, µ, P) cell:
//!
//! * **measured** — wall-clock with P real worker threads. Faithful on a
//!   machine with ≥ P cores; on smaller hosts the threads timeshare and
//!   the measured speedup flattens at the core count.
//! * **simulated** — the dynamic run's recorded task graph (durations +
//!   spawn edges) list-scheduled on P virtual processors
//!   (`rr_sched::sim`). This is the substitution for the paper's
//!   20-processor Sequent Symmetry; see DESIGN.md.
//!
//! Every solve runs the paper's kernels (`Kernels::Paper`), so task
//! durations compare with the paper's timings.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin speedups -- \
//!     [--full] [--min-n 35] [--max-n 70] [--json speedups.json] [--sched static]
//! ```

use rr_bench::{
    digits_to_bits, impl_to_json, maybe_write_json, Args, PAPER_MU_DIGITS, PAPER_PROCS,
};
use rr_core::{ExecMode, Kernels, RootApproximator, SolverConfig};
use rr_workload::{charpoly_input, paper_degrees};

struct Cell {
    n: usize,
    mu_digits: u64,
    procs: usize,
    measured_secs: f64,
    simulated_speedup: f64,
}
impl_to_json!(Cell {
    n,
    mu_digits,
    procs,
    measured_secs,
    simulated_speedup,
});

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let min_n: usize = args.get("min-n").unwrap_or(if full { 10 } else { 35 });
    let max_n: usize = args.get("max-n").unwrap_or(70);
    let static_sched = args.get::<String>("sched").as_deref() == Some("static");
    let degrees: Vec<usize> = paper_degrees()
        .into_iter()
        .filter(|&n| (min_n..=max_n).contains(&n))
        .collect();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "Speedups reproduction (Tables 3-7 / Figs 9-13{}): host cores = {cores}",
        if full { " + Appendix B" } else { "" }
    );
    if static_sched {
        println!("scheduler ablation: STATIC level-by-level rounds (footnote 3)");
    }

    let mut cells: Vec<Cell> = Vec::new();
    for &digits in &PAPER_MU_DIGITS {
        let mu = digits_to_bits(digits);
        println!("\n=== µ = {digits} digits ({mu} bits) ===");
        println!(
            "  n  | {} | {}",
            PAPER_PROCS.iter().map(|p| format!("wall P={p:<2} ")).collect::<Vec<_>>().join("| "),
            PAPER_PROCS.iter().map(|p| format!("sim S({p:<2})")).collect::<Vec<_>>().join(" | ")
        );
        for &n in &degrees {
            let p = charpoly_input(n, 0);
            // One traced dynamic run provides the simulation input. One
            // worker records exact task durations (no timesharing skew);
            // the spawn DAG is the same.
            let mut traced_cfg = SolverConfig::parallel(mu, 2).with_kernels(Kernels::Paper);
            traced_cfg.mode = ExecMode::Dynamic { threads: 1 };
            let traced = RootApproximator::new(traced_cfg)
                .approximate_roots(&p)
                .expect("real-rooted workload");
            let sim = traced.stats.simulate_speedups(&PAPER_PROCS);
            let mut walls = Vec::new();
            for &procs in &PAPER_PROCS {
                let mut cfg = SolverConfig::parallel(mu, procs).with_kernels(Kernels::Paper);
                if static_sched && procs > 1 {
                    cfg.mode = ExecMode::Static { threads: procs };
                }
                let r = RootApproximator::new(cfg).approximate_roots(&p).unwrap();
                walls.push(r.stats.wall.as_secs_f64());
            }
            for (i, &procs) in PAPER_PROCS.iter().enumerate() {
                cells.push(Cell {
                    n,
                    mu_digits: digits,
                    procs,
                    measured_secs: walls[i],
                    simulated_speedup: sim[i].1,
                });
            }
            println!(
                " {:>3} | {} | {}",
                n,
                walls.iter().map(|w| format!("{w:>9.4}")).collect::<Vec<_>>().join(" | "),
                sim.iter().map(|&(_, s)| format!("{s:>7.2}")).collect::<Vec<_>>().join(" | "),
            );
        }
    }

    // Condensed speedup tables in the paper's Tables 3-7 format
    // (simulated speedups carry the multiprocessor shape), with the
    // paper's published values alongside where tabulated.
    for &digits in &PAPER_MU_DIGITS {
        println!(
            "\nTable {} format (µ = {digits} digits): simulated speedup / paper value",
            3 + PAPER_MU_DIGITS.iter().position(|&d| d == digits).unwrap()
        );
        println!("  degree | {}", PAPER_PROCS.map(|p| format!("{p:>13}")).join(" "));
        for &n in &degrees {
            let row: Vec<String> = PAPER_PROCS
                .iter()
                .map(|&procs| {
                    let sim = cells
                        .iter()
                        .find(|c| c.n == n && c.mu_digits == digits && c.procs == procs)
                        .map(|c| format!("{:.2}", c.simulated_speedup))
                        .unwrap_or_else(|| "-".into());
                    let paper = rr_bench::paper_data::paper_speedup(digits, n, procs)
                        .map(|s| format!("{s:.2}"))
                        .unwrap_or_else(|| "-".into());
                    format!("{:>6}/{:<6}", sim, paper)
                })
                .collect();
            println!("  {:>6} | {}", n, row.join(" "));
        }
    }

    maybe_write_json(args.get::<String>("json"), &cells);
    if let Some(&rep) = degrees.last() {
        rr_bench::maybe_trace(
            &args,
            SolverConfig::parallel(digits_to_bits(8), 4).with_kernels(Kernels::Paper),
            &charpoly_input(rep, 0),
        );
    }
}
