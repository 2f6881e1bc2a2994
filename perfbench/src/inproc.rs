//! The in-process workloads: closed-loop solves through
//! `rr_core::Session`, one at a time.

use crate::host::RefClock;
use crate::metrics::{self, PHASES};
use crate::obs::{SpanId, Spans};
use crate::stats::{self, mean, median};
use crate::workload::{self, Kind, Setup, Spec, MU};
use rr_core::{RootsResult, Runtime, Session, SolveError, SolveReport, SolverConfig};
use rr_mp::Int;
use std::time::{Duration, Instant};

/// The solver configuration a workload measures: always the default
/// configuration users get from these constructors.
pub fn config(kind: Kind, nproc: usize) -> SolverConfig {
    match kind {
        Kind::Sequential => SolverConfig::sequential(MU),
        Kind::Parallel | Kind::Serve => SolverConfig::parallel(MU, nproc),
    }
}

/// The scaled numerators of a solve's roots, if it succeeded.
pub fn numerators(r: &Result<RootsResult, SolveError>) -> Option<Vec<Int>> {
    r.as_ref()
        .ok()
        .map(|r| r.roots.iter().map(|d| d.num.clone()).collect())
}

/// Sets up an in-process workload: each repetition creates a runtime of
/// `nproc` workers and a session, and warms them up with one solve of
/// each of its inputs. Returns the last session.
pub fn setup(
    spec: &Spec,
    seed: u64,
    nproc: usize,
    spans: &mut Spans,
) -> Result<(Setup, Session), String> {
    workload::set_up(
        spec,
        seed,
        spans,
        |rep, spans| {
            let (runtime, _) = spans.time("core.runtime", None, rep as u64, || Runtime::new(nproc));
            Ok(Session::with_runtime(config(spec.kind, nproc), &runtime))
        },
        |session, batch, spans| {
            batch
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let (r, _) = spans.time("core.solve", None, i as u64, || session.solve(p));
                    numerators(&r).ok_or_else(|| format!("warm-up solve failed: {r:?}"))
                })
                .collect()
        },
    )
}

/// Raw and host-normalised samples of a closed loop.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    latencies: Vec<f64>,
    wall_norms: Vec<f64>,
    latency_norms: Vec<f64>,
}

impl Samples {
    /// Runs `solve` bracketed by the reference loop, checks the answer
    /// against `want`, and records the solve wall and the latency: issue
    /// to checked answer, as a closed loop's solve is due when issued.
    fn solve(
        &mut self,
        clock: &mut RefClock,
        solve: impl FnOnce() -> Result<RootsResult, SolveError>,
        want: &[Int],
    ) -> bool {
        let ((ok, wall), latency, reference) = clock.bracket(|| {
            let t = Instant::now();
            let r = solve();
            let wall = t.elapsed().as_secs_f64() * 1e3;
            (numerators(&r).as_deref() == Some(want), wall)
        });
        self.walls.push(wall);
        self.latencies.push(latency);
        self.wall_norms.push(wall / reference);
        self.latency_norms.push(latency / reference);
        ok
    }

    /// Sets `solve_norm_*`.
    fn set_solve_norm(&self, out: &mut metrics::RunResult) {
        out.set("solve_norm_p50", median(&self.wall_norms));
        out.set(
            "solve_norm_tail",
            stats::tail(&self.wall_norms, stats::E2E_TAIL_CAP).value,
        );
    }

    /// Sets `solve_norm_*` and the raw `wall.solve_ms_*`.
    fn set_solve(&self, out: &mut metrics::RunResult) {
        let cap = stats::E2E_TAIL_CAP;
        self.set_solve_norm(out);
        out.set("wall.solve_ms_p50", median(&self.walls));
        out.set("wall.solve_ms_tail", stats::tail(&self.walls, cap).value);
    }

    /// Sets `latency_norm_*` and the raw `wall.latency_ms_*`.
    fn set_latency(&self, out: &mut metrics::RunResult) {
        let cap = stats::E2E_TAIL_CAP;
        out.set("latency_norm_p50", median(&self.latency_norms));
        out.set(
            "latency_norm_tail",
            stats::tail(&self.latency_norms, cap).value,
        );
        out.set("wall.latency_ms_p50", median(&self.latencies));
        out.set(
            "wall.latency_ms_tail",
            stats::tail(&self.latencies, cap).value,
        );
    }
}

/// The untraced closed loop: solves the inputs in turn for `seconds`
/// (finishing the last full cycle), each bracketed by the reference
/// loop, and checks every answer bitwise against the certified one.
pub fn closed_loop(setup: &Setup, session: &Session, seconds: f64, out: &mut metrics::RunResult) {
    let (inputs, refs) = (&setup.inputs, &setup.answers);
    let mut clock = RefClock::default();
    let mut samples = Samples::default();
    let start = Instant::now();
    let k = inputs.len();
    let mut i = 0;
    while i % k != 0 || start.elapsed().as_secs_f64() < seconds || i == 0 {
        let ok = samples.solve(&mut clock, || session.solve(&inputs[i % k]), &refs[i % k]);
        out.tally(ok);
        i += 1;
    }
    let tail = stats::tail(&samples.wall_norms, stats::E2E_TAIL_CAP);
    eprintln!(
        "perfbench: {} solves; tails are p{} of {}",
        tail.samples, tail.pct, tail.samples
    );
    samples.set_solve(out);
    samples.set_latency(out);
    out.set("peak_rss_mb", crate::peak_rss_mb("self"));
}

/// Host-normalised solves of `passes` passes over the inputs, each answer
/// checked: sets `solve_norm_*`, and returns each input's median
/// normalised solve time.
pub fn solve_passes(
    setup: &Setup,
    session: &Session,
    passes: usize,
    out: &mut metrics::RunResult,
) -> Vec<f64> {
    let (inputs, refs) = (&setup.inputs, &setup.answers);
    let mut clock = RefClock::default();
    let mut samples = Samples::default();
    for _ in 0..passes {
        for (input, want) in inputs.iter().zip(refs) {
            let ok = samples.solve(&mut clock, || session.solve(input), want);
            out.tally(ok);
        }
    }
    samples.set_solve_norm(out);
    // Samples are in pass order: input j's are every k-th from j.
    let k = inputs.len();
    (0..k)
        .map(|j| {
            median(
                &samples
                    .wall_norms
                    .iter()
                    .skip(j)
                    .step_by(k)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Per-phase and scheduler totals over traced solves.
#[derive(Default)]
struct Ledger {
    solves: usize,
    self_ns: [u128; PHASES.len()],
    all_self_ns: u128,
    /// Counts from the first traced solve of each distinct input:
    /// deterministic for a given seed.
    muls: [u64; PHASES.len()],
    mul_bits: [u64; PHASES.len()],
    /// mul_bits over every traced solve, for the limb rate.
    all_mul_bits: [u128; PHASES.len()],
    tasks: Vec<f64>,
    work_ms: Vec<f64>,
    span_ms: Vec<f64>,
    parallelism: Vec<f64>,
    busy: Vec<f64>,
    steal_retries: Vec<f64>,
    empty_polls: Vec<f64>,
}

impl Ledger {
    fn add(&mut self, report: &SolveReport, first_of_input: bool) {
        self.solves += 1;
        for ph in &report.phases {
            self.all_self_ns += ph.self_time.as_nanos();
            if let Some(j) = PHASES.iter().position(|&p| p == ph.name) {
                self.self_ns[j] += ph.self_time.as_nanos();
                self.all_mul_bits[j] += u128::from(ph.mul_bits);
                if first_of_input {
                    self.muls[j] += ph.mul_count;
                    self.mul_bits[j] += ph.mul_bits;
                }
            }
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.tasks.push(report.total_tasks as f64);
        self.work_ms.push(ms(report.total_work));
        self.span_ms.push(ms(report.critical_path));
        self.parallelism.push(report.observed_parallelism);
        let pool = report.pool.as_ref();
        self.busy.push(pool.map_or(0.0, |p| p.utilization()));
        self.steal_retries
            .push(pool.map_or(0.0, |p| p.steal_retries as f64));
        self.empty_polls
            .push(pool.map_or(0.0, |p| p.empty_polls as f64));
    }

    fn set(&self, out: &mut metrics::RunResult) {
        for (j, phase) in PHASES.iter().enumerate() {
            let self_ns = self.self_ns[j] as f64;
            out.set(
                &format!("core.{phase}.self_ms"),
                self_ns / 1e6 / self.solves.max(1) as f64,
            );
            out.set(
                &format!("core.{phase}.share"),
                self_ns / (self.all_self_ns.max(1) as f64),
            );
            out.set(&format!("core.{phase}.muls"), self.muls[j] as f64);
            out.set(&format!("core.{phase}.mul_bits"), self.mul_bits[j] as f64);
            // One limb pair is 64 × 64 = 4096 bit pairs.
            let limb_pairs = self.all_mul_bits[j] as f64 / 4096.0;
            out.set(
                &format!("core.{phase}.ns_per_limbpair"),
                if limb_pairs > 0.0 {
                    self_ns / limb_pairs
                } else {
                    0.0
                },
            );
        }
        out.set("sched.tasks", mean(&self.tasks));
        out.set("sched.work_ms", mean(&self.work_ms));
        out.set("sched.span_ms", mean(&self.span_ms));
        out.set("sched.parallelism", mean(&self.parallelism));
        out.set("sched.busy_ratio", mean(&self.busy));
        out.set("sched.steal_retries", mean(&self.steal_retries));
        out.set("sched.empty_polls", mean(&self.empty_polls));
    }
}

/// Nests a traced solve's phases under its solve span. Phases are laid
/// end to end in report order, each as long as its self time.
fn phase_spans(spans: &mut Spans, solve: Option<SpanId>, req: u64, report: &SolveReport) {
    let Some(solve) = solve else { return };
    let mut at = spans.start_ns(solve);
    for ph in &report.phases {
        let dur = ph.self_time.as_nanos() as u64;
        spans.derived(&format!("core.{}", ph.name), Some(solve), req, at, dur);
        at += dur;
    }
}

/// The traced run's solver profile: solves the inputs in turn for at
/// least `seconds` (whole cycles), each input three ways — traced, and
/// untraced for the tracing overhead, both in the workload's
/// configuration, and untraced sequential for the speedup when that
/// configuration is parallel. Checks every answer, and for sequential
/// solves that phase self times add up to the solve's wall.
pub fn profile(
    setup: &Setup,
    session: &Session,
    kind: Kind,
    seconds: f64,
    spans: &mut Spans,
    out: &mut metrics::RunResult,
) {
    let (inputs, refs) = (&setup.inputs, &setup.answers);
    let mut clock = RefClock::default();
    let sequential = (kind != Kind::Sequential)
        .then(|| Session::with_runtime(SolverConfig::sequential(MU), session.runtime()));
    let (mut traced, mut untraced, mut seq) = (Vec::new(), Samples::default(), Vec::new());
    let mut ledger = Ledger::default();
    let k = inputs.len();
    let start = Instant::now();
    let mut i = 0;
    while i % k != 0 || start.elapsed().as_secs_f64() < seconds || i == 0 {
        let (p, want) = (&inputs[i % k], &refs[i % k]);
        let req = i as u64;
        let t = Instant::now();
        let (r, norm) = clock.normalised(|| session.solve_traced(p));
        let id = spans.record("core.solve_traced", None, req, t, Instant::now());
        traced.push(norm);
        match r {
            Ok((result, report)) => {
                let ok = result.roots.iter().map(|d| &d.num).eq(want.iter());
                let phases: Duration = report.phases.iter().map(|ph| ph.self_time).sum();
                let adds_up = kind != Kind::Sequential
                    || (phases.as_secs_f64() - report.wall.as_secs_f64()).abs()
                        <= 0.05 * report.wall.as_secs_f64();
                if !adds_up {
                    eprintln!(
                        "perfbench: phase self times {phases:?} do not add up to the wall {:?}",
                        report.wall
                    );
                }
                out.tally(ok && adds_up);
                phase_spans(spans, id, req, &report);
                ledger.add(&report, i < k);
            }
            Err(e) => {
                eprintln!("perfbench: traced solve {req} failed: {e}");
                out.tally(false);
            }
        }
        let ok = untraced.solve(
            &mut clock,
            || spans.time("core.solve", None, req, || session.solve(p)).0,
            want,
        );
        out.tally(ok);
        if let Some(s) = &sequential {
            let ((r, _), norm) =
                clock.normalised(|| spans.time("core.solve_sequential", None, req, || s.solve(p)));
            out.tally(numerators(&r).as_ref() == Some(want));
            seq.push(norm);
        }
        i += 1;
    }
    ledger.set(out);
    out.set(
        "sched.speedup",
        if seq.is_empty() {
            1.0
        } else {
            median(&seq) / median(&untraced.wall_norms)
        },
    );
    out.set(
        "obs.trace_overhead",
        median(&traced) / median(&untraced.wall_norms),
    );
    untraced.set_solve(out);
    untraced.set_latency(out);
    out.set("host.ref_ms_p50", median(&clock.samples));
    out.set("host.ref_ms_iqr", stats::iqr(&clock.samples));
}
