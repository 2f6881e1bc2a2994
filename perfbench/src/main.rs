//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workload::ALL` and README.md), certifies one
//! reference answer per distinct input, checks every timed answer
//! bitwise against it, and prints the metrics: end to end with
//! `--trace 0`, per layer with `--trace 1`. The last line of standard
//! output is the result object; the exit code is non-zero when any
//! answer was wrong or any request failed. `serve-open` runs the
//! `rr-serve` binary built next to this one.

mod cert;
mod host;
mod inproc;
mod json;
mod layers;
mod metrics;
mod obs;
mod serve;
mod stats;
mod workload;

use obs::Spans;
use rr_core::{Runtime, Session};
use std::path::Path;
use std::process::ExitCode;
use workload::{Kind, Setup, MU};

/// Where traced runs write their spans, relative to the repository root.
const TRACE_DIR: &str = "perfbench/out";

/// In-process passes over `serve-open`'s request mix behind its
/// `solve_norm_*`.
const SERVE_NORM_PASSES: usize = 8;

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?;
    Ok(Args {
        workload: workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Peak resident set (`VmHWM`) of process `pid` (or `self`), in MB.
fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records and then removes every `RR_*` variable, so the program runs
/// in its default configuration whatever the calling shell set. Called
/// first thing in `main`, before any thread exists.
fn clear_rr_env() -> Vec<(String, String)> {
    let vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RR_"))
        .collect();
    for (k, _) in &vars {
        std::env::remove_var(k);
    }
    vars
}

/// The first line `program args` prints, or "unknown" when it cannot run
/// or fails.
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let cleared = clear_rr_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &cleared) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints its result; `Ok(false)` when an answer
/// was wrong or a request failed.
fn run(args: &Args, cleared: &[(String, String)]) -> Result<bool, String> {
    let spec = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"mu_bits\": {MU}, \"cleared_env\": [{}]}}",
        json::quote(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        // A benchmark checkout need not be a git repository, and git must
        // not report a repository that merely encloses it.
        json::quote(&if Path::new(".git").exists() {
            first_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        }),
        json::quote(&first_line("rustc", &["--version"])),
        cleared.iter().map(|(k, v)| json::quote(&format!("{k}={v}"))).collect::<Vec<_>>().join(", ")
    );
    println!("# run {meta}");

    let mut spans = Spans::new(args.trace);
    let mut out = metrics::RunResult::new(args.trace);
    let mut sign_us = Vec::new();

    // The correctness gate, after set-up and outside its time: every
    // distinct input's warm-up answer must certify, and becomes the
    // reference the timed answers are compared with.
    let mut gate = |setup: &Setup, spans: &mut Spans, out: &mut metrics::RunResult| {
        for (i, (p, ys)) in setup.inputs.iter().zip(&setup.answers).enumerate() {
            let (r, _) = spans.time("poly.certify", None, i as u64, || {
                cert::certify(p, ys, MU, &mut sign_us)
            });
            r.map_err(|e| {
                format!(
                    "input {i} (degree {}): reference answer fails its certificate: {e}",
                    p.deg()
                )
            })?;
        }
        out.set("setup_s", stats::median(&setup.setup_s));
        out.set("wall.setup_s", stats::median(&setup.setup_wall_s));
        out.set("workload.gen_s", setup.gen_s);
        Ok::<(), String>(())
    };
    let inputs = match spec.kind {
        Kind::Sequential | Kind::Parallel => {
            let (setup, session) = inproc::setup(spec, args.seed, nproc, &mut spans)?;
            gate(&setup, &mut spans, &mut out)?;
            if args.trace {
                inproc::profile(
                    &setup,
                    &session,
                    spec.kind,
                    args.seconds,
                    &mut spans,
                    &mut out,
                );
                for (name, _) in metrics::per_layer()
                    .iter()
                    .filter(|(n, _)| n.starts_with("serve."))
                {
                    out.set(name, 0.0);
                }
                out.set("loadgen.lag_ms_p99", 0.0);
            } else {
                inproc::closed_loop(&setup, &session, args.seconds, &mut out);
            }
            setup.inputs
        }
        Kind::Serve => {
            let bin = std::env::current_exe()
                .map_err(|e| format!("cannot locate rr-serve: {e}"))?
                .with_file_name("rr-serve");
            let (setup, server) = serve::setup(spec, args.seed, nproc, &bin, &mut spans)?;
            gate(&setup, &mut spans, &mut out)?;
            // The harness cannot bracket the daemon's solves with its
            // reference loop, so the normalised solve time and the solver
            // profile of the request mix are measured in process, with
            // the server's solver configuration; each input's normalised
            // solve time then converts the server's solve walls into the
            // host's speed during the load. In traced runs the server's
            // own counters overwrite the scheduler metrics.
            let session =
                Session::with_runtime(inproc::config(Kind::Serve, nproc), &Runtime::new(nproc));
            let costs = if args.trace {
                inproc::profile(&setup, &session, Kind::Serve, 2.0, &mut spans, &mut out);
                None
            } else {
                Some(inproc::solve_passes(
                    &setup,
                    &session,
                    SERVE_NORM_PASSES,
                    &mut out,
                ))
            };
            serve::open_loop(
                &server,
                &setup,
                args.seed,
                args.seconds,
                nproc,
                costs.as_deref(),
                &mut spans,
                &mut out,
            )?;
            setup.inputs
        }
    };
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.set("poly.sign_at_us", stats::median(&sign_us));

    if args.trace {
        let (ms, seqs) = layers::remainder_sequences(&inputs, &mut spans);
        out.set("poly.remainder_seq_ms", ms);
        layers::mp_rates(&seqs, &mut spans, &mut out);
        let dir = Path::new(TRACE_DIR);
        std::fs::create_dir_all(dir).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = dir.join(format!("trace-{}-seed{}.json", spec.name, args.seed));
        let body = format!(
            "{{\"run\": {meta}, \"recorder_ns\": {}, \"spans\": {}}}\n",
            spans.cost_ns(),
            spans.to_json()
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }

    let missing = out.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    print!("{}", out.table());
    println!("{}", out.json());
    Ok(out.failed == 0)
}
