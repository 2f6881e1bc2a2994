//! The `serve-open` workload: seeded Poisson arrivals against the real
//! `rr-serve` binary, over its newline-delimited JSON wire protocol.

use crate::host;
use crate::json::{self, Value};
use crate::metrics;
use crate::obs::Spans;
use crate::stats::{self, mean, median};
use crate::workload::{self, splitmix64, Setup, Spec, MU};
use rr_mp::Int;
use rr_poly::Poly;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrival rate, requests/s: about a quarter of the 58/s the default
/// server configuration completes with this mix on a 2-core Xeon host.
/// At half that capacity, solves overlapping on the two cores amplified
/// the host's own speed drift into a run-to-run spread of 0.24 in
/// `solve_ms_p50`, at the edge of the bound.
pub const RATE: f64 = 15.0;
/// The wire deadline of every request, and the latency limit: a request
/// answered later than this after it was due counts as failed.
pub const LIMIT_MS: u64 = 2000;

/// A spawned `rr-serve`. Dropping it sends SIGTERM, waits for the drain,
/// and kills the process if it has not exited within a few seconds.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawns `bin` with pool and solve threads = `nproc` and every other
    /// knob at its default, then waits until `/readyz` answers 200.
    pub fn spawn(bin: &Path, nproc: usize) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--threads",
            &nproc.to_string(),
            "--solve-threads",
            &nproc.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        // Built before the checks so that dropping it stops the child on
        // any error.
        let mut server = Server {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("rr-serve listening on ")) {
            (Ok(_), Some(addr)) => server.addr = addr.to_string(),
            _ => return Err(format!("rr-serve did not report its address: {line:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while http_get(&server.addr, "/readyz").map_or(true, |b| !b.starts_with("HTTP/1.0 200")) {
            if Instant::now() > deadline {
                return Err("rr-serve never became ready".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("rr-serve exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP GET on the daemon's port; returns the whole response.
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut body = String::new();
    s.read_to_string(&mut body)?;
    Ok(body)
}

/// Sum of every sample of the Prometheus series `name` whose labels
/// contain `label` (all samples when `label` is empty).
fn prom_sum(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && labels.contains(label))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// Whole-process CPU time (user + system) of `pid`, in ms.
fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks of
    // 10 ms.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, r)| r)
        .split_whitespace()
        .collect();
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) * 10.0
}

/// Seconds after the start of the load at which each request is due:
/// Poisson arrivals at `rate` per second over `seconds`.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut state = seed ^ 0x5eed_a55e_7715_0000;
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        // Uniform in (0, 1] from the top 53 bits.
        let u = ((splitmix64(&mut state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// Which input each of `n` requests carries: the inputs in a seeded
/// order, reshuffled after each pass, so every input is sent equally
/// often (±1) and the mix of degrees is the same in every run.
fn mix(seed: u64, n: usize, inputs: usize) -> Vec<usize> {
    let mut state = seed ^ 0x0123_4567_89ab_cdef;
    let mut order: Vec<usize> = (0..inputs).collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for i in (1..inputs).rev() {
            order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
        }
        out.extend(order.iter().take(n - out.len()));
    }
    out
}

/// The coefficients of `p` as a JSON array of decimal strings.
fn coeffs_json(p: &rr_poly::Poly) -> String {
    let coeffs: Vec<String> = p.coeffs().iter().map(|c| format!("\"{c}\"")).collect();
    format!("[{}]", coeffs.join(", "))
}

fn request_line(id: usize, coeffs: &str) -> String {
    format!("{{\"id\": {id}, \"coeffs\": {coeffs}, \"mu\": {MU}, \"deadline_ms\": {LIMIT_MS}}}\n")
}

/// The root numerators of an `ok` response.
fn roots(v: &Value) -> Option<Vec<Int>> {
    v.get("roots")
        .as_array()
        .iter()
        .map(|r| Int::from_str(r.get("num").as_str()?).ok())
        .collect()
}

/// Sends each input once over one connection and returns the answers.
fn warm_up(addr: &str, inputs: &[Poly]) -> Result<Vec<Vec<Int>>, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            conn.write_all(request_line(i, &coeffs_json(input)).as_bytes())
                .map_err(|e| e.to_string())?;
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            let v = json::parse(&line)?;
            match v.get("code").as_str() {
                Some("ok") => roots(&v).ok_or_else(|| format!("malformed roots: {line}")),
                _ => Err(format!("warm-up request failed: {line}")),
            }
        })
        .collect()
}

/// Sets up `serve-open`: each repetition spawns a server, waits for
/// `/readyz`, and warms it up with one request per input. Returns the
/// last server.
pub fn setup(
    spec: &Spec,
    seed: u64,
    nproc: usize,
    bin: &Path,
    spans: &mut Spans,
) -> Result<(Setup, Server), String> {
    workload::set_up(
        spec,
        seed,
        spans,
        |rep, spans| {
            spans
                .time("serve.spawn", None, rep as u64, || {
                    Server::spawn(bin, nproc)
                })
                .0
        },
        |server, batch, spans| {
            spans
                .time("serve.warm_up", None, 0, || warm_up(&server.addr, batch))
                .0
        },
    )
}

/// One request as the load generator saw it.
#[derive(Clone, Default)]
struct Outcome {
    sent_s: f64,
    recv_s: Option<f64>,
    line: String,
}

/// Drives the open loop for `seconds` over `nproc` connections and sets
/// the end-to-end and `serve.*`/`sched.*`/`loadgen.*` metrics.
/// `costs`, each input's host-normalised solve time measured in process,
/// turn each request's solve wall into the host's speed while the server
/// solved it, by which `latency_norm_*` divide that request's latency;
/// without them those are not set.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &Server,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    nproc: usize,
    costs: Option<&[f64]>,
    spans: &mut Spans,
    out: &mut metrics::RunResult,
) -> Result<(), String> {
    let (addr, inputs, refs) = (&server.addr, &setup.inputs, &setup.answers);
    let due = schedule(seed, RATE, seconds);
    let which = mix(seed, due.len(), inputs.len());
    let coeffs: Vec<String> = inputs.iter().map(coeffs_json).collect();

    let before = http_get(addr, "/metrics").map_err(|e| e.to_string())?;
    let cpu_before = cpu_ms(server.pid());

    let conns: Vec<TcpStream> = (0..nproc.max(1))
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(Duration::from_millis(100)))?;
            Ok(c)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let outstanding: Vec<AtomicUsize> = conns.iter().map(|_| AtomicUsize::new(0)).collect();
    let outcomes = Mutex::new(vec![Outcome::default(); due.len()]);
    let sending = AtomicBool::new(true);
    let start = Instant::now();
    let give_up =
        Duration::from_secs_f64(seconds) + Duration::from_millis(LIMIT_MS) + Duration::from_secs(5);
    std::thread::scope(|scope| -> Result<(), String> {
        for (c, conn) in conns.iter().enumerate() {
            let (outstanding, outcomes, sending) = (&outstanding, &outcomes, &sending);
            scope.spawn(move || {
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                while sending.load(Ordering::SeqCst) || outstanding[c].load(Ordering::SeqCst) > 0 {
                    if start.elapsed() > give_up {
                        break;
                    }
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) if line.ends_with('\n') => {
                            let recv = start.elapsed().as_secs_f64();
                            if let Some(id) =
                                json::parse(&line).ok().and_then(|v| v.get("id").as_f64())
                            {
                                let mut o = outcomes
                                    .lock()
                                    .expect("no reader panics while holding the lock");
                                if let Some(o) = o.get_mut(id as usize) {
                                    o.recv_s = Some(recv);
                                    o.line = std::mem::take(&mut line);
                                }
                            }
                            line.clear();
                            outstanding[c].fetch_sub(1, Ordering::SeqCst);
                        }
                        // A timeout leaves a partial line in `line`;
                        // the next read appends the rest.
                        Ok(_) | Err(_) => {}
                    }
                }
            });
        }
        for (id, &at) in due.iter().enumerate() {
            std::thread::sleep(Duration::from_secs_f64(at).saturating_sub(start.elapsed()));
            let c = (0..conns.len())
                .min_by_key(|&c| outstanding[c].load(Ordering::SeqCst))
                .expect("a connection");
            outstanding[c].fetch_add(1, Ordering::SeqCst);
            outcomes
                .lock()
                .expect("no reader panics while holding the lock")[id]
                .sent_s = start.elapsed().as_secs_f64();
            if let Err(e) = (&conns[c]).write_all(request_line(id, &coeffs[which[id]]).as_bytes()) {
                sending.store(false, Ordering::SeqCst);
                return Err(format!("send failed: {e}"));
            }
        }
        sending.store(false, Ordering::SeqCst);
        Ok(())
    })?;
    drop(conns);
    let elapsed = start.elapsed().as_secs_f64();
    let after = http_get(addr, "/metrics").map_err(|e| e.to_string())?;
    let cpu = cpu_ms(server.pid()) - cpu_before;

    let outcomes = outcomes.into_inner().expect("readers have exited");
    let (mut latency, mut wall, mut queue, mut overhead, mut lag) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut latency_norm = vec![];
    let epoch = spans.enabled().then(Instant::now);
    for (id, o) in outcomes.iter().enumerate() {
        let late_ms = (o.sent_s - due[id]) * 1e3;
        lag.push(late_ms);
        let v = json::parse(&o.line).unwrap_or(Value::Null);
        let lat = o.recv_s.map(|r| (r - due[id]) * 1e3);
        let ok = v.get("code").as_str() == Some("ok")
            && roots(&v).as_ref() == Some(&refs[which[id]])
            && lat.is_some_and(|l| l <= LIMIT_MS as f64);
        out.tally(ok);
        // Refused, failed or late requests count as beyond the limit.
        let lat = if ok {
            lat.expect("answered")
        } else {
            f64::INFINITY
        };
        latency.push(lat);
        let (w, q) = (v.get("wall_ms").as_f64(), v.get("queue_wait_ms").as_f64());
        if let (true, Some(w), Some(q)) = (ok, w, q) {
            wall.push(w);
            queue.push(q);
            overhead.push(lat - q - w);
            if let Some(costs) = costs {
                // ms per reference loop: the loop itself cannot be timed
                // next to each request without contending with the server.
                let speed = w / costs[which[id]];
                latency_norm.push(lat / speed);
            }
        } else {
            latency_norm.push(f64::INFINITY);
        }
        if let (Some(epoch), Some(recv)) = (epoch, o.recv_s) {
            let at = |s: f64| epoch + Duration::from_secs_f64(s);
            let root = spans.record("loadgen.request", None, id as u64, at(due[id]), at(recv));
            spans.record("loadgen.send", root, id as u64, at(due[id]), at(o.sent_s));
            if let (Some(w), Some(q)) = (w, q) {
                let end = spans.start_ns(root.expect("enabled")) + ((recv - due[id]) * 1e9) as u64;
                let solve = end.saturating_sub((w * 1e6) as u64);
                spans.derived(
                    "serve.queue_wait",
                    root,
                    id as u64,
                    solve.saturating_sub((q * 1e6) as u64),
                    (q * 1e6) as u64,
                );
                spans.derived("serve.solve", root, id as u64, solve, (w * 1e6) as u64);
            }
        }
    }
    // Per-request means are over the requests the server answered.
    let requests = outcomes
        .iter()
        .filter(|o| o.recv_s.is_some())
        .count()
        .max(1) as f64;
    let lat_tail = stats::tail(&latency, stats::E2E_TAIL_CAP);
    eprintln!(
        "perfbench: {} requests at {RATE}/s over {nproc} connections; latency tail is p{} of {}",
        due.len(),
        lat_tail.pct,
        lat_tail.samples
    );
    // Failed requests read as infinitely late; a run where they reach the
    // percentile reports ten times the limit.
    let cap = LIMIT_MS as f64 * 10.0;
    let (p50, tail) = (median(&latency).min(cap), lat_tail.value.min(cap));
    if costs.is_some() {
        // The same cap, in reference loops of the nominal host.
        let norm_cap = cap / host::NOMINAL_REF_MS;
        out.set("latency_norm_p50", median(&latency_norm).min(norm_cap));
        out.set(
            "latency_norm_tail",
            stats::tail(&latency_norm, stats::E2E_TAIL_CAP)
                .value
                .min(norm_cap),
        );
    }
    out.set("wall.latency_ms_p50", p50);
    out.set("wall.latency_ms_tail", tail);
    out.set("wall.solve_ms_p50", median(&wall));
    out.set(
        "wall.solve_ms_tail",
        stats::tail(&wall, stats::E2E_TAIL_CAP).value,
    );
    out.set("peak_rss_mb", crate::peak_rss_mb(&server.pid().to_string()));

    let delta =
        |name: &str, label: &str| prom_sum(&after, name, label) - prom_sum(&before, name, label);
    out.set("serve.queue_wait_ms_p50", median(&queue));
    out.set("serve.queue_wait_ms_p99", stats::percentile(&queue, 99.0));
    out.set("serve.solve_ms_p50", median(&wall));
    out.set("serve.overhead_ms_p50", median(&overhead));
    out.set("serve.cpu_ms_per_req", cpu / requests);
    out.set("serve.retries", delta("rr_serve_retries_total", ""));
    out.set(
        "serve.rejected",
        delta("rr_serve_requests_total", "outcome=\"rejected-"),
    );
    out.set(
        "serve.degraded",
        delta("rr_serve_requests_total", "outcome=\"degraded\""),
    );
    out.set("loadgen.lag_ms_p99", stats::percentile(&lag, 99.0));

    // The server's scheduler, from its own counters: per-request means.
    let work_ms = delta("rr_sched_task_latency_ns_sum", "") / 1e6;
    out.set("sched.tasks", delta("rr_sched_tasks_total", "") / requests);
    out.set("sched.work_ms", work_ms / requests);
    out.set("sched.span_ms", mean(&wall));
    out.set(
        "sched.parallelism",
        if wall.is_empty() {
            0.0
        } else {
            work_ms / wall.iter().sum::<f64>()
        },
    );
    out.set("sched.busy_ratio", work_ms / (elapsed * 1e3 * nproc as f64));
    out.set(
        "sched.steal_retries",
        delta("rr_sched_steal_retries_total", "") / requests,
    );
    out.set(
        "sched.empty_polls",
        delta("rr_sched_empty_polls_total", "") / requests,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_follows_the_seed() {
        let a = schedule(11, 30.0, 20.0);
        assert_eq!(a, schedule(11, 30.0, 20.0));
        assert_ne!(a, schedule(12, 30.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // Mean count 30·20 = 600, sd √600 ≈ 25.
        assert!((500..700).contains(&a.len()), "{}", a.len());
        let m = mix(11, 50, 15);
        assert_eq!(m, mix(11, 50, 15));
        assert_ne!(m, mix(12, 50, 15));
        for input in 0..15 {
            let sent = m.iter().filter(|&&i| i == input).count();
            assert!((3..=4).contains(&sent), "input {input} sent {sent} times");
        }
    }

    #[test]
    fn prometheus_sums_filter_by_label() {
        let text = "# TYPE x counter\nx{a=\"1\",outcome=\"rejected-overload\"} 2\nx{outcome=\"ok\"} 5\nx_sum 7\ny 1\n";
        assert_eq!(prom_sum(text, "x", ""), 7.0);
        assert_eq!(prom_sum(text, "x", "outcome=\"rejected-"), 2.0);
        assert_eq!(prom_sum(text, "y", ""), 1.0);
    }

    #[test]
    fn request_lines_carry_the_input() {
        let p = rr_poly::Poly::from_i64(&[-6, 11, -6, 1]);
        let v = json::parse(&request_line(3, &coeffs_json(&p))).unwrap();
        assert_eq!(v.get("id").as_f64(), Some(3.0));
        assert_eq!(v.get("coeffs").as_array().len(), 4);
        assert_eq!(v.get("mu").as_f64(), Some(MU as f64));
    }
}
