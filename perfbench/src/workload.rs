//! The benchmark's workloads and their seeded inputs.

use crate::host;
use crate::obs::Spans;
use rr_mp::Int;
use rr_poly::Poly;
use std::time::Instant;

/// Output precision: 16 decimal digits.
pub const MU: u64 = 54;

/// Set-up repetitions per run. Each repetition generates its share of
/// the distinct inputs, builds a fresh runtime (or spawns a fresh
/// server), and warms it up; `setup_s` is their median, host-normalised.
pub const SETUP_REPS: usize = 3;

/// Reference loops timed on each side of a set-up repetition.
const SETUP_REF_LOOPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Closed loop in process, `SolverConfig::sequential`.
    Sequential,
    /// Closed loop in process, `SolverConfig::parallel(µ, nproc)`.
    Parallel,
    /// Open loop against a spawned `rr-serve`.
    Serve,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Degrees of the inputs each set-up repetition generates.
    pub degrees: &'static [usize],
}

pub const ALL: [Spec; 3] = [
    Spec {
        name: "tree-n80",
        kind: Kind::Sequential,
        degrees: &[80],
    },
    Spec {
        name: "interval-n48-par",
        kind: Kind::Parallel,
        degrees: &[48, 48, 48],
    },
    Spec {
        name: "serve-open",
        kind: Kind::Serve,
        degrees: &[16, 24, 32, 40, 48, 16, 24, 32, 40, 48],
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// splitmix64: the benchmark's own seed mixer and generator, so input
/// and arrival streams do not depend on any repository crate.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of distinct input `index` of workload `name` under run seed
/// `seed`.
fn input_seed(name: &str, seed: u64, index: usize) -> u64 {
    let mut s = name
        .bytes()
        .fold(seed, |h, b| h.rotate_left(8) ^ u64::from(b));
    s ^= index as u64;
    splitmix64(&mut s)
}

/// The inputs of set-up repetition `rep`: the paper's §5 characteristic
/// polynomials of seeded random symmetric 0-1 matrices.
pub fn generate(spec: &Spec, seed: u64, rep: usize) -> Vec<Poly> {
    spec.degrees
        .iter()
        .enumerate()
        .map(|(j, &degree)| {
            let index = rep * spec.degrees.len() + j;
            rr_workload::charpoly_input(degree, input_seed(spec.name, seed, index))
        })
        .collect()
}

/// A workload after set-up: its distinct inputs, the candidate reference
/// answer of each (from the warm-up), and what set-up cost.
pub struct Setup {
    pub inputs: Vec<Poly>,
    pub answers: Vec<Vec<Int>>,
    /// Wall time of each set-up repetition, in s.
    pub setup_wall_s: Vec<f64>,
    /// Each repetition's wall scaled to the nominal host
    /// ([`host::NOMINAL_REF_MS`]) by the reference loop timed on either
    /// side of it, in s.
    pub setup_s: Vec<f64>,
    /// Time spent generating inputs, summed over repetitions, in s.
    pub gen_s: f64,
}

/// Runs the set-up [`SETUP_REPS`] times. Each repetition generates its
/// share of the inputs, then `start` builds what the workload measures
/// (a runtime and session, or a server) and `warm_up` returns its answer
/// to each of the repetition's inputs. Returns the last repetition's.
pub fn set_up<T>(
    spec: &Spec,
    seed: u64,
    spans: &mut Spans,
    mut start: impl FnMut(usize, &mut Spans) -> Result<T, String>,
    mut warm_up: impl FnMut(&T, &[Poly], &mut Spans) -> Result<Vec<Vec<Int>>, String>,
) -> Result<(Setup, T), String> {
    let mut setup = Setup {
        inputs: Vec::new(),
        answers: Vec::new(),
        setup_wall_s: Vec::new(),
        setup_s: Vec::new(),
        gen_s: 0.0,
    };
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // The previous repetition's runtime or server is gone before the
        // next one starts, and its teardown is not timed.
        drop(last.take());
        let before = host::ref_ms_median(SETUP_REF_LOOPS);
        let t = Instant::now();
        let (batch, _) = spans.time("workload.generate", None, rep as u64, || {
            generate(spec, seed, rep)
        });
        setup.gen_s += t.elapsed().as_secs_f64();
        let target = start(rep, spans)?;
        setup.answers.extend(warm_up(&target, &batch, spans)?);
        setup.inputs.extend(batch);
        let wall = t.elapsed().as_secs_f64();
        let reference = (before + host::ref_ms_median(SETUP_REF_LOOPS)) / 2.0;
        setup.setup_wall_s.push(wall);
        setup.setup_s.push(wall * host::NOMINAL_REF_MS / reference);
        last = Some(target);
    }
    Ok((setup, last.expect("SETUP_REPS is positive")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let spec = find("serve-open").unwrap();
        let a = generate(spec, 7, 1);
        let b = generate(spec, 7, 1);
        let c = generate(spec, 8, 1);
        assert_eq!(a, b);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
        assert_eq!(a.iter().map(|p| p.deg()).collect::<Vec<_>>(), spec.degrees);
        // Repetitions get distinct inputs.
        assert!(generate(spec, 7, 0).iter().zip(&a).all(|(x, y)| x != y));
    }
}
