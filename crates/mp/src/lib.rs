//! # rr-mp — instrumented multiprecision integer arithmetic
//!
//! A from-scratch arbitrary-precision signed integer library reproducing the
//! cost model of the UNIX `mp` package used by Narendran & Tiwari (1991):
//!
//! * addition and subtraction run in time linear in the operand sizes;
//! * multiplication is costed as **schoolbook** — quadratic;
//! * division is costed as Knuth's Algorithm D — quadratic in the
//!   operand sizes.
//!
//! Every [`Int`] multiplication and division is recorded by the
//! [`metrics`] module under the currently active [`metrics::Phase`], with
//! both an operation count and a bit cost `‖a‖·‖b‖` (the product of the
//! operand bit lengths — the paper's unit of bit complexity).
//!
//! ## One cost model, two kernel policies
//!
//! The paper's Section 4 analysis, and its Figures 2–7, are stated in
//! multiplication *events* and operand *bit lengths* — exactly what the
//! [`metrics`] module records, and it records them at the [`Int`] level
//! **before** any kernel runs. The limb-level kernels are therefore free
//! to differ from the paper's without disturbing the reproduction.
//! [`Kernels`] is the one knob: [`Kernels::Fast`] (the default) picks
//! the fastest kernel by operand size — Karatsuba ([`nat::kmul`]) above
//! its threshold, and Newton-iteration reciprocal and 2-adic exact
//! division ([`nat::newton_div`], and through [`ExactDivisor`] cached
//! per-divisor inverses plus a fused dot-product division for the
//! subresultant remainder step) above theirs, with schoolbook
//! ([`nat::mul`]) and Algorithm D ([`nat::div`]) as base cases;
//! [`Kernels::Paper`] runs the quadratic kernels of the `mp` package
//! the paper timed. Only wall-clock *seconds* (Table 2, Figure 8)
//! depend on the choice. The kernels are held bit-for-bit equal by the
//! differential suites `tests/kernel_diff.rs` and `tests/div_diff.rs`,
//! which call them directly.
//!
//! Hot-path temporaries come from per-thread [`scratch`] arenas, so a
//! steady-state solve reuses a handful of limb buffers instead of
//! allocating at every step.
//!
//! ## Sessions
//!
//! The kernel policy and metrics attribution are carried per solve by a
//! [`SolveCtx`] (see the [`session`] module): while a context is
//! installed on a thread, its policy drives kernel dispatch and its
//! private sink receives every recorded event, so concurrent solves
//! with different policies neither corrupt each other's selection nor
//! cross-attribute counts. Code running outside any session runs
//! [`Kernels::Fast`] and records into the [`metrics::snapshot`] default
//! sink.
//!
//! ## Example
//!
//! ```
//! use rr_mp::Int;
//!
//! let a = Int::from(-1234567890123456789i64);
//! let b = Int::from_str_radix("340282366920938463463374607431768211456", 10).unwrap();
//! let c = &a * &b;
//! assert_eq!((&c / &a), b);
//! assert_eq!((&c % &b), Int::zero());
//! assert_eq!(a.pow(3).to_string(),
//!     "-1881676372353657772490265749424677022198701224860897069");
//! ```

#![warn(missing_docs)]

pub mod gcd;
pub mod kernels;
pub mod limb;
pub mod metrics;
pub mod nat;
pub mod scratch;
pub mod session;

mod divisor;
mod fmt;
mod int;

pub use divisor::ExactDivisor;
pub use int::{Int, Sign};
pub use kernels::{active_kernels, Kernels};
pub use metrics::{AllocStats, KroneckerStats, MetricsSink, NewtonDivStats, PhaseAlloc};
pub use session::{CtxGuard, SolveCtx};
