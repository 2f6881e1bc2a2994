//! The kernel policy: which physical kernels run under the cost model.
//!
//! One knob, [`Kernels`], carried per solve by a [`crate::SolveCtx`]:
//!
//! * [`Kernels::Fast`] (the default) — size-driven dispatch that always
//!   picks the fastest kernel this crate has:
//!   * magnitude products: Karatsuba ([`crate::nat::kmul`]) at or above
//!     [`crate::nat::kmul::KARATSUBA_THRESHOLD`] limbs, schoolbook
//!     below;
//!   * polynomial products: Kronecker substitution (`rr-poly`'s
//!     `kronecker` module) when its gate `d⁵ ≥ 1024·m³` says it pays,
//!     the schoolbook coefficient loop otherwise;
//!   * division: Newton-iteration reciprocal `div_rem` and 2-adic exact
//!     division ([`crate::nat::newton_div`]) above their thresholds,
//!     Algorithm D below.
//! * [`Kernels::Paper`] — the kernels of the UNIX `mp` package the
//!   paper timed: schoolbook multiplication, the schoolbook polynomial
//!   loop and Knuth's Algorithm D. Only the paper's wall-clock
//!   reproductions (Table 2, Figure 8, the speedup tables) and the
//!   differential oracles select it.
//!
//! The choice never changes results or what [`crate::metrics`] records:
//! every `Int` multiplication and division is costed at the `Int` layer
//! *before* dispatch, and the Kronecker path replays the schoolbook
//! model events. Figures 2–7 and Table 1 are therefore identical under
//! both policies; only wall-clock seconds differ.
//!
//! A thread with no context installed runs [`Kernels::Fast`].

/// Which physical kernels a solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernels {
    /// Schoolbook multiplication, the schoolbook polynomial loop and
    /// Algorithm D — paper-faithful wall-clock.
    Paper,
    /// Size-driven dispatch to the fastest kernel (Karatsuba, Kronecker
    /// substitution, Newton / 2-adic division above their thresholds).
    #[default]
    Fast,
}

impl Kernels {
    /// The policy's label in metrics and reports: `"paper"` or `"fast"`.
    pub fn label(self) -> &'static str {
        match self {
            Kernels::Paper => "paper",
            Kernels::Fast => "fast",
        }
    }
}

/// The kernel policy active on the calling thread: the innermost
/// installed [`crate::SolveCtx`]'s, else [`Kernels::Fast`]. This is the
/// single point every dispatch site consults.
#[inline]
pub fn active_kernels() -> Kernels {
    crate::session::current_kernels().unwrap_or_default()
}
