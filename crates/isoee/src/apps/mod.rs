//! Closed-form application models — the paper's §V.B case studies.
//!
//! Each model maps `(n, p)` to the Table-2 vector `Appl = (α, Wc, Wm, Woc,
//! Wom, M, B)`. Communication terms come from *algorithm analysis* (exact
//! message/byte counts of the collectives the kernels use — the paper does
//! the same, e.g. the pairwise-exchange/Hockney form for FT's all-to-all);
//! workload terms use simple fitted forms whose coefficients come from the
//! §IV.B calibration pipeline (instrumented runs + least squares).
//!
//! The paper's own printed coefficients (e.g. FT's `(0.86, 1.06…, 9.49n,
//! 4.46…, −0.73…)`) are partially illegible in the source text and are tied
//! to the authors' hardware, so the `system_g()` presets here carry
//! coefficients **re-derived on the simulated SystemG** with the same
//! methodology (`cargo run -p bench --bin table2` regenerates them). The
//! *structure* — which terms exist, their signs, and their growth in `n`
//! and `p` — follows the paper.

mod cg;
mod ep;
mod ft;

pub use cg::CgModel;
pub use ep::EpModel;
pub use ft::FtModel;

use crate::interval::{AppBox, Interval};
use crate::params::AppParams;

/// A closed-form application model: `(n, p) → Appl` (Table 2).
///
/// `Sync` is a supertrait so `&dyn AppModel` sweeps can fan out over the
/// `pool` thread pool; models are plain coefficient tables, so this costs
/// implementors nothing.
pub trait AppModel: Sync {
    /// Short name as used in the paper's figures ("FT", "EP", "CG").
    fn name(&self) -> &'static str;

    /// Evaluate the application-dependent vector at workload `n` and
    /// parallelism `p`.
    fn app_params(&self, n: f64, p: usize) -> AppParams;

    /// The Table-2 box for a whole workload *interval* at fixed `p`, sound
    /// for the ahead-of-time verification passes ([`crate::interval`]):
    /// every point evaluation `app_params(n, p)` with `n` in the interval
    /// must lie inside the returned box.
    ///
    /// The default returns `None` ("no box available"); callers then fall
    /// back to per-point thin boxes. The built-in NPB models write their
    /// formulas once, generic over the term kernel's numeric domain, so
    /// this method and [`Self::app_params`] are the interval and `f64`
    /// instances of one body and follow the same floating-point
    /// association order by construction.
    fn app_params_box(&self, n: Interval, p: usize) -> Option<AppBox> {
        let _ = (n, p);
        None
    }

    /// Whether the model is defined at `p` ranks; [`Self::app_params`] may
    /// panic where it is not. The default admits every `p`.
    fn admits(&self, p: usize) -> bool {
        let _ = p;
        true
    }
}

/// Message/byte totals of the mps recursive-doubling allreduce (with
/// pre/post folding for non-powers of two) — used by all three app models
/// for their small reductions.
pub(crate) fn allreduce_counts(p: usize, payload_bytes: f64) -> (f64, f64) {
    if p <= 1 {
        return (0.0, 0.0);
    }
    let m0 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let r = p - m0;
    let rounds = f64::from(m0.trailing_zeros());
    // Doubling exchanges: every rank < m0 sends `rounds` messages; folded
    // ranks add one send in and one result back.
    let messages = m0 as f64 * rounds + 2.0 * r as f64;
    (messages, messages * payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_counts_power_of_two() {
        let (m, b) = allreduce_counts(8, 104.0);
        assert_eq!(m, 8.0 * 3.0);
        assert_eq!(b, 24.0 * 104.0);
    }

    #[test]
    fn allreduce_counts_non_power_of_two() {
        let (m, _) = allreduce_counts(5, 8.0);
        // m0 = 4, r = 1: 4·2 + 2 = 10 messages.
        assert_eq!(m, 10.0);
    }

    #[test]
    fn allreduce_counts_trivial() {
        assert_eq!(allreduce_counts(1, 8.0), (0.0, 0.0));
    }
}
