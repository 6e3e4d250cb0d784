//! Closed-form cost/energy lowering of parametric plan certificates, and
//! static power-cap verdicts.
//!
//! Where [`crate::plancost`] lowers one *concrete* [`plan::PlanAnalysis`]
//! (a single `p`) to Eq. 13/15 enclosures, this module lowers a
//! [`ParametricCert`] — the `plan::symbolic` certifier's for-all-`p`
//! artifact — so the model can be evaluated at **any** admissible `p`
//! from the certificate's polynomial-in-`p` count enclosures alone, in
//! `O(plan size)` per point with no rank matrix or abstract run.
//!
//! On top of that sits [`power_cap_verdict`]: a static decision of
//! "plan × machine box never draws more than `cap` watts of average
//! power for any `p` in the declared domain". Bounded domains are decided
//! by **branch and bound over ranges of `p`**. The certificate's counts
//! over a range `[a, b]` ([`ParametricCert::counts_over`]), priced with
//! `p ∈ [a, b]`, enclose the enclosure of every point in it (outward
//! rounding keeps a point's enclosure inside any box containing the
//! point). So a range whose average-power lower bound exceeds the cap
//! violates at every `p` in it, a range whose upper bound stays under the
//! cap is safe at every `p`, and a range that straddles is bisected down
//! to single points, priced exactly as [`sym_cost_bounds`] prices them.
//! The verdict and its witness are what a scan of every admissible `p`
//! returns, at `O(segments · log p)` enclosures when few points straddle
//! the cap. Unbounded domains are decided by the **idle-floor lemma**:
//! Eq. 15's `Ep` includes the term `Tp · p · P_sys_idle` and every other
//! summand is non-negative, so average power `Ep/Tp ≥ p · P_sys_idle.lo`
//! — for any positive idle floor there is a `p` beyond which *every* plan
//! busts the cap, and the verdict names the violating range.

use plan::{ParametricCert, SymCounts};

use crate::interval::{AppBox, Interval, MachBox, ModelEnclosure};
use crate::plancost::{counts_box, price};

/// Symbolic cost/energy bounds for one certified plan at one admissible
/// `p`, derived from the certificate's count enclosures.
#[derive(Debug, Clone, Copy)]
pub struct SymPlanCost {
    /// The world size evaluated at.
    pub p: u64,
    /// Total messages across ranks (enclosure).
    pub messages: Interval,
    /// Total bytes across ranks (enclosure).
    pub bytes: Interval,
    /// Enclosure of the Hockney communication time `M·ts + B·tw`.
    pub t_comm: Interval,
    /// Enclosure of the network energy `T_comm · ΔP_NIC`.
    pub e_comm: Interval,
    /// Full-model enclosure (`T1`, `Tp`, `E1`, `Ep`, `EEF`, `EE`).
    pub enclosure: ModelEnclosure,
}

/// The application box a certificate's count enclosures induce at one
/// `p` (or over a range of `p`): interval comm totals and `Wc`, with
/// `Wm ∈ [0, mem_accesses.hi]`, as [`crate::plancost::app_box`] builds it.
#[must_use]
pub fn sym_app_box(counts: &SymCounts) -> AppBox {
    counts_box(
        Interval::new(counts.wc.lo, counts.wc.hi),
        counts.mem_accesses.hi,
        Interval::new(counts.messages.lo, counts.messages.hi),
        Interval::new(counts.bytes.lo, counts.bytes.hi),
    )
}

/// Evaluate the certificate's cost/energy bounds at `p` on `mach`.
///
/// Returns `None` when the certificate is not certified, `p` is outside
/// its domain, `p` does not fit the model's `usize` parallelism, or the
/// count enclosure fails to evaluate at this `p`.
#[must_use]
pub fn sym_cost_bounds(cert: &ParametricCert, p: u64, mach: &MachBox) -> Option<SymPlanCost> {
    usize::try_from(p).ok()?;
    let a = sym_app_box(&cert.counts(p)?);
    let (t_comm, e_comm, enclosure) = price(&a, mach, p_range(p, p));
    Some(SymPlanCost {
        p,
        messages: a.messages,
        bytes: a.bytes,
        t_comm,
        e_comm,
        enclosure,
    })
}

impl SymPlanCost {
    /// The average-power bounds `(Ep.lo / Tp.hi, Ep.hi / Tp.lo)` that
    /// [`power_cap_verdict`] compares with the cap; `None` unless `Tp` is
    /// positive and finite and `Ep` non-negative and finite.
    #[must_use]
    pub fn avg_power(&self) -> Option<(f64, f64)> {
        avg_power(&self.enclosure)
    }
}

/// The processor-count interval `[lo, hi]` (a point when `lo == hi`).
#[allow(clippy::cast_precision_loss)]
fn p_range(lo: u64, hi: u64) -> Interval {
    Interval::new(lo as f64, hi as f64)
}

/// The static for-all-`p` power-cap decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerCapVerdict {
    /// Provably under the cap at every admissible `p`: the average-power
    /// *upper* bound `Ep.hi / Tp.lo` stays `≤ cap` across the whole
    /// (necessarily bounded) domain.
    AcceptedForAll {
        /// How many admissible world sizes were enclosed.
        ps_checked: usize,
    },
    /// Provably over the cap: the average-power *lower* bound exceeds the
    /// cap on `[from_p, to_p]` (`to_p = None` means "and every larger
    /// admissible `p`", the unbounded-domain idle-floor tail).
    Rejected {
        /// First admissible `p` with a proven violation.
        from_p: u64,
        /// Last admissible `p` with a proven violation, if the violating
        /// range is bounded.
        to_p: Option<u64>,
    },
    /// The enclosure straddles the cap at `at_p`: neither side provable.
    Undecided {
        /// The first admissible `p` the decision failed at.
        at_p: u64,
    },
    /// The certificate is not certified — no for-all-`p` claim exists.
    Uncertified,
}

impl PowerCapVerdict {
    /// Whether the verdict proves the cap is respected for all `p`.
    #[must_use]
    pub fn accepted(&self) -> bool {
        matches!(self, PowerCapVerdict::AcceptedForAll { .. })
    }
}

/// Decide statically whether `cert`'s plan on `mach` can ever exceed an
/// average power draw of `cap_watts`, for any `p` in the certified
/// domain.
#[must_use]
pub fn power_cap_verdict(cert: &ParametricCert, mach: &MachBox, cap_watts: f64) -> PowerCapVerdict {
    if !cert.certified {
        return PowerCapVerdict::Uncertified;
    }

    let Some(segments) = cert.domain.segments() else {
        return unbounded_verdict(cert, mach, cap_watts);
    };

    // Decide every admissible p, whole ranges at a time where a range's
    // enclosure allows, smallest p first. One *proven* violation anywhere
    // refutes the for-all claim even if the enclosure merely straddles
    // the cap at other points.
    let mut violating: Option<(u64, u64)> = None;
    let mut undecided: Option<u64> = None;
    let mut todo: Vec<(u64, u64)> = segments.iter().rev().copied().collect();
    while let Some((a, b)) = todo.pop() {
        match avg_power_over(cert, mach, a, b) {
            Some((lo, _)) if lo > cap_watts => {
                violating = Some((violating.map_or(a, |(from, _)| from), b));
            }
            Some((_, hi)) if hi <= cap_watts => {}
            _ if a == b => {
                undecided.get_or_insert(a);
            }
            _ => {
                let mid = a + (b - a) / 2;
                todo.push((mid + 1, b));
                todo.push((a, mid));
            }
        }
    }
    match (violating, undecided) {
        (Some((from_p, to_p)), _) => PowerCapVerdict::Rejected {
            from_p,
            to_p: Some(to_p),
        },
        (None, Some(at_p)) => PowerCapVerdict::Undecided { at_p },
        (None, None) => {
            let count = segments.iter().fold(0u64, |n, &(a, b)| {
                n.saturating_add((b - a).saturating_add(1))
            });
            PowerCapVerdict::AcceptedForAll {
                ps_checked: usize::try_from(count).unwrap_or(usize::MAX),
            }
        }
    }
}

/// Average-power bounds holding at every `p ∈ [a, b]`; at `a == b`
/// exactly those of [`sym_cost_bounds`] at `a`.
fn avg_power_over(cert: &ParametricCert, mach: &MachBox, a: u64, b: u64) -> Option<(f64, f64)> {
    let app = sym_app_box(&cert.counts_over(a, b)?);
    let (_, _, enclosure) = price(&app, mach, p_range(a, b));
    avg_power(&enclosure)
}

/// Average-power enclosure `Ep / Tp` as `(lo, hi)`.
fn avg_power(enclosure: &ModelEnclosure) -> Option<(f64, f64)> {
    let ep = enclosure.ep;
    let tp = enclosure.tp;
    if !(tp.lo > 0.0 && ep.lo >= 0.0 && ep.hi.is_finite() && tp.hi.is_finite()) {
        return None;
    }
    Some((ep.lo / tp.hi, ep.hi / tp.lo))
}

/// The idle-floor rejection for unbounded domains: `Ep/Tp ≥ p ·
/// P_sys_idle.lo`, so once `p > cap / P_sys_idle.lo` the cap is busted at
/// every larger admissible `p`. When that first violating `p` is not a
/// representable `u64` (`cap / P_sys_idle.lo ≥ 2^64`, an infinite cap, or
/// a power-of-two round-up past `2^63`), no admissible `p` is proven over
/// the cap and the verdict is [`PowerCapVerdict::Undecided`].
fn unbounded_verdict(cert: &ParametricCert, mach: &MachBox, cap_watts: f64) -> PowerCapVerdict {
    /// `2^64` (the cast rounds up to it): every non-negative integral
    /// `f64` below it converts to `u64` exactly.
    #[allow(clippy::cast_precision_loss)]
    const U64_END: f64 = u64::MAX as f64;
    let idle = mach.p_sys_idle.lo;
    let min_p = cert.domain.min_p();
    let undecided = PowerCapVerdict::Undecided { at_p: min_p };
    let ratio = (cap_watts / idle).floor();
    // False for NaN as well as for ratios of 2^64 and up.
    let representable = ratio < U64_END;
    if idle <= 0.0 || !representable {
        return undecided;
    }
    // Smallest admissible p with p · idle > cap. floor(cap/idle) + 1 is
    // the first integer over the threshold; round up to the domain.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let threshold = (ratio.max(0.0) as u64).checked_add(1);
    let candidate = threshold.map(|t| t.max(min_p));
    let from_p = match &cert.domain {
        plan::Domain::Pow2 { .. } => candidate.and_then(u64::checked_next_power_of_two),
        plan::Domain::Any { .. } => candidate,
    };
    let Some(from_p) = from_p else {
        return undecided;
    };
    debug_assert!(cert.domain.contains(from_p));
    PowerCapVerdict::Rejected { from_p, to_p: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;
    use crate::plancost;
    use plan::{analyze_plan, certify_plan, CommPlan, Domain, Expr, Op, TagExpr};

    fn mach() -> MachBox {
        MachBox::from_params(&MachineParams::system_g(2.8e9))
    }

    fn ring(bytes: i64) -> CommPlan {
        CommPlan::new(
            "ring",
            vec![
                Op::Compute {
                    units: Expr::Const(1_000_000),
                    scale: 1.0,
                },
                Op::MemStream {
                    elems: Expr::Const(8192),
                    scale: 1.0,
                    ws: Expr::Const(1 << 16),
                },
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(bytes),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                },
            ],
        )
    }

    #[test]
    fn symbolic_bounds_contain_concrete_plancost() {
        let plan = ring(4096);
        let cert = certify_plan(&plan, &Domain::between(2, 512));
        assert!(cert.certified, "{:?}", cert.failure);
        let m = mach();
        for p in [2usize, 7, 64, 333, 512] {
            let concrete = plancost::cost_bounds(&analyze_plan(&plan, p), &m);
            let sym = sym_cost_bounds(&cert, p as u64, &m).expect("in domain");
            #[allow(clippy::cast_precision_loss)]
            {
                assert!(sym.messages.contains(concrete.messages as f64), "p={p}");
                assert!(sym.bytes.contains(concrete.bytes as f64), "p={p}");
            }
            assert!(sym.t_comm.lo <= concrete.t_comm.lo, "p={p}");
            assert!(sym.t_comm.hi >= concrete.t_comm.hi, "p={p}");
            assert!(sym.enclosure.ep.lo <= concrete.enclosure.ep.lo, "p={p}");
            assert!(sym.enclosure.ep.hi >= concrete.enclosure.ep.hi, "p={p}");
            assert!(sym.enclosure.tp.lo <= concrete.enclosure.tp.lo, "p={p}");
            assert!(sym.enclosure.tp.hi >= concrete.enclosure.tp.hi, "p={p}");
        }
    }

    #[test]
    fn outside_domain_or_uncertified_is_none() {
        let plan = ring(64);
        let cert = certify_plan(&plan, &Domain::between(2, 16));
        assert!(sym_cost_bounds(&cert, 17, &mach()).is_none());
        let bad = certify_plan(&plan, &Domain::at_least(1)); // p=1 self-send
        assert!(!bad.certified);
        assert!(sym_cost_bounds(&bad, 4, &mach()).is_none());
        assert_eq!(
            power_cap_verdict(&bad, &mach(), 1e9),
            PowerCapVerdict::Uncertified
        );
    }

    #[test]
    fn generous_cap_accepts_and_sampling_confirms() {
        let plan = ring(256);
        let cert = certify_plan(&plan, &Domain::between(2, 64));
        assert!(cert.certified);
        let m = mach();
        // Worst admissible p is 64; its upper power bound plus slack.
        let worst = sym_cost_bounds(&cert, 64, &m).expect("bounds");
        let cap = (worst.enclosure.ep.hi / worst.enclosure.tp.lo) * 2.0;
        let v = power_cap_verdict(&cert, &m, cap);
        assert!(v.accepted(), "{v:?}");
        assert_eq!(v, PowerCapVerdict::AcceptedForAll { ps_checked: 63 });
        // Concrete sampling must agree everywhere.
        for p in 2..=64usize {
            let c = plancost::cost_bounds(&analyze_plan(&plan, p), &m);
            assert!(c.enclosure.ep.hi / c.enclosure.tp.lo <= cap, "p={p}");
        }
    }

    #[test]
    fn tight_cap_rejects_with_violating_range() {
        let plan = ring(256);
        let m = mach();
        let cert = certify_plan(&plan, &Domain::between(2, 256));
        // The per-rank idle floor alone makes ~p · P_sys_idle.lo watts a
        // hard lower bound, so a cap of 64 · idle is provably busted for
        // a tail of the domain.
        let cap = 64.0 * m.p_sys_idle.lo;
        match power_cap_verdict(&cert, &m, cap) {
            PowerCapVerdict::Rejected { from_p, to_p } => {
                assert!(from_p <= 128, "idle floor alone violates well before p=128");
                assert_eq!(to_p, Some(256), "violation persists to the domain max");
                // The named start really is a proven violation, and its
                // predecessor (if admissible) was not.
                let (lo, _) = sym_cost_bounds(&cert, from_p, &m)
                    .and_then(|c| c.avg_power())
                    .expect("bounds");
                assert!(lo > cap);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_domain_rejects_by_idle_floor() {
        let plan = ring(64);
        let m = mach();
        let cert = certify_plan(&plan, &Domain::at_least(2));
        let cap = 2000.0;
        match power_cap_verdict(&cert, &m, cap) {
            PowerCapVerdict::Rejected { from_p, to_p } => {
                assert_eq!(to_p, None, "tail rejection is open-ended");
                // from_p is the first integer with p · idle > cap…
                #[allow(clippy::cast_precision_loss)]
                {
                    assert!(from_p as f64 * m.p_sys_idle.lo > cap);
                    assert!((from_p - 1) as f64 * m.p_sys_idle.lo <= cap);
                }
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn unrepresentable_idle_thresholds_are_undecided() {
        // cap / P_sys_idle ≥ 2^64 (or an infinite cap): no u64 p exceeds
        // the cap, so neither domain kind may claim a rejection.
        let plan = ring(64);
        let m = mach();
        for domain in [
            Domain::Pow2 {
                min_lg: 1,
                max_lg: None,
            },
            Domain::at_least(2),
        ] {
            let cert = certify_plan(&plan, &domain);
            assert!(cert.certified, "{:?}", cert.failure);
            for cap in [1e22, f64::INFINITY] {
                assert_eq!(
                    power_cap_verdict(&cert, &m, cap),
                    PowerCapVerdict::Undecided { at_p: 2 },
                    "{domain:?} cap={cap}"
                );
            }
        }
    }
}
