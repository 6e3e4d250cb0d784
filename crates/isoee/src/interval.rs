//! Interval abstract interpretation of the analytical model.
//!
//! Evaluates `T1/Tp/E1/Ep/EEF/EE` over parameter *boxes* instead of points,
//! with outward-rounded interval arithmetic: each operation widens its
//! result by one ulp per side (a few for the transcendental calls), so the
//! interval result of a kernel expression always contains every
//! floating-point result the point evaluation in [`crate::model`] can
//! produce on inputs drawn from the box. That containment is what lets a
//! *single* interval evaluation certify a whole sweep grid:
//!
//! * if the enclosure of `E1` satisfies `lo > 0 ∧ hi < ∞`, no point in the
//!   box can raise [`ModelError::DegenerateBaseline`];
//! * if `hi ≤ 0`, *every* point in the box is degenerate;
//! * otherwise the box straddles the boundary and must be bisected (the
//!   `verify` crate's box driver) or confirmed point-by-point
//!   ([`certify_pf_grid`]/[`certify_pn_grid`] fall back to exact
//!   [`crate::model::ee`] calls for the undecided cells).
//!
//! The enclosures are the [`Interval`] instance of the term kernel in
//! `terms.rs`, the same expressions [`crate::model`] evaluates in `f64`.

use crate::apps::AppModel;
use crate::model::ModelError;
use crate::params::{AppParams, MachineParams};
use crate::terms::{self, Factors, Row, SeqFactors};

/// A closed interval `[lo, hi]` of `f64` with outward-rounded arithmetic.
///
/// Invariants: `lo <= hi`, neither endpoint is NaN. Operations whose
/// floating-point result would be NaN (`0·∞`, `∞−∞`, division by an
/// interval containing zero) return [`Interval::ENTIRE`] — sound (it
/// contains everything) but uninformative, which is exactly what an
/// undecidable box should look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// The whole extended real line — the "I know nothing" element.
    pub const ENTIRE: Self = Self {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The degenerate interval `[x, x]` (or [`Self::ENTIRE`] for NaN).
    #[must_use]
    pub fn point(x: f64) -> Self {
        if x.is_nan() {
            Self::ENTIRE
        } else {
            Self { lo: x, hi: x }
        }
    }

    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi` (NaN endpoints yield [`Self::ENTIRE`]).
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() {
            return Self::ENTIRE;
        }
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The smallest interval containing every value in `xs`.
    ///
    /// # Panics
    /// Panics on an empty slice.
    #[must_use]
    pub fn hull(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "hull of nothing");
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::new(lo, hi)
    }

    /// Whether `x` lies in the interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width `hi − lo` (∞ for unbounded intervals).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint, clamped to finite for half-bounded intervals.
    #[must_use]
    pub fn mid(&self) -> f64 {
        let m = 0.5 * (self.lo + self.hi);
        if m.is_finite() {
            m
        } else {
            0.5 * self.lo + 0.5 * self.hi
        }
    }

    /// Split at the midpoint into `(lower, upper)` halves.
    #[must_use]
    pub fn split(&self) -> (Self, Self) {
        let m = self.mid();
        (Self::new(self.lo, m), Self::new(m, self.hi))
    }

    /// Both endpoints finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Outward-widen by `n` ulps per side, mapping NaN endpoints to
    /// [`Self::ENTIRE`].
    fn widened(lo: f64, hi: f64, n: u32) -> Self {
        if lo.is_nan() || hi.is_nan() {
            return Self::ENTIRE;
        }
        let mut lo = lo;
        let mut hi = hi;
        for _ in 0..n {
            lo = lo.next_down();
            hi = hi.next_up();
        }
        Self { lo, hi }
    }

    /// Elementwise maximum with another interval (`f64::max` is exact, so
    /// no widening is needed).
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// `log2` over a positive interval; non-positive boxes widen to
    /// [`Self::ENTIRE`] (the point evaluation would be NaN/−∞ there).
    #[must_use]
    pub fn log2(self) -> Self {
        if self.lo <= 0.0 {
            return Self::ENTIRE;
        }
        Self::widened(self.lo.log2(), self.hi.log2(), 2)
    }

    /// `sqrt` over a non-negative interval (ENTIRE when partially
    /// negative — the point evaluation would be NaN).
    #[must_use]
    pub fn sqrt(self) -> Self {
        if self.lo < 0.0 {
            return Self::ENTIRE;
        }
        Self::widened(self.lo.sqrt(), self.hi.sqrt(), 1)
    }

    /// `x^e` for a non-negative base interval and a fixed exponent
    /// `e ≥ 0` (monotone, so endpoint evaluation is exact up to libm
    /// error; widened 4 ulps per side to cover it).
    ///
    /// # Panics
    /// Panics on a negative exponent.
    #[must_use]
    pub fn powf(self, e: f64) -> Self {
        assert!(e >= 0.0, "powf mirror only covers non-negative exponents");
        if self.lo < 0.0 {
            return Self::ENTIRE;
        }
        Self::widened(self.lo.powf(e), self.hi.powf(e), 4)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl std::ops::Add for Interval {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self::widened(self.lo + rhs.lo, self.hi + rhs.hi, 1)
    }
}

impl std::ops::Sub for Interval {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self::widened(self.lo - rhs.hi, self.hi - rhs.lo, 1)
    }
}

impl std::ops::Neg for Interval {
    type Output = Self;

    fn neg(self) -> Self {
        // Negation is exact: no widening.
        Self {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl std::ops::Mul for Interval {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        let ps = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        if ps.iter().any(|p| p.is_nan()) {
            return Self::ENTIRE;
        }
        let lo = ps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::widened(lo, hi, 1)
    }
}

impl std::ops::Div for Interval {
    type Output = Self;

    fn div(self, rhs: Self) -> Self {
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            // Divisor straddles (or touches) zero: anything is possible.
            return Self::ENTIRE;
        }
        let qs = [
            self.lo / rhs.lo,
            self.lo / rhs.hi,
            self.hi / rhs.lo,
            self.hi / rhs.hi,
        ];
        if qs.iter().any(|q| q.is_nan()) {
            return Self::ENTIRE;
        }
        let lo = qs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::widened(lo, hi, 1)
    }
}

/// The machine-dependent vector (Table 1) as intervals — the abstract
/// counterpart of [`MachineParams`], and the [`Interval`] instance of the
/// term kernel's Table-1 struct.
pub type MachBox = terms::Mach<Interval>;

impl MachBox {
    /// The thin box `{m}` — every field a point interval.
    #[must_use]
    pub fn from_params(m: &MachineParams) -> Self {
        Self::of_params(m)
    }

    /// The image of `base` under [`MachineParams::at_frequency`] for every
    /// frequency in `f` — the abstract mirror of Eq. 20: `tc = CPI/f` and
    /// `ΔPc = ΔPc_base · (f/f_base)^γ`; all other entries are
    /// frequency-independent.
    #[must_use]
    pub fn over_frequencies(base: &MachineParams, f: Interval) -> Self {
        let mut b = Self::from_params(base);
        let (tc, dpc) = frequency_terms(base, f);
        b.tc = tc;
        b.delta_pc = dpc;
        b
    }

    /// Bandwidth variation: scale the per-byte time by `1/bw_scale` for
    /// every scale factor in the interval (the `BW` axis of the paper's
    /// `Mach(f, BW)` vector).
    #[must_use]
    pub fn over_bandwidth_scale(mut self, bw_scale: Interval) -> Self {
        self.tw = self.tw / bw_scale;
        self
    }
}

/// The application-dependent vector (Table 2) as intervals — the abstract
/// counterpart of [`AppParams`], and the [`Interval`] instance of the term
/// kernel's Table-2 struct that the built-in app models fill.
pub type AppBox = terms::App<Interval>;

impl AppBox {
    /// The thin box `{a}` — every field a point interval.
    #[must_use]
    pub fn from_params(a: &AppParams) -> Self {
        Self::of_params(a)
    }

    /// The app box for workload interval `n` at parallelism `p`: the
    /// model's own box if it has one ([`AppModel::app_params_box`]), else
    /// the thin box at the interval's midpoint — only sound when `n` is a
    /// point, so a ranged `n` without a model box returns `None`.
    #[must_use]
    pub fn of_model(app: &dyn AppModel, n: Interval, p: usize) -> Option<Self> {
        if let Some(b) = app.app_params_box(n, p) {
            return Some(b);
        }
        if n.lo == n.hi {
            return Some(Self::from_params(&app.app_params(n.lo, p)));
        }
        None
    }
}

/// The two frequency-dependent machine enclosures of Eq. 20 — `tc = CPI/f`
/// and `ΔPc = ΔPc_base · (f/f_base)^γ` — for every frequency in `f`.
///
/// These are the *only* machine terms the DVFS axis moves, which is what
/// lets [`E1Factors`] cache everything else per column: one pair of
/// intervals per frequency row re-certifies a whole column.
#[must_use]
pub fn frequency_terms(base: &MachineParams, f: Interval) -> (Interval, Interval) {
    terms::frequency(base, f)
}

/// The frequency-invariant part of the `E1` enclosure (Eq. 13) for one
/// `(MachBox, AppBox)` column.
///
/// Grid certification only needs the `E1` enclosure (the degenerate
/// predicate is on `E1` alone), so a column caches its factors once and
/// re-evaluates [`E1Factors::e1`] against each row's [`frequency_terms`].
/// That is the same kernel expression [`evaluate`] runs, so the interval
/// is identical to the full enclosure's `E1` on the box with `tc`/`ΔPc`
/// substituted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Factors {
    factors: SeqFactors<Interval>,
    psys: Interval,
}

impl E1Factors {
    /// Derive the factors from a box pair (ignores `m.tc`/`m.delta_pc` —
    /// those arrive per row via [`frequency_terms`]).
    #[must_use]
    pub fn of(m: &MachBox, a: &AppBox) -> Self {
        Self {
            factors: SeqFactors::of(m, a),
            psys: m.p_sys_idle,
        }
    }

    /// The `E1` enclosure at the given frequency terms.
    #[must_use]
    pub fn e1(&self, tc: Interval, dpc: Interval) -> Interval {
        let row = Row {
            tc,
            delta_pc: dpc,
            p_sys_idle: self.psys,
        };
        self.factors.sequential(&row).1
    }

    /// Proof that no point of the column×row box raises
    /// [`ModelError::DegenerateBaseline`] (see
    /// [`ModelEnclosure::baseline_certified`]).
    #[must_use]
    pub fn baseline_certified(&self, tc: Interval, dpc: Interval) -> bool {
        let e1 = self.e1(tc, dpc);
        e1.lo > 0.0 && e1.hi.is_finite()
    }
}

/// The full abstract evaluation of one `(MachBox, AppBox, p)` box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelEnclosure {
    /// Enclosure of `T1`.
    pub t1: Interval,
    /// Enclosure of `Tp`.
    pub tp: Interval,
    /// Enclosure of `E1`.
    pub e1: Interval,
    /// Enclosure of `Ep`.
    pub ep: Interval,
    /// Enclosure of `EEF`; `None` unless the baseline is certified
    /// (otherwise the point evaluation errors somewhere in the box and a
    /// ratio enclosure would be meaningless).
    pub eef: Option<Interval>,
    /// Enclosure of `EE`; `None` unless the baseline is certified.
    pub ee: Option<Interval>,
}

impl ModelEnclosure {
    /// Proof that **no** point of the box raises
    /// [`ModelError::DegenerateBaseline`]: `E1` is positive and finite
    /// everywhere.
    #[must_use]
    pub fn baseline_certified(&self) -> bool {
        self.e1.lo > 0.0 && self.e1.hi.is_finite()
    }

    /// Proof that **every** point of the box is degenerate (`E1 ≤ 0`
    /// throughout).
    #[must_use]
    pub fn provably_degenerate(&self) -> bool {
        self.e1.hi <= 0.0
    }

    /// Proof that `EE ∈ (0, 1]` across the whole box (implies the baseline
    /// certificate). Negative overheads can legitimately push EE slightly
    /// above 1 (superlinear energy scaling), so this is a stronger claim
    /// than degeneracy-freedom.
    #[must_use]
    pub fn ee_in_unit_certified(&self) -> bool {
        self.ee.is_some_and(|ee| ee.lo > 0.0 && ee.hi <= 1.0)
    }
}

/// Evaluate the whole model over a box. Like [`crate::model::eef`] and
/// [`crate::model::ee`], the ratios are only formed when `E1` is certified
/// positive and finite across the box.
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn evaluate(m: &MachBox, a: &AppBox, p: usize) -> ModelEnclosure {
    assert!(p > 0, "need at least one processor");
    enclose(&Factors::of(m, a), &Row::of(m), Interval::point(p as f64))
}

/// [`evaluate`] from already-derived column factors, over a range of
/// processor counts `p` (a point for one `p`).
pub(crate) fn enclose(f: &Factors<Interval>, r: &Row<Interval>, p: Interval) -> ModelEnclosure {
    let (t1, e1) = f.seq.sequential(r);
    let (tp, ep) = f.par.parallel(&f.seq, r, p);
    let mut out = ModelEnclosure {
        t1,
        tp,
        e1,
        ep,
        eef: None,
        ee: None,
    };
    if out.baseline_certified() {
        let (eef, ee) = terms::ratios(e1, ep);
        out.eef = Some(eef);
        out.ee = Some(ee);
    }
    out
}

// ---------------------------------------------------------------------
// Grid pre-certification for isoee::scaling
// ---------------------------------------------------------------------

/// How a sweep grid fared under ahead-of-time certification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCertification {
    /// Cells certified degenerate-free by pure interval reasoning.
    pub interval_cells: usize,
    /// Cells the intervals could not decide, confirmed by exact point
    /// evaluation instead.
    pub exact_cells: usize,
    /// The first (row-major) cell that is *actually* degenerate, with the
    /// exact model error the dynamic sweep would have produced there.
    pub degenerate: Option<(usize, ModelError)>,
}

impl GridCertification {
    /// Whole grid proven (or exactly confirmed) free of degenerate points.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.degenerate.is_none()
    }
}

/// Certify the `(p, f)` sweep grid of [`crate::scaling::ee_surface_pf`]:
/// rows are frequencies, columns processor counts, row-major indexing.
///
/// App parameters vary only per column, so one interval evaluation per
/// column — against the hull of all frequencies — usually certifies the
/// entire column (`O(|ps|)` evaluations for the whole grid). Undecided
/// columns fall back to per-cell thin-frequency boxes, then to exact point
/// confirmation, so the reported `degenerate` cell is always real and
/// matches the dynamic sweep's first error exactly.
///
/// # Panics
/// Panics when `ps` or `fs` is empty, or any `p == 0`.
#[must_use]
pub fn certify_pf_grid(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    ps: &[usize],
    fs: &[f64],
) -> GridCertification {
    assert!(!ps.is_empty() && !fs.is_empty(), "empty grid");
    let base_box = MachBox::from_params(base);
    let (hull_tc, hull_dpc) = frequency_terms(base, Interval::hull(fs));
    let mut cert = GridCertification {
        interval_cells: 0,
        exact_cells: 0,
        degenerate: None,
    };
    for (j, &p) in ps.iter().enumerate() {
        let a_box =
            AppBox::of_model(app, Interval::point(n), p).expect("point workload always has a box");
        let inv = E1Factors::of(&base_box, &a_box);
        if inv.baseline_certified(hull_tc, hull_dpc) {
            cert.interval_cells += fs.len();
            continue;
        }
        for (i, &f) in fs.iter().enumerate() {
            let (tc, dpc) = frequency_terms(base, Interval::point(f));
            if inv.baseline_certified(tc, dpc) {
                cert.interval_cells += 1;
                continue;
            }
            cert.exact_cells += 1;
            if let Err(source) = crate::model::ee(&base.at_frequency(f), &app.app_params(n, p), p) {
                let index = i * ps.len() + j;
                if cert.degenerate.is_none_or(|(first, _)| index < first) {
                    cert.degenerate = Some((index, source));
                }
            }
        }
    }
    cert
}

/// Certify the `(p, n)` sweep grid of [`crate::scaling::ee_surface_pn`]:
/// rows are workloads, columns processor counts, row-major indexing.
///
/// When the app model provides a workload box
/// ([`AppModel::app_params_box`]), one evaluation per column over the
/// workload hull can certify the column; otherwise each cell gets a thin
/// box, with exact confirmation for the undecided ones.
///
/// # Panics
/// Panics when `ps` or `ns` is empty, or any `p == 0`.
#[must_use]
pub fn certify_pn_grid(
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    ns: &[f64],
) -> GridCertification {
    assert!(!ps.is_empty() && !ns.is_empty(), "empty grid");
    // The pn sweep re-derives each row's machine via `at_frequency(f_hz)`;
    // mirror that so the box contains the recomputed tc/ΔPc exactly.
    let mach_box = MachBox::over_frequencies(mach, Interval::point(mach.f_hz));
    let n_hull = Interval::hull(ns);
    let mut cert = GridCertification {
        interval_cells: 0,
        exact_cells: 0,
        degenerate: None,
    };
    for (j, &p) in ps.iter().enumerate() {
        if let Some(a_box) = app.app_params_box(n_hull, p) {
            let inv = E1Factors::of(&mach_box, &a_box);
            if inv.baseline_certified(mach_box.tc, mach_box.delta_pc) {
                cert.interval_cells += ns.len();
                continue;
            }
        }
        for (i, &n) in ns.iter().enumerate() {
            let a_box = AppBox::of_model(app, Interval::point(n), p)
                .expect("point workload always has a box");
            let inv = E1Factors::of(&mach_box, &a_box);
            if inv.baseline_certified(mach_box.tc, mach_box.delta_pc) {
                cert.interval_cells += 1;
                continue;
            }
            cert.exact_cells += 1;
            if let Err(source) =
                crate::model::ee(&mach.at_frequency(mach.f_hz), &app.app_params(n, p), p)
            {
                let index = i * ps.len() + j;
                if cert.degenerate.is_none_or(|(first, _)| index < first) {
                    cert.degenerate = Some((index, source));
                }
            }
        }
    }
    cert
}

/// Certify the frequency probes of [`crate::scaling::best_frequency`]:
/// indexing follows `freqs` order.
///
/// # Panics
/// Panics when `freqs` is empty or `p == 0`.
#[must_use]
pub fn certify_frequency_probes(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    p: usize,
    freqs: &[f64],
) -> GridCertification {
    assert!(!freqs.is_empty(), "need at least one frequency");
    let a_box =
        AppBox::of_model(app, Interval::point(n), p).expect("point workload always has a box");
    let mut cert = GridCertification {
        interval_cells: 0,
        exact_cells: 0,
        degenerate: None,
    };
    let inv = E1Factors::of(&MachBox::from_params(base), &a_box);
    let (hull_tc, hull_dpc) = frequency_terms(base, Interval::hull(freqs));
    if inv.baseline_certified(hull_tc, hull_dpc) {
        cert.interval_cells = freqs.len();
        return cert;
    }
    for (index, &f) in freqs.iter().enumerate() {
        let (tc, dpc) = frequency_terms(base, Interval::point(f));
        if inv.baseline_certified(tc, dpc) {
            cert.interval_cells += 1;
            continue;
        }
        cert.exact_cells += 1;
        if let Err(source) = crate::model::ee(&base.at_frequency(f), &app.app_params(n, p), p) {
            if cert.degenerate.is_none() {
                cert.degenerate = Some((index, source));
            }
        }
    }
    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CgModel, EpModel, FtModel};
    use crate::model;

    fn mach() -> MachineParams {
        MachineParams::system_g(2.8e9)
    }

    #[test]
    fn point_arithmetic_encloses_f64_results() {
        let a = Interval::point(0.1);
        let b = Interval::point(0.2);
        let s = a + b;
        assert!(s.contains(0.1 + 0.2));
        assert!(s.width() < 1e-15);
        let p = a * b;
        assert!(p.contains(0.1 * 0.2));
        let q = a / b;
        assert!(q.contains(0.1 / 0.2));
    }

    #[test]
    fn division_by_zero_straddling_interval_is_entire() {
        let x = Interval::point(1.0);
        let d = Interval::new(-1.0, 2.0);
        assert_eq!(x / d, Interval::ENTIRE);
    }

    #[test]
    fn mul_handles_sign_combinations() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-5.0, 7.0);
        let p = a * b;
        for x in [-2.0, 0.0, 1.5, 3.0] {
            for y in [-5.0, 0.0, 2.0, 7.0] {
                assert!(p.contains(x * y), "{x}*{y} not in {p}");
            }
        }
    }

    #[test]
    fn nan_producing_ops_degrade_to_entire() {
        let zero = Interval::point(0.0);
        let inf = Interval::new(0.0, f64::INFINITY);
        assert_eq!(zero * inf, Interval::ENTIRE);
        assert_eq!(Interval::point(f64::NAN), Interval::ENTIRE);
    }

    #[test]
    fn thin_box_evaluation_encloses_point_model() {
        let m = mach();
        let ft = FtModel::system_g();
        for p in [1usize, 4, 64, 1024] {
            let a = ft.app_params(1e6, p);
            let enc = evaluate(&MachBox::from_params(&m), &AppBox::from_params(&a), p);
            assert!(enc.t1.contains(model::t1(&m, &a).raw()));
            assert!(enc.tp.contains(model::tp(&m, &a, p).raw()));
            assert!(enc.e1.contains(model::e1(&m, &a).raw()));
            assert!(enc.ep.contains(model::ep(&m, &a, p).raw()));
            assert!(enc.baseline_certified());
            let ee = model::ee(&m, &a, p).expect("positive baseline");
            assert!(enc.ee.expect("certified").contains(ee));
        }
    }

    #[test]
    fn frequency_hull_encloses_every_dvfs_state() {
        let base = mach();
        let fs = [1.6e9, 2.0e9, 2.4e9, 2.8e9];
        let hull = MachBox::over_frequencies(&base, Interval::hull(&fs));
        for &f in &fs {
            let m = base.at_frequency(f);
            assert!(hull.tc.contains(m.tc.raw()), "tc at {f}");
            assert!(hull.delta_pc.contains(m.delta_pc.raw()), "dPc at {f}");
        }
    }

    #[test]
    fn default_grids_certify_by_interval_alone() {
        let base = mach();
        let fs = [1.6e9, 2.0e9, 2.4e9, 2.8e9];
        // Fig. 5 (FT), Fig. 7 (EP), Fig. 9 (CG) style grids.
        let ft = certify_pf_grid(
            &FtModel::system_g(),
            &base,
            (1u64 << 20) as f64,
            &[1, 4, 16, 64, 256, 1024],
            &fs,
        );
        assert!(ft.is_clean());
        assert_eq!(ft.exact_cells, 0, "FT grid should certify by interval");
        let ep = certify_pf_grid(&EpModel::system_g(), &base, 4e6, &[1, 8, 64, 128], &fs);
        assert!(ep.is_clean() && ep.exact_cells == 0);
        let cg = certify_pf_grid(&CgModel::system_g(), &base, 75_000.0, &[4, 16, 64], &fs);
        assert!(cg.is_clean() && cg.exact_cells == 0);
    }

    #[test]
    fn degenerate_cells_are_pinpointed_exactly() {
        // Mirror of scaling's ThresholdModel: zero workload under n = 1e6.
        struct Thresh;
        impl AppModel for Thresh {
            fn name(&self) -> &'static str {
                "thresh"
            }
            fn app_params(&self, n: f64, _p: usize) -> AppParams {
                if n < 1e6 {
                    AppParams::ideal(0.0)
                } else {
                    AppParams::ideal(n)
                }
            }
        }
        let m = mach();
        let cert = certify_pn_grid(&Thresh, &m, &[4, 16], &[1e3, 1e7]);
        let (index, source) = cert.degenerate.expect("row 0 is degenerate");
        assert_eq!(index, 0);
        assert_eq!(
            source,
            ModelError::DegenerateBaseline {
                e1: simcluster::units::Joules::ZERO
            }
        );
        // Degenerate row second: row-major index jumps a full row.
        let cert = certify_pn_grid(&Thresh, &m, &[4, 16], &[1e7, 1e3]);
        assert_eq!(cert.degenerate.expect("row 1 degenerate").0, 2);
    }

    #[test]
    fn e1_factors_match_the_full_enclosure() {
        // The factored path must produce the *identical* interval as the
        // full enclosure — bit-for-bit on both endpoints — so the certify
        // loops reach the same verdicts as a per-box `evaluate`.
        let base = mach();
        let fs = [1.6e9, 2.0e9, 2.4e9, 2.8e9];
        let ft = FtModel::system_g();
        for p in [1usize, 4, 64, 1024] {
            let a_box = AppBox::of_model(&ft, Interval::point((1u64 << 20) as f64), p)
                .expect("point workload always has a box");
            let inv = E1Factors::of(&MachBox::from_params(&base), &a_box);
            for f in [Interval::hull(&fs), Interval::point(2.0e9)] {
                let (tc, dpc) = frequency_terms(&base, f);
                let factored = inv.e1(tc, dpc);
                let full = evaluate(&MachBox::over_frequencies(&base, f), &a_box, p).e1;
                assert_eq!(factored.lo.to_bits(), full.lo.to_bits(), "p={p}");
                assert_eq!(factored.hi.to_bits(), full.hi.to_bits(), "p={p}");
                assert_eq!(
                    inv.baseline_certified(tc, dpc),
                    full.lo > 0.0 && full.hi.is_finite(),
                );
            }
        }
    }
}

#[cfg(test)]
mod factored_soundness {
    //! Point-⊆-box soundness of the factored-invariant certification path
    //! against the **batch kernel's** point results: any outward-rounding
    //! regression introduced by sharing invariants across rows would show
    //! up here as a fused point `E1` escaping its column enclosure.

    use super::*;
    use crate::apps::{AppModel, FtModel};
    use crate::batch;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn factored_e1_enclosure_contains_batch_point_results(
            f_lo in 1.2e9f64..2.2e9,
            f_span in 1e8f64..1.2e9,
            lg_n in 14u32..24,
            lg_p in 0u32..11,
            alpha in 0.5f64..=1.0,
        ) {
            let base = MachineParams::system_g(2.8e9);
            let p = 1usize << lg_p;
            let n = f64::from(1u32 << lg_n);
            let ft = FtModel::system_g();
            let mut a = ft.app_params(n, p);
            a.alpha = alpha;
            let a_box = AppBox::from_params(&a);
            let inv = E1Factors::of(&MachBox::from_params(&base), &a_box);
            let f_hi = f_lo + f_span;
            let (hull_tc, hull_dpc) =
                frequency_terms(&base, Interval::new(f_lo, f_hi));
            let hull_e1 = inv.e1(hull_tc, hull_dpc);
            for f in [f_lo, 0.5 * (f_lo + f_hi), f_hi] {
                let point = batch::evaluate(&base.at_frequency(f), &a, p).terms;
                prop_assert!(
                    hull_e1.contains(point.e1.raw()),
                    "batch E1 {} at f={f} escapes hull enclosure {hull_e1}",
                    point.e1.raw()
                );
                // Thin-frequency factored enclosure contains it too (the
                // per-cell fallback of the certify loop).
                let (tc, dpc) = frequency_terms(&base, Interval::point(f));
                prop_assert!(inv.e1(tc, dpc).contains(point.e1.raw()));
            }
        }

        #[test]
        fn certified_boxes_never_contain_a_degenerate_batch_point(
            f_lo in 1.2e9f64..2.2e9,
            f_span in 1e8f64..1.2e9,
            wc in 0.0f64..1e10,
            lg_p in 0u32..8,
        ) {
            // Certification is a *proof*: whenever the factored path says
            // a column is clean, the batch kernel must agree at every
            // probed frequency — including wc = 0 columns, where the
            // factored path must refuse to certify.
            let base = MachineParams::system_g(2.8e9);
            let p = 1usize << lg_p;
            let a = AppParams::ideal(wc);
            let inv = E1Factors::of(&MachBox::from_params(&base), &AppBox::from_params(&a));
            let f_hi = f_lo + f_span;
            let (tc, dpc) = frequency_terms(&base, Interval::new(f_lo, f_hi));
            if inv.baseline_certified(tc, dpc) {
                for f in [f_lo, 0.5 * (f_lo + f_hi), f_hi] {
                    prop_assert!(
                        batch::evaluate(&base.at_frequency(f), &a, p).ee.is_ok(),
                        "certified column has a degenerate batch point at f={f}"
                    );
                }
            } else {
                // ideal(0) has E1 = 0 exactly: the box must NOT certify.
                prop_assert!(wc > 0.0 || !inv.baseline_certified(tc, dpc));
            }
        }
    }
}
