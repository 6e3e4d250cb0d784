//! The term kernel: Eqs. 5–21 and Eq. 20, each written exactly once,
//! generic over the numeric [`Domain`].
//!
//! [`crate::model`] (unit-typed points), [`crate::batch`] (grid rows) and
//! [`crate::interval`] (outward-rounded enclosures) are the `f64` and
//! [`Interval`] instances of the expressions below. Every expression
//! fixes one association tree, so the `f64` instance is bit-identical
//! wherever it runs, and the interval instance encloses it because it
//! performs the matching outward-rounded operation at every node.
//!
//! The kernel's inputs are the paper's two vectors, [`Mach`] (Table 1)
//! and [`App`] (Table 2), over the same domain; the interval instances are
//! the public [`crate::interval::MachBox`] and [`crate::interval::AppBox`],
//! and the built-in app models fill [`App`] from one generic body each.
//!
//! The terms are factored by what the sweep axes move. [`Factors`] holds
//! everything a column of a `(p, f)` grid shares (frequency-free): the
//! [`SeqFactors`] `E1` reads and the [`ParFactors`] `Tp`/`Ep` add. A
//! [`Row`] carries the two Eq. 20 terms plus `P_sys_idle`.

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::interval::Interval;
use crate::params::{AppParams, MachineParams};

/// A numeric domain the model can be evaluated in.
pub(crate) trait Domain:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// The domain element for a plain value.
    fn point(x: f64) -> Self;
    /// `self^e` for a fixed exponent.
    fn powf(self, e: f64) -> Self;
    /// The larger of `self` and `other`.
    fn max(self, other: Self) -> Self;
    /// `log2(self)`.
    fn log2(self) -> Self;
}

impl Domain for f64 {
    fn point(x: f64) -> Self {
        x
    }

    fn powf(self, e: f64) -> Self {
        f64::powf(self, e)
    }

    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }

    fn log2(self) -> Self {
        f64::log2(self)
    }
}

impl Domain for Interval {
    fn point(x: f64) -> Self {
        Interval::point(x)
    }

    fn powf(self, e: f64) -> Self {
        Interval::powf(self, e)
    }

    fn max(self, other: Self) -> Self {
        Interval::max(self, other)
    }

    fn log2(self) -> Self {
        Interval::log2(self)
    }
}

/// Eq. 20 at frequency `f` for a machine described at `base.f_hz`:
/// `(tc, ΔPc) = (CPI/f, ΔPc_base·(f/f_base)^γ)`.
pub(crate) fn frequency<D: Domain>(base: &MachineParams, f: D) -> (D, D) {
    let tc = D::point(base.cpi) / f;
    let dpc = D::point(base.delta_pc.raw()) * (f / D::point(base.f_hz)).powf(base.gamma);
    (tc, dpc)
}

/// Parallel energy overhead `E0 = Ep − E1` (Eqs. 1, 16).
pub(crate) fn e0<D: Domain>(e1: D, ep: D) -> D {
    ep - e1
}

/// `(EEF, EE) = (E0/E1, 1/(1 + EEF))` (Eqs. 19, 21). Unguarded: callers
/// decide what a non-positive `E1` means in their domain.
pub(crate) fn ratios<D: Domain>(e1: D, ep: D) -> (D, D) {
    let eef = e0(e1, ep) / e1;
    (eef, D::point(1.0) / (D::point(1.0) + eef))
}

/// The machine-dependent vector (Table 1) in one numeric domain: the
/// model's entries of [`MachineParams`] in `f64`, and
/// [`crate::interval::MachBox`] as intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mach<D> {
    /// Per-instruction time `tc`.
    pub tc: D,
    /// DRAM latency `tm`.
    pub tm: D,
    /// Message startup `ts`.
    pub ts: D,
    /// Per-byte time `tw`.
    pub tw: D,
    /// Idle power `P_sys_idle`.
    pub p_sys_idle: D,
    /// CPU delta `ΔPc`.
    pub delta_pc: D,
    /// Memory delta `ΔPm`.
    pub delta_pm: D,
    /// NIC delta `ΔP_NIC`.
    pub delta_pnic: D,
    /// Disk delta `ΔP_IO`.
    pub delta_pio: D,
}

// The `Domain` bounds sit on the methods, not the impls: the structs are
// public and `Domain` is crate-private.
impl<D> Mach<D> {
    /// The vector of `m`, every entry a domain point.
    pub(crate) fn of_params(m: &MachineParams) -> Self
    where
        D: Domain,
    {
        Self {
            tc: D::point(m.tc.raw()),
            tm: D::point(m.tm.raw()),
            ts: D::point(m.ts.raw()),
            tw: D::point(m.tw.raw()),
            p_sys_idle: D::point(m.p_sys_idle.raw()),
            delta_pc: D::point(m.delta_pc.raw()),
            delta_pm: D::point(m.delta_pm.raw()),
            delta_pnic: D::point(m.delta_pnic.raw()),
            delta_pio: D::point(m.delta_pio.raw()),
        }
    }
}

/// The application-dependent vector (Table 2) in one numeric domain:
/// [`AppParams`] in `f64`, and [`crate::interval::AppBox`] as intervals.
/// Each built-in app model writes its formulas once, generic over the
/// domain, and returns this struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct App<D> {
    /// Overlap factor `α`.
    pub alpha: D,
    /// Sequential on-chip workload `Wc`.
    pub wc: D,
    /// Sequential off-chip workload `Wm`.
    pub wm: D,
    /// Parallel compute overhead `Woc`.
    pub woc: D,
    /// Parallel memory overhead `Wom`.
    pub wom: D,
    /// Total messages `M`.
    pub messages: D,
    /// Total bytes `B`.
    pub bytes: D,
    /// Sequential I/O time `T_IO`.
    pub t_io: D,
}

impl<D> App<D> {
    /// The vector of `a`, every entry a domain point.
    pub(crate) fn of_params(a: &AppParams) -> Self
    where
        D: Domain,
    {
        Self {
            alpha: D::point(a.alpha),
            wc: D::point(a.wc.raw()),
            wm: D::point(a.wm.raw()),
            woc: D::point(a.woc.raw()),
            wom: D::point(a.wom.raw()),
            messages: D::point(a.messages.raw()),
            bytes: D::point(a.bytes.raw()),
            t_io: D::point(a.t_io.raw()),
        }
    }
}

impl App<f64> {
    /// The unit-typed vector (unvalidated).
    pub(crate) fn to_params(self) -> AppParams {
        AppParams::from_raw(
            self.alpha,
            self.wc,
            self.wm,
            self.woc,
            self.wom,
            self.messages,
            self.bytes,
            self.t_io,
        )
    }
}

/// The machine terms that vary per sweep row: Eq. 20's `tc` and `ΔPc`,
/// and the idle power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Row<D> {
    pub(crate) tc: D,
    pub(crate) delta_pc: D,
    pub(crate) p_sys_idle: D,
}

impl<D: Domain> Row<D> {
    pub(crate) fn of(m: &Mach<D>) -> Self {
        Self {
            tc: m.tc,
            delta_pc: m.delta_pc,
            p_sys_idle: m.p_sys_idle,
        }
    }
}

impl Row<f64> {
    pub(crate) fn of_params(m: &MachineParams) -> Self {
        Self::of(&Mach::of_params(m))
    }
}

/// Every term at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Point<D> {
    pub(crate) t1: D,
    pub(crate) tp: D,
    pub(crate) e1: D,
    pub(crate) ep: D,
    pub(crate) eef: D,
    pub(crate) ee: D,
}

/// The frequency-invariant factors `E1` reads (Eqs. 5–6, 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SeqFactors<D> {
    /// Overlap factor `α`.
    alpha: D,
    /// `Wc`.
    wc: D,
    /// `Wm·tm`, the sequential memory time.
    mem_seq: D,
    /// `T_IO`.
    t_io: D,
    /// `(Wm·tm)·ΔPm`, the Eq. 13 memory energy.
    e_mem_seq: D,
    /// `T_IO·ΔP_IO`.
    e_io: D,
}

impl<D: Domain> SeqFactors<D> {
    pub(crate) fn of(m: &Mach<D>, a: &App<D>) -> Self {
        let mem_seq = a.wm * m.tm;
        Self {
            alpha: a.alpha,
            wc: a.wc,
            mem_seq,
            t_io: a.t_io,
            e_mem_seq: mem_seq * m.delta_pm,
            e_io: a.t_io * m.delta_pio,
        }
    }

    /// `(T1, E1)`:
    ///
    /// ```text
    /// T1 = α·((Wc·tc + Wm·tm) + T_IO)                              (Eqs. 5–6)
    /// E1 = ((T1·P_idle + (Wc·tc)·ΔPc) + (Wm·tm)·ΔPm) + T_IO·ΔP_IO  (Eq. 13)
    /// ```
    pub(crate) fn sequential(&self, r: &Row<D>) -> (D, D) {
        let x1 = self.wc * r.tc;
        let t1 = self.alpha * ((x1 + self.mem_seq) + self.t_io);
        let e1 = ((t1 * r.p_sys_idle + x1 * r.delta_pc) + self.e_mem_seq) + self.e_io;
        (t1, e1)
    }
}

impl SeqFactors<f64> {
    /// The factors' bit patterns, for exact equality across columns.
    pub(crate) fn bits(&self) -> [u64; 6] {
        [
            self.alpha,
            self.wc,
            self.mem_seq,
            self.t_io,
            self.e_mem_seq,
            self.e_io,
        ]
        .map(f64::to_bits)
    }
}

/// The further frequency-invariant factors `Tp` and `Ep` read
/// (Eqs. 10, 15, 17–18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ParFactors<D> {
    /// `Wc + Woc`.
    wcc: D,
    /// `(Wm+Wom)·tm`, the parallel memory time.
    mem_par: D,
    /// `T_net = M·ts + B·tw` (Eq. 17).
    pub(crate) t_net: D,
    /// `((Wm+Wom)·tm)·ΔPm`, the Eq. 15 memory energy.
    e_mem_par: D,
    /// `T_net·ΔP_NIC`, the Eq. 18 network energy.
    pub(crate) e_net: D,
}

impl<D: Domain> ParFactors<D> {
    fn of(m: &Mach<D>, a: &App<D>) -> Self {
        let mem_par = (a.wm + a.wom) * m.tm;
        let t_net = a.messages * m.ts + a.bytes * m.tw;
        Self {
            wcc: a.wc + a.woc,
            mem_par,
            t_net,
            e_mem_par: mem_par * m.delta_pm,
            e_net: t_net * m.delta_pnic,
        }
    }

    /// `(Tp, Ep)` on `p` processors, with `α`, `T_IO` and `T_IO·ΔP_IO`
    /// from `s`:
    ///
    /// ```text
    /// Tp = α·((((Wc+Woc)·tc + (Wm+Wom)·tm) + T_net) + T_IO) / p       (Eq. 10)
    /// Ep = (((Tp·p·P_idle + ((Wc+Woc)·tc)·ΔPc) + ((Wm+Wom)·tm)·ΔPm)
    ///       + T_net·ΔP_NIC) + T_IO·ΔP_IO                           (Eqs. 15/18)
    /// ```
    pub(crate) fn parallel(&self, s: &SeqFactors<D>, r: &Row<D>, p: D) -> (D, D) {
        let y1 = self.wcc * r.tc;
        let tp = s.alpha * (((y1 + self.mem_par) + self.t_net) + s.t_io) / p;
        let ep =
            (((tp * p * r.p_sys_idle + y1 * r.delta_pc) + self.e_mem_par) + self.e_net) + s.e_io;
        (tp, ep)
    }
}

/// All frequency-invariant factors of one `(Mach, Appl)` pair: only `tc`
/// and `ΔPc` move under Eq. 20, so one `Factors` serves every row of a
/// `(p, f)` grid column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Factors<D> {
    pub(crate) seq: SeqFactors<D>,
    pub(crate) par: ParFactors<D>,
}

impl<D: Domain> Factors<D> {
    pub(crate) fn of(m: &Mach<D>, a: &App<D>) -> Self {
        Self {
            seq: SeqFactors::of(m, a),
            par: ParFactors::of(m, a),
        }
    }

    /// Every term at one point.
    pub(crate) fn point(&self, r: &Row<D>, p: D) -> Point<D> {
        let (t1, e1) = self.seq.sequential(r);
        let (tp, ep) = self.par.parallel(&self.seq, r, p);
        let (eef, ee) = ratios(e1, ep);
        Point {
            t1,
            tp,
            e1,
            ep,
            eef,
            ee,
        }
    }
}

impl Factors<f64> {
    pub(crate) fn of_params(m: &MachineParams, a: &AppParams) -> Self {
        Self::of(&Mach::of_params(m), &App::of_params(a))
    }
}
