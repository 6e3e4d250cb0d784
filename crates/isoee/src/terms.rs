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
//! The terms are factored by what the sweep axes move. [`Factors`] holds
//! everything a column of a `(p, f)` grid shares (frequency-free): the
//! [`SeqFactors`] `E1` reads and the [`ParFactors`] `Tp`/`Ep` add. A
//! [`Row`] carries the two Eq. 20 terms plus `P_sys_idle`.

use std::ops::{Add, Div, Mul, Sub};

use crate::interval::{AppBox, Interval, MachBox};
use crate::params::{AppParams, MachineParams};

/// A numeric domain the model can be evaluated in.
pub(crate) trait Domain:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// The domain element for a plain value.
    fn point(x: f64) -> Self;
    /// `self^e` for a fixed exponent.
    fn powf(self, e: f64) -> Self;
}

impl Domain for f64 {
    fn point(x: f64) -> Self {
        x
    }

    fn powf(self, e: f64) -> Self {
        f64::powf(self, e)
    }
}

impl Domain for Interval {
    fn point(x: f64) -> Self {
        Interval::point(x)
    }

    fn powf(self, e: f64) -> Self {
        Interval::powf(self, e)
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

/// The frequency-invariant Table 1 entries other than `P_sys_idle`.
struct Mach<D> {
    tm: D,
    ts: D,
    tw: D,
    delta_pm: D,
    delta_pnic: D,
    delta_pio: D,
}

impl Mach<f64> {
    fn of_params(m: &MachineParams) -> Self {
        Self {
            tm: m.tm.raw(),
            ts: m.ts.raw(),
            tw: m.tw.raw(),
            delta_pm: m.delta_pm.raw(),
            delta_pnic: m.delta_pnic.raw(),
            delta_pio: m.delta_pio.raw(),
        }
    }
}

impl Mach<Interval> {
    fn of_box(m: &MachBox) -> Self {
        Self {
            tm: m.tm,
            ts: m.ts,
            tw: m.tw,
            delta_pm: m.delta_pm,
            delta_pnic: m.delta_pnic,
            delta_pio: m.delta_pio,
        }
    }
}

/// The Table 2 vector.
struct App<D> {
    alpha: D,
    wc: D,
    wm: D,
    woc: D,
    wom: D,
    messages: D,
    bytes: D,
    t_io: D,
}

impl App<f64> {
    fn of_params(a: &AppParams) -> Self {
        Self {
            alpha: a.alpha,
            wc: a.wc.raw(),
            wm: a.wm.raw(),
            woc: a.woc.raw(),
            wom: a.wom.raw(),
            messages: a.messages.raw(),
            bytes: a.bytes.raw(),
            t_io: a.t_io.raw(),
        }
    }
}

impl App<Interval> {
    fn of_box(a: &AppBox) -> Self {
        Self {
            alpha: a.alpha,
            wc: a.wc,
            wm: a.wm,
            woc: a.woc,
            wom: a.wom,
            messages: a.messages,
            bytes: a.bytes,
            t_io: a.t_io,
        }
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

impl Row<f64> {
    pub(crate) fn of_params(m: &MachineParams) -> Self {
        Self {
            tc: m.tc.raw(),
            delta_pc: m.delta_pc.raw(),
            p_sys_idle: m.p_sys_idle.raw(),
        }
    }
}

impl Row<Interval> {
    pub(crate) fn of_box(m: &MachBox) -> Self {
        Self {
            tc: m.tc,
            delta_pc: m.delta_pc,
            p_sys_idle: m.p_sys_idle,
        }
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
    fn of(m: &Mach<D>, a: &App<D>) -> Self {
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
    fn of(m: &Mach<D>, a: &App<D>) -> Self {
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

impl Factors<Interval> {
    pub(crate) fn of_boxes(m: &MachBox, a: &AppBox) -> Self {
        Self::of(&Mach::of_box(m), &App::of_box(a))
    }
}

impl SeqFactors<Interval> {
    pub(crate) fn of_boxes(m: &MachBox, a: &AppBox) -> Self {
        Self::of(&Mach::of_box(m), &App::of_box(a))
    }
}
