//! Parametric (for-all-`p`) plan certification.
//!
//! [`certify_plan`] interprets a [`CommPlan`] over a *symbolic* world size
//! `p ∈ D` instead of a concrete rank matrix. The analysis has two halves,
//! combined by an explicit **small-model cutoff** argument:
//!
//! 1. **Symbolic step** — a structural walk normalizes every peer
//!    expression to an affine/mod-canonical form and discharges a
//!    matching/deadlock obligation per communication construct:
//!
//!    * *Shift rounds* (`Send` to `(Rank + a) % P` immediately followed by
//!      `Recv` from `(Rank + b) % P`, equal rank-free tags): the pair is a
//!      sender↔receiver bijection iff the offsets cancel symbolically
//!      (`a + b ≡ 0 (mod P)` with the `P`-multiples dropped and all
//!      non-constant terms cancelling structurally), and is self-message
//!      free iff no admissible `p` divides the constant send offset — a
//!      finite check, since `p > |a|` never divides `a ≠ 0`. Deadlock
//!      freedom then follows because sends are eager: by induction over
//!      certified items, every rank reaches its receive with the matching
//!      send already in flight.
//!    * *Exchanges* are certified against a small library of involution
//!      lemmas (`σ∘σ = id`, `σ(r)` in range), matched structurally:
//!      hypercube `Rank ⊕ 2^i`, the CG grid-row doubling
//!      `row·npcol + (col ⊕ 2^i)`, and the CG square/rect grid transposes
//!      (the latter two only under their `Ne(σ(r), Rank)` self-partner
//!      guard and on the grid-shape branch they are defined for). An
//!      involution pairs each participating rank with a distinct partner
//!      executing the mirror exchange, so both sides' eager sends satisfy
//!      both receives.
//!    * *Collectives* expand (in the concrete checker) to `mps`'s
//!      algorithms, which are pairwise-matched for every `p ≥ 1`; the walk
//!      records them as named lemma obligations rather than re-deriving
//!      the schedules symbolically.
//!    * *Control* must be `p`-uniform: loop trip counts and branch
//!      conditions rank-free (all ranks take the same arm at a given `p`),
//!      except for the recognized self-partner guard. Tag counters stay
//!      aligned across ranks because bumps (`BumpTag`, `Auto`) are only
//!      admitted in uniform context; guard bodies may use `Last`/rank-free
//!      tags only.
//!
//!    Any construct outside this fragment fails certification with a
//!    witness ([`SymFailure`]) naming the op site — including every
//!    wildcard receive, whose matching is schedule-dependent.
//!
//! 2. **Base cases** — the concrete checker ([`analyze_plan`]) must
//!    certify every admissible `p ≤ cutoff` exactly. The symbolic step is
//!    the induction: its obligations are `p`-independent (or finitely
//!    checked over the domain), so together they cover all of `D`.
//!
//! The same walk yields closed-form **count enclosures**
//! ([`ParametricCert::counts`]): for any admissible `p`, message/byte/
//! work totals as intervals evaluated in `O(plan size)` — no per-`p`
//! elaboration — which `isoee`'s symbolic cost lowering turns into Eq. 13/15
//! time/energy enclosures and static power-cap verdicts. Each base case
//! also cross-checks the enclosure against the concrete totals, so a
//! count bug is caught at certification time, not at verdict time.

use std::fmt;

use crate::check::analyze_plan;
use crate::expr::{Cond, Expr};
use crate::ir::{CommPlan, Op, TagExpr};

/// Default small-model cutoff: every admissible `p ≤ 32` is checked
/// concretely.
pub const DEFAULT_CUTOFF: u64 = 32;

/// Sampling horizon for unbounded domains (counts/verdicts still hold for
/// all `p`; only [`Domain::sample`] needs a finite window).
const SAMPLE_HORIZON: u64 = 4096;

// ---------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------

/// The admissible world sizes a plan is declared (and certified) for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// `p = 2^k` for `min_lg ≤ k` (`≤ max_lg` when bounded).
    Pow2 {
        /// Smallest admissible exponent.
        min_lg: u32,
        /// Largest admissible exponent, `None` for unbounded.
        max_lg: Option<u32>,
    },
    /// Every integer `p ≥ min` (`≤ max` when bounded).
    Any {
        /// Smallest admissible `p` (at least 1).
        min: u64,
        /// Largest admissible `p`, `None` for unbounded.
        max: Option<u64>,
    },
}

impl Domain {
    /// All powers of two.
    #[must_use]
    pub fn pow2() -> Self {
        Domain::Pow2 {
            min_lg: 0,
            max_lg: None,
        }
    }

    /// Every `p ≥ min`.
    #[must_use]
    pub fn at_least(min: u64) -> Self {
        Domain::Any {
            min: min.max(1),
            max: None,
        }
    }

    /// Every `p` in `[min, max]`.
    #[must_use]
    pub fn between(min: u64, max: u64) -> Self {
        Domain::Any {
            min: min.max(1),
            max: Some(max),
        }
    }

    /// Whether `p` is admissible.
    #[must_use]
    pub fn contains(&self, p: u64) -> bool {
        match self {
            Domain::Pow2 { min_lg, max_lg } => {
                p.is_power_of_two()
                    && p.trailing_zeros() >= *min_lg
                    && max_lg.is_none_or(|m| p.trailing_zeros() <= m)
            }
            Domain::Any { min, max } => p >= *min && max.is_none_or(|m| p <= m),
        }
    }

    /// The smallest admissible `p`.
    #[must_use]
    pub fn min_p(&self) -> u64 {
        match self {
            Domain::Pow2 { min_lg, .. } => 1u64 << (*min_lg).min(62),
            Domain::Any { min, .. } => *min,
        }
    }

    /// Whether the domain has finitely many members.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        match self {
            Domain::Pow2 { max_lg, .. } => max_lg.is_some(),
            Domain::Any { max, .. } => max.is_some(),
        }
    }

    /// The same domain clamped to `p ≤ pmax` (for "for all p ≤ N" caps).
    #[must_use]
    pub fn with_max(&self, pmax: u64) -> Self {
        match self {
            Domain::Pow2 { min_lg, max_lg } => {
                let lg = 63 - pmax.max(1).leading_zeros(); // floor(log2 pmax)
                Domain::Pow2 {
                    min_lg: *min_lg,
                    max_lg: Some(max_lg.map_or(lg, |m| m.min(lg))),
                }
            }
            Domain::Any { min, max } => Domain::Any {
                min: *min,
                max: Some(max.map_or(pmax, |m| m.min(pmax))),
            },
        }
    }

    /// Every admissible `p`, smallest first — `None` when unbounded.
    #[must_use]
    pub fn admissible(&self) -> Option<Vec<u64>> {
        match self {
            Domain::Pow2 { max_lg, .. } => max_lg.map(|_| self.admissible_up_to(u64::MAX)),
            Domain::Any { max, .. } => max.map(|_| self.admissible_up_to(u64::MAX)),
        }
    }

    /// Every admissible `p ≤ limit`, smallest first (finite even for
    /// unbounded domains).
    #[must_use]
    pub fn admissible_up_to(&self, limit: u64) -> Vec<u64> {
        match self {
            Domain::Pow2 { min_lg, max_lg } => {
                let hi_lg = max_lg.unwrap_or(62).min(62);
                (*min_lg..=hi_lg)
                    .map(|lg| 1u64 << lg)
                    .take_while(|&p| p <= limit)
                    .collect()
            }
            Domain::Any { min, max } => {
                let hi = max.unwrap_or(u64::MAX).min(limit);
                if *min > hi {
                    Vec::new()
                } else {
                    (*min..=hi).collect()
                }
            }
        }
    }

    /// The base cases of the cutoff argument: admissible `p ≤ cutoff`.
    #[must_use]
    pub fn base_ps(&self, cutoff: u64) -> Vec<u64> {
        self.admissible_up_to(cutoff)
    }

    /// `count` deterministic sample points (unbounded domains sample up to
    /// a fixed horizon), sorted and deduplicated.
    #[must_use]
    pub fn sample(&self, count: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(count);
        match self {
            Domain::Pow2 { min_lg, max_lg } => {
                let hi = max_lg.unwrap_or(SAMPLE_HORIZON.trailing_zeros()).min(62);
                let lo = (*min_lg).min(hi);
                for _ in 0..count {
                    let lg = lo + u32::try_from(next() % u64::from(hi - lo + 1)).expect("small");
                    out.push(1u64 << lg);
                }
            }
            Domain::Any { min, max } => {
                let hi = max.unwrap_or(SAMPLE_HORIZON).max(*min);
                let span = hi - *min + 1;
                for _ in 0..count {
                    out.push(*min + next() % span);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Pow2 { min_lg, max_lg } => match max_lg {
                Some(m) => write!(f, "p = 2^k, {min_lg} <= k <= {m}"),
                None => write!(f, "p = 2^k, k >= {min_lg}"),
            },
            Domain::Any { min, max } => match max {
                Some(m) => write!(f, "{min} <= p <= {m}"),
                None => write!(f, "p >= {min}"),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------

/// One discharged proof obligation: which lemma/rule, at which plan site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Rule identifier (e.g. `shift-bijection`, `collective-lemma:barrier`).
    pub rule: &'static str,
    /// Op path inside the plan body, e.g. `body[3].loop[0]`.
    pub site: String,
}

/// Why certification failed, with the op site as witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymFailure {
    /// Op path inside the plan body (or the failing base case).
    pub site: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for SymFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.site, self.reason)
    }
}

/// A closed interval of real-valued counts (`lo == hi` when exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountRange {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl CountRange {
    /// Whether `v` lies inside the range.
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the range is a single point.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }
}

/// Whole-plan count enclosures at one admissible `p`, evaluated from the
/// symbolic summary in `O(plan size)` — no rank matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymCounts {
    /// Total messages over all ranks.
    pub messages: CountRange,
    /// Total payload bytes over all ranks.
    pub bytes: CountRange,
    /// Total on-chip instructions (`Wc`), including collective combines.
    pub wc: CountRange,
    /// Total charged memory accesses.
    pub mem_accesses: CountRange,
}

/// A machine-checkable for-all-`p` certificate: the symbolic obligations,
/// the concrete base cases, and (when certified) a count summary.
#[derive(Debug, Clone)]
pub struct ParametricCert {
    /// The certified plan's name.
    pub plan: String,
    /// The domain quantified over.
    pub domain: Domain,
    /// Small-model cutoff used for the base cases.
    pub cutoff: u64,
    /// The concrete base cases that were checked (admissible `p ≤ cutoff`).
    pub base_ps: Vec<u64>,
    /// Discharged symbolic obligations, in walk order.
    pub obligations: Vec<Obligation>,
    /// Whether the plan is certified matching- and deadlock-free for every
    /// `p` in the domain.
    pub certified: bool,
    /// The witness when not certified.
    pub failure: Option<SymFailure>,
    /// Symbolic count summary (present iff the walk succeeded).
    summary: Option<Vec<SymItem>>,
}

impl ParametricCert {
    /// Count enclosures at `p` — `None` when uncertified, `p` outside the
    /// domain, or the enclosure fails to evaluate at this `p`.
    #[must_use]
    pub fn counts(&self, p: u64) -> Option<SymCounts> {
        if !self.certified || !self.domain.contains(p) {
            return None;
        }
        eval_counts(self.summary.as_ref()?, p)
    }

    /// Re-run the certification against `plan` and compare: the machine
    /// check that this certificate describes that plan.
    ///
    /// # Errors
    /// Returns the first mismatch found.
    pub fn revalidate(&self, plan: &CommPlan) -> Result<(), String> {
        let fresh = certify_plan_with(plan, &self.domain, self.cutoff);
        if fresh.plan != self.plan {
            return Err(format!("plan name {:?} != {:?}", fresh.plan, self.plan));
        }
        if fresh.certified != self.certified {
            return Err(format!(
                "certified {} != {}",
                fresh.certified, self.certified
            ));
        }
        if fresh.base_ps != self.base_ps {
            return Err("base-case sets differ".into());
        }
        if fresh.obligations != self.obligations {
            return Err("obligation lists differ".into());
        }
        if fresh.failure != self.failure {
            return Err(format!("failure {:?} != {:?}", fresh.failure, self.failure));
        }
        if fresh.summary != self.summary {
            return Err("symbolic count summaries differ".into());
        }
        Ok(())
    }

    /// Serialize the certificate (without the internal count summary).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n  \"schema\": \"parametric-cert/1\",\n");
        s.push_str(&format!("  \"plan\": \"{}\",\n", esc(&self.plan)));
        s.push_str(&format!(
            "  \"domain\": \"{}\",\n",
            esc(&self.domain.to_string())
        ));
        s.push_str(&format!("  \"cutoff\": {},\n", self.cutoff));
        let ps: Vec<String> = self.base_ps.iter().map(u64::to_string).collect();
        s.push_str(&format!("  \"base_ps\": [{}],\n", ps.join(", ")));
        s.push_str(&format!("  \"certified\": {},\n", self.certified));
        s.push_str("  \"obligations\": [");
        for (i, o) in self.obligations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"site\": \"{}\"}}",
                esc(o.rule),
                esc(&o.site)
            ));
        }
        if !self.obligations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        match &self.failure {
            Some(fail) => s.push_str(&format!(
                "  \"failure\": {{\"site\": \"{}\", \"reason\": \"{}\"}}\n",
                esc(&fail.site),
                esc(&fail.reason)
            )),
            None => s.push_str("  \"failure\": null\n"),
        }
        s.push('}');
        s
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Certify `plan` for every `p` in `domain` with the default cutoff.
#[must_use]
pub fn certify_plan(plan: &CommPlan, domain: &Domain) -> ParametricCert {
    certify_plan_with(plan, domain, DEFAULT_CUTOFF)
}

/// Certify `plan` for every `p` in `domain`, checking admissible
/// `p ≤ cutoff` concretely as the base cases of the cutoff argument.
#[must_use]
pub fn certify_plan_with(plan: &CommPlan, domain: &Domain, cutoff: u64) -> ParametricCert {
    let mut walker = Walker {
        domain,
        obligations: Vec::new(),
        path: vec!["body".to_string()],
        loops: Vec::new(),
        branches: Vec::new(),
    };
    let walked = walker.walk_ops(&plan.body);
    let base_ps = domain.base_ps(cutoff);
    let (summary, mut failure) = match walked {
        Ok(items) => (Some(items), None),
        Err(f) => (None, Some(f)),
    };

    if failure.is_none() {
        for &bp in &base_ps {
            let Ok(psize) = usize::try_from(bp) else {
                failure = Some(SymFailure {
                    site: format!("base case p={bp}"),
                    reason: "base case does not fit usize".into(),
                });
                break;
            };
            let a = analyze_plan(plan, psize);
            if !a.deadlock_free() {
                let why = a
                    .findings
                    .first()
                    .map_or_else(|| "not exact".to_string(), ToString::to_string);
                failure = Some(SymFailure {
                    site: format!("base case p={bp}"),
                    reason: format!("concrete checker rejects: {why}"),
                });
                break;
            }
            // Self-validate the count enclosure against the concrete run.
            if let Some(items) = &summary {
                let Some(c) = eval_counts(items, bp) else {
                    failure = Some(SymFailure {
                        site: format!("base case p={bp}"),
                        reason: "count enclosure failed to evaluate".into(),
                    });
                    break;
                };
                #[allow(clippy::cast_precision_loss)]
                let ok = c.messages.contains(a.total.messages as f64)
                    && c.bytes.contains(a.total.bytes as f64)
                    && c.wc.contains(a.total.wc)
                    && c.mem_accesses.contains(a.total.mem_accesses);
                if !ok {
                    failure = Some(SymFailure {
                        site: format!("base case p={bp}"),
                        reason: format!(
                            "count enclosure {c:?} does not contain concrete totals {:?}",
                            a.total
                        ),
                    });
                    break;
                }
            }
        }
    }

    if failure.is_none() && base_ps.is_empty() {
        failure = Some(SymFailure {
            site: "domain".into(),
            reason: format!("no admissible p <= cutoff {cutoff} to anchor the induction"),
        });
    }

    let certified = failure.is_none() && summary.is_some();
    ParametricCert {
        plan: plan.name.clone(),
        domain: domain.clone(),
        cutoff,
        base_ps,
        obligations: walker.obligations,
        certified,
        failure,
        summary,
    }
}

// ---------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------

fn uses(e: &Expr, target: &dyn Fn(&Expr) -> bool) -> bool {
    if target(e) {
        return true;
    }
    match e {
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Mod(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b)
        | Expr::Xor(a, b) => uses(a, target) || uses(b, target),
        Expr::Pow2(x) | Expr::Log2(x) | Expr::ByRank { expr: x, .. } => uses(x, target),
        Expr::BlockLen { total, parts, idx } => {
            uses(total, target) || uses(parts, target) || uses(idx, target)
        }
        _ => false,
    }
}

fn uses_rank(e: &Expr) -> bool {
    uses(e, &|x| matches!(x, Expr::Rank))
}

fn uses_peer(e: &Expr) -> bool {
    uses(e, &|x| matches!(x, Expr::Peer))
}

fn cond_uses_rank(c: &Cond) -> bool {
    match c {
        Cond::Eq(a, b) | Cond::Ne(a, b) | Cond::Lt(a, b) | Cond::Le(a, b) => {
            uses_rank(a) || uses_rank(b) || uses_peer(a) || uses_peer(b)
        }
        Cond::And(a, b) | Cond::Or(a, b) => cond_uses_rank(a) || cond_uses_rank(b),
        Cond::Not(x) => cond_uses_rank(x),
    }
}

// The CG process-grid vocabulary, rebuilt canonically for structural
// matching (Expr derives PartialEq).
fn g_nprow() -> Expr {
    (Expr::P.log2() / Expr::Const(2)).pow2()
}
fn g_npcol() -> Expr {
    Expr::P / g_nprow()
}
fn g_row() -> Expr {
    Expr::Rank / g_npcol()
}
fn g_col() -> Expr {
    Expr::Rank % g_npcol()
}

// ---------------------------------------------------------------------
// Shift normalization
// ---------------------------------------------------------------------

/// `(Rank + offset) % P` decomposed: the constant part of the offset plus
/// signed non-constant rank-free terms. `P`-multiples are dropped
/// (`P ≡ 0 (mod P)`), and the `Rank` coefficient must be exactly +1.
struct Shift {
    konst: i64,
    others: Vec<(Expr, i64)>,
}

fn shift_decompose(e: &Expr) -> Option<Shift> {
    let Expr::Mod(inner, modulus) = e else {
        return None;
    };
    if **modulus != Expr::P {
        return None;
    }
    let mut shift = Shift {
        konst: 0,
        others: Vec::new(),
    };
    let mut rank_coeff = 0i64;
    flatten(inner, 1, &mut shift, &mut rank_coeff)?;
    (rank_coeff == 1).then_some(shift)
}

fn flatten(e: &Expr, sign: i64, out: &mut Shift, rank_coeff: &mut i64) -> Option<()> {
    match e {
        Expr::Add(a, b) => {
            flatten(a, sign, out, rank_coeff)?;
            flatten(b, sign, out, rank_coeff)
        }
        Expr::Sub(a, b) => {
            flatten(a, sign, out, rank_coeff)?;
            flatten(b, -sign, out, rank_coeff)
        }
        Expr::Const(c) => {
            out.konst = out.konst.checked_add(sign.checked_mul(*c)?)?;
            Some(())
        }
        Expr::P => Some(()), // P ≡ 0 (mod P)
        Expr::Rank => {
            *rank_coeff += sign;
            Some(())
        }
        other if !uses_rank(other) && !uses_peer(other) => {
            out.others.push((other.clone(), sign));
            Some(())
        }
        _ => None,
    }
}

/// Cancel structurally equal terms of opposite sign; whatever remains
/// cannot be proven ≡ 0.
fn cancel_terms(mut terms: Vec<(Expr, i64)>) -> Vec<(Expr, i64)> {
    let mut out: Vec<(Expr, i64)> = Vec::new();
    while let Some((e, s)) = terms.pop() {
        if let Some(pos) = out.iter().position(|(o, os)| *os == -s && *o == e) {
            out.remove(pos);
        } else {
            out.push((e, s));
        }
    }
    out
}

// ---------------------------------------------------------------------
// The symbolic walk
// ---------------------------------------------------------------------

/// One certified plan construct, carrying just enough to evaluate counts.
#[derive(Debug, Clone, PartialEq)]
enum SymItem {
    Compute { units: Expr, scale: f64 },
    Mem { accesses: Expr, scale: f64 },
    ShiftRound { bytes: Expr },
    Exchange { guarded: bool, bytes: Expr },
    Barrier,
    Bcast { bytes: Expr },
    Reduce { elems: Expr },
    AllReduce { elems: Expr },
    AllGather { bytes: Expr },
    AllToAll { bytes: Expr },
    Loop { count: Expr, body: Vec<SymItem> },
    Branch { arms: [Vec<SymItem>; 2] },
}

struct Walker<'d> {
    domain: &'d Domain,
    obligations: Vec<Obligation>,
    path: Vec<String>,
    /// Enclosing loop trip counts, innermost last.
    loops: Vec<Expr>,
    /// Enclosing `p`-uniform branch context: (condition, arm taken).
    branches: Vec<(Cond, bool)>,
}

impl Walker<'_> {
    fn site(&self) -> String {
        self.path.join(".")
    }

    fn fail(&self, reason: impl Into<String>) -> SymFailure {
        SymFailure {
            site: self.site(),
            reason: reason.into(),
        }
    }

    fn discharge(&mut self, rule: &'static str) {
        let site = self.site();
        self.obligations.push(Obligation { rule, site });
    }

    fn walk_ops(&mut self, ops: &[Op]) -> Result<Vec<SymItem>, SymFailure> {
        let mut items = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            self.path.push(format!("[{i}]"));
            let mut consumed = 1;
            match &ops[i] {
                Op::Compute { units, scale } => {
                    if uses_peer(units) {
                        return Err(self.fail("Peer in a compute charge"));
                    }
                    items.push(SymItem::Compute {
                        units: units.clone(),
                        scale: *scale,
                    });
                }
                Op::MemStream { elems, scale, ws } => {
                    if uses_peer(elems) || uses_peer(ws) {
                        return Err(self.fail("Peer in a memory charge"));
                    }
                    items.push(SymItem::Mem {
                        accesses: elems.clone(),
                        scale: *scale / 8.0,
                    });
                }
                Op::MemAccess {
                    accesses,
                    scale,
                    ws,
                } => {
                    if uses_peer(accesses) || uses_peer(ws) {
                        return Err(self.fail("Peer in a memory charge"));
                    }
                    items.push(SymItem::Mem {
                        accesses: accesses.clone(),
                        scale: *scale,
                    });
                }
                Op::Phase(_) => {}
                Op::BumpTag => {
                    // Uniform context by construction (guard bodies never
                    // reach walk_ops), so the tag counters stay aligned.
                    self.discharge("uniform-tag-counter");
                }
                Op::Send { to, tag, bytes } => {
                    let Some(Op::Recv { from, tag: rtag }) = ops.get(i + 1) else {
                        return Err(self.fail(
                            "send not immediately followed by the paired receive \
                             (outside the certified shift-round fragment)",
                        ));
                    };
                    self.certify_shift_round(to, tag, bytes, from, rtag)?;
                    items.push(SymItem::ShiftRound {
                        bytes: bytes.clone(),
                    });
                    consumed = 2;
                }
                Op::Recv { .. } => {
                    return Err(
                        self.fail("receive with no preceding paired send (recv-first ordering)")
                    );
                }
                Op::RecvAny { .. } => {
                    return Err(self.fail(
                        "wildcard receive: matching is schedule-dependent and cannot be \
                         certified symbolically",
                    ));
                }
                Op::Exchange {
                    partner,
                    tag,
                    bytes,
                } => {
                    self.certify_exchange(partner, tag, bytes, false)?;
                    items.push(SymItem::Exchange {
                        guarded: false,
                        bytes: bytes.clone(),
                    });
                }
                Op::Loop { count, body } => {
                    if uses_rank(count) || uses_peer(count) {
                        return Err(self.fail("rank-dependent loop trip count"));
                    }
                    self.discharge("p-uniform-control");
                    self.loops.push(count.clone());
                    self.path.push("loop".into());
                    let inner = self.walk_ops(body);
                    self.path.pop();
                    self.loops.pop();
                    items.push(SymItem::Loop {
                        count: count.clone(),
                        body: inner?,
                    });
                }
                Op::IfElse { cond, then, els } => {
                    if let Some(item) = self.try_guarded_exchange(cond, then, els)? {
                        items.push(item);
                    } else if cond_uses_rank(cond) {
                        return Err(
                            self.fail("rank-dependent branch outside the guarded-exchange pattern")
                        );
                    } else {
                        self.discharge("p-uniform-control");
                        self.branches.push((cond.clone(), true));
                        self.path.push("then".into());
                        let t = self.walk_ops(then);
                        self.path.pop();
                        self.branches.pop();
                        self.branches.push((cond.clone(), false));
                        self.path.push("else".into());
                        let e = self.walk_ops(els);
                        self.path.pop();
                        self.branches.pop();
                        items.push(SymItem::Branch { arms: [t?, e?] });
                    }
                }
                Op::Barrier => {
                    self.discharge("collective-lemma:barrier");
                    items.push(SymItem::Barrier);
                }
                Op::Bcast { root, bytes } => {
                    if uses_rank(root) || uses_peer(root) {
                        return Err(self.fail("rank-dependent broadcast root"));
                    }
                    if uses_peer(bytes) {
                        return Err(self.fail("Peer in a broadcast size"));
                    }
                    self.discharge("collective-lemma:bcast");
                    items.push(SymItem::Bcast {
                        bytes: bytes.clone(),
                    });
                }
                Op::Reduce { root, elems, .. } => {
                    if uses_rank(root) || uses_peer(root) {
                        return Err(self.fail("rank-dependent reduce root"));
                    }
                    if uses_peer(elems) {
                        return Err(self.fail("Peer in a reduce size"));
                    }
                    self.discharge("collective-lemma:reduce");
                    items.push(SymItem::Reduce {
                        elems: elems.clone(),
                    });
                }
                Op::AllReduce { elems, .. } => {
                    if uses_peer(elems) {
                        return Err(self.fail("Peer in an allreduce size"));
                    }
                    self.discharge("collective-lemma:allreduce");
                    items.push(SymItem::AllReduce {
                        elems: elems.clone(),
                    });
                }
                Op::AllGather { bytes } => {
                    self.discharge("collective-lemma:allgather");
                    items.push(SymItem::AllGather {
                        bytes: bytes.clone(),
                    });
                }
                Op::AllToAll { bytes } => {
                    self.discharge("collective-lemma:alltoall");
                    items.push(SymItem::AllToAll {
                        bytes: bytes.clone(),
                    });
                }
            }
            self.path.pop();
            i += consumed;
        }
        Ok(items)
    }

    /// The self-partner guard pattern:
    /// `IfElse { Ne(σ(Rank), Rank), then: [Exchange with σ(Rank)], els: [] }`.
    fn try_guarded_exchange(
        &mut self,
        cond: &Cond,
        then: &[Op],
        els: &[Op],
    ) -> Result<Option<SymItem>, SymFailure> {
        let partner_cond = match cond {
            Cond::Ne(a, b) if *b == Expr::Rank => a,
            Cond::Ne(a, b) if *a == Expr::Rank => b,
            _ => return Ok(None),
        };
        if !els.is_empty() || then.len() != 1 {
            return Ok(None);
        }
        let Op::Exchange {
            partner,
            tag,
            bytes,
        } = &then[0]
        else {
            return Ok(None);
        };
        if partner != partner_cond {
            return Err(self.fail("guard condition and exchange partner expressions differ"));
        }
        self.certify_exchange(partner, tag, bytes, true)?;
        Ok(Some(SymItem::Exchange {
            guarded: true,
            bytes: bytes.clone(),
        }))
    }

    /// Certify an exchange partner against the involution lemma library.
    ///
    /// Each lemma states: for every admissible `p` (restricted to the
    /// recorded branch context), `σ(r)` is in `[0, p)`, `σ(σ(r)) = r`, and
    /// — for the unguarded forms — `σ(r) ≠ r`. Proof sketches:
    ///
    /// * `xor-hypercube` `σ(r) = r ⊕ 2^i`, `i < lg p`, `p` a power of two:
    ///   flipping one bit below `lg p` stays `< p`, is its own inverse,
    ///   and never fixes `r`.
    /// * `grid-xor-row` `σ(r) = row·npcol + (col ⊕ 2^i)`, `i < lg npcol`:
    ///   the hypercube lemma applied inside the rank's processor row
    ///   (`col < npcol`, `npcol` a power of two dividing `p`).
    /// * `grid-transpose-square` `σ(r) = col·npcol + row` on a square grid
    ///   (`nprow = npcol`, even `lg p`): coordinate swap, an involution;
    ///   fixed points (`row = col`) are excluded by the guard.
    /// * `grid-transpose-rect` `σ(r) = (col/2)·npcol + 2·row + col%2` on a
    ///   rect grid (`npcol = 2·nprow`, odd `lg p`): the NPB pairing of the
    ///   two half-columns; `2·row + col%2 < npcol`, and applying σ twice
    ///   returns `(row, col)`. Fixed points excluded by the guard.
    ///
    /// All four require a power-of-two domain; the transpose lemmas
    /// additionally require the branch context that selects their grid
    /// shape. Base cases cover both parities of `lg p` concretely.
    fn certify_exchange(
        &mut self,
        partner: &Expr,
        tag: &TagExpr,
        bytes: &Expr,
        guarded: bool,
    ) -> Result<(), SymFailure> {
        if uses_peer(bytes) {
            return Err(self.fail("Peer in an exchange size"));
        }
        match tag {
            TagExpr::Expr(e) => {
                if uses_rank(e) || uses_peer(e) {
                    return Err(self.fail("rank-dependent exchange tag"));
                }
            }
            TagExpr::Auto { .. } => {
                if guarded {
                    return Err(self.fail(
                        "tag bump inside a rank-dependent guard desynchronizes the tag counter",
                    ));
                }
                self.discharge("uniform-tag-counter");
            }
            TagExpr::Last { .. } => {
                // Reads the (uniform) counter without bumping: fine in
                // both uniform and guarded context.
            }
        }

        let pow2_only = matches!(self.domain, Domain::Pow2 { .. });
        if !pow2_only {
            return Err(self.fail("exchange involution lemmas require a power-of-two domain"));
        }

        let hyper = Expr::Rank.xor(Expr::Var(0).pow2());
        let grid_xor = g_row() * g_npcol() + g_col().xor(Expr::Var(0).pow2());
        let square = g_col() * g_npcol() + g_row();
        let rect = (g_col() / Expr::Const(2)) * g_npcol()
            + Expr::Const(2) * g_row()
            + g_col() % Expr::Const(2);

        if *partner == hyper {
            if self.loops.last() != Some(&Expr::P.log2()) {
                return Err(self
                    .fail("Rank ^ 2^Var(0) requires an enclosing loop of exactly log2(P) rounds"));
            }
            self.discharge("xor-hypercube");
            return Ok(());
        }
        if *partner == grid_xor {
            if self.loops.last() != Some(&g_npcol().log2()) {
                return Err(self.fail(
                    "grid-row doubling requires an enclosing loop of exactly log2(npcol) rounds",
                ));
            }
            self.discharge("grid-xor-row");
            return Ok(());
        }
        if *partner == square {
            if !guarded {
                return Err(self.fail("grid transpose without its self-partner guard"));
            }
            let square_ctx = (Cond::Eq(g_nprow(), g_npcol()), true);
            if !self.branches.contains(&square_ctx) {
                return Err(self.fail("square-grid transpose outside the nprow == npcol branch"));
            }
            self.discharge("grid-transpose-square");
            return Ok(());
        }
        if *partner == rect {
            if !guarded {
                return Err(self.fail("grid transpose without its self-partner guard"));
            }
            let rect_ctx = (Cond::Eq(g_nprow(), g_npcol()), false);
            if !self.branches.contains(&rect_ctx) {
                return Err(self.fail("rect-grid transpose outside the nprow != npcol branch"));
            }
            self.discharge("grid-transpose-rect");
            return Ok(());
        }
        Err(self.fail("exchange partner matches no involution lemma"))
    }

    /// Certify a `Send`/`Recv` pair as a shift round.
    fn certify_shift_round(
        &mut self,
        to: &Expr,
        stag: &TagExpr,
        bytes: &Expr,
        from: &Expr,
        rtag: &TagExpr,
    ) -> Result<(), SymFailure> {
        let (TagExpr::Expr(st), TagExpr::Expr(rt)) = (stag, rtag) else {
            return Err(self.fail("shift-round tags must be explicit rank-free expressions"));
        };
        if uses_rank(st) || uses_peer(st) || uses_rank(rt) || uses_peer(rt) {
            return Err(self.fail("rank-dependent shift-round tag"));
        }
        if st != rt {
            return Err(self.fail("send and receive tags differ"));
        }
        if uses_peer(bytes) {
            return Err(self.fail("Peer in a point-to-point payload size"));
        }

        let Some(s) = shift_decompose(to) else {
            return Err(self
                .fail("send peer is not of the form (Rank + offset) % P with a rank-free offset"));
        };
        let Some(r) = shift_decompose(from) else {
            return Err(self.fail(
                "receive peer is not of the form (Rank + offset) % P with a rank-free offset",
            ));
        };

        // Bijection: send offset + recv offset ≡ 0 (mod P) for all p.
        let mut combined = s.others.clone();
        combined.extend(r.others.iter().cloned());
        let leftover = cancel_terms(combined);
        if !leftover.is_empty() {
            return Err(self
                .fail("send/receive offsets do not cancel symbolically (non-constant remainder)"));
        }
        let ksum = s.konst + r.konst;
        if ksum != 0 {
            return Err(self.fail(format!(
                "send/receive offsets sum to {ksum}, not 0 (mod P): \
                 the k-th receiver would not be the k-th sender's target"
            )));
        }
        self.discharge("shift-bijection");

        // Non-self: the shift distance must stay nonzero mod p for every
        // admissible p. Only the constant part matters (mod p); any
        // residual symbolic term blocks the finite divisibility check.
        if !s.others.is_empty() {
            return Err(
                self.fail("cannot prove the shift distance nonzero: non-constant offset terms")
            );
        }
        if s.konst == 0 {
            return Err(self.fail("shift distance is a multiple of P: self-message at every p"));
        }
        let dist = s.konst.unsigned_abs();
        for p in self.domain.admissible_up_to(dist) {
            if dist % p == 0 {
                return Err(self.fail(format!(
                    "admissible p={p} divides the shift distance {dist}: self-message",
                )));
            }
        }
        self.discharge("shift-nonzero");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Count evaluation
// ---------------------------------------------------------------------

/// An integer interval in `i128` (wide enough that the 4-corner products
/// of any realistic plan quantity cannot overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct R {
    lo: i128,
    hi: i128,
}

impl R {
    fn point(v: i128) -> Self {
        R { lo: v, hi: v }
    }

    fn clamp0(self) -> Self {
        R {
            lo: self.lo.max(0),
            hi: self.hi.max(0),
        }
    }

    fn hull(self, o: R) -> Self {
        R {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

type RRes = Result<R, ()>;

fn r_add(a: R, b: R) -> RRes {
    Ok(R {
        lo: a.lo.checked_add(b.lo).ok_or(())?,
        hi: a.hi.checked_add(b.hi).ok_or(())?,
    })
}

fn r_sub(a: R, b: R) -> RRes {
    Ok(R {
        lo: a.lo.checked_sub(b.hi).ok_or(())?,
        hi: a.hi.checked_sub(b.lo).ok_or(())?,
    })
}

fn r_mul(a: R, b: R) -> RRes {
    let c = [
        a.lo.checked_mul(b.lo).ok_or(())?,
        a.lo.checked_mul(b.hi).ok_or(())?,
        a.hi.checked_mul(b.lo).ok_or(())?,
        a.hi.checked_mul(b.hi).ok_or(())?,
    ];
    Ok(R {
        lo: *c.iter().min().expect("nonempty"),
        hi: *c.iter().max().expect("nonempty"),
    })
}

/// Truncating division with a positive divisor (monotone in both args on
/// each sign region; corners suffice because the divisor is positive).
fn r_div(a: R, b: R) -> RRes {
    if b.lo < 1 {
        return Err(());
    }
    let c = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
    Ok(R {
        lo: *c.iter().min().expect("nonempty"),
        hi: *c.iter().max().expect("nonempty"),
    })
}

fn r_rem(a: R, b: R) -> RRes {
    if b.lo < 1 {
        return Err(());
    }
    if a.lo == a.hi && b.lo == b.hi {
        return Ok(R::point(a.lo % b.lo));
    }
    // Identity fast path: a ∈ [0, b) ⇒ a % b = a (e.g. Rank % P).
    if a.lo >= 0 && a.hi < b.lo {
        return Ok(a);
    }
    if a.lo >= 0 {
        return Ok(R {
            lo: 0,
            hi: a.hi.min(b.hi - 1),
        });
    }
    Ok(R {
        lo: -(b.hi - 1),
        hi: b.hi - 1,
    })
}

/// Smallest all-ones mask covering `v` (`v ≥ 0`).
fn bit_cover(v: i128) -> i128 {
    let mut m = 0i128;
    while m < v {
        m = (m << 1) | 1;
    }
    m
}

fn r_xor(a: R, b: R) -> RRes {
    if a.lo == a.hi && b.lo == b.hi {
        return Ok(R::point(a.lo ^ b.lo));
    }
    if a.lo < 0 || b.lo < 0 {
        return Err(());
    }
    Ok(R {
        lo: 0,
        hi: bit_cover(a.hi | b.hi),
    })
}

fn r_pow2(e: R) -> RRes {
    if e.lo < 0 || e.hi > 62 {
        return Err(());
    }
    Ok(R {
        lo: 1i128 << e.lo,
        hi: 1i128 << e.hi,
    })
}

fn r_log2(e: R) -> RRes {
    if e.lo < 1 {
        return Err(());
    }
    let lg = |v: i128| i128::from(127 - v.leading_zeros()); // floor(log2 v), v ≥ 1
    Ok(R {
        lo: lg(e.lo),
        hi: lg(e.hi),
    })
}

fn r_block_len(total: R, parts: R, idx: R) -> RRes {
    if total.lo < 0 || parts.lo < 1 || idx.lo < 0 {
        return Err(());
    }
    if total.lo == total.hi && parts.lo == parts.hi && idx.lo == idx.hi {
        let extra = i128::from(idx.lo < total.lo % parts.lo);
        return Ok(R::point(total.lo / parts.lo + extra));
    }
    let base = r_div(total, parts)?;
    Ok(R {
        lo: base.lo,
        hi: base.hi.checked_add(1).ok_or(())?,
    })
}

/// Evaluation context: `p` concrete, rank/peer/loop-vars as ranges.
struct Cx {
    p: i128,
    rank: Option<R>,
    peer: Option<R>,
    vars: Vec<R>,
}

fn range_of(e: &Expr, cx: &Cx) -> RRes {
    match e {
        Expr::Const(v) => Ok(R::point(i128::from(*v))),
        Expr::P => Ok(R::point(cx.p)),
        Expr::Rank => cx.rank.ok_or(()),
        Expr::Peer => cx.peer.ok_or(()),
        Expr::Var(d) => {
            let n = cx.vars.len();
            if *d < n {
                Ok(cx.vars[n - 1 - d])
            } else {
                Err(())
            }
        }
        Expr::Add(a, b) => r_add(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Sub(a, b) => r_sub(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Mul(a, b) => r_mul(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Div(a, b) => r_div(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Mod(a, b) => r_rem(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Min(a, b) => {
            let (x, y) = (range_of(a, cx)?, range_of(b, cx)?);
            Ok(R {
                lo: x.lo.min(y.lo),
                hi: x.hi.min(y.hi),
            })
        }
        Expr::Max(a, b) => {
            let (x, y) = (range_of(a, cx)?, range_of(b, cx)?);
            Ok(R {
                lo: x.lo.max(y.lo),
                hi: x.hi.max(y.hi),
            })
        }
        Expr::Xor(a, b) => r_xor(range_of(a, cx)?, range_of(b, cx)?),
        Expr::Pow2(x) => r_pow2(range_of(x, cx)?),
        Expr::Log2(x) => r_log2(range_of(x, cx)?),
        Expr::ByRank { expr, .. } => range_of(expr, cx),
        Expr::BlockLen { total, parts, idx } => r_block_len(
            range_of(total, cx)?,
            range_of(parts, cx)?,
            range_of(idx, cx)?,
        ),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SumVar {
    Rank,
    Peer,
}

fn var_expr(v: SumVar) -> Expr {
    match v {
        SumVar::Rank => Expr::Rank,
        SumVar::Peer => Expr::Peer,
    }
}

fn uses_sumvar(e: &Expr, v: SumVar) -> bool {
    match v {
        SumVar::Rank => uses_rank(e),
        SumVar::Peer => uses_peer(e),
    }
}

/// `Σ_{v = 0}^{p-1} e(v)` as a range. Distributes over `Add`/`Sub`, pulls
/// `v`-free factors out of `Mul`, and sums `BlockLen(total, P, v)` exactly
/// to `total`; otherwise falls back to `p · range(e)`.
fn sum_over(e: &Expr, v: SumVar, cx: &Cx) -> RRes {
    if !uses_sumvar(e, v) {
        return r_mul(range_of(e, cx)?, R::point(cx.p));
    }
    match e {
        // Σ_{i<p} i = p(p-1)/2 exactly.
        e if *e == var_expr(v) => {
            let half = cx.p.checked_mul(cx.p - 1).ok_or(())? / 2;
            Ok(R::point(half))
        }
        Expr::Add(a, b) => r_add(sum_over(a, v, cx)?, sum_over(b, v, cx)?),
        Expr::Sub(a, b) => r_sub(sum_over(a, v, cx)?, sum_over(b, v, cx)?),
        Expr::Mul(a, b) if !uses_sumvar(a, v) => r_mul(range_of(a, cx)?, sum_over(b, v, cx)?),
        Expr::Mul(a, b) if !uses_sumvar(b, v) => r_mul(sum_over(a, v, cx)?, range_of(b, cx)?),
        Expr::BlockLen { total, parts, idx }
            if **parts == Expr::P && **idx == var_expr(v) && !uses_sumvar(total, v) =>
        {
            // Σ_{i<p} BlockLen(t, p, i) = t exactly.
            range_of(total, cx)
        }
        _ => r_mul(range_of(e, cx)?, R::point(cx.p)),
    }
}

/// A float range for the `f64`-scaled work counters.
#[derive(Debug, Clone, Copy)]
struct FR {
    lo: f64,
    hi: f64,
}

impl FR {
    const ZERO: FR = FR { lo: 0.0, hi: 0.0 };

    #[allow(clippy::cast_precision_loss)]
    fn from_r(r: R) -> FR {
        FR {
            lo: r.lo as f64,
            hi: r.hi as f64,
        }
    }

    fn add(self, o: FR) -> FR {
        FR {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    fn scale(self, s: f64) -> FR {
        if s >= 0.0 {
            FR {
                lo: self.lo * s,
                hi: self.hi * s,
            }
        } else {
            FR {
                lo: self.hi * s,
                hi: self.lo * s,
            }
        }
    }

    /// Multiply by a non-negative range (counts are clamped ≥ 0 first).
    fn mul_r(self, r: R) -> FR {
        let f = FR::from_r(r);
        FR {
            lo: self.lo * f.lo,
            hi: self.hi * f.hi,
        }
    }

    fn hull(self, o: FR) -> FR {
        FR {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Accumulated counts for a run of items at one `p`.
#[derive(Clone, Copy)]
struct Acc {
    msgs: R,
    bytes: R,
    wc: FR,
    mem: FR,
}

impl Acc {
    const ZERO: Acc = Acc {
        msgs: R { lo: 0, hi: 0 },
        bytes: R { lo: 0, hi: 0 },
        wc: FR::ZERO,
        mem: FR::ZERO,
    };

    fn add(self, o: Acc) -> Result<Acc, ()> {
        Ok(Acc {
            msgs: r_add(self.msgs, o.msgs)?,
            bytes: r_add(self.bytes, o.bytes)?,
            wc: self.wc.add(o.wc),
            mem: self.mem.add(o.mem),
        })
    }

    /// Scale by a loop trip-count range (all components non-negative).
    fn times(self, trips: R) -> Result<Acc, ()> {
        let t = trips.clamp0();
        Ok(Acc {
            msgs: r_mul(self.msgs.clamp0(), t)?,
            bytes: r_mul(self.bytes.clamp0(), t)?,
            wc: self.wc.mul_r(t),
            mem: self.mem.mul_r(t),
        })
    }

    fn hull(self, o: Acc) -> Acc {
        Acc {
            msgs: self.msgs.hull(o.msgs),
            bytes: self.bytes.hull(o.bytes),
            wc: self.wc.hull(o.wc),
            mem: self.mem.hull(o.mem),
        }
    }
}

/// Rounds of the dissemination barrier / doubling collectives at `p`.
fn ceil_lg(p: i128) -> i128 {
    if p <= 1 {
        0
    } else {
        i128::from(128 - (p - 1).leading_zeros())
    }
}

fn prev_pow2(p: i128) -> i128 {
    debug_assert!(p >= 1);
    1i128 << (127 - p.leading_zeros())
}

#[allow(clippy::too_many_lines)]
fn eval_items(items: &[SymItem], cx: &mut Cx) -> Result<Acc, ()> {
    let p = cx.p;
    let mut acc = Acc::ZERO;
    for item in items {
        let contrib = match item {
            SymItem::Compute { units, scale } => {
                let sum = sum_over(units, SumVar::Rank, cx)?.clamp0();
                Acc {
                    wc: FR::from_r(sum).scale(*scale),
                    ..Acc::ZERO
                }
            }
            SymItem::Mem { accesses, scale } => {
                let sum = sum_over(accesses, SumVar::Rank, cx)?.clamp0();
                Acc {
                    mem: FR::from_r(sum).scale(*scale),
                    ..Acc::ZERO
                }
            }
            SymItem::ShiftRound { bytes } => Acc {
                msgs: R::point(p),
                bytes: sum_over(bytes, SumVar::Rank, cx)?.clamp0(),
                ..Acc::ZERO
            },
            SymItem::Exchange { guarded, bytes } => {
                if *guarded {
                    // Fixed points of the involution skip the exchange:
                    // anywhere between 0 and p messages.
                    let hi_bytes = range_of(bytes, cx)?.clamp0().hi;
                    Acc {
                        msgs: R { lo: 0, hi: p },
                        bytes: R {
                            lo: 0,
                            hi: hi_bytes.checked_mul(p).ok_or(())?,
                        },
                        ..Acc::ZERO
                    }
                } else {
                    Acc {
                        msgs: R::point(p),
                        bytes: sum_over(bytes, SumVar::Rank, cx)?.clamp0(),
                        ..Acc::ZERO
                    }
                }
            }
            SymItem::Barrier => Acc {
                msgs: R::point(p.checked_mul(ceil_lg(p)).ok_or(())?),
                ..Acc::ZERO
            },
            SymItem::Bcast { bytes } => {
                let b = range_of(bytes, cx)?.clamp0();
                Acc {
                    msgs: R::point(p - 1),
                    bytes: r_mul(b, R::point(p - 1))?,
                    ..Acc::ZERO
                }
            }
            SymItem::Reduce { elems } => {
                let e = range_of(elems, cx)?.clamp0();
                Acc {
                    msgs: R::point(p - 1),
                    bytes: r_mul(e, R::point((p - 1).checked_mul(8).ok_or(())?))?,
                    wc: FR::from_r(e).mul_r(R::point(p - 1)),
                    ..Acc::ZERO
                }
            }
            SymItem::AllReduce { elems } => {
                if p == 1 {
                    Acc::ZERO
                } else {
                    // Recursive doubling with r = p - m folded extras:
                    // 2r + m·lg m messages, (m·lg m + r) combines.
                    let m = prev_pow2(p);
                    let r = p - m;
                    let lg = ceil_lg(m);
                    let msgs = 2 * r + m.checked_mul(lg).ok_or(())?;
                    let combines = m.checked_mul(lg).ok_or(())? + r;
                    let e = range_of(elems, cx)?.clamp0();
                    Acc {
                        msgs: R::point(msgs),
                        bytes: r_mul(e, R::point(msgs.checked_mul(8).ok_or(())?))?,
                        wc: FR::from_r(e).mul_r(R::point(combines)),
                        ..Acc::ZERO
                    }
                }
            }
            SymItem::AllGather { bytes } => {
                let msgs = p.checked_mul(p - 1).ok_or(())?;
                let total = if uses_rank(bytes) {
                    r_mul(range_of(bytes, cx)?.clamp0(), R::point(msgs))?
                } else {
                    // Each owner's chunk traverses p-1 ring hops.
                    r_mul(sum_over(bytes, SumVar::Peer, cx)?.clamp0(), R::point(p - 1))?
                };
                Acc {
                    msgs: R::point(msgs),
                    bytes: total,
                    ..Acc::ZERO
                }
            }
            SymItem::AllToAll { bytes } => {
                let msgs = p.checked_mul(p - 1).ok_or(())?;
                let total = if uses_rank(bytes) {
                    r_mul(range_of(bytes, cx)?.clamp0(), R::point(msgs))?
                } else {
                    // Σ_r Σ_{d≠r} b(d) = (p-1)·Σ_d b(d) when b is rank-free.
                    r_mul(sum_over(bytes, SumVar::Peer, cx)?.clamp0(), R::point(p - 1))?
                };
                Acc {
                    msgs: R::point(msgs),
                    bytes: total,
                    ..Acc::ZERO
                }
            }
            SymItem::Loop { count, body } => {
                let trips = range_of(count, cx)?.clamp0();
                cx.vars.push(R {
                    lo: 0,
                    hi: (trips.hi - 1).max(0),
                });
                let inner = eval_items(body, cx);
                cx.vars.pop();
                inner?.times(trips)?
            }
            SymItem::Branch { arms } => {
                let t = eval_items(&arms[0], cx)?;
                let e = eval_items(&arms[1], cx)?;
                t.hull(e)
            }
        };
        acc = acc.add(contrib)?;
    }
    Ok(acc)
}

fn eval_counts(items: &[SymItem], p: u64) -> Option<SymCounts> {
    let pi = i128::from(p);
    let mut cx = Cx {
        p: pi,
        rank: Some(R { lo: 0, hi: pi - 1 }),
        peer: Some(R { lo: 0, hi: pi - 1 }),
        vars: Vec::new(),
    };
    let acc = eval_items(items, &mut cx).ok()?;
    let cr = |r: R| {
        let f = FR::from_r(r.clamp0());
        CountRange { lo: f.lo, hi: f.hi }
    };
    let crf = |f: FR| CountRange {
        lo: f.lo.max(0.0),
        hi: f.hi.max(0.0),
    };
    Some(SymCounts {
        messages: cr(acc.msgs),
        bytes: cr(acc.bytes),
        wc: crf(acc.wc),
        mem_accesses: crf(acc.mem),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, TagExpr};

    fn ring(bytes: i64) -> CommPlan {
        CommPlan::new(
            "ring",
            vec![
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
    fn domain_membership_and_clamping() {
        let d = Domain::pow2();
        assert!(d.contains(1) && d.contains(1024) && !d.contains(24));
        let c = d.with_max(4096);
        assert!(c.contains(4096) && !c.contains(8192));
        assert_eq!(c.admissible().expect("bounded").len(), 13);
        let a = Domain::between(2, 9);
        assert_eq!(a.admissible_up_to(u64::MAX), (2..=9).collect::<Vec<_>>());
        assert_eq!(Domain::at_least(2).base_ps(5), vec![2, 3, 4, 5]);
        for p in Domain::at_least(3).sample(16, 7) {
            assert!((3..=SAMPLE_HORIZON).contains(&p));
        }
    }

    #[test]
    fn ring_certifies_for_p_at_least_2() {
        let cert = certify_plan(&ring(64), &Domain::at_least(2));
        assert!(cert.certified, "{:?}", cert.failure);
        assert!(cert.obligations.iter().any(|o| o.rule == "shift-bijection"));
        // Exact counts at arbitrary p, way beyond any base case.
        let c = cert.counts(100_000).expect("in domain");
        assert_eq!((c.messages.lo, c.messages.hi), (100_000.0, 100_000.0));
        assert_eq!((c.bytes.lo, c.bytes.hi), (6_400_000.0, 6_400_000.0));
        assert!(cert.revalidate(&ring(64)).is_ok());
        assert!(cert.revalidate(&ring(32)).is_err(), "different plan");
    }

    #[test]
    fn ring_fails_at_p1_with_divisibility_witness() {
        let cert = certify_plan(&ring(64), &Domain::at_least(1));
        assert!(!cert.certified);
        let f = cert.failure.expect("witness");
        assert!(f.reason.contains("p=1"), "{f}");
        assert!(f.reason.contains("shift distance"), "{f}");
    }

    #[test]
    fn mismatched_shift_tags_fail_with_site() {
        let plan = CommPlan::new(
            "badtags",
            vec![
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(8),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(2)),
                },
            ],
        );
        let cert = certify_plan(&plan, &Domain::at_least(2));
        assert!(!cert.certified);
        let f = cert.failure.expect("witness");
        assert!(f.site.contains("body.[0]"), "{f}");
        assert!(f.reason.contains("tags differ"), "{f}");
    }

    #[test]
    fn non_cancelling_offsets_fail() {
        // Everyone sends right by 1 but receives from the left by 2.
        let plan = CommPlan::new(
            "skew",
            vec![
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(8),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(2)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                },
            ],
        );
        let cert = certify_plan(&plan, &Domain::at_least(3));
        assert!(!cert.certified);
        let f = cert.failure.expect("witness");
        assert!(f.reason.contains("sum to -1"), "{f}");
        // The concrete checker agrees at a sampled p.
        assert!(!analyze_plan(&plan, 5).deadlock_free());
    }

    #[test]
    fn wildcard_fails_symbolically() {
        let plan = CommPlan::new(
            "w",
            vec![Op::RecvAny {
                tag: TagExpr::Expr(Expr::Const(3)),
            }],
        );
        let cert = certify_plan(&plan, &Domain::at_least(2));
        assert!(!cert.certified);
        assert!(cert.failure.expect("witness").reason.contains("wildcard"));
    }

    #[test]
    fn collectives_certify_with_exact_counts() {
        let plan = CommPlan::new(
            "colls",
            vec![
                Op::Barrier,
                Op::Bcast {
                    root: Expr::Const(0),
                    bytes: Expr::Const(128),
                },
                Op::Reduce {
                    root: Expr::Const(0),
                    elems: Expr::Const(4),
                    op: mps::ReduceOp::Sum,
                },
                Op::AllReduce {
                    elems: Expr::Const(2),
                    op: mps::ReduceOp::Max,
                },
                Op::AllGather {
                    bytes: Expr::Peer + Expr::Const(1),
                },
                Op::AllToAll {
                    bytes: Expr::Const(16),
                },
            ],
        );
        let dom = Domain::at_least(1);
        let cert = certify_plan(&plan, &dom);
        assert!(cert.certified, "{:?}", cert.failure);
        // Counts must enclose (and here, exactly match) the concrete
        // totals at sizes past the cutoff.
        for p in [33u64, 48, 100, 257] {
            let c = cert.counts(p).expect("in domain");
            let a = analyze_plan(&plan, usize::try_from(p).expect("small"));
            assert!(a.clean());
            #[allow(clippy::cast_precision_loss)]
            {
                assert!(
                    c.messages.contains(a.total.messages as f64),
                    "p={p}: {c:?} vs {}",
                    a.total.messages
                );
                assert!(c.bytes.contains(a.total.bytes as f64), "p={p}");
                assert!(c.wc.contains(a.total.wc), "p={p}");
            }
            // Every per-family count formula here is exact.
            assert!(c.messages.is_point(), "p={p}: {:?}", c.messages);
            assert!(c.bytes.is_point(), "p={p}: {:?}", c.bytes);
        }
    }

    #[test]
    fn loops_and_uniform_branches_certify() {
        let plan = CommPlan::new(
            "loopy",
            vec![Op::Loop {
                count: Expr::Const(3),
                body: vec![Op::IfElse {
                    cond: Cond::Lt(Expr::P, Expr::Const(10)),
                    then: vec![Op::Barrier],
                    els: vec![Op::AllReduce {
                        elems: Expr::Const(1),
                        op: mps::ReduceOp::Sum,
                    }],
                }],
            }],
        );
        let cert = certify_plan(&plan, &Domain::at_least(1));
        assert!(cert.certified, "{:?}", cert.failure);
        for p in [5u64, 64] {
            let c = cert.counts(p).expect("counts");
            let a = analyze_plan(&plan, usize::try_from(p).expect("small"));
            #[allow(clippy::cast_precision_loss)]
            let m = a.total.messages as f64;
            assert!(c.messages.contains(m), "p={p}: {c:?} vs {m}");
        }
    }

    #[test]
    fn rank_dependent_branch_outside_guard_fails() {
        let plan = CommPlan::new(
            "asym",
            vec![Op::IfElse {
                cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
                then: vec![Op::Barrier],
                els: vec![],
            }],
        );
        let cert = certify_plan(&plan, &Domain::at_least(2));
        assert!(!cert.certified);
        assert!(cert
            .failure
            .expect("witness")
            .reason
            .contains("rank-dependent branch"));
    }

    #[test]
    fn hypercube_exchange_requires_pow2_domain_and_right_loop() {
        let body = vec![Op::Loop {
            count: Expr::P.log2(),
            body: vec![Op::Exchange {
                partner: Expr::Rank.xor(Expr::Var(0).pow2()),
                tag: TagExpr::Expr(Expr::Const(2)),
                bytes: Expr::Const(64),
            }],
        }];
        let plan = CommPlan::new("hyper", body.clone());
        let cert = certify_plan(&plan, &Domain::pow2());
        assert!(cert.certified, "{:?}", cert.failure);
        assert!(cert.obligations.iter().any(|o| o.rule == "xor-hypercube"));
        // Exact at huge p: lg(2^20) rounds × 2^20 ranks.
        let c = cert.counts(1 << 20).expect("counts");
        assert_eq!(c.messages.lo, f64::from(1 << 20) * 20.0);
        assert!(c.messages.is_point());

        // The same plan over an arbitrary domain is refused.
        let cert = certify_plan(&plan, &Domain::at_least(2));
        assert!(!cert.certified);
        assert!(cert
            .failure
            .expect("witness")
            .reason
            .contains("power-of-two"));

        // Wrong loop count: lemma does not apply.
        let wrong = CommPlan::new(
            "hyper2",
            vec![Op::Loop {
                count: Expr::P.log2() + Expr::Const(1),
                body: vec![Op::Exchange {
                    partner: Expr::Rank.xor(Expr::Var(0).pow2()),
                    tag: TagExpr::Expr(Expr::Const(2)),
                    bytes: Expr::Const(64),
                }],
            }],
        );
        assert!(!certify_plan(&wrong, &Domain::pow2()).certified);
    }

    #[test]
    fn base_case_failure_names_the_p() {
        // Head-to-head recv-before-send deadlocks at every p ≥ 2, but the
        // walk alone cannot see it: recv-first ordering is rejected, so
        // construct a plan whose walk passes but whose base case fails —
        // a shift round against a reversed partner parity is hard to
        // build; instead check that a symbolically-clean plan with a bad
        // base case reports the base-case site. A self-exchange at p=1 is
        // already caught by divisibility, so use a plan valid only at
        // p ≥ 2 over a domain that includes more: the ring at min=1 is
        // covered elsewhere; here assert the cutoff anchor requirement.
        let d = Domain::Any {
            min: 50,
            max: Some(60),
        };
        let cert = certify_plan_with(&ring(8), &d, 32);
        assert!(!cert.certified);
        assert!(cert
            .failure
            .expect("witness")
            .reason
            .contains("no admissible p"));
        // With a cutoff inside the domain the same cert succeeds.
        let cert = certify_plan_with(&ring(8), &d, 52);
        assert!(cert.certified, "{:?}", cert.failure);
        assert_eq!(cert.base_ps, vec![50, 51, 52]);
    }

    #[test]
    fn cert_json_roundtrips_the_key_fields() {
        let cert = certify_plan(&ring(64), &Domain::between(2, 1024));
        let json = cert.to_json();
        assert!(json.contains("\"schema\": \"parametric-cert/1\""));
        assert!(json.contains("\"certified\": true"));
        assert!(json.contains("shift-nonzero"));
        assert!(json.contains("\"failure\": null"));
    }
}
