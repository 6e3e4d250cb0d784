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
//! time/energy enclosures and static power-cap verdicts.
//! [`ParametricCert::counts_over`] encloses them over a whole range of `p`
//! at the same cost, which lets those verdicts decide ranges of `p` at a
//! time. Each base case also cross-checks the enclosure against the
//! concrete totals, so a count bug is caught at certification time, not
//! at verdict time.

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

    /// The admissible `p` as ranges `[a, b]`, smallest first, split at
    /// `p = 1` and at every power of two: each range lies inside one
    /// `[2^k, 2^(k+1) − 1]`, where `floor(lg p)` and the largest power of
    /// two `≤ p` are constant. Every integer in a range is admissible (a
    /// power-of-two domain gives one range per member). `None` when
    /// unbounded.
    #[must_use]
    pub fn segments(&self) -> Option<Vec<(u64, u64)>> {
        match self {
            Domain::Pow2 { .. } => Some(self.admissible()?.iter().map(|&p| (p, p)).collect()),
            Domain::Any { min, max } => {
                let max = (*max)?;
                let mut out = Vec::new();
                let mut a = *min;
                while a <= max {
                    // One below the next power of two above `a`.
                    let lg = 63 - a.max(1).leading_zeros();
                    let b = if lg == 63 {
                        max
                    } else {
                        max.min((2 << lg) - 1)
                    };
                    out.push((a, b));
                    match b.checked_add(1) {
                        Some(next) => a = next,
                        None => break,
                    }
                }
                Some(out)
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
        self.counts_over(p, p)
    }

    /// Count enclosures over a range of world sizes: for every admissible
    /// `p` in `[lo, hi]` they contain [`Self::counts`]`(p)` (and at
    /// `lo == hi` they are it). `P` takes the range, ranks and peers
    /// `[0, hi − 1]`, and the collectives' closed forms in `p` their values
    /// at the two ends (each is non-decreasing in `p`). `None` when
    /// uncertified, `lo > hi`, an end lies outside the domain, or the
    /// enclosure fails to evaluate over the range.
    #[must_use]
    pub fn counts_over(&self, lo: u64, hi: u64) -> Option<SymCounts> {
        if !self.certified || lo > hi || !self.domain.contains(lo) || !self.domain.contains(hi) {
            return None;
        }
        eval_counts(self.summary.as_ref()?, lo, hi)
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
                let Some(c) = eval_counts(items, bp, bp) else {
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
        Expr::Pow2(x) | Expr::Log2(x) | Expr::Tabulated { expr: x, .. } => uses(x, target),
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
/// Sums over ranks are compiled when the item is built ([`Sum`]), so
/// evaluation never asks which subtrees mention `Rank` or `Peer`.
/// `OnePerRank` is a shift round or an unguarded exchange, `AllPairs` an
/// allgather or all-to-all.
#[derive(Debug, Clone, PartialEq)]
enum SymItem {
    Compute { units: Sum, scale: f64 },
    Mem { accesses: Sum, scale: f64 },
    OnePerRank { bytes: Sum },
    GuardedExchange { bytes: Expr },
    Barrier,
    Bcast { bytes: Expr },
    Reduce { elems: Expr },
    AllReduce { elems: Expr },
    AllPairs { bytes: PairBytes },
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
                        units: Sum::over_ranks(units),
                        scale: *scale,
                    });
                }
                Op::MemStream { elems, scale, ws } => {
                    if uses_peer(elems) || uses_peer(ws) {
                        return Err(self.fail("Peer in a memory charge"));
                    }
                    items.push(SymItem::Mem {
                        accesses: Sum::over_ranks(elems),
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
                        accesses: Sum::over_ranks(accesses),
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
                    items.push(SymItem::OnePerRank {
                        bytes: Sum::over_ranks(bytes),
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
                    items.push(SymItem::OnePerRank {
                        bytes: Sum::over_ranks(bytes),
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
                    items.push(SymItem::AllPairs {
                        bytes: PairBytes::of(bytes),
                    });
                }
                Op::AllToAll { bytes } => {
                    self.discharge("collective-lemma:alltoall");
                    items.push(SymItem::AllPairs {
                        bytes: PairBytes::of(bytes),
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
        Ok(Some(SymItem::GuardedExchange {
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

/// Evaluation context: `p` ranges over an interval of world sizes (a
/// point for [`ParametricCert::counts`]), and ranks, peers and loop
/// variables over ranges that hold at every `p` in it.
struct Cx {
    p: R,
    /// Every rank or peer index any `p` in range has: `[0, p.hi − 1]`.
    ids: R,
    vars: Vec<R>,
}

fn range_of(e: &Expr, cx: &Cx) -> RRes {
    match e {
        Expr::Const(v) => Ok(R::point(i128::from(*v))),
        Expr::P => Ok(cx.p),
        Expr::Rank | Expr::Peer => Ok(cx.ids),
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
        Expr::Tabulated { expr, .. } => range_of(expr, cx),
        Expr::BlockLen { total, parts, idx } => r_block_len(
            range_of(total, cx)?,
            range_of(parts, cx)?,
            range_of(idx, cx)?,
        ),
    }
}

/// `Σ_{v = 0}^{p-1} e(v)` over one index `v` (`Rank` or `Peer`), compiled
/// once from `e`. Distributes over `Add`/`Sub`, pulls `v`-free factors out
/// of `Mul`, and sums `BlockLen(total, P, v)` exactly to `total`;
/// otherwise bounds every term by the range of `e`. Which subtrees mention
/// `v` does not depend on `p`, so the shape is fixed when the summary is
/// built and evaluation is one walk of each range it needs.
#[derive(Debug, Clone, PartialEq)]
enum Sum {
    /// `p · range(e)`: exact when `e` does not mention `v`.
    Each(Expr),
    /// `Σ_{i<p} i = p(p−1)/2`.
    Index,
    Add(Box<Sum>, Box<Sum>),
    Sub(Box<Sum>, Box<Sum>),
    /// `range(k) · Σ b` for a factor `k` free of `v`.
    Scale(Expr, Box<Sum>),
    /// `Σ_{i<p} BlockLen(t, p, i) = t`.
    Blocks(Expr),
}

impl Sum {
    fn over_ranks(e: &Expr) -> Sum {
        Sum::compile(e, &Expr::Rank)
    }

    fn compile(e: &Expr, v: &Expr) -> Sum {
        let free = |x: &Expr| !uses(x, &|y| y == v);
        if free(e) {
            return Sum::Each(e.clone());
        }
        let sum = |x: &Expr| Box::new(Sum::compile(x, v));
        match e {
            e if e == v => Sum::Index,
            Expr::Add(a, b) => Sum::Add(sum(a), sum(b)),
            Expr::Sub(a, b) => Sum::Sub(sum(a), sum(b)),
            Expr::Mul(a, b) if free(a) => Sum::Scale((**a).clone(), sum(b)),
            Expr::Mul(a, b) if free(b) => Sum::Scale((**b).clone(), sum(a)),
            Expr::BlockLen { total, parts, idx }
                if **parts == Expr::P && **idx == *v && free(total) =>
            {
                Sum::Blocks((**total).clone())
            }
            _ => Sum::Each(e.clone()),
        }
    }

    fn eval(&self, cx: &Cx) -> RRes {
        match self {
            Sum::Each(e) => r_mul(range_of(e, cx)?, cx.p),
            Sum::Index => mono(cx.p, triangle),
            Sum::Add(a, b) => r_add(a.eval(cx)?, b.eval(cx)?),
            Sum::Sub(a, b) => r_sub(a.eval(cx)?, b.eval(cx)?),
            Sum::Scale(k, s) => r_mul(range_of(k, cx)?, s.eval(cx)?),
            Sum::Blocks(total) => range_of(total, cx),
        }
    }
}

/// An allgather's or all-to-all's payload total, decided once.
#[derive(Debug, Clone, PartialEq)]
enum PairBytes {
    /// Rank-free chunk sizes: each owner's chunk crosses `p − 1` links,
    /// so the total is `(p−1) · Σ_d b(d)`.
    PerOwner(Sum),
    /// Rank-dependent sizes: each of the `p(p−1)` chunks is bounded by
    /// the range of `b`.
    PerPair(Expr),
}

impl PairBytes {
    fn of(bytes: &Expr) -> PairBytes {
        if uses_rank(bytes) {
            PairBytes::PerPair(bytes.clone())
        } else {
            PairBytes::PerOwner(Sum::compile(bytes, &Expr::Peer))
        }
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

/// Accumulated counts for a run of items over a range of `p`.
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

// The closed forms in `p` the collectives and index sums count with.
// Each is non-decreasing in `p ≥ 1` (`closed_forms_are_non_decreasing`
// checks every `p` up to 2^14), so `mono` encloses one over a range of `p`
// by its values at the two ends:
//
// * `p − 1`, `p(p − 1)`, `p(p − 1)/2`: polynomials increasing
//   on `p ≥ 1`;
// * `p · ⌈lg p⌉`: a product of non-decreasing non-negative factors;
// * the allreduce's `2r + m·lg m` messages and `m·lg m + r` combines, with
//   `m` the largest power of two `≤ p` and `r = p − m`: they grow by 2
//   and by 1 per step while `m` is fixed, and where `m` doubles (`2m − 1`
//   to `2m`) they grow by `m·lg m + 2` and by `m·lg m + m + 1`.

fn pred(p: i128) -> Option<i128> {
    p.checked_sub(1)
}

fn pairs(p: i128) -> Option<i128> {
    p.checked_mul(p - 1)
}

fn triangle(p: i128) -> Option<i128> {
    Some(pairs(p)? / 2)
}

fn barrier_msgs(p: i128) -> Option<i128> {
    p.checked_mul(ceil_lg(p))
}

/// Recursive doubling with `r = p − m` folded extras: `2r + m·lg m`.
fn allreduce_msgs(p: i128) -> Option<i128> {
    let m = prev_pow2(p);
    (2 * (p - m)).checked_add(m.checked_mul(ceil_lg(m))?)
}

fn allreduce_combines(p: i128) -> Option<i128> {
    let m = prev_pow2(p);
    m.checked_mul(ceil_lg(m))?.checked_add(p - m)
}

/// A closed form in `p`; `None` on overflow.
type ClosedForm = fn(i128) -> Option<i128>;

/// A non-decreasing closed form over the range `p`: its values at the
/// ends.
fn mono(p: R, f: ClosedForm) -> RRes {
    Ok(R {
        lo: f(p.lo).ok_or(())?,
        hi: f(p.hi).ok_or(())?,
    })
}

fn eval_items(items: &[SymItem], cx: &mut Cx) -> Result<Acc, ()> {
    let p = cx.p;
    let mut acc = Acc::ZERO;
    for item in items {
        let contrib = match item {
            SymItem::Compute { units, scale } => Acc {
                wc: FR::from_r(units.eval(cx)?.clamp0()).scale(*scale),
                ..Acc::ZERO
            },
            SymItem::Mem { accesses, scale } => Acc {
                mem: FR::from_r(accesses.eval(cx)?.clamp0()).scale(*scale),
                ..Acc::ZERO
            },
            SymItem::OnePerRank { bytes } => Acc {
                msgs: p,
                bytes: bytes.eval(cx)?.clamp0(),
                ..Acc::ZERO
            },
            SymItem::GuardedExchange { bytes } => {
                // Fixed points of the involution skip the exchange:
                // anywhere between 0 and p messages.
                let hi_bytes = range_of(bytes, cx)?.clamp0().hi;
                Acc {
                    msgs: R { lo: 0, hi: p.hi },
                    bytes: R {
                        lo: 0,
                        hi: hi_bytes.checked_mul(p.hi).ok_or(())?,
                    },
                    ..Acc::ZERO
                }
            }
            SymItem::Barrier => Acc {
                msgs: mono(p, barrier_msgs)?,
                ..Acc::ZERO
            },
            SymItem::Bcast { bytes } => {
                let b = range_of(bytes, cx)?.clamp0();
                let to = mono(p, pred)?;
                Acc {
                    msgs: to,
                    bytes: r_mul(b, to)?,
                    ..Acc::ZERO
                }
            }
            SymItem::Reduce { elems } => {
                let e = range_of(elems, cx)?.clamp0();
                let from = mono(p, pred)?;
                Acc {
                    msgs: from,
                    bytes: r_mul(e, r_mul(from, R::point(8))?)?,
                    wc: FR::from_r(e).mul_r(from),
                    ..Acc::ZERO
                }
            }
            // One rank reduces nothing (and its size need not evaluate).
            SymItem::AllReduce { .. } if p.hi == 1 => Acc::ZERO,
            SymItem::AllReduce { elems } => {
                let e = range_of(elems, cx)?.clamp0();
                let msgs = mono(p, allreduce_msgs)?;
                Acc {
                    msgs,
                    bytes: r_mul(e, r_mul(msgs, R::point(8))?)?,
                    wc: FR::from_r(e).mul_r(mono(p, allreduce_combines)?),
                    ..Acc::ZERO
                }
            }
            SymItem::AllPairs { bytes } => {
                let msgs = mono(p, pairs)?;
                let total = match bytes {
                    PairBytes::PerPair(b) => r_mul(range_of(b, cx)?.clamp0(), msgs)?,
                    PairBytes::PerOwner(sum) => r_mul(sum.eval(cx)?.clamp0(), mono(p, pred)?)?,
                };
                Acc {
                    msgs,
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

/// Count enclosures holding at every `p ∈ [lo, hi]` (`1 ≤ lo ≤ hi`).
fn eval_counts(items: &[SymItem], lo: u64, hi: u64) -> Option<SymCounts> {
    let p = R {
        lo: i128::from(lo),
        hi: i128::from(hi),
    };
    let mut cx = Cx {
        p,
        ids: R {
            lo: 0,
            hi: p.hi - 1,
        },
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

    #[test]
    fn closed_forms_are_non_decreasing() {
        // `mono` encloses each of these over a range of p by its two end
        // values, which is sound only while they never decrease.
        let forms: [(&str, ClosedForm); 6] = [
            ("p-1", pred),
            ("p(p-1)", pairs),
            ("p(p-1)/2", triangle),
            ("p*ceil_lg(p)", barrier_msgs),
            ("allreduce messages", allreduce_msgs),
            ("allreduce combines", allreduce_combines),
        ];
        for (name, f) in forms {
            let mut prev = f(1).expect(name);
            for p in 2..=(1i128 << 14) {
                let v = f(p).expect(name);
                assert!(v >= prev, "{name} drops from p={} to p={p}", p - 1);
                prev = v;
            }
        }
    }

    #[test]
    fn segments_split_at_powers_of_two_and_cover_the_domain() {
        assert_eq!(
            Domain::between(1, 20).segments(),
            Some(vec![(1, 1), (2, 3), (4, 7), (8, 15), (16, 20)])
        );
        assert_eq!(Domain::between(5, 6).segments(), Some(vec![(5, 6)]));
        assert_eq!(Domain::between(9, 8).segments(), Some(vec![]));
        let pow2 = Domain::pow2().with_max(16);
        assert_eq!(
            pow2.segments(),
            Some(vec![(1, 1), (2, 2), (4, 4), (8, 8), (16, 16)])
        );
        assert_eq!(Domain::at_least(1).segments(), None);
        let top = Domain::between(u64::MAX - 2, u64::MAX).segments();
        assert_eq!(top, Some(vec![(u64::MAX - 2, u64::MAX)]));
    }

    #[test]
    fn range_counts_contain_every_point_and_equal_it_at_a_point() {
        let plan = CommPlan::new(
            "mixed",
            vec![
                Op::Compute {
                    units: Expr::BlockLen {
                        total: Box::new(Expr::Const(1000)),
                        parts: Box::new(Expr::P),
                        idx: Box::new(Expr::Rank),
                    },
                    scale: 1.5,
                },
                Op::Compute {
                    units: Expr::Rank % Expr::Const(7),
                    scale: 1.0,
                },
                Op::Barrier,
                Op::AllReduce {
                    elems: Expr::Const(4),
                    op: mps::ReduceOp::Sum,
                },
                Op::AllToAll {
                    bytes: Expr::Const(64) / Expr::P + Expr::Peer,
                },
            ],
        );
        let cert = certify_plan(&plan, &Domain::between(1, 40));
        assert!(cert.certified, "{:?}", cert.failure);
        for &(a, b) in &[(1, 1), (1, 40), (5, 7), (16, 31), (33, 33)] {
            let range = cert.counts_over(a, b).expect("in domain");
            for p in a..=b {
                let c = cert.counts(p).expect("in domain");
                for (r, v) in [
                    (range.messages, c.messages),
                    (range.bytes, c.bytes),
                    (range.wc, c.wc),
                    (range.mem_accesses, c.mem_accesses),
                ] {
                    assert!(
                        r.lo <= v.lo && v.hi <= r.hi,
                        "[{a}, {b}] p={p}: {r:?} !⊇ {v:?}"
                    );
                }
            }
            if a == b {
                assert_eq!(Some(range), cert.counts(a));
            }
        }
        assert_eq!(cert.counts_over(7, 5), None, "inverted range");
        assert_eq!(cert.counts_over(30, 41), None, "end outside the domain");
    }
}
