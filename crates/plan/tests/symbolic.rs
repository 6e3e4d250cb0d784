//! Differential property suite for the parametric certifier: random
//! wildcard-free plans over random symbolic domains. The contract under
//! test (ISSUE satellite): **a certified verdict never contradicts the
//! concrete checker** — at 32 sampled world sizes per plan, every
//! certificate's plan must be concretely deadlock-free and its count
//! enclosures must contain the concrete totals. Refusals are allowed to
//! be conservative (the certified fragment is deliberately small), but a
//! seeded family of genuinely broken plans must *never* certify.

mod common;

use common::{draw_domain, draw_plan, Stream};
use plan::{analyze_plan, certify_plan, CommPlan, Domain, Expr, Op, TagExpr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite contract: certified ⇒ concretely deadlock-free and
    /// count-enclosed at 32 sampled p per plan.
    #[test]
    fn certified_plans_agree_with_concrete_checker_at_32_sampled_p(
        words in proptest::collection::vec(any::<u64>(), 32),
        seed in any::<u64>(),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (domain, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        let cert = certify_plan(&plan, &domain);
        // Uncertified: conservative refusal is allowed; nothing to
        // contradict (the skewed-shift property below keeps this
        // non-vacuous).
        let ps = if cert.certified { domain.sample(32, seed) } else { Vec::new() };
        for p in ps {
            let pu = usize::try_from(p).expect("domains are clamped small");
            let a = analyze_plan(&plan, pu);
            prop_assert!(
                a.deadlock_free(),
                "certified plan rejected concretely at p={p}: {:?}",
                a.findings
            );
            let c = cert.counts(p).expect("admissible p evaluates");
            #[allow(clippy::cast_precision_loss)]
            {
                prop_assert!(
                    c.messages.contains(a.total.messages as f64),
                    "p={p}: messages {:?} !∋ {}", c.messages, a.total.messages
                );
                prop_assert!(
                    c.bytes.contains(a.total.bytes as f64),
                    "p={p}: bytes {:?} !∋ {}", c.bytes, a.total.bytes
                );
            }
            prop_assert!(c.wc.contains(a.total.wc), "p={p}: wc");
            prop_assert!(
                c.mem_accesses.contains(a.total.mem_accesses),
                "p={p}: mem"
            );
        }
    }

    /// Range counts contain point counts: for a random certified plan and
    /// a random range `[a, b]` of its domain, `counts_over(a, b)` contains
    /// `counts(p)` at every admissible `p` in the range, and equals it at
    /// `a == b`. The power-cap branch and bound decides whole ranges of
    /// `p` on this containment.
    #[test]
    fn range_counts_contain_the_counts_at_every_admissible_p(
        words in proptest::collection::vec(any::<u64>(), 32),
        i in any::<u64>(),
        j in any::<u64>(),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (domain, pow2) = draw_domain(&mut s);
        let mut plan = draw_plan(&mut s, pow2);
        // A charge no closed form sums, so the rank range itself is
        // enclosed over the range of p.
        plan.body.push(Op::Compute {
            units: Expr::Rank * Expr::Rank,
            scale: 1.0,
        });
        let cert = certify_plan(&plan, &domain);
        let ps = if cert.certified {
            domain.admissible().expect("generated domains are bounded")
        } else {
            Vec::new()
        };
        if !ps.is_empty() {
            let len = ps.len() as u64;
            let pick = |k: u64| ps[usize::try_from(k % len).expect("small")];
            let (a, b) = (pick(i).min(pick(j)), pick(i).max(pick(j)));
            let range = cert.counts_over(a, b);
            prop_assert!(range.is_some(), "[{a}, {b}] of {domain} does not evaluate");
            let range = range.expect("checked");
            for &p in ps.iter().filter(|&&p| a <= p && p <= b) {
                let c = cert.counts(p).expect("admissible p evaluates");
                for (what, r, v) in [
                    ("messages", range.messages, c.messages),
                    ("bytes", range.bytes, c.bytes),
                    ("wc", range.wc, c.wc),
                    ("mem", range.mem_accesses, c.mem_accesses),
                ] {
                    prop_assert!(
                        r.lo <= v.lo && v.hi <= r.hi,
                        "[{a}, {b}] p={p}: {what} {r:?} !⊇ {v:?}"
                    );
                }
            }
            if a == b {
                prop_assert_eq!(Some(range), cert.counts(a));
            }
        }
    }

    /// Anti-vacuity: skewed shifts (offsets summing to s ≠ 0 mod P) are
    /// genuinely broken at every p > 2 — the certifier must refuse them,
    /// and the concrete checker must agree they are broken.
    #[test]
    fn skewed_shifts_never_certify(
        k_send in 1u64..6,
        skew in 1u64..3,
        p_probe in 8usize..40,
    ) {
        let k_recv = i64::try_from(k_send + skew).expect("small");
        let k_send = i64::try_from(k_send).expect("small");
        let plan = CommPlan::new(
            "skewed",
            vec![
                Op::Send {
                    to: (Expr::Rank + Expr::Const(k_send)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(8),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(k_recv)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                },
            ],
        );
        let cert = certify_plan(&plan, &Domain::between(8, 128));
        prop_assert!(!cert.certified);
        let f = cert.failure.expect("refusal carries a witness");
        prop_assert!(f.reason.contains("sum to"), "{f}");
        let a = analyze_plan(&plan, p_probe);
        prop_assert!(!a.deadlock_free(), "skew {skew} undetected at p={p_probe}");
    }

    /// Certification is deterministic: the same plan and domain yield a
    /// byte-identical certificate (required for `revalidate` to be a
    /// meaningful machine check).
    #[test]
    fn certification_is_deterministic(
        words in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (domain, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        let a = certify_plan(&plan, &domain);
        let b = certify_plan(&plan, &domain);
        prop_assert_eq!(a.certified, b.certified);
        prop_assert_eq!(a.to_json(), b.to_json());
        if a.certified {
            prop_assert!(a.revalidate(&plan).is_ok());
        }
    }
}

/// Non-vacuity meta-check: a healthy majority of generated plans must
/// actually certify (the differential above is meaningless if the
/// generator mostly produces refusals).
#[test]
fn generated_plans_mostly_certify() {
    let mut certified = 0;
    let total = 200;
    for case in 0..total {
        let words: Vec<u64> = (0..32u64)
            .map(|i| {
                let mut x = (case as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i;
                x ^= x >> 33;
                x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
                x ^ (x >> 33)
            })
            .collect();
        let mut s = Stream {
            words: &words,
            at: 0,
        };
        let (domain, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        if certify_plan(&plan, &domain).certified {
            certified += 1;
        }
    }
    assert!(
        certified * 2 > total,
        "only {certified}/{total} generated plans certified — differential is near-vacuous"
    );
}
