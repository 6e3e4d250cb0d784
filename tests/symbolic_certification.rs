//! End-to-end acceptance suite for the parametric (for-all-`p`) plan
//! certifier, on the three ISSUE axes:
//!
//! 1. **Symbolic vs concrete checker** — FT/EP/CG certificates over their
//!    declared domains must agree with `plan::analyze_plan` at sampled
//!    world sizes (moderate `p` by default; `p ∈ {1024, 4096}` behind
//!    `--ignored` for the release CI job).
//! 2. **Symbolic cost bounds ⊇ concrete plancost** — the certificate's
//!    closed-form Eq. 13/15 enclosures must contain the concrete
//!    `isoee::plancost` intervals at every sampled `p`.
//! 3. **Symbolic deadlock verdicts vs explorer/simrt** — certified plans
//!    must run clean under the `verify` schedule explorer and the `simrt`
//!    discrete-event engine at small `p`.
//!
//! Plus the power-cap acceptance criteria: a sound for-all-`p` accept
//! confirmed by concrete sampling, a 2 kW rejection whose witness names
//! the violating `p` range, and verdicts identical to an exhaustive scan
//! of every admissible `p`.

use isoee::interval::MachBox;
use isoee::{plancost, power_cap_verdict, sym_cost_bounds, MachineParams, PowerCapVerdict};
use plan::{analyze_plan, certify_plan, CommPlan, Domain, ParametricCert};
use verify::{programs, Explorer};

fn mach() -> MachBox {
    MachBox::from_params(&MachineParams::system_g(2.8e9))
}

fn npb_plans() -> Vec<(&'static str, CommPlan, Domain)> {
    let class = npb::Class::S;
    vec![
        (
            "ft",
            npb::ft_plan(&npb::FtConfig::class(class)),
            npb::ft_domain(),
        ),
        (
            "ep",
            npb::ep_plan(&npb::EpConfig::class(class)),
            npb::ep_domain(),
        ),
        (
            "cg",
            npb::cg_plan(&npb::CgConfig::class(class)),
            npb::cg_domain(),
        ),
    ]
}

fn certified(name: &str, plan: &CommPlan, domain: &Domain) -> ParametricCert {
    let cert = certify_plan(plan, domain);
    assert!(cert.certified, "{name}: {:?}", cert.failure);
    cert
}

/// Acceptance: each NPB plan certifies over its *whole declared domain*
/// (FT/EP unbounded, CG all powers of two) in under a second.
#[test]
fn npb_plans_certify_for_all_p_in_under_a_second() {
    for (name, plan, domain) in npb_plans() {
        let t0 = std::time::Instant::now();
        let cert = certified(name, &plan, &domain);
        let dt = t0.elapsed();
        assert!(
            dt < std::time::Duration::from_secs(1),
            "{name}: certification took {dt:?}"
        );
        assert!(!cert.obligations.is_empty(), "{name}: no obligations");
        assert!(cert.revalidate(&plan).is_ok(), "{name}: revalidation");
    }
}

fn differential_at(ps: &[usize]) {
    let m = mach();
    for (name, plan, domain) in npb_plans() {
        let cert = certified(name, &plan, &domain);
        for &p in ps {
            let pu = p as u64;
            if !domain.contains(pu) {
                continue;
            }
            // Axis 1: verdict agreement.
            let a = analyze_plan(&plan, p);
            assert!(
                a.deadlock_free(),
                "{name} p={p}: concrete checker disagrees: {:?}",
                a.findings
            );
            // Count containment.
            let c = cert.counts(pu).unwrap_or_else(|| panic!("{name} p={p}"));
            #[allow(clippy::cast_precision_loss)]
            {
                assert!(
                    c.messages.contains(a.total.messages as f64),
                    "{name} p={p}: messages {:?} !∋ {}",
                    c.messages,
                    a.total.messages
                );
                assert!(
                    c.bytes.contains(a.total.bytes as f64),
                    "{name} p={p}: bytes {:?} !∋ {}",
                    c.bytes,
                    a.total.bytes
                );
            }
            assert!(c.wc.contains(a.total.wc), "{name} p={p}: wc");
            assert!(
                c.mem_accesses.contains(a.total.mem_accesses),
                "{name} p={p}: mem_accesses"
            );

            // Axis 2: symbolic cost enclosures contain concrete plancost.
            let concrete = plancost::cost_bounds(&a, &m);
            let sym = sym_cost_bounds(&cert, pu, &m).expect("certified & admissible");
            assert!(
                sym.t_comm.lo <= concrete.t_comm.lo && sym.t_comm.hi >= concrete.t_comm.hi,
                "{name} p={p}: t_comm {:?} !⊇ {:?}",
                sym.t_comm,
                concrete.t_comm
            );
            assert!(
                sym.e_comm.lo <= concrete.e_comm.lo && sym.e_comm.hi >= concrete.e_comm.hi,
                "{name} p={p}: e_comm"
            );
            assert!(
                sym.enclosure.tp.lo <= concrete.enclosure.tp.lo
                    && sym.enclosure.tp.hi >= concrete.enclosure.tp.hi,
                "{name} p={p}: Tp"
            );
            assert!(
                sym.enclosure.ep.lo <= concrete.enclosure.ep.lo
                    && sym.enclosure.ep.hi >= concrete.enclosure.ep.hi,
                "{name} p={p}: Ep"
            );
        }
    }
}

/// Axes 1–2 at moderate world sizes (cheap enough for debug tier-1).
#[test]
fn symbolic_agrees_with_concrete_checker_and_plancost_at_moderate_p() {
    differential_at(&[1, 2, 3, 4, 8, 16, 48, 64, 100, 128, 200, 256]);
}

/// Axes 1–2 at the paper-scale world sizes. The concrete checker steps
/// every message at each `p` (FT at p = 4096 is 168M steps: seconds in
/// release, far longer in debug), so this runs under `--ignored` in the
/// release CI job only.
#[test]
#[ignore = "168M checker steps at p = 4096; run in release via the plan-symbolic CI job"]
fn symbolic_agrees_with_concrete_checker_at_paper_scale_p() {
    differential_at(&[1024, 4096]);
}

/// Axis 3a: certified plans stay quiet under the schedule-space explorer
/// at small p.
#[test]
fn certified_plans_stay_clean_under_the_explorer() {
    let world = programs::demo_world();
    let explorer = Explorer {
        max_schedules: 4,
        max_depth: 1_000_000,
    };
    for (name, plan, domain) in npb_plans() {
        certified(name, &plan, &domain);
        for p in [2usize, 4] {
            if !domain.contains(p as u64) {
                continue;
            }
            let ex = explorer.explore_plan(&world, p, &plan);
            // The explorer is bounded (truncated), so absence of findings
            // is the agreement criterion, not full certification.
            assert!(
                ex.findings.is_empty(),
                "{name} p={p}: explorer findings {:?}",
                ex.findings
            );
        }
    }
}

/// Axis 3b: certified plans complete (no deadlock) on the simrt
/// discrete-event engine at small p.
#[test]
fn certified_plans_complete_on_the_simrt_engine() {
    let world = programs::demo_world();
    for (name, plan, domain) in npb_plans() {
        certified(name, &plan, &domain);
        for p in [2usize, 4, 8] {
            if !domain.contains(p as u64) {
                continue;
            }
            let out = simrt::try_run_plan(&world, p, &plan)
                .unwrap_or_else(|e| panic!("{name} p={p}: engine error {e:?}"));
            assert_eq!(out.report.ranks.len(), p, "{name} p={p}");
        }
    }
}

/// Power-cap acceptance: a generous cap accepts for *all* admissible p,
/// and concrete per-p sampling confirms the accept is sound.
#[test]
fn power_cap_accept_is_sound_under_concrete_sampling() {
    let m = mach();
    for (name, plan, domain) in npb_plans() {
        // Bounded quantification for the sweep: p ≤ 512 keeps the
        // concrete confirmation cheap.
        let clamped = domain.with_max(512);
        let cert = certified(name, &plan, &clamped);
        // A cap just above the certified worst case over the domain.
        let worst = clamped
            .admissible()
            .expect("clamped domain is bounded")
            .iter()
            .filter_map(|&p| sym_cost_bounds(&cert, p, &m))
            .map(|c| c.enclosure.ep.hi / c.enclosure.tp.lo)
            .fold(0.0f64, f64::max);
        let cap = worst * 1.5;
        let verdict = power_cap_verdict(&cert, &m, cap);
        assert!(verdict.accepted(), "{name}: {verdict:?}");

        // Concrete confirmation at sampled p across the domain.
        for p in clamped.sample(12, 42) {
            let a = analyze_plan(&plan, usize::try_from(p).expect("small"));
            let c = plancost::cost_bounds(&a, &m);
            let avg_hi = c.enclosure.ep.hi / c.enclosure.tp.lo;
            assert!(
                avg_hi <= cap,
                "{name} p={p}: concrete power {avg_hi} busts accepted cap {cap}"
            );
        }
    }
}

/// Power-cap rejection: the worked 2 kW cap is rejected with a witness
/// naming the violating p range, and the named start really violates
/// concretely.
#[test]
fn two_kw_cap_is_rejected_with_a_violating_range_witness() {
    let m = mach();
    for (name, plan, domain) in npb_plans() {
        let clamped = domain.with_max(4096);
        let cert = certified(name, &plan, &clamped);
        match power_cap_verdict(&cert, &m, 2000.0) {
            PowerCapVerdict::Rejected { from_p, to_p } => {
                assert!(from_p >= 2, "{name}");
                assert_eq!(to_p, Some(4096), "{name}: violation reaches the domain max");
                // The witness start is a genuine violation of the
                // *symbolic lower bound*; confirm concretely too (the
                // checker at from_p is cheap: from_p is small, System G's
                // idle floor crosses 2 kW within ~200 ranks).
                assert!(from_p <= 512, "{name}: witness unexpectedly large");
                let a = analyze_plan(&plan, usize::try_from(from_p).expect("small"));
                let c = plancost::cost_bounds(&a, &m);
                assert!(
                    c.enclosure.ep.lo / c.enclosure.tp.hi > 2000.0,
                    "{name}: named witness p={from_p} does not violate concretely"
                );
            }
            other => panic!("{name}: expected 2 kW rejection, got {other:?}"),
        }
    }
}

/// The exhaustive scan the branch-and-bound verdict must reproduce:
/// classify every admissible `p` (with its point bounds in `bounds`) as
/// over the cap, under it, or undecided, then report the first and last
/// violation, else the first undecided `p`, else acceptance.
fn scan_verdict(bounds: &[(u64, Option<(f64, f64)>)], cap: f64) -> PowerCapVerdict {
    let mut violating: Option<(u64, u64)> = None;
    let mut undecided: Option<u64> = None;
    for &(p, b) in bounds {
        match b {
            Some((lo, _)) if lo > cap => violating = Some((violating.map_or(p, |v| v.0), p)),
            Some((_, hi)) if hi <= cap => {}
            _ => {
                undecided.get_or_insert(p);
            }
        }
    }
    match (violating, undecided) {
        (Some((from_p, to_p)), _) => PowerCapVerdict::Rejected {
            from_p,
            to_p: Some(to_p),
        },
        (None, Some(at_p)) => PowerCapVerdict::Undecided { at_p },
        (None, None) => PowerCapVerdict::AcceptedForAll {
            ps_checked: bounds.len(),
        },
    }
}

/// The branch-and-bound verdict equals the exhaustive scan, witness and
/// all, on every committed domain capped at 4096: at 2 kW, at 1 MW, and at
/// caps set exactly on sampled points' lower and upper power bounds, so
/// that rejections, undecided verdicts and acceptances all occur.
#[test]
fn power_cap_verdicts_equal_the_exhaustive_scan() {
    let m = mach();
    let mut outcomes = [0usize; 3];
    for (name, plan, domain) in npb_plans() {
        let clamped = domain.with_max(4096);
        let cert = certified(name, &plan, &clamped);
        let ps = clamped.admissible().expect("clamped domain is bounded");
        let bounds: Vec<_> = ps
            .iter()
            .map(|&p| (p, sym_cost_bounds(&cert, p, &m).and_then(|c| c.avg_power())))
            .collect();
        let mut caps = vec![2_000.0, 1_000_000.0];
        let mut probes = clamped.sample(6, 11);
        probes.push(*ps.last().expect("nonempty domain"));
        for p in probes {
            let (lo, hi) = bounds[ps.binary_search(&p).expect("admissible")]
                .1
                .unwrap_or_else(|| panic!("{name} p={p}: no power bounds"));
            caps.extend([lo, hi]);
        }
        for cap in caps {
            let want = scan_verdict(&bounds, cap);
            assert_eq!(power_cap_verdict(&cert, &m, cap), want, "{name} cap={cap}");
            let kind = match want {
                PowerCapVerdict::Rejected { .. } => 0,
                PowerCapVerdict::Undecided { .. } => 1,
                _ => 2,
            };
            outcomes[kind] += 1;
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "rejected/undecided/accepted counts {outcomes:?}"
    );
}

/// The unbounded declared domains reject any finite cap outright via the
/// idle-floor lemma, with an open-ended witness range.
#[test]
fn unbounded_domains_reject_finite_caps_with_open_witness() {
    let m = mach();
    for (name, plan, domain) in npb_plans() {
        if domain.is_bounded() {
            continue;
        }
        let cert = certified(name, &plan, &domain);
        match power_cap_verdict(&cert, &m, 2000.0) {
            PowerCapVerdict::Rejected { from_p, to_p } => {
                assert_eq!(to_p, None, "{name}: tail rejection is open-ended");
                assert!(domain.contains(from_p), "{name}: witness admissible");
            }
            other => panic!("{name}: expected idle-floor rejection, got {other:?}"),
        }
    }
}
