//! Timing probe behind the EXPERIMENTS.md "parametric certification"
//! table: symbolic for-all-`p` certification wall time vs the concrete
//! per-`p` checker at `p ∈ {64, 1024, 4096, 65536}`.
//!
//! Run with `cargo run --release --example symbolic_cert_timing`.
//!
//! The concrete checker walks every message, and FT's transpose alone is
//! `p²` of them, so `p = 65536` (4.3 G messages, most of an hour) is
//! skipped rather than attempted; the symbolic certificate's closed-form
//! counts and power verdicts still evaluate there in microseconds.

use std::time::Instant;

use isoee::interval::MachBox;
use isoee::{power_cap_verdict, sym_cost_bounds, MachineParams};
use plan::{analyze_plan, certify_plan, CommPlan, Domain};

/// Median-of-3 wall time for `f`, plus its last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::new();
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    (samples[1], out.expect("ran"))
}

fn fmt_s(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

fn main() {
    let class = npb::Class::S;
    let plans: Vec<(&str, CommPlan, Domain)> = vec![
        (
            "FT",
            npb::ft_plan(&npb::FtConfig::class(class)),
            npb::ft_domain(),
        ),
        (
            "EP",
            npb::ep_plan(&npb::EpConfig::class(class)),
            npb::ep_domain(),
        ),
        (
            "CG",
            npb::cg_plan(&npb::CgConfig::class(class)),
            npb::cg_domain(),
        ),
    ];
    let mach = MachBox::from_params(&MachineParams::system_g(2.8e9));
    let concrete_ps: &[u64] = &[64, 1024, 4096, 65536];
    // The concrete checker walks ~p² messages: 4096² is ~17 M (seconds);
    // 65536² is 4.3 G — most of an hour.
    let concrete_limit: u64 = 4096;

    println!("plan | domain | symbolic certify (for all p) | obligations");
    for (name, plan, domain) in &plans {
        let (dt, cert) = timed(|| certify_plan(plan, domain));
        assert!(cert.certified, "{name}: {:?}", cert.failure);
        println!(
            "{name} | {domain} | {} | {} ({} base cases)",
            fmt_s(dt),
            cert.obligations.len(),
            cert.base_ps.len()
        );
    }

    println!();
    println!("plan | p | concrete analyze_plan | symbolic count eval | symbolic/concrete");
    for (name, plan, domain) in &plans {
        let cert = certify_plan(plan, domain);
        for &p in concrete_ps {
            if !domain.contains(p) {
                println!("{name} | {p} | — (p outside declared domain) | — | —");
                continue;
            }
            let (dt_sym, counts) = timed(|| cert.counts(p));
            let counts = counts.expect("admissible p evaluates");
            if p > concrete_limit {
                println!(
                    "{name} | {p} | skipped (p > {concrete_limit}) | {} | —",
                    fmt_s(dt_sym)
                );
                continue;
            }
            let (dt_conc, analysis) =
                timed(|| analyze_plan(plan, usize::try_from(p).expect("fits")));
            assert!(analysis.deadlock_free(), "{name} p={p}");
            #[allow(clippy::cast_precision_loss)]
            {
                assert!(
                    counts.messages.contains(analysis.total.messages as f64),
                    "{name} p={p}: symbolic enclosure must contain concrete totals"
                );
            }
            println!(
                "{name} | {p} | {} | {} | {:.0}×",
                fmt_s(dt_conc),
                fmt_s(dt_sym),
                dt_conc / dt_sym.max(1e-9)
            );
        }
    }

    println!();
    println!("power-cap verdicts over p ≤ 4096 (System G @ 2.8 GHz, class S):");
    for (name, plan, domain) in &plans {
        let clamped = domain.with_max(4096);
        let cert = certify_plan(plan, &clamped);
        for (label, cap) in [("2 kW", 2_000.0), ("1 MW", 1_000_000.0)] {
            let (dt, verdict) = timed(|| power_cap_verdict(&cert, &mach, cap));
            println!(
                "{name} | cap {label} | {verdict:?} | decided in {}",
                fmt_s(dt)
            );
        }
        let c = sym_cost_bounds(
            &cert,
            4096.min(
                clamped
                    .admissible()
                    .map_or(4096, |ps| ps.last().copied().unwrap_or(4096)),
            ),
            &mach,
        )
        .expect("domain max evaluates");
        println!(
            "{name} | avg power at domain max p={}: [{:.0}, {:.0}] W",
            c.p,
            c.enclosure.ep.lo / c.enclosure.tp.hi,
            c.enclosure.ep.hi / c.enclosure.tp.lo
        );
    }
}
