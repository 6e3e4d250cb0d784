//! Ignored-by-default timing probes for the static checker at p = 1024
//! (`cargo test -p plan --release -- --ignored --nocapture perf_`).
//! They separate the three cost components of an abstract run: inbox
//! matching (ring), `coll.rs` collective expansion (alltoall with
//! constant sizes), and symbolic size evaluation (alltoall with
//! `BlockLen` sizes).

use std::time::Instant;

use plan::{analyze_plan, CommPlan, Expr, Op, TagExpr};

const P: usize = 1024;

fn timed(name: &str, plan: &CommPlan) {
    let t0 = Instant::now();
    let analysis = analyze_plan(plan, P);
    let dt = t0.elapsed();
    assert!(analysis.deadlock_free(), "{:?}", analysis.findings);
    let ns = dt.as_nanos() as f64 / analysis.steps as f64;
    println!(
        "{name}: {} steps, {} msgs in {dt:?} ({ns:.0} ns/step)",
        analysis.steps, analysis.total.messages
    );
}

#[test]
#[ignore = "timing probe"]
fn perf_ring_chain() {
    let body = vec![Op::Loop {
        count: Expr::Const(2048),
        body: vec![
            Op::Send {
                to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                tag: TagExpr::Expr(Expr::Const(1)),
                bytes: Expr::Const(64),
            },
            Op::Recv {
                from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                tag: TagExpr::Expr(Expr::Const(1)),
            },
        ],
    }];
    timed("ring x2048", &CommPlan::new("ring", body));
}

#[test]
#[ignore = "timing probe"]
fn perf_alltoall_const() {
    let body = vec![Op::Loop {
        count: Expr::Const(5),
        body: vec![Op::AllToAll {
            bytes: Expr::Const(256),
        }],
    }];
    timed("alltoall const x5", &CommPlan::new("a2a-const", body));
}

#[test]
#[ignore = "timing probe"]
fn perf_alltoall_blocklen() {
    let body = vec![Op::Loop {
        count: Expr::Const(5),
        body: vec![Op::AllToAll {
            bytes: Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer)
                * Expr::Const(16)
                * Expr::block_len(Expr::Const(64), Expr::P, Expr::Rank).max_of(Expr::Const(1)),
        }],
    }];
    timed("alltoall blocklen x5", &CommPlan::new("a2a-sym", body));
}
