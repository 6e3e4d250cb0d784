//! Ignored-by-default timing probes for the static checker at p = 1024
//! (`cargo test -p plan --release -- --ignored --nocapture perf_`).
//! They separate the three cost components of an abstract run: inbox
//! matching (ring), `coll.rs` collective expansion (alltoall with
//! constant sizes), and symbolic size evaluation (alltoall with
//! `BlockLen` sizes). Each loop body reads its own variable, so the
//! checker interprets every iteration instead of folding the loop.

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
        "{name}: {} steps, {} msgs, {} folded iterations in {dt:?} ({ns:.0} ns/step)",
        analysis.steps, analysis.total.messages, analysis.folded_iterations
    );
}

/// One step per iteration that reads the loop variable, next to an
/// all-to-all's `2(p − 1)` message steps.
fn iteration_charge() -> Op {
    Op::Compute {
        units: Expr::Var(0),
        scale: 1.0,
    }
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
                // 64 and 65 bytes in turn.
                bytes: Expr::Const(64) + Expr::Var(0) % Expr::Const(2),
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
        body: vec![
            Op::AllToAll {
                bytes: Expr::Const(256),
            },
            iteration_charge(),
        ],
    }];
    timed("alltoall const x5", &CommPlan::new("a2a-const", body));
}

#[test]
#[ignore = "timing probe"]
fn perf_alltoall_blocklen() {
    let body = vec![Op::Loop {
        count: Expr::Const(5),
        body: vec![
            Op::AllToAll {
                bytes: Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer)
                    * Expr::Const(16)
                    * Expr::block_len(Expr::Const(64), Expr::P, Expr::Rank).max_of(Expr::Const(1)),
            },
            iteration_charge(),
        ],
    }];
    timed("alltoall blocklen x5", &CommPlan::new("a2a-sym", body));
}
