//! Deadlock-detector re-validation on the event engine.
//!
//! Under the engine "starvation" has a crisp definition — the event queue
//! is empty while tasks are still live — so the detector must fire on
//! exactly the terminal wait-for graphs and never on legal skew. The
//! first test replays the thread runtime's historical false-positive
//! scenario (a send/recv chain that merely *looks* stuck to a sampling
//! detector) and requires it to complete.

mod common;

use common::{rank_branch, recv, send};
use mps::{RunError, World};
use plan::{CommPlan, Expr, Op, TagExpr};

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9)
}

/// The PR 3 false-positive scenario: rank 1 sends then receives, rank 0
/// receives then sends. A chain, not a cycle — it must complete, with the
/// engine's "empty event queue" starvation test never tripping.
#[test]
fn send_recv_chain_is_not_a_deadlock() {
    let plan = CommPlan::new(
        "chain",
        rank_branch(vec![
            (0, vec![recv(1, 7), send(1, 8, 64)]),
            (1, vec![send(0, 7, 64), recv(0, 8)]),
        ]),
    );
    let out = simrt::try_run_plan(&world(), 2, &plan).expect("legal skew must complete");
    let totals = out.report.total_counters();
    assert_eq!(totals.messages, 2.0);
    assert_eq!(totals.bytes, 128.0);
}

/// A mutual receive is a true cycle: both ranks park, the queue drains,
/// and the detector must report cyclic wait-for edges.
#[test]
fn mutual_recv_is_a_cyclic_deadlock() {
    let plan = CommPlan::new(
        "cycle",
        rank_branch(vec![
            (0, vec![recv(1, 1), send(1, 2, 8)]),
            (1, vec![recv(0, 2), send(0, 1, 8)]),
        ]),
    );
    let err = simrt::try_run_plan(&world(), 2, &plan).expect_err("must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(info.cyclic, "mutual recv is a cycle");
    assert_eq!(info.edges.len(), 2);
    let mut edges: Vec<(usize, Option<usize>, u64)> = info
        .edges
        .iter()
        .map(|e| (e.from_rank, e.on_rank, e.tag))
        .collect();
    edges.sort_unstable();
    assert_eq!(edges, vec![(0, Some(1), 1), (1, Some(0), 2)]);
    assert_eq!(info.comm.len(), 2, "partial traces for every rank");
}

/// Waiting on a rank whose plan already finished is stuck but acyclic —
/// the message will simply never come.
#[test]
fn recv_from_finished_rank_is_acyclic() {
    let plan = CommPlan::new(
        "stuck-on-done",
        rank_branch(vec![
            (0, vec![recv(1, 9)]),
            (1, vec![]), // rank 1 finishes immediately
        ]),
    );
    let err = simrt::try_run_plan(&world(), 2, &plan).expect_err("must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(!info.cyclic, "no cycle: the awaited rank is done");
    assert_eq!(info.edges.len(), 1);
    assert_eq!(info.edges[0].from_rank, 0);
    assert_eq!(info.edges[0].on_rank, Some(1));
}

/// A tag mismatch parks the receiver forever; the undelivered envelope
/// must surface in the partial trace's `unconsumed` list so the analyzer
/// can point at it.
#[test]
fn tag_mismatch_reports_unconsumed_envelope() {
    let plan = CommPlan::new(
        "tag-mismatch",
        rank_branch(vec![
            (0, vec![recv(1, 42)]),
            (1, vec![send(0, 41, 16)]), // wrong tag
        ]),
    );
    let err = simrt::try_run_plan(&world(), 2, &plan).expect_err("must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(!info.cyclic);
    assert_eq!(info.comm[0].unconsumed, vec![(1, 41, 16)]);
}

/// A wildcard receive with no sender left parks as an `Any` edge
/// (`on_rank: None`), which can never be cyclic.
#[test]
fn starved_wildcard_recv_reports_any_edge() {
    let plan = CommPlan::new(
        "starved-any",
        rank_branch(vec![
            (
                0,
                vec![Op::RecvAny {
                    tag: TagExpr::Expr(Expr::Const(5)),
                }],
            ),
            (1, vec![]),
        ]),
    );
    let err = simrt::try_run_plan(&world(), 2, &plan).expect_err("must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(!info.cyclic);
    assert_eq!(info.edges.len(), 1);
    assert_eq!(info.edges[0].on_rank, None);
    assert_eq!(info.edges[0].tag, 5);
}

/// Ranks 0 and 1 wait on each other; rank 2 waits on rank 1 from
/// outside the cycle. The report names the cycle alone, in wait order:
/// the last edge waits on the first edge's rank.
#[test]
fn bystander_waiting_into_a_cycle_is_not_in_the_cycle() {
    let plan = CommPlan::new(
        "cycle-with-bystander",
        rank_branch(vec![
            (0, vec![recv(1, 1), send(1, 2, 8)]),
            (1, vec![recv(0, 2), send(0, 1, 8)]),
            (2, vec![recv(1, 3)]),
        ]),
    );
    let err = simrt::try_run_plan(&world(), 3, &plan).expect_err("must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(info.cyclic);
    let edges: Vec<(usize, Option<usize>, u64)> = info
        .edges
        .iter()
        .map(|e| (e.from_rank, e.on_rank, e.tag))
        .collect();
    assert_eq!(edges, vec![(0, Some(1), 1), (1, Some(0), 2)]);
    assert_eq!(info.comm.len(), 3, "partial traces for every rank");
}
