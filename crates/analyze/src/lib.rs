//! Static/dynamic analysis passes over the workspace's two artifact kinds:
//!
//! * **Communication traces** ([`comm`]) — the wait-for graphs, vector
//!   clocks and unconsumed-message pools produced by `crates/mps`. The
//!   checker reports deadlock cycles, receives stuck on finished ranks,
//!   tag-mismatched send/receive pairs, messages sent but never received,
//!   and message races (concurrent same-destination same-tag sends whose
//!   delivery order is scheduler-dependent).
//! * **Model parameter vectors** ([`invariants`]) — the Table-1/Table-2
//!   inputs and Eqs. 13–21 outputs of `crates/isoee`. The invariant pass
//!   flags dimensionally inconsistent machine vectors (non-finite or
//!   non-positive latencies, negative powers), invalid application vectors,
//!   and violations of the model's structural facts (`EEF ≥ 0` for
//!   non-negative overheads, `EE ∈ (0, 1]`, `Ep ≥ E1`).
//!
//! Both passes return [`Finding`] lists rather than panicking, so they can
//! gate CI (`cargo run -p analyze`) and back the debug-mode assertions in
//! the runtime.

#![forbid(unsafe_code)]

pub mod comm;
pub mod invariants;
pub mod trace;

pub use comm::{check_comm_logs, check_deadlock, check_report, check_run};
pub use invariants::{check_app, check_machine, check_model, check_sweep_accounting};
pub use trace::check_trace;

use mps::WaitEdge;

/// One analyzer finding. `Display` renders a single human-readable line;
/// the structured fields keep ranks/tags/values available to tests and
/// tooling.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A cycle of ranks each blocked receiving from the next.
    DeadlockCycle {
        /// The cycle's wait-for edges, in wait order (the last edge waits
        /// on the first edge's rank).
        edges: Vec<WaitEdge>,
    },
    /// A chain of blocked ranks ending at a rank that already finished, so
    /// the awaited message can never arrive.
    StuckOnFinished {
        /// The blocked chain, ending with the edge onto the finished rank.
        edges: Vec<WaitEdge>,
    },
    /// A blocked receive whose peer *did* send a message — under a
    /// different tag. Almost always a mistyped tag constant.
    TagMismatch {
        /// The sending rank.
        sender: usize,
        /// The blocked receiving rank.
        receiver: usize,
        /// The tag actually sent (sitting unconsumed in the inbox).
        sent_tag: u64,
        /// The tag the receiver is blocked waiting for.
        expected_tag: u64,
    },
    /// A message that was sent but never received by the time its
    /// destination rank finished.
    UnconsumedMessage {
        /// The sending rank.
        sender: usize,
        /// The rank whose inbox still holds the message.
        receiver: usize,
        /// The message tag.
        tag: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Two sends to the same destination with the same tag whose vector
    /// clocks are incomparable: delivery order is scheduler-dependent.
    MessageRace {
        /// The two sending ranks.
        senders: (usize, usize),
        /// The common destination.
        receiver: usize,
        /// The common tag.
        tag: u64,
    },
    /// A machine or application parameter violates dimensional sanity
    /// (non-finite, or signed where physics demands non-negative).
    InvalidParameter {
        /// Parameter name as in the paper's Tables 1–2 (e.g. `tc`, `Wm`).
        name: &'static str,
        /// The offending raw magnitude.
        value: f64,
        /// What the parameter must satisfy.
        requirement: &'static str,
    },
    /// A model-level structural invariant of Eqs. 13–21 failed.
    BrokenInvariant {
        /// Which invariant (e.g. `EEF >= 0`).
        invariant: &'static str,
        /// Human-readable details with the offending values.
        details: String,
    },
    /// An obs span the instrumentation never closed (the recorder had to
    /// force-close it at end of run).
    UnclosedSpan {
        /// Track (rank) id.
        track: usize,
        /// Span name.
        name: String,
        /// Span start, virtual seconds.
        start_s: f64,
    },
    /// Per-track virtual time went backwards: an invalid span interval,
    /// out-of-order span starts, or out-of-order instants/counter samples.
    /// `track == usize::MAX` marks a trace-wide counter track.
    NonMonotoneTrace {
        /// Track (rank) id, or `usize::MAX` for a counter track.
        track: usize,
        /// Offending span/event/counter name.
        name: String,
        /// The timestamp that went backwards, virtual seconds.
        time_s: f64,
        /// The timestamp it had to be at or beyond.
        prev_s: f64,
    },
    /// A counter-track sample that is NaN or infinite — Perfetto renders
    /// such points as gaps and downstream statistics silently poison.
    NonFiniteCounterSample {
        /// Counter track name.
        name: String,
        /// Sample timestamp, virtual seconds.
        time_s: f64,
        /// The offending value, rendered for the report (`NaN`, `inf`, …).
        value: String,
    },
    /// A counter track declaring a unit outside the workspace vocabulary,
    /// so dashboards and the bench differ cannot interpret it.
    UnknownCounterUnit {
        /// Counter track name.
        name: String,
        /// The undeclared unit string.
        unit: String,
    },
    /// A charge span (compute/memory/network/io/wait) not covered by any
    /// enclosing phase span, so per-phase attribution would lose it.
    ChargeOutsidePhase {
        /// Track (rank) id.
        track: usize,
        /// Charge span name.
        name: String,
        /// Charge start, virtual seconds.
        start_s: f64,
        /// Charge end, virtual seconds.
        end_s: f64,
    },
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::DeadlockCycle { edges } => {
                write!(f, "deadlock cycle: ")?;
                join_edges(f, edges)
            }
            Finding::StuckOnFinished { edges } => {
                write!(f, "blocked on a finished rank: ")?;
                join_edges(f, edges)
            }
            Finding::TagMismatch {
                sender,
                receiver,
                sent_tag,
                expected_tag,
            } => write!(
                f,
                "tag mismatch: rank {receiver} waits for tag {expected_tag} from rank \
                 {sender}, which sent tag {sent_tag}"
            ),
            Finding::UnconsumedMessage {
                sender,
                receiver,
                tag,
                bytes,
            } => write!(
                f,
                "unconsumed message: rank {sender} -> rank {receiver} (tag {tag}, \
                 {bytes} B) was never received"
            ),
            Finding::MessageRace {
                senders,
                receiver,
                tag,
            } => write!(
                f,
                "message race: ranks {} and {} send concurrently to rank {receiver} \
                 with tag {tag}",
                senders.0, senders.1
            ),
            Finding::InvalidParameter {
                name,
                value,
                requirement,
            } => {
                write!(
                    f,
                    "invalid parameter: {name} = {value} must be {requirement}"
                )
            }
            Finding::BrokenInvariant { invariant, details } => {
                write!(f, "broken invariant {invariant}: {details}")
            }
            Finding::UnclosedSpan {
                track,
                name,
                start_s,
            } => write!(
                f,
                "unclosed span: {name:?} on track {track} (opened at {start_s:.6} s) \
                 was force-closed at end of run"
            ),
            Finding::NonMonotoneTrace {
                track,
                name,
                time_s,
                prev_s,
            } => {
                if *track == usize::MAX {
                    write!(
                        f,
                        "non-monotone trace: {name} jumps back to {time_s:.6} s \
                         after {prev_s:.6} s"
                    )
                } else {
                    write!(
                        f,
                        "non-monotone trace: {name:?} on track {track} jumps back to \
                         {time_s:.6} s after {prev_s:.6} s"
                    )
                }
            }
            Finding::NonFiniteCounterSample {
                name,
                time_s,
                value,
            } => write!(
                f,
                "non-finite counter sample: {name} = {value} at {time_s:.6} s"
            ),
            Finding::UnknownCounterUnit { name, unit } => write!(
                f,
                "unknown counter unit: {name} declares unit {unit:?}, not in the \
                 workspace vocabulary"
            ),
            Finding::ChargeOutsidePhase {
                track,
                name,
                start_s,
                end_s,
            } => write!(
                f,
                "charge outside phase: {name:?} on track {track} \
                 [{start_s:.6}, {end_s:.6}] s has no enclosing phase span"
            ),
        }
    }
}

fn join_edges(f: &mut std::fmt::Formatter<'_>, edges: &[WaitEdge]) -> std::fmt::Result {
    for (i, e) in edges.iter().enumerate() {
        if i > 0 {
            write!(f, "; ")?;
        }
        write!(f, "{e}")?;
    }
    Ok(())
}
