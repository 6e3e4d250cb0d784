//! The collective families, for per-collective accounting.
//!
//! The collectives' message schedules themselves live once, in
//! [`mps::algo`]: [`crate::TimedCursor`] streams them as the steps both
//! `analyze_plan` and simrt consume, and the thread runtime runs them on
//! real payloads.

/// The collective families, for per-collective accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Dissemination barrier.
    Barrier,
    /// Binomial broadcast.
    Bcast,
    /// Binomial reduction.
    Reduce,
    /// Recursive-doubling allreduce.
    AllReduce,
    /// Ring allgather.
    AllGather,
    /// Pairwise-exchange all-to-all.
    AllToAll,
}

/// Number of collective families.
pub const COLL_KINDS: usize = 6;

impl CollKind {
    /// All families, in index order.
    pub const ALL: [CollKind; COLL_KINDS] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::AllReduce,
        CollKind::AllGather,
        CollKind::AllToAll,
    ];

    /// Index into a `[T; COLL_KINDS]` table.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::AllReduce => 3,
            CollKind::AllGather => 4,
            CollKind::AllToAll => 5,
        }
    }

    /// The span/metric name the `mps` runtime uses for this family.
    #[must_use]
    pub fn scope_name(self) -> &'static str {
        match self {
            CollKind::Barrier => "mps:barrier",
            CollKind::Bcast => "mps:bcast",
            CollKind::Reduce => "mps:reduce",
            CollKind::AllReduce => "mps:allreduce",
            CollKind::AllGather => "mps:allgather",
            CollKind::AllToAll => "mps:alltoall",
        }
    }
}

/// Per-family call/message/byte counters (the statics mirror of the
/// `mps.collective.<name>.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Collective invocations.
    pub calls: u64,
    /// Messages sent from this rank inside the family.
    pub messages: u64,
    /// Bytes sent from this rank inside the family.
    pub bytes: u64,
}
