//! Rank-local accounting core shared by the thread runtime and `simrt`.
//!
//! A [`RankCore`] owns everything a simulated rank accumulates that does
//! *not* depend on how the rank is executed: the virtual clock, workload
//! counters, the typed segment log the energy meter consumes, phase
//! markers, the optional obs span recorder and cached metric handles, and
//! the per-kind device delta powers. [`crate::Ctx`] embeds one and adds the
//! thread-runtime transport (channels, pending buffers, deadlock registry);
//! the `simrt` event engine drives one directly per rank task, so work
//! charges, wait accounting, and collective metrics are bit-identical
//! across the two runtimes by construction.
//!
//! The core has two fidelity modes. In *detail* mode (the thread runtime,
//! and the engine at small `p`) every charge pushes a [`Segment`] and
//! mirrors into the span recorder exactly as `Ctx` always has. With detail
//! off (the engine at `p` in the thousands) charges only accumulate per-kind
//! `(wall, work)` sums; [`RankCore::finish`] then synthesizes one stacked
//! segment per kind whose walls sum to the rank's finish time, which is
//! enough for [`simcluster::EnergyMeter`] — energy is linear in per-kind
//! work plus span — at a few dozen bytes per rank instead of a full log.

use obs::span::{Category, FieldValue};
use obs::TrackRecorder;
use simcluster::units::{Joules, Seconds};
use simcluster::{AccessProfile, Segment, SegmentKind, SegmentLog, VirtualClock};
use std::sync::Arc;

use crate::stats::Counters;
use crate::world::World;

/// Cached handles into the global metrics registry, resolved once per
/// rank at context creation so the hot path is a relaxed atomic add.
pub(crate) struct MpsMetrics {
    pub(crate) messages: Arc<obs::Counter>,
    pub(crate) bytes: Arc<obs::Counter>,
    mem_accesses: Arc<obs::Counter>,
    mem_dram: Arc<obs::Counter>,
    cache_hit_ratio: Arc<obs::Gauge>,
    /// Per-collective counters and histograms, cached by name.
    collectives: Vec<(&'static str, CollectiveMetrics)>,
    /// Per-phase wait-time histograms, cached by phase name.
    phase_waits: Vec<(String, Arc<obs::LogHistogram>)>,
}

/// Cached handles for one collective: `(calls, messages, bytes)` counters
/// plus per-call virtual latency and byte-volume histograms.
pub(crate) struct CollectiveMetrics {
    counters: [Arc<obs::Counter>; 3],
    latency: Arc<obs::LogHistogram>,
    bytes_per_call: Arc<obs::LogHistogram>,
}

impl MpsMetrics {
    pub(crate) fn new() -> Self {
        let reg = obs::global();
        Self {
            messages: reg.counter("mps.messages"),
            bytes: reg.counter("mps.bytes"),
            mem_accesses: reg.counter("mps.mem.accesses"),
            mem_dram: reg.counter("mps.mem.dram_accesses"),
            cache_hit_ratio: reg.gauge("mps.mem.cache_hit_ratio"),
            collectives: Vec::new(),
            phase_waits: Vec::new(),
        }
    }

    /// The cached metric handles of collective `name`.
    fn collective(&mut self, name: &'static str) -> &CollectiveMetrics {
        let idx = match self.collectives.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                let reg = obs::global();
                let handles = CollectiveMetrics {
                    counters: [
                        reg.counter(&format!("mps.collective.{name}.calls")),
                        reg.counter(&format!("mps.collective.{name}.messages")),
                        reg.counter(&format!("mps.collective.{name}.bytes")),
                    ],
                    latency: reg.log_histogram(&format!("mps.collective.{name}.latency_s"), "s"),
                    bytes_per_call: reg
                        .log_histogram(&format!("mps.collective.{name}.bytes_per_call"), "B"),
                };
                self.collectives.push((name, handles));
                self.collectives.len() - 1
            }
        };
        &self.collectives[idx].1
    }

    /// The wait-time histogram of the phase named `phase`.
    fn phase_wait(&mut self, phase: &str) -> &Arc<obs::LogHistogram> {
        let idx = match self.phase_waits.iter().position(|(n, _)| n == phase) {
            Some(i) => i,
            None => {
                let hist = obs::global().log_histogram(&format!("mps.phase.{phase}.wait_s"), "s");
                self.phase_waits.push((phase.to_string(), hist));
                self.phase_waits.len() - 1
            }
        };
        &self.phase_waits[idx].1
    }
}

/// An open collective span, returned by [`RankCore::collective_begin`] and
/// closed by [`RankCore::collective_end`]. Inactive (a no-op pair) when
/// neither tracing nor metrics are enabled.
pub struct CollScope {
    name: &'static str,
    active: bool,
    msgs_before: f64,
    bytes_before: f64,
    t_start: f64,
}

/// What one work step charges a rank, before [`RankCore::apply`] adds it:
/// a device-busy interval and what it adds to its kind's counter. The
/// `simrt` engine records these to replay a repeated loop iteration
/// through the same `apply`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// The busy device: compute, memory or I/O.
    pub kind: SegmentKind,
    /// Device-busy time; the wall clock advances by `α · work`.
    pub work: Seconds,
    /// What the charge adds to its kind's counter: `Wc` instructions,
    /// `Wm` off-chip accesses, or `T_IO` seconds.
    pub count: f64,
}

/// What a finished rank hands back to its runtime.
pub struct FinishedRank {
    /// Workload counters (`Wc`, `Wm`, `M`, `B`, `T_IO`).
    pub stats: Counters,
    /// Coalesced activity log (synthetic per-kind segments in aggregate
    /// mode).
    pub log: SegmentLog,
    /// Virtual finish time, seconds.
    pub finish_s: f64,
    /// Phase markers `(name, virtual time)`.
    pub markers: Vec<(String, f64)>,
    /// The rank's span track, when tracing was enabled.
    pub track: Option<obs::TrackTrace>,
}

/// Index into the per-kind aggregation table (`SegmentKind` order).
fn kind_index(kind: SegmentKind) -> usize {
    match kind {
        SegmentKind::Compute => 0,
        SegmentKind::Memory => 1,
        SegmentKind::Network => 2,
        SegmentKind::Io => 3,
        SegmentKind::Wait => 4,
    }
}

const AGG_KINDS: [SegmentKind; 5] = [
    SegmentKind::Compute,
    SegmentKind::Memory,
    SegmentKind::Network,
    SegmentKind::Io,
    SegmentKind::Wait,
];

/// The execution-agnostic state of one simulated rank.
pub struct RankCore<'w> {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) world: &'w World,
    pub(crate) clock: VirtualClock,
    pub(crate) counters: Counters,
    pub(crate) log: SegmentLog,
    pub(crate) markers: Vec<(String, f64)>,
    /// Span recorder, present only when `world.obs.trace` is set (and the
    /// core runs in detail mode): every instrumented call site pays one
    /// branch when disabled.
    pub(crate) rec: Option<TrackRecorder>,
    /// Cached metric handles, present only when `world.obs.metrics` is set.
    pub(crate) metrics: Option<MpsMetrics>,
    /// Per-kind device delta power `[compute, memory, network, io]` in
    /// watts, precomputed so charge spans carry their energy.
    pub(crate) delta_w: [f64; 4],
    /// Detail mode: push every segment (thread runtime, small-`p` engine).
    detail: bool,
    /// Aggregate-mode per-kind `(wall_s, work_s)` sums, `SegmentKind` order.
    agg: [(f64, f64); 5],
    /// `world.tc()`, computed once: it is fixed for the core's lifetime.
    tc: Seconds,
    /// The last working set charged by [`RankCore::mem_access`] and its
    /// access profile. Kernels sweep the same working set many times in a
    /// row, and the profile is a pure function of it, so a hit returns the
    /// same value a fresh computation would.
    profile: Option<(u64, AccessProfile)>,
}

impl<'w> RankCore<'w> {
    /// A fresh core for `rank` of `size` over `world`. `detail` selects
    /// full segment/span logging; with it off, charges only accumulate
    /// per-kind sums (and no span recorder is created).
    #[must_use]
    pub fn new(rank: usize, size: usize, world: &'w World, detail: bool) -> Self {
        let node = &world.cluster.node;
        let delta_w = [
            node.cpu.delta_power(world.f_hz).raw(),
            node.memory.power.delta().raw(),
            node.nic.delta().raw(),
            node.disk.delta().raw(),
        ];
        Self {
            rank,
            size,
            world,
            clock: VirtualClock::new(),
            counters: Counters::default(),
            log: SegmentLog::new(rank),
            markers: Vec::new(),
            rec: (detail && world.obs.trace).then(|| TrackRecorder::new(rank)),
            metrics: world.obs.metrics.then(MpsMetrics::new),
            delta_w,
            detail,
            agg: [(0.0, 0.0); 5],
            tc: world.tc(),
            profile: None,
        }
    }

    /// This rank's id, `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The world this rank runs in.
    #[must_use]
    pub fn world(&self) -> &World {
        self.world
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock.now().raw()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Charge `instructions` of on-chip computation (`Wc`); see
    /// [`crate::Ctx::compute`].
    pub fn compute(&mut self, instructions: f64) {
        if let Some(c) = self.compute_charge(instructions) {
            self.apply(c);
        }
    }

    /// What [`RankCore::compute`] charges; `None` for no instructions.
    ///
    /// # Panics
    /// Panics on a negative or non-finite count.
    #[must_use]
    pub fn compute_charge(&self, instructions: f64) -> Option<Charge> {
        assert!(
            instructions.is_finite() && instructions >= 0.0,
            "instruction count must be non-negative, got {instructions}"
        );
        (instructions != 0.0).then(|| Charge {
            kind: SegmentKind::Compute,
            work: instructions * self.tc,
            count: instructions,
        })
    }

    /// Charge `accesses` memory accesses against a working set of
    /// `working_set_bytes`; see [`crate::Ctx::mem_access`] for the cache
    /// model split.
    pub fn mem_access(&mut self, accesses: f64, working_set_bytes: u64) {
        for c in self.mem_access_charges(accesses, working_set_bytes) {
            self.apply(c);
        }
    }

    /// What [`RankCore::mem_access`] charges, in order: the off-chip share
    /// as memory time, then the on-chip share as compute time, each left
    /// out when empty. Records the access metrics when they are on.
    ///
    /// # Panics
    /// Panics on a negative or non-finite count.
    pub fn mem_access_charges(
        &mut self,
        accesses: f64,
        working_set_bytes: u64,
    ) -> impl Iterator<Item = Charge> {
        assert!(
            accesses.is_finite() && accesses >= 0.0,
            "access count must be non-negative, got {accesses}"
        );
        if accesses == 0.0 {
            return [None, None].into_iter().flatten();
        }
        let prof = self.access_profile(working_set_bytes);
        let node = &self.world.cluster.node;

        if let Some(metrics) = &self.metrics {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                metrics.mem_accesses.add(accesses as u64);
                metrics.mem_dram.add((accesses * prof.dram_fraction) as u64);
            }
            metrics.cache_hit_ratio.set(1.0 - prof.dram_fraction);
        }

        // Off-chip share: memory workload at flat DRAM latency.
        let dram_accesses = accesses * prof.dram_fraction;
        let dram = (dram_accesses > 0.0).then(|| Charge {
            kind: SegmentKind::Memory,
            work: Seconds::new(dram_accesses * node.memory.dram_latency_s),
            count: dram_accesses,
        });

        // On-chip share: compute time, slowed by DVFS like the core.
        let f_scale = node.cpu.dvfs.nominal() / self.world.f_hz;
        let on_chip_s = accesses * prof.on_chip_s_per_access * f_scale;
        let on_chip = (on_chip_s > 0.0).then(|| Charge {
            kind: SegmentKind::Compute,
            work: Seconds::new(on_chip_s),
            count: on_chip_s / self.tc.raw(),
        });
        [dram, on_chip].into_iter().flatten()
    }

    /// The cache split of accesses to a working set of `working_set_bytes`
    /// on this rank's node, from the one-entry cache when it holds that
    /// working set.
    fn access_profile(&mut self, working_set_bytes: u64) -> AccessProfile {
        if let Some((ws, prof)) = self.profile {
            if ws == working_set_bytes {
                return prof;
            }
        }
        let node = &self.world.cluster.node;
        // Compact rank placement: ranks fill nodes core by core, so up to
        // `cores()` ranks contend for the node's shared cache levels.
        let co_resident = self.size.min(node.cores());
        let prof = node
            .memory
            .access_profile_concurrent(working_set_bytes, co_resident);
        self.profile = Some((working_set_bytes, prof));
        prof
    }

    /// Charge a streaming sweep of `element_touches` elements; see
    /// [`crate::Ctx::mem_stream`].
    pub fn mem_stream(&mut self, element_touches: f64, working_set_bytes: u64) {
        for c in self.mem_stream_charges(element_touches, working_set_bytes) {
            self.apply(c);
        }
    }

    /// What [`RankCore::mem_stream`] charges: a sweep touches whole cache
    /// lines, so it is [`RankCore::mem_access_charges`] of one access per
    /// line.
    pub fn mem_stream_charges(
        &mut self,
        element_touches: f64,
        working_set_bytes: u64,
    ) -> impl Iterator<Item = Charge> {
        const LINE_ELEMS: f64 = 8.0; // 64-byte lines / 8-byte elements
        self.mem_access_charges(element_touches / LINE_ELEMS, working_set_bytes)
    }

    /// Charge `seconds` of flat local I/O.
    pub fn io(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "I/O time must be non-negative, got {seconds}"
        );
        if seconds == 0.0 {
            return;
        }
        self.apply(Charge {
            kind: SegmentKind::Io,
            work: Seconds::new(seconds),
            count: seconds,
        });
    }

    /// Add one charge: its count to the kind's counter, then its busy
    /// interval to the log, advancing the clock by `α · work`. The one
    /// place a work charge reaches the rank's state, whether a step is
    /// interpreted or replayed.
    ///
    /// # Panics
    /// Panics on a network or wait charge: those are
    /// [`RankCore::account_send`]'s and [`RankCore::account_recv`]'s.
    #[inline]
    pub fn apply(&mut self, c: Charge) {
        let counter = match c.kind {
            SegmentKind::Compute => &mut self.counters.wc,
            SegmentKind::Memory => &mut self.counters.wm,
            SegmentKind::Io => &mut self.counters.io_s,
            SegmentKind::Network | SegmentKind::Wait => {
                panic!("{:?} time is not a work charge", c.kind)
            }
        };
        *counter += c.count;
        self.charge(c.kind, c.work);
    }

    /// Record a named phase marker at the current virtual time; with
    /// tracing enabled also opens a top-level phase span.
    pub fn phase(&mut self, name: &str) {
        self.markers.push((name.to_string(), self.now()));
        if let Some(rec) = &mut self.rec {
            let t = self.clock.now().raw();
            rec.begin_phase(name, t);
        }
    }

    /// Push a device-busy segment of `work` seconds, advancing the wall
    /// clock by `α · work`.
    #[inline]
    pub(crate) fn charge(&mut self, kind: SegmentKind, work: Seconds) {
        let wall = self.world.alpha * work;
        let start = self.now();
        if self.detail {
            self.log.push(Segment {
                kind,
                start_s: start,
                wall_s: wall.raw(),
                work_s: work.raw(),
            });
        } else {
            let slot = &mut self.agg[kind_index(kind)];
            slot.0 += wall.raw();
            slot.1 += work.raw();
        }
        self.clock.advance(wall);
        if let Some(rec) = &mut self.rec {
            let (cat, delta_w) = match kind {
                SegmentKind::Compute => (Category::Compute, self.delta_w[0]),
                SegmentKind::Memory => (Category::Memory, self.delta_w[1]),
                SegmentKind::Network => (Category::Network, self.delta_w[2]),
                SegmentKind::Io => (Category::Io, self.delta_w[3]),
                SegmentKind::Wait => (Category::Wait, 0.0),
            };
            let end = start + wall.raw();
            rec.leaf(
                cat.name(),
                cat,
                start,
                end,
                vec![
                    ("work_s", FieldValue::Seconds(work)),
                    (
                        "energy_j",
                        FieldValue::Joules(Joules::new(work.raw() * delta_w)),
                    ),
                ],
            );
        }
    }

    /// Push a wait (idle) segment of `dur` wall seconds. The clock must
    /// already have been advanced past the wait.
    #[inline]
    pub(crate) fn log_wait(&mut self, dur: Seconds) {
        if dur <= Seconds::ZERO {
            return;
        }
        let end = self.now(); // clock already advanced by caller
        if self.detail {
            self.log.push(Segment {
                kind: SegmentKind::Wait,
                start_s: end - dur.raw(),
                wall_s: dur.raw(),
                work_s: 0.0,
            });
        } else {
            self.agg[kind_index(SegmentKind::Wait)].0 += dur.raw();
        }
        if let Some(rec) = &mut self.rec {
            rec.leaf(
                Category::Wait.name(),
                Category::Wait,
                end - dur.raw(),
                end,
                vec![],
            );
        }
        if let Some(metrics) = &mut self.metrics {
            let phase = self
                .markers
                .last()
                .map_or("none", |(name, _)| name.as_str());
            metrics.phase_wait(phase).record(dur.raw());
        }
    }

    /// Account one eager send of `bytes` payload with link time `t_net`:
    /// bumps counters/metrics, charges the NIC-busy time, and returns the
    /// message's arrival time (`start + t_net`, not overlap-squeezed).
    #[inline]
    pub fn account_send(&mut self, bytes: u64, t_net: Seconds) -> Seconds {
        let start = self.clock.now();
        self.counters.messages += 1.0;
        #[allow(clippy::cast_precision_loss)]
        {
            self.counters.bytes += bytes as f64;
        }
        if let Some(metrics) = &self.metrics {
            metrics.messages.inc();
            metrics.bytes.add(bytes);
        }
        self.charge(SegmentKind::Network, t_net);
        start + t_net
    }

    /// Account one receive of a message arriving at `arrival_s`: advance
    /// the clock to the arrival (if it is in this rank's future) and log
    /// the idle wait. Returns the waited duration.
    #[inline]
    pub fn account_recv(&mut self, arrival_s: f64) -> Seconds {
        let waited = self.clock.advance_to(Seconds::new(arrival_s));
        self.log_wait(waited);
        waited
    }

    /// Open a collective span named `name`; close it with
    /// [`RankCore::collective_end`]. With observability disabled the pair
    /// is one branch.
    pub fn collective_begin(&mut self, name: &'static str) -> CollScope {
        if self.rec.is_none() && self.metrics.is_none() {
            return CollScope {
                name,
                active: false,
                msgs_before: 0.0,
                bytes_before: 0.0,
                t_start: 0.0,
            };
        }
        let msgs_before = self.counters.messages;
        let bytes_before = self.counters.bytes;
        let t_start = self.clock.now().raw();
        if let Some(rec) = &mut self.rec {
            rec.enter(name, Category::Collective, t_start);
        }
        CollScope {
            name,
            active: true,
            msgs_before,
            bytes_before,
            t_start,
        }
    }

    /// Close a collective span, attributing the messages and bytes
    /// generated since [`RankCore::collective_begin`] to its metrics.
    pub fn collective_end(&mut self, scope: CollScope) {
        if !scope.active {
            return;
        }
        let msgs = self.counters.messages - scope.msgs_before;
        let bytes = self.counters.bytes - scope.bytes_before;
        if let Some(rec) = &mut self.rec {
            let t = self.clock.now().raw();
            rec.exit(
                t,
                vec![
                    ("messages", FieldValue::F64(msgs)),
                    ("bytes", FieldValue::F64(bytes)),
                ],
            );
        }
        if let Some(metrics) = &mut self.metrics {
            let t_end = self.clock.now().raw();
            let coll = metrics.collective(scope.name);
            let [calls, messages, bytes_c] = &coll.counters;
            calls.inc();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                messages.add(msgs.max(0.0) as u64);
                bytes_c.add(bytes.max(0.0) as u64);
            }
            coll.latency.record(t_end - scope.t_start);
            coll.bytes_per_call.record(bytes.max(0.0));
        }
    }

    /// Seal the core: coalesce (or, in aggregate mode, synthesize) the
    /// activity log, close the span track, and hand back everything a
    /// [`crate::RankOutcome`] needs.
    #[must_use]
    pub fn finish(mut self) -> FinishedRank {
        let finish_s = self.clock.now().raw();
        if !self.detail {
            // One stacked segment per kind; the walls sum to the rank's
            // finish time (every clock advance was a charge or a logged
            // wait), so `SegmentLog::end_s()` — which the energy meter
            // uses as the rank's span contribution — lands on `finish_s`.
            let mut start = 0.0;
            for kind in AGG_KINDS {
                let (wall, work) = self.agg[kind_index(kind)];
                if wall == 0.0 && work == 0.0 {
                    continue;
                }
                self.log.push(Segment {
                    kind,
                    start_s: start,
                    wall_s: wall,
                    work_s: work,
                });
                start += wall;
            }
        }
        self.log.coalesce();
        let track = self.rec.take().map(|r| r.finish(finish_s));
        FinishedRank {
            stats: self.counters,
            log: self.log,
            finish_s,
            markers: self.markers,
            track,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(kind, wall, work)` of every segment a fresh core charges for
    /// `charge`, plus its counter deltas.
    fn charges(
        world: &World,
        charge: impl Fn(&mut RankCore),
    ) -> (Vec<(SegmentKind, u64, u64)>, Counters) {
        let mut core = RankCore::new(0, 8, world, true);
        charge(&mut core);
        let segs = core
            .log
            .segments
            .iter()
            .map(|s| (s.kind, s.wall_s.to_bits(), s.work_s.to_bits()))
            .collect();
        (segs, core.counters)
    }

    /// The one-entry profile cache and the hoisted `tc` charge exactly
    /// what a core computing everything afresh charges: working sets
    /// A, A, B, A (miss, hit, miss, miss), with compute between.
    #[test]
    fn cached_profiles_charge_like_fresh_ones() {
        let world = World::new(simcluster::system_g(), 2.8e9);
        let (small, large) = (16 * 1024, 64 * 1024 * 1024);
        let calls: [&dyn Fn(&mut RankCore); 6] = [
            &|c| c.mem_access(1e5, small),
            &|c| c.mem_access(7e4, small),
            &|c| c.compute(3e4),
            &|c| c.mem_access(2e5, large),
            &|c| c.compute(5e4),
            &|c| c.mem_access(3e5, small),
        ];

        let mut core = RankCore::new(0, 8, &world, true);
        let mut expected_segs = Vec::new();
        let mut expected = Counters::default();
        for call in calls {
            call(&mut core);
            let (segs, counters) = charges(&world, call);
            expected_segs.extend(segs);
            expected.wc += counters.wc;
            expected.wm += counters.wm;
        }
        let segs: Vec<_> = core
            .log
            .segments
            .iter()
            .map(|s| (s.kind, s.wall_s.to_bits(), s.work_s.to_bits()))
            .collect();
        assert_eq!(segs, expected_segs);
        assert_eq!(core.counters.wc.to_bits(), expected.wc.to_bits());
        assert_eq!(core.counters.wm.to_bits(), expected.wm.to_bits());
        assert!(
            core.counters.wm > 0.0,
            "the large working set must reach DRAM"
        );
    }
}
