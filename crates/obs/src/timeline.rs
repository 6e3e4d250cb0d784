//! Bounded time-series rings for power/utilization timelines.
//!
//! A [`Timeline`] holds a set of named series, each a bounded ring of
//! `(t_s, value)` samples with a unit. Producers push samples
//! ([`Timeline::record`]) at points in virtual time: power draw from
//! `powerpack` profiles, simrt's per-rank progress.
//! When the ring is full the oldest sample is evicted and counted in
//! `dropped`, so a long-running producer costs bounded memory.
//!
//! Timelines export as Perfetto [`CounterTrack`]s ([`Timeline::attach`]),
//! which the existing trace validator and `analyze --trace` conformance
//! pass accept — power/utilization timelines render next to span tracks
//! in `ui.perfetto.dev`.

use std::collections::VecDeque;

use crate::trace::{CounterTrack, Trace};

/// One bounded series of `(t_s, value)` samples.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (becomes the counter-track name).
    pub name: String,
    /// Unit of the sampled values (e.g. `"W"`, `"tasks"`).
    pub unit: String,
    /// Retained samples, oldest first.
    pub samples: VecDeque<(f64, f64)>,
    /// Samples evicted because the ring was full.
    pub dropped: u64,
}

/// A bounded multi-series time-series ring.
#[derive(Debug, Clone)]
pub struct Timeline {
    capacity: usize,
    series: Vec<Series>,
}

impl Timeline {
    /// A timeline whose series each retain at most `capacity` samples
    /// (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            series: Vec::new(),
        }
    }

    /// Per-series sample capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained series, in first-recorded order.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    fn series_mut(&mut self, name: &str, unit: &str) -> &mut Series {
        if let Some(idx) = self.series.iter().position(|s| s.name == name) {
            return &mut self.series[idx];
        }
        self.series.push(Series {
            name: name.to_string(),
            unit: unit.to_string(),
            samples: VecDeque::new(),
            dropped: 0,
        });
        let last = self.series.len() - 1;
        &mut self.series[last]
    }

    /// Append a sample to `name` (creating the series with `unit` on
    /// first use; the unit of an existing series is kept). Non-finite
    /// samples are dropped — the Perfetto validator rejects them.
    pub fn record(&mut self, name: &str, unit: &str, t_s: f64, value: f64) {
        if !t_s.is_finite() || !value.is_finite() {
            return;
        }
        let cap = self.capacity;
        let series = self.series_mut(name, unit);
        if series.samples.len() == cap {
            series.samples.pop_front();
            series.dropped += 1;
        }
        series.samples.push_back((t_s, value));
    }

    /// The retained samples as Perfetto counter tracks. Samples within a
    /// series are emitted in recorded order; producers sampling a clock
    /// keep them time-ordered, which the trace validator checks.
    #[must_use]
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.series
            .iter()
            .filter(|s| !s.samples.is_empty())
            .map(|s| CounterTrack {
                name: s.name.clone(),
                unit: s.unit.clone(),
                samples: s.samples.iter().copied().collect(),
            })
            .collect()
    }

    /// Attach every non-empty series to `trace` as a counter track.
    pub fn attach(&self, trace: &mut Trace) {
        for track in self.counter_tracks() {
            trace.counters.push(track);
        }
    }

    /// Total samples dropped across series due to ring eviction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.series.iter().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut tl = Timeline::new(3);
        for i in 0..5 {
            tl.record("power.cpu", "W", f64::from(i), 10.0 + f64::from(i));
        }
        let s = &tl.series()[0];
        assert_eq!(s.samples.len(), 3);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.samples.front().copied(), Some((2.0, 12.0)));
        assert_eq!(tl.dropped(), 2);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut tl = Timeline::new(8);
        tl.record("x", "", f64::NAN, 1.0);
        tl.record("x", "", 0.0, f64::INFINITY);
        tl.record("x", "", 1.0, 2.0);
        assert_eq!(tl.series()[0].samples.len(), 1);
    }

    #[test]
    fn attach_exports_each_series_as_a_counter_track() {
        let mut tl = Timeline::new(16);
        for t in [0.5, 1.0] {
            tl.record("pool.queue_depth", "tasks", t, 7.0);
            tl.record("isoee.validate.drift_pct", "%", t, 1.25);
        }
        let mut trace = Trace::new("tl");
        tl.attach(&mut trace);
        assert_eq!(trace.counters.len(), 2);
        assert_eq!(trace.counters[0].samples, vec![(0.5, 7.0), (1.0, 7.0)]);
        assert_eq!(trace.counters[1].unit, "%");
    }
}
