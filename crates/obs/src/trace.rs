//! The assembled trace of one run: per-rank span tracks, counter tracks
//! (e.g. PowerPack power samples), and run metadata.

use crate::span::{EventRecord, SpanRecord};

/// All spans and instant events of one track (one rank).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackTrace {
    /// Track (rank) id.
    pub track: usize,
    /// Closed spans, sorted by start time (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Instant events in record order.
    pub instants: Vec<EventRecord>,
}

impl TrackTrace {
    /// Latest span end on the track (0 when empty).
    #[must_use]
    pub fn end_s(&self) -> f64 {
        self.spans.iter().map(|s| s.end_s).fold(0.0, f64::max)
    }
}

/// A sampled numeric series rendered as a Perfetto counter track.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (e.g. `power cpu`).
    pub name: String,
    /// Unit suffix for display (e.g. `W`).
    pub unit: String,
    /// `(virtual time s, value)` samples in time order.
    pub samples: Vec<(f64, f64)>,
}

/// The complete observability record of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Run name (shown as the Perfetto process name).
    pub name: String,
    /// One span track per rank, indexed by rank.
    pub tracks: Vec<TrackTrace>,
    /// Counter tracks (power samples, metric series).
    pub counters: Vec<CounterTrack>,
    /// Free-form run metadata `(key, value)` pairs.
    pub meta: Vec<(String, String)>,
}

impl Trace {
    /// An empty trace named `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Append a finished track.
    pub fn push_track(&mut self, track: TrackTrace) {
        self.tracks.push(track);
    }

    /// Add a counter track from `(t_s, value)` samples.
    pub fn add_counter_track(&mut self, name: &str, unit: &str, samples: Vec<(f64, f64)>) {
        self.counters.push(CounterTrack {
            name: name.to_string(),
            unit: unit.to_string(),
            samples,
        });
    }

    /// Attach a metadata pair.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Total number of spans across tracks.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Latest virtual time in the trace (span ends and counter samples).
    #[must_use]
    pub fn end_s(&self) -> f64 {
        let spans = self
            .tracks
            .iter()
            .map(TrackTrace::end_s)
            .fold(0.0, f64::max);
        let counters = self
            .counters
            .iter()
            .flat_map(|c| c.samples.iter().map(|(t, _)| *t))
            .fold(0.0, f64::max);
        spans.max(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, TrackRecorder};

    fn tiny_trace() -> Trace {
        let mut rec = TrackRecorder::new(0);
        rec.begin_phase("p", 0.0);
        rec.leaf("compute", Category::Compute, 0.0, 0.5, vec![]);
        let mut trace = Trace::new("test");
        trace.push_track(rec.finish(1.0));
        trace.add_counter_track("power cpu", "W", vec![(0.0, 10.0), (0.5, 20.0)]);
        trace.set_meta("p", "1");
        trace
    }

    #[test]
    fn counts_and_end() {
        let t = tiny_trace();
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.end_s(), 1.0);
        assert_eq!(t.tracks[0].end_s(), 1.0);
    }
}
