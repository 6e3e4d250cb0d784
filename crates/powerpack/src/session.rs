//! The PowerPack measurement session API.
//!
//! Mirrors the real framework's workflow: attach to a run, synchronize
//! power data with application phases (the `powerpack_start/stop/tag`
//! pattern), and report per-component and per-phase energy.

use simcluster::units::{Joules, Seconds, Watts};
use simcluster::{ComponentEnergy, EnergyMeter, SegmentLog};

use crate::profile::PowerProfile;

/// Energy attributed to one application phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEnergy {
    /// Phase name (from `mps::Ctx::phase`-style markers).
    pub name: String,
    /// Phase start, virtual seconds (earliest marker across ranks).
    pub start_s: f64,
    /// Phase end, virtual seconds.
    pub end_s: f64,
    /// Energy consumed by the whole system during the phase.
    pub energy_j: Joules,
}

/// The result of a measurement session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Total energy per component.
    pub energy: ComponentEnergy,
    /// The run's span.
    pub span_s: Seconds,
    /// Mean system power.
    pub mean_power_w: Watts,
    /// Per-phase energy breakdown (present when markers were recorded).
    pub phases: Vec<PhaseEnergy>,
}

/// A measurement session over one simulated run.
#[derive(Debug)]
pub struct Session {
    meter: EnergyMeter,
    sample_dt_s: f64,
}

impl Session {
    /// Attach a session to runs on `meter`'s node/frequency, with a default
    /// sampling interval of 1 ms of virtual time.
    pub fn new(meter: EnergyMeter) -> Self {
        Self {
            meter,
            sample_dt_s: 1e-3,
        }
    }

    /// Override the trace sampling interval.
    ///
    /// # Panics
    /// Panics on a non-positive interval.
    pub fn with_sample_interval(mut self, dt_s: f64) -> Self {
        assert!(dt_s > 0.0 && dt_s.is_finite(), "invalid sample interval");
        self.sample_dt_s = dt_s;
        self
    }

    /// The meter used by the session.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Measure a finished run: total and per-phase energy.
    ///
    /// `markers` are per-rank `(name, time)` lists; a phase named `x` spans
    /// from its earliest marker to the earliest marker of the *next* phase
    /// name in timeline order (the paper synchronizes PowerPack traces with
    /// application events the same way).
    pub fn measure(&self, logs: &[&SegmentLog], markers: &[Vec<(String, f64)>]) -> SessionReport {
        assert!(!logs.is_empty(), "no rank logs");
        let owned: Vec<SegmentLog> = logs.iter().map(|l| (*l).clone()).collect();
        let (energy, span) = self.meter.run_energy(&owned);
        let mean_power = if span > Seconds::ZERO {
            energy.total() / span
        } else {
            Watts::ZERO
        };

        // Merge markers across ranks: phase start = earliest occurrence.
        let mut merged: Vec<(String, f64)> = Vec::new();
        for rank_markers in markers {
            for (name, t) in rank_markers {
                match merged.iter_mut().find(|(n, _)| n == name) {
                    Some((_, t0)) => *t0 = t0.min(*t),
                    None => merged.push((name.clone(), *t)),
                }
            }
        }
        merged.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));

        let mut phases = Vec::with_capacity(merged.len());
        for (i, (name, start)) in merged.iter().enumerate() {
            let end = merged.get(i + 1).map_or(span.raw(), |(_, t)| *t);
            if end <= *start {
                continue;
            }
            let energy_j = self.energy_between(&owned, *start, end);
            phases.push(PhaseEnergy {
                name: name.clone(),
                start_s: *start,
                end_s: end,
                energy_j,
            });
        }

        SessionReport {
            energy,
            span_s: span,
            mean_power_w: mean_power,
            phases,
        }
    }

    /// Produce a sampled power trace of the run (the paper's Fig. 10).
    pub fn profile(&self, logs: &[&SegmentLog]) -> PowerProfile {
        PowerProfile::sample(&self.meter, logs, self.sample_dt_s)
    }

    /// Trapezoid-integrated energy of the window `[t0, t1)` across ranks.
    fn energy_between(&self, logs: &[SegmentLog], t0: f64, t1: f64) -> Joules {
        let dt = self.sample_dt_s;
        let steps = (((t1 - t0) / dt).ceil() as usize).max(1);
        let slice = Seconds::new((t1 - t0) / steps as f64);
        let mut e = Joules::ZERO;
        for k in 0..steps {
            let t = t0 + (k as f64 + 0.5) * slice.raw();
            let mut w = Watts::ZERO;
            for log in logs {
                w += self
                    .meter
                    .power_at(log, Seconds::new(t))
                    .into_iter()
                    .sum::<Watts>();
            }
            e += w * slice;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{system_g, Segment, SegmentKind};

    fn session() -> Session {
        Session::new(EnergyMeter::new(system_g().node, 2.8e9))
    }

    fn log_two_phases() -> (SegmentLog, Vec<(String, f64)>) {
        let mut log = SegmentLog::new(0);
        log.push(Segment {
            kind: SegmentKind::Compute,
            start_s: 0.0,
            wall_s: 1.0,
            work_s: 1.0,
        });
        log.push(Segment {
            kind: SegmentKind::Memory,
            start_s: 1.0,
            wall_s: 1.0,
            work_s: 1.0,
        });
        let markers = vec![("compute".to_string(), 0.0), ("memory".to_string(), 1.0)];
        (log, markers)
    }

    #[test]
    fn report_totals_match_meter() {
        let s = session();
        let (log, markers) = log_two_phases();
        let rep = s.measure(&[&log], &[markers]);
        let direct = s.meter().rank_energy(&log, Seconds::new(2.0)).total();
        assert!((rep.energy.total() - direct).abs() < Joules::new(1e-9));
        assert_eq!(rep.span_s, Seconds::new(2.0));
        assert!(rep.mean_power_w > Watts::ZERO);
    }

    #[test]
    fn phase_energies_sum_to_total() {
        let s = session();
        let (log, markers) = log_two_phases();
        let rep = s.measure(&[&log], &[markers]);
        assert_eq!(rep.phases.len(), 2);
        let phase_sum: Joules = rep.phases.iter().map(|p| p.energy_j).sum();
        assert!(
            (phase_sum - rep.energy.total()).abs() / rep.energy.total() < 1e-2,
            "phases {phase_sum} vs total {}",
            rep.energy.total()
        );
    }

    #[test]
    fn compute_phase_uses_more_power_than_memory_phase() {
        // On SystemG the CPU delta exceeds the memory delta.
        let s = session();
        let (log, markers) = log_two_phases();
        let rep = s.measure(&[&log], &[markers]);
        let pc = rep.phases.iter().find(|p| p.name == "compute").unwrap();
        let pm = rep.phases.iter().find(|p| p.name == "memory").unwrap();
        assert!(pc.energy_j > pm.energy_j);
    }

    #[test]
    fn profile_has_configured_interval() {
        let s = session().with_sample_interval(0.25);
        let (log, _) = log_two_phases();
        let prof = s.profile(&[&log]);
        assert_eq!(prof.dt_s, 0.25);
        assert!(prof.samples.len() >= 8);
    }

    #[test]
    fn repeated_markers_take_earliest_time() {
        let s = session();
        let (log, _) = log_two_phases();
        let m0 = vec![("a".to_string(), 0.5)];
        let m1 = vec![("a".to_string(), 0.2)];
        let rep = s.measure(&[&log], &[m0, m1]);
        assert_eq!(rep.phases.len(), 1);
        assert_eq!(rep.phases[0].start_s, 0.2);
    }
}
