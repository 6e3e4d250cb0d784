//! # powerpack — power profiling and energy analysis
//!
//! A software analog of the **PowerPack 2.0** framework the paper uses for
//! all its measurements (Ge, Feng, Song, Cameron — the paper's \[20\]):
//! component-level power traces synchronized with application phases, and
//! energy integration per component and per phase.
//!
//! Real PowerPack reads shunt resistors and wall meters; this version
//! samples the simulator's typed activity logs through
//! [`simcluster::EnergyMeter::power_at`]. The semantics match the paper's
//! Fig. 10: per-component power fluctuates over an idle-state baseline while
//! the application computes, accesses memory, or drives the NIC.
//!
//! * [`profile`] — sampled multi-channel power traces.
//! * [`session`] — the start/tag/stop measurement API.
//! * [`report`] — text/CSV rendering of profiles and energy summaries.

#![forbid(unsafe_code)]

pub mod profile;
pub mod report;
pub mod session;

pub use profile::{IntegrateError, PowerProfile, PowerSample};
pub use report::{profile_csv, summary_table};
pub use session::{PhaseEnergy, Session, SessionReport};
