//! # netsim — interconnect time models
//!
//! Pure analytical time models for the network side of the simulation:
//!
//! * [`hockney`] — the Hockney point-to-point model `t(m) = ts + tw·m`
//!   (the paper's Eq. 17 network term and the basis of its FT analysis,
//!   citing Pjesivac-Grbovic et al. and Thakur).
//! * [`contention`] — a simple concurrency-dependent bandwidth-inflation
//!   model, one of the ways the *simulator* is richer than the paper's
//!   analytical model (which assumes contention-free links).
//!
//! The crate is dependency-free on the rest of the workspace so the
//! analytical model (`isoee`) and the runtime (`mps`) can share it.

#![forbid(unsafe_code)]

pub mod contention;
pub mod hockney;

pub use contention::ContentionModel;
pub use hockney::Hockney;
