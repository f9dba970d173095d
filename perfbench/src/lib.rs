//! Seeded end-to-end and per-layer benchmark of the qborrow verifier.
//! See `README.md` for the workloads, metrics and how to run it.

pub mod cold;
pub mod daemon;
pub mod edit;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
