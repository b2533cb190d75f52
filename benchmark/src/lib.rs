//! End-to-end and per-layer benchmark of the UTCQ service.
//!
//! The benchmark builds the repository's `utcq` binary, generates a
//! seeded dataset and request stream for one workload, and drives
//! `utcq serve` as a child process over at most two connections from a
//! single generator thread. Every answer is checked byte for byte
//! against an independently opened copy of the container. See
//! `benchmark/WORKLOADS.md` for the workloads, metrics and layer map.

pub mod loadgen;
pub mod probes;
pub mod run;
pub mod server;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
