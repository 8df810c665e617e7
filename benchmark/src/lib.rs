//! `pcube-benchmark`: four named workloads, their end-to-end metrics, and the
//! per-layer costs of the P-Cube reproduction, timed from outside. See
//! `README.md` for what each workload is for and what each metric means.

pub mod adapter;
pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
