//! The repository benchmark: four pipeline workloads with end-to-end job
//! metrics, and a traced run that splits each job into its layers from
//! outside the library crates. See `README.md` for how to run it and
//! read the output.

#![forbid(unsafe_code)]

pub mod golden;
pub mod metrics;
pub mod probe;
pub mod replica;
pub mod roundtrip;
pub mod trace;
pub mod workloads;
