//! Evaluation harness: assembles every table and figure of the paper
//! from the models in the other crates.
//!
//! [`paper::paper`] collects every table and figure into one document,
//! which the `paper` binary prints and writes as `BENCH_paper.json`;
//! the other binaries print the studies beyond the paper. This library
//! holds the data-assembly code so the integration tests can check the
//! artifacts' invariants without scraping stdout.

pub mod artifacts;
pub mod cluster;
pub mod figures;
pub mod fleet;
pub mod lens;
pub mod math;
pub mod metrics_report;
pub mod paper;
pub mod report;
pub mod summary;
