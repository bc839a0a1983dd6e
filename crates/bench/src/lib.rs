//! Evaluation harness: assembles every table and figure of the paper
//! from the models in the other crates.
//!
//! Each `table*`/`fig*` binary prints one artifact; this library holds
//! the shared data-assembly code so the integration tests can check the
//! artifacts' invariants without scraping stdout.

pub mod artifacts;
pub mod cluster;
pub mod figures;
pub mod fleet;
pub mod lens;
pub mod math;
pub mod metrics_report;
pub mod report;
pub mod summary;

pub use figures::{fig11_data, fig12_data, fig13_data, fig14_data, EvalColumn};
pub use summary::{headline, Summary};
