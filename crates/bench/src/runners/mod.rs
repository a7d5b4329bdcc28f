//! One runner per paper table/figure. Each `run` function prints its
//! report to stdout and returns it as a string (so integration tests can
//! assert on the content without capturing stdout).

pub mod ablation;
pub mod energy;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod ipin;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod throughput;

/// Shared error type of the runners.
pub type RunnerResult = Result<String, Box<dyn std::error::Error>>;
