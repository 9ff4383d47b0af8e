//! # amp-ga — MPIKAIA-style parallel genetic algorithm
//!
//! The optimization engine of the AMP reproduction (Woitaszek et al.,
//! GCE 2009). MPIKAIA is the parallel variant of PIKAIA, a decimal-encoded
//! generational GA; AMP runs four independent instances of it per
//! optimization, each evolving 126 candidate stars for 200 iterations over
//! a chain of walltime-limited supercomputer jobs.
//!
//! This crate provides:
//!
//! * [`encoding`] — decimal genotype encoding (digit strings);
//! * [`operators`] — rank selection, one-point crossover, jump/creep
//!   mutation, adaptive mutation rate;
//! * [`ga`] — the generational engine and per-generation deterministic
//!   random streams. Evaluation is written data-parallel across the
//!   population (`par_iter_mut`, where MPIKAIA has MPI ranks) and runs
//!   **sequentially** in this workspace: `compat/rayon` is a sequential
//!   stand-in for the crate, and results do not depend on the order;
//! * [`checkpoint`] — the "restart progress file" enabling multi-job
//!   continuation with bit-identical results;
//! * [`problem`] — the fitness interface plus test landscapes.
//!
//! ```
//! use amp_ga::{Ga, GaConfig, Sphere};
//!
//! let problem = Sphere { target: vec![0.3, 0.7] };
//! let mut ga = Ga::new(&problem, GaConfig { population: 30, generations: 40, ..GaConfig::default() }, 42);
//! ga.run(u32::MAX);
//! assert!(ga.best().fitness > 0.9);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod encoding;
pub mod ga;
pub mod operators;
pub mod problem;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use encoding::Genome;
pub use ga::{Ga, GaConfig, GenStats, Individual};
pub use operators::MutationMode;
pub use problem::{Problem, Ripple, Sphere};
