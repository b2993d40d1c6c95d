#![warn(missing_docs)]

//! A PowerPC-subset interpreter with a compressed-program fetch path — the
//! "compressed program processor" of the reproduced paper's Fig 3.
//!
//! The [`machine::Machine`] executes decoded instructions against
//! architectural state; instruction supply is abstracted behind
//! [`fetch::Fetch`], with two implementations:
//!
//! * [`fetch::LinearFetcher`] — the ordinary front end over raw words;
//! * [`fetch::CompressedFetcher`] — the modified front end: it parses the
//!   packed compressed image, routes uncompressed instructions straight to
//!   decode, and expands codewords through the on-chip dictionary.
//!
//! Because the machine's PC domain is nibble addresses in both cases, the
//! *same* execution loop ([`run::run`]) runs both program forms; the
//! [`kernels`] module supplies real programs to prove equivalence
//! end-to-end. [`fetch::PredecodedFetcher`] caches parsed items for either
//! form, and [`run::run_predecoded_with`] — the production loop — executes
//! them with a per-step observer for profiling and I-cache scoring.
//!
//! # Example
//!
//! ```
//! use codense_core::{Compressor, CompressionConfig};
//! use codense_vm::{fetch::CompressedFetcher, kernels, machine::Machine, run::run};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = kernels::fib();
//! let compressed = Compressor::new(CompressionConfig::baseline()).compress(&kernel.module)?;
//! let mut machine = Machine::new(1 << 20);
//! kernel.apply_init(&mut machine);
//! let mut fetch = CompressedFetcher::new(&compressed);
//! let result = run(&mut machine, &mut fetch, 0, 1_000_000)?;
//! assert_eq!(result.exit_code, 6765);
//! # Ok(())
//! # }
//! ```

pub mod fetch;
pub mod kernels;
pub mod machine;
pub mod run;

pub use fetch::{CompressedFetcher, Fetch, FetchStats, LinearFetcher, PredecodedFetcher};
pub use machine::{Core, Machine, MachineError, Outcome};
pub use run::{run, run_predecoded, run_predecoded_with, RunResult};
