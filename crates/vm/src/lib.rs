#![warn(missing_docs)]

//! A compressed-program processor — the "compressed program processor" of
//! the reproduced paper's Fig 3 — over any [`codense_isa`] backend.
//!
//! Cores (the PowerPC [`machine::Machine`], `codense_mips::Machine`) execute
//! instruction words against architectural state; instruction supply is
//! abstracted behind [`fetch::Fetch`]. The production engine is
//! [`fetch::PredecodedFetcher`]: it parses the packed compressed image
//! (escape detection, dictionary expansion, Huffman decode) once per item
//! and caches the result, and [`fetch::PredecodedFetcher::linear`] serves
//! uncompressed text through the same cache. [`run::run_predecoded_with`]
//! executes either form with a per-step observer for profiling and I-cache
//! scoring.
//!
//! Because the PC domain is nibble addresses in both cases, the *same*
//! loop runs both program forms; the [`kernels`] module supplies real
//! programs to prove equivalence end-to-end, and the differential oracle in
//! `codense-fuzz` checks this engine against itself on native and
//! compressed text. [`mod@reference`] keeps the re-parsing engines the
//! predecoded one is byte-exact with, as an executable specification.
//!
//! # Example
//!
//! ```
//! use codense_core::{Compressor, CompressionConfig};
//! use codense_vm::{kernels, machine::Machine, run_predecoded, PredecodedFetcher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = kernels::fib();
//! let compressed = Compressor::new(CompressionConfig::baseline()).compress(&kernel.module)?;
//! let mut machine = Machine::new(1 << 20);
//! kernel.apply_init(&mut machine);
//! let mut fetch = PredecodedFetcher::new(&compressed);
//! let result = run_predecoded(&mut machine, &mut fetch, 0, 1_000_000)?;
//! assert_eq!(result.exit_code, 6765);
//! # Ok(())
//! # }
//! ```

pub mod fetch;
pub mod kernels;
pub mod machine;
pub mod reference;
pub mod run;

pub use fetch::{Fetch, FetchStats, PredecodedFetcher};
pub use machine::{Core, Machine, MachineError, Outcome};
pub use run::{run_predecoded, run_predecoded_with, RunResult};
