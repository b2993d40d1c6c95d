//! The execution profiler: instrumented VM runs producing [`Profile`]s.

use codense_core::{telemetry, CompressError, CompressionConfig, Compressor, EncodingKind};
use codense_obj::BasicBlocks;
use codense_vm::kernels::Kernel;
use codense_vm::{run_predecoded, run_predecoded_with, MachineError, PredecodedFetcher};

use crate::artifact::{BlockStat, FetchEvents, Profile};
use crate::subject::Subject;

/// Data-memory size for profiling runs (matches the kernel test harness).
pub const MEM_BYTES: usize = 1 << 20;

/// Why profiling a benchmark failed.
#[derive(Debug)]
pub enum ProfileError {
    /// The VM faulted or ran out of steps.
    Machine(MachineError),
    /// The reference compression failed.
    Compress(CompressError),
    /// A hybrid image failed round-trip verification.
    Verify(codense_core::VerifyError),
    /// A run halted with an exit code other than the kernel's expectation —
    /// the profile would describe a broken execution.
    WrongExit {
        /// Observed exit code.
        got: u32,
        /// Expected exit code.
        want: u32,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Machine(e) => write!(f, "vm error: {e}"),
            ProfileError::Compress(e) => write!(f, "compression error: {e}"),
            ProfileError::Verify(e) => write!(f, "verification error: {e}"),
            ProfileError::WrongExit { got, want } => {
                write!(f, "exit code {got}, expected {want}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<MachineError> for ProfileError {
    fn from(e: MachineError) -> ProfileError {
        ProfileError::Machine(e)
    }
}

impl From<CompressError> for ProfileError {
    fn from(e: CompressError) -> ProfileError {
        ProfileError::Compress(e)
    }
}

impl From<codense_core::VerifyError> for ProfileError {
    fn from(e: codense_core::VerifyError) -> ProfileError {
        ProfileError::Verify(e)
    }
}

/// Profiles one benchmark: an observed native run that records
/// per-instruction and per-basic-block execution counts, for `encoding`
/// (recorded in the [`Profile`]; [`fetch_events`] compresses under it).
///
/// # Errors
///
/// As [`collect_subject`].
pub fn collect(
    kernel: &Kernel,
    encoding: EncodingKind,
    max_steps: u64,
) -> Result<Profile, ProfileError> {
    collect_subject(&Subject::from_kernel(kernel), encoding, max_steps)
}

/// [`collect`] generalized to any [`Subject`], including jump-table-bearing
/// corpus programs whose table seeds differ per fetch domain. Only the
/// native run happens here: no compression, no compressed run.
///
/// # Errors
///
/// [`ProfileError`] if the run faults, exceeds `max_steps`, or exits with
/// the wrong code.
pub fn collect_subject(
    subject: &Subject,
    encoding: EncodingKind,
    max_steps: u64,
) -> Result<Profile, ProfileError> {
    telemetry::PROFILE_RUNS.inc();
    let _phase = telemetry::phase("profile");

    let mut counts = vec![0u64; subject.module.len()];
    let native = run_predecoded_with(
        &mut subject.machine_native(),
        &mut PredecodedFetcher::linear(subject.module.code.clone()),
        0,
        max_steps,
        |pc, _| counts[(pc / 8) as usize] += 1,
    )?;
    check_exit(subject, native.exit_code)?;

    let blocks: Vec<BlockStat> = BasicBlocks::compute(&subject.module)
        .blocks()
        .iter()
        .map(|&(start, end)| BlockStat {
            start,
            end,
            entries: counts[start],
            weight: counts[start..end].iter().sum(),
        })
        .collect();
    telemetry::PROFILE_BLOCKS.add(blocks.len() as u64);
    telemetry::PROFILE_INSNS_COUNTED.add(native.steps);

    Ok(Profile {
        bench: subject.name.clone(),
        encoding,
        insns: subject.module.len(),
        steps: native.steps,
        exit: native.exit_code,
        counts,
        blocks,
    })
}

/// The fetch-path event totals behind the `codense profile` artifact: a
/// reference compression of `subject` under `profile.encoding`, run to its
/// halt. Hybrid selection needs only the counts and never pays for this.
///
/// # Errors
///
/// [`ProfileError`] if the compression fails, or the compressed run faults,
/// exceeds `max_steps`, or exits with the wrong code.
pub fn fetch_events(
    subject: &Subject,
    profile: &Profile,
    max_steps: u64,
) -> Result<FetchEvents, ProfileError> {
    let _phase = telemetry::phase("fetch_events");
    let compressed = Compressor::new(config_for(profile.encoding)).compress(&subject.module)?;
    let run = run_predecoded(
        &mut subject.machine_compressed(&compressed),
        &mut PredecodedFetcher::new(&compressed),
        0,
        max_steps,
    )?;
    check_exit(subject, run.exit_code)?;
    let s = run.stats;
    Ok(FetchEvents {
        // Every uncompressed instruction in the packed stream carries an
        // escape prefix, under all three encodings.
        escapes: s.insns - s.expanded_insns,
        codewords: s.codewords,
        expanded_insns: s.expanded_insns,
        nibbles: s.nibbles_fetched,
        realigns: s.realigns,
    })
}

/// The configuration every profile-guided compression uses under
/// `encoding`: 4-instruction entries, the encoding's full codeword space.
pub(crate) fn config_for(encoding: EncodingKind) -> CompressionConfig {
    CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding }
}

/// `Ok` when a run halted with the subject's expected exit code.
pub(crate) fn check_exit(subject: &Subject, got: u32) -> Result<(), ProfileError> {
    let want = subject.expected;
    (got == want).then_some(()).ok_or(ProfileError::WrongExit { got, want })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn fib_profile_is_consistent() {
        let kernel = bench::bench("fib").unwrap();
        let p = collect(&kernel, EncodingKind::NibbleAligned, 1_000_000).unwrap();
        assert_eq!(p.exit, kernel.expected);
        assert_eq!(p.total_weight(), p.steps);
        assert_eq!(p.counts.iter().sum::<u64>(), p.steps);
        assert_eq!(p.encoding, EncodingKind::NibbleAligned);
        let f = fetch_events(&Subject::from_kernel(&kernel), &p, 1_000_000).unwrap();
        // The compressed run executes the same dynamic path.
        assert_eq!(f.escapes + f.expanded_insns, p.steps);
        // The cold tail never executes.
        let plain = codense_vm::kernels::all().into_iter().find(|k| k.name == "fib").unwrap();
        assert!(p.counts[plain.module.len()..].iter().all(|&c| c == 0));
        // Blocks tile the program.
        assert_eq!(p.blocks.first().unwrap().start, 0);
        assert_eq!(p.blocks.last().unwrap().end, p.insns);
    }

    #[test]
    fn profiles_are_deterministic() {
        let kernel = bench::bench("gcd").unwrap();
        let a = collect(&kernel, EncodingKind::Baseline, 1_000_000).unwrap();
        let b = collect(&kernel, EncodingKind::Baseline, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
