//! Stride-enumerated gate-application kernels and per-operation apply plans.
//!
//! Applying a `k`-qudit gate to an `n`-qudit state touches the state in
//! `d^(n-k)` independent *amplitude groups*: sets of `d^k` amplitudes that
//! agree on every non-target qudit. The seed implementation found those
//! groups by scanning all `d^n` flat indices and testing each one for
//! "targeted digits all zero" — with a `pow` in the inner check. This module
//! replaces that scan with direct enumeration:
//!
//! * **Odometer enumeration** (`ApplyPlan::for_each_run`): the group base
//!   indices are generated by counting in mixed radix over the *free* (non-
//!   target, non-control) qudit strides. Exactly `d^(n-k-c)` bases are
//!   visited (`c` = number of controls) and the inner loop contains only
//!   adds and compares — no `pow`, no division, no modulo.
//! * **Run blocking**: whenever the least-significant free qudits form an
//!   unbroken counter (strides `s, s·d, s·d², …`), consecutive group bases
//!   advance by the constant `run_stride` `s`. The enumerator emits whole
//!   *runs* `(base, count)` instead of single bases, and the kernels walk
//!   each run directly: permutation cycles become block copies
//!   (`memcpy`-speed, full cache-line utilisation), diagonal scales become
//!   contiguous span sweeps, and dense gates multiply group by group in
//!   place (blocks of at most four amplitudes) or tile by tile (larger
//!   blocks).
//! * **In-place dense kernel** (`dense_in_place`): a dense gate whose block
//!   holds `B ≤ 4` amplitudes (`k = 1` at `d ≤ 4`, `k = 2` at `d = 2` —
//!   every dense gate of the three Figure 11 programs at `Physical`) is
//!   monomorphised over `B`. Each group's `B` amplitudes are loaded once
//!   from the interleaved buffer, all `B` output rows accumulate in
//!   registers at the same time, and the rows are stored back: no scratch,
//!   no gather and no scatter.
//! * **Tiled dense kernel** (`run_dense_tiled`): larger blocks (`k = 2` at
//!   `d ≥ 3`, `k ≥ 3`, `d ≥ 5`) would need more accumulators than there
//!   are registers, so long runs gather a tile of groups into split re/im
//!   lanes and multiply vectorised *across groups*; short runs take a
//!   per-group gather–scatter kernel.
//! * **SIMD levels** ([`SimdLevel`]): on x86-64 an explicit AVX2+FMA path
//!   (selected once per process by runtime feature detection, overridable
//!   with the `QUDIT_SIMD` environment variable) multiplies two groups per
//!   instruction in place (interleaved `re, im` pairs) and four per
//!   instruction in the tiles (split lanes). Both dense kernels round
//!   identically: the in-place kernel repeats the tiled kernel's FMA chain
//!   and its scalar tail group for group, so the choice between them never
//!   moves an amplitude. Non-x86 hosts and pre-AVX2 CPUs take the scalar
//!   fallback — there are no external SIMD crates involved.
//! * **Apply plans** ([`ApplyPlan`]): the per-operation precomputation
//!   (target strides, gather offsets, control offset, matrix in flat
//!   row-major form plus split re/im lanes for the tiled and diagonal
//!   kernels, kernel selection, run shape) is done once and reused —
//!   the trajectory simulator replays the same circuit thousands of times,
//!   so plans are built per [`Operation`], not per application.
//! * **Structural kernels**: a sparse permutation fast path handles
//!   classical gates (`X`, `X+1`, `X−1`, level swaps — applied as
//!   precomputed index cycles, no complex arithmetic at all) and a diagonal
//!   kernel handles phase-type gates.
//! * **Parallelism**: when `ApplyPlan::should_parallelize` estimates
//!   enough per-group work (groups × flops-per-group, not just state
//!   length), the groups are partitioned into contiguous ranges and
//!   processed by rayon workers; groups never overlap, so workers are
//!   data-race free by construction. When the targets are the
//!   least-significant qudits the groups are literally contiguous chunks of
//!   the amplitude buffer and the parallel path uses safe chunk splitting.

use qudit_circuit::passes::KERNEL_CLASS_TOL;
use qudit_circuit::{KernelClass, Operation};
use qudit_core::{CMatrix, Complex, StateVector};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Historical floor on state length for parallel dispatch, kept for the
/// density backend's elementwise sweeps (trace, fidelity, renormalise).
///
/// Kernel fan-out no longer keys on this alone: [`ApplyPlan`] estimates the
/// total arithmetic (groups × per-group flops, see [`PAR_MIN_WORK`]), so a
/// fused dense block on a mid-size state can fan out while a cheap diagonal
/// on a big state stays sequential.
pub const PAR_MIN_AMPS: usize = 1 << 14;

/// Minimum estimated work (in amplitude-operation units — one unit ≈ one
/// complex load/store or multiply-add) before a kernel fans out to rayon
/// workers. Below this the per-thread spawn cost outweighs the work;
/// single-threaded hosts always take the sequential path.
///
/// Calibrated so the dense `k = 1` boundary matches the measured
/// [`PAR_MIN_AMPS`] behaviour (fan out from ≈ 9 qutrits) while a `k = 2`
/// dense block (`d⁴` flops/group) fans out a register earlier and a
/// permutation/diagonal sweep (`d` moves/group) two registers later.
pub const PAR_MIN_WORK: usize = 1 << 17;

/// Minimum plan run length before a dense gate on a block of more than
/// [`IN_PLACE_MAX_BLOCK`] amplitudes switches from the per-group
/// gather–scatter kernel to the tiled split-lane (SIMD-capable) kernel:
/// one AVX2 vector holds four f64 lanes, so shorter runs cannot fill a
/// register. Smaller blocks always take the in-place kernel.
const RUN_DENSE_MIN: usize = 4;

/// Groups per tile in the tiled dense kernel (blocks of more than
/// [`IN_PLACE_MAX_BLOCK`] amplitudes): bounds the split-lane scratch
/// (`2 · block · DENSE_TILE` f64) to stay L1/L2-resident even for `k = 2`
/// qutrit blocks.
const DENSE_TILE: usize = 128;

/// Largest dense block the in-place kernel serves. A block of `B`
/// amplitudes keeps `B` inputs and `B` accumulators in AVX2 registers;
/// at `B = 9` (`k = 2` qutrits) that is more than the sixteen ymm
/// registers hold, so larger blocks stay on the tiled kernel.
const IN_PLACE_MAX_BLOCK: usize = 4;

/// Widest register a plan addresses: the run odometer keeps one digit per
/// free qudit in a fixed array. `d^n` overflows `usize` before `n` reaches
/// 64 for every `d ≥ 2`.
const MAX_QUDITS: usize = 64;

/// Amplitudes per tile in the blocked permutation rotation (32 KiB — L1
/// sized). Tiling keeps the rotation's save-buffer cache-resident, so a
/// cycle of length `L` costs `L` block reads + `L` block writes of DRAM
/// traffic instead of `L+1` of each through a buffer-sized temporary.
const PERM_TILE: usize = 2048;

/// Tolerance for recognising structural matrices (permutations, diagonals).
/// This is the compiler's classification tolerance, shared so the
/// specialization tags of `qudit_circuit::passes` and the kernel actually
/// dispatched can never disagree.
const PERM_TOL: f64 = KERNEL_CLASS_TOL;

/// Which instruction set the kernels use for complex arithmetic.
///
/// Resolved once per process by [`simd_level`]; the equivalence tests force
/// both variants through [`ApplyPlan::apply_forced_simd`] so each stays
/// green regardless of the host CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar f64 arithmetic (the tiled kernel's split lanes stay
    /// autovectorizer-friendly).
    Scalar,
    /// Explicit `core::arch::x86_64` AVX2+FMA intrinsics, four f64 lanes
    /// per instruction. Only ever selected when the running CPU reports
    /// both features.
    Avx2,
}

/// The SIMD level used by [`ApplyPlan::apply`], resolved once per process.
///
/// Runtime feature detection picks AVX2+FMA when the CPU supports both.
/// The `QUDIT_SIMD` environment variable overrides detection: `off`,
/// `scalar` or `0` force the scalar path; `avx2` (or `on`) requests the
/// AVX2 path but still falls back to scalar when the CPU lacks it, so CI
/// can force-exercise both paths on any runner.
pub fn simd_level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("QUDIT_SIMD").ok().as_deref() {
        Some("off") | Some("scalar") | Some("0") => SimdLevel::Scalar,
        _ => detect_simd(),
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> SimdLevel {
    SimdLevel::Scalar
}

/// Precomputes the gather offsets of a `d^k` amplitude block from the
/// per-target strides (most significant target first).
///
/// Shared by the plan builder and the naive reference oracle so the two
/// paths cannot drift apart.
pub(crate) fn block_offsets(dim: usize, strides: &[usize]) -> Vec<usize> {
    let k = strides.len();
    let block = dim.pow(k as u32);
    let mut offsets = vec![0usize; block];
    for (b, offset) in offsets.iter_mut().enumerate() {
        let mut rem = b;
        let mut off = 0usize;
        for i in (0..k).rev() {
            off += (rem % dim) * strides[i];
            rem /= dim;
        }
        *offset = off;
    }
    offsets
}

/// A dense matrix stored as separate row-major `re`/`im` f64 lanes.
///
/// The split layout is what lets the dense run kernels do complex
/// multiply-accumulate as purely vertical f64 operations (no shuffles),
/// both in the scalar fallback and the AVX2 path.
#[derive(Clone, Debug, PartialEq)]
struct SplitMatrix {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitMatrix {
    fn of(flat: &[Complex]) -> Self {
        SplitMatrix {
            re: flat.iter().map(|c| c.re).collect(),
            im: flat.iter().map(|c| c.im).collect(),
        }
    }
}

/// Which kernel a plan dispatches to.
#[derive(Clone, Debug, PartialEq)]
enum PlanKind {
    /// The matrix is the identity: applying the plan is a no-op.
    Identity,
    /// The matrix is a basis permutation, stored as its non-trivial cycles
    /// expressed directly as amplitude offsets within a group.
    /// `flat` concatenates the cycles; `bounds[i]` is the end (exclusive) of
    /// cycle `i` in `flat`. Flat storage keeps the per-group loop free of
    /// nested-`Vec` pointer chasing — this kernel runs once per group for
    /// every classical gate in a circuit. Over contiguous runs the cycle
    /// rotation becomes whole-block copies.
    Permutation {
        flat: Vec<usize>,
        bounds: Vec<usize>,
    },
    /// The matrix is diagonal (phase-type gate / diagonal Kraus operator):
    /// each amplitude is scaled by its diagonal entry — `block` multiplies
    /// per group instead of `block²`, and no gather/scatter scratch. Over
    /// contiguous runs each diagonal entry scales one contiguous span.
    Diagonal {
        diag: Vec<Complex>,
        split: SplitMatrix,
    },
    /// Dense gate on a block of at most [`IN_PLACE_MAX_BLOCK`] amplitudes,
    /// multiplied in place by `dense_in_place`.
    DenseInPlace { matrix: Vec<Complex> },
    /// Dense gate on a larger block: tiled split-lane multiply over long
    /// runs, per-group gather–scatter over short ones.
    Dense {
        matrix: Vec<Complex>,
        split: SplitMatrix,
    },
}

/// A precompiled application of one unitary to specific qudits of a state
/// of fixed shape (`dim`, `num_qudits`).
///
/// Build once with [`ApplyPlan::for_matrix`] / [`ApplyPlan::for_operation`],
/// then call [`ApplyPlan::apply`] any number of times. Plans are immutable
/// and [`Sync`], so one plan can serve many worker threads (the trajectory
/// simulator shares a compiled circuit across all Monte Carlo trials).
#[derive(Clone, Debug)]
pub struct ApplyPlan {
    dim: usize,
    num_qudits: usize,
    /// `dim^num_qudits` — the state length this plan expects.
    len: usize,
    /// `dim^k` where `k` is the number of targets.
    block: usize,
    /// Amplitude offset of each local basis state within a group.
    offsets: Vec<usize>,
    /// Flat-index contribution of the control digits (0 when uncontrolled).
    control_offset: usize,
    /// Strides of the free qudits, most significant first.
    free_strides: Vec<usize>,
    /// Number of amplitude groups: `dim^(#free qudits)`.
    groups: usize,
    /// Whether the groups are contiguous runs of the amplitude buffer
    /// (targets are exactly the least-significant qudits, no controls).
    contiguous: bool,
    /// Run shape: `run` consecutive group indices have bases that advance
    /// by the constant `run_stride` (the trailing `run_digits` free strides
    /// form an unbroken mixed-radix counter). `run == 1` when the least
    /// significant free stride chain is empty.
    run: usize,
    run_stride: usize,
    run_digits: usize,
    kind: PlanKind,
}

impl ApplyPlan {
    /// Builds a plan applying `matrix` to the listed `qudits` (most
    /// significant first) of a `dim^num_qudits` state.
    ///
    /// # Panics
    ///
    /// Panics if the matrix size does not equal `dim^qudits.len()`, a qudit
    /// index is out of range, or a qudit index repeats.
    pub fn for_matrix(dim: usize, num_qudits: usize, matrix: &CMatrix, qudits: &[usize]) -> Self {
        Self::new(dim, num_qudits, matrix, qudits, &[])
    }

    /// Builds a plan for an [`Operation`] (gate + controls) on a register of
    /// `num_qudits` qudits of the gate's dimension.
    ///
    /// # Panics
    ///
    /// Panics if any qudit index is out of range, repeats, or a control
    /// level is not below the gate dimension.
    pub fn for_operation(num_qudits: usize, op: &Operation) -> Self {
        Self::new(
            op.gate().dim(),
            num_qudits,
            op.gate().matrix(),
            op.targets(),
            &op.control_pairs(),
        )
    }

    /// Builds a plan with explicit `(qudit, activation level)` controls.
    ///
    /// # Panics
    ///
    /// See [`ApplyPlan::for_matrix`]; additionally panics if a control
    /// repeats or overlaps a target, a control level is `>= dim`, or the
    /// register is wider than 64 qudits or its `dim^num_qudits` amplitudes
    /// overflow `usize`.
    pub fn new(
        dim: usize,
        num_qudits: usize,
        matrix: &CMatrix,
        targets: &[usize],
        controls: &[(usize, usize)],
    ) -> Self {
        let n = num_qudits;
        let len = dim
            .checked_pow(n as u32)
            .filter(|_| n <= MAX_QUDITS)
            .expect("a dim^num_qudits register must be addressable");
        let k = targets.len();
        let block = dim.pow(k as u32);
        assert_eq!(matrix.rows(), block, "matrix size must be dim^k");
        assert_eq!(matrix.cols(), block, "matrix size must be dim^k");

        let mut seen = vec![false; n];
        for &q in targets {
            assert!(q < n, "qudit index {q} out of range");
            assert!(!seen[q], "repeated qudit index {q}");
            seen[q] = true;
        }
        for &(q, level) in controls {
            assert!(q < n, "qudit index {q} out of range");
            assert!(!seen[q], "repeated qudit index {q}");
            assert!(
                level < dim,
                "control level {level} out of range for dim {dim}"
            );
            seen[q] = true;
        }

        // Qudit q is the q-th most significant digit: stride dim^(n-1-q).
        let stride_of = |q: usize| dim.pow((n - 1 - q) as u32);
        let t_strides: Vec<usize> = targets.iter().map(|&q| stride_of(q)).collect();
        let offsets = block_offsets(dim, &t_strides);
        let control_offset: usize = controls
            .iter()
            .map(|&(q, level)| level * stride_of(q))
            .sum();
        let free_strides: Vec<usize> = (0..n).filter(|&q| !seen[q]).map(stride_of).collect();
        let groups = dim.pow(free_strides.len() as u32);

        // Contiguous ⇔ no controls and the targets are exactly the k
        // least-significant qudits (in any order): the offsets then form a
        // permutation of 0..block and each group is one buffer chunk.
        let mut sorted_strides = t_strides.clone();
        sorted_strides.sort_unstable();
        let contiguous = controls.is_empty()
            && sorted_strides
                .iter()
                .enumerate()
                .all(|(i, &s)| s == dim.pow(i as u32));

        // Run shape: the longest suffix of free strides forming a pure
        // counter s, s·d, s·d², … Consecutive group indices within such a
        // chain have bases base, base+s, base+2s, …, so kernels can walk
        // `run` groups as one strided (s > 1) or contiguous (s == 1) tile.
        let mut run = 1usize;
        let mut run_digits = 0usize;
        let run_stride = free_strides.last().copied().unwrap_or(1);
        let mut expect = run_stride;
        for &fs in free_strides.iter().rev() {
            if fs != expect {
                break;
            }
            run *= dim;
            run_digits += 1;
            expect *= dim;
        }

        let kind = match matrix.as_permutation(PERM_TOL) {
            Some(perm) => {
                let (flat, bounds) = permutation_cycles(&perm, &offsets);
                if flat.is_empty() {
                    PlanKind::Identity
                } else {
                    PlanKind::Permutation { flat, bounds }
                }
            }
            None => match matrix.as_diagonal(PERM_TOL) {
                Some(diag) => {
                    let split = SplitMatrix::of(&diag);
                    PlanKind::Diagonal { diag, split }
                }
                None => {
                    let flat = matrix.as_slice().to_vec();
                    if (2..=IN_PLACE_MAX_BLOCK).contains(&block) {
                        PlanKind::DenseInPlace { matrix: flat }
                    } else {
                        let split = SplitMatrix::of(&flat);
                        PlanKind::Dense {
                            matrix: flat,
                            split,
                        }
                    }
                }
            },
        };

        ApplyPlan {
            dim,
            num_qudits,
            len,
            block,
            offsets,
            control_offset,
            free_strides,
            groups,
            contiguous,
            run,
            run_stride,
            run_digits,
            kind,
        }
    }

    /// The per-qudit dimension the plan was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The register width the plan was built for.
    pub fn num_qudits(&self) -> usize {
        self.num_qudits
    }

    /// The amplitude-group size `d^k`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The number of amplitude groups the kernel visits: `d^(n-k-c)`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Amplitude offset of each local basis state within a group.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Base advance between consecutive groups inside a run.
    pub(crate) fn run_stride(&self) -> usize {
        self.run_stride
    }

    /// Whether the plan dispatches to the sparse permutation kernel (or is
    /// an outright no-op for identity gates).
    pub fn is_permutation(&self) -> bool {
        matches!(self.kind, PlanKind::Identity | PlanKind::Permutation { .. })
    }

    /// The structural class of the kernel this plan dispatches to — the
    /// same classification the compiler's specialization pass tags
    /// operations with ([`KernelClass::of_operation`]), so post-pass tags
    /// and actual dispatch can be cross-checked.
    pub fn kernel_class(&self) -> KernelClass {
        match &self.kind {
            PlanKind::Identity => KernelClass::Identity,
            PlanKind::Permutation { .. } => KernelClass::Permutation,
            PlanKind::Diagonal { .. } => KernelClass::Diagonal,
            PlanKind::DenseInPlace { .. } | PlanKind::Dense { .. } => KernelClass::Dense,
        }
    }

    /// Applies the plan to `state` in place, fanning out to rayon workers
    /// when `ApplyPlan::should_parallelize` says the work warrants it.
    ///
    /// # Panics
    ///
    /// Panics if the state's dimension or width does not match the plan.
    pub fn apply(&self, state: &mut StateVector) {
        self.apply_forced(state, self.should_parallelize());
    }

    /// Estimated kernel work in amplitude-operation units: groups × the
    /// per-group cost of the dispatched kernel. A permutation moves
    /// `|cycles|` amplitudes per group, a diagonal scales `block`, and a
    /// dense block multiplies `block²` matrix entries (≈ 4 flops each).
    pub(crate) fn work_estimate(&self) -> usize {
        let per_group = match &self.kind {
            PlanKind::Identity => 0,
            PlanKind::Permutation { flat, .. } => flat.len(),
            PlanKind::Diagonal { .. } => self.block,
            PlanKind::DenseInPlace { .. } | PlanKind::Dense { .. } => 4 * self.block * self.block,
        };
        self.groups.saturating_mul(per_group)
    }

    /// Whether [`ApplyPlan::apply`] would fan out to rayon workers for this
    /// plan on the current host.
    ///
    /// The decision weighs *work*, not state length: a fused `k = 2` dense
    /// block does ~`d⁴` flops per group while a diagonal does `d` — so the
    /// dense block fans out on a mid-size register where the diagonal stays
    /// sequential on a larger one.
    pub(crate) fn should_parallelize(&self) -> bool {
        self.groups >= 2 && rayon::current_num_threads() > 1 && self.work_estimate() >= PAR_MIN_WORK
    }

    /// Applies the plan strictly on the calling thread.
    ///
    /// Use this from code that is *already* running one task per core —
    /// e.g. the trajectory simulator's per-trial loop — where nested
    /// fan-out would oversubscribe the machine instead of helping.
    pub fn apply_sequential(&self, state: &mut StateVector) {
        self.apply_forced(state, false);
    }

    /// Applies the plan with the sequential/parallel decision made by the
    /// caller. Exposed for the equivalence tests and benches, which must
    /// exercise the parallel dispatch regardless of host core count.
    #[doc(hidden)]
    pub fn apply_forced(&self, state: &mut StateVector, parallel: bool) {
        self.apply_forced_simd(state, parallel, simd_level());
    }

    /// Applies the plan with both the parallel decision *and* the SIMD
    /// level forced by the caller. Exposed for the equivalence tests, which
    /// compare the scalar and AVX2 paths against each other and the
    /// reference oracle on any host.
    #[doc(hidden)]
    pub fn apply_forced_simd(&self, state: &mut StateVector, parallel: bool, simd: SimdLevel) {
        assert_eq!(state.dim(), self.dim, "dimension mismatch");
        assert_eq!(state.num_qudits(), self.num_qudits, "width mismatch");
        self.apply_amplitudes_simd(state.amplitudes_mut(), parallel, simd);
    }

    /// Applies the plan to a raw amplitude buffer of length
    /// `dim^num_qudits`, with the parallel decision made by the caller.
    ///
    /// The buffer does not have to be a normalised state vector — the
    /// density-matrix backend uses this to treat a vectorised `ρ` (a
    /// `d^n × d^n` matrix stored row-major) as a `2n`-qudit amplitude
    /// buffer and apply `U` to the row digits and `conj(U)` to the column
    /// digits.
    ///
    /// # Panics
    ///
    /// Panics if `amps.len() != dim^num_qudits` for the plan's shape.
    pub fn apply_amplitudes(&self, amps: &mut [Complex], parallel: bool) {
        self.apply_amplitudes_simd(amps, parallel, simd_level());
    }

    /// [`ApplyPlan::apply_amplitudes`] with the SIMD level forced.
    #[doc(hidden)]
    pub fn apply_amplitudes_simd(&self, amps: &mut [Complex], parallel: bool, simd: SimdLevel) {
        assert_eq!(amps.len(), self.len, "amplitude buffer length mismatch");
        if matches!(self.kind, PlanKind::Identity) {
            return;
        }
        if !parallel {
            self.run_groups(AmpsPtr::new(amps), 0, self.groups, simd);
        } else if self.contiguous {
            self.apply_contiguous_parallel(amps, simd);
        } else {
            self.apply_strided_parallel(amps, simd);
        }
    }

    /// Contiguous layout: every group is one `block`-sized chunk of the
    /// buffer, so the parallel path stays in safe code — each worker gets a
    /// disjoint `&mut` run of whole groups. Within a run the group bases are
    /// `0, block, 2·block, …`, which is exactly what the odometer emits for
    /// a contiguous plan, so `run_groups` is reused unchanged.
    fn apply_contiguous_parallel(&self, amps: &mut [Complex], simd: SimdLevel) {
        let threads = rayon::current_num_threads().min(self.groups);
        let groups_per_worker = self.groups.div_ceil(threads);
        amps.par_chunks_mut(groups_per_worker * self.block)
            .for_each(|chunk| {
                self.run_groups(AmpsPtr::new(chunk), 0, chunk.len() / self.block, simd);
            });
    }

    /// Strided layout: groups interleave in the buffer, so workers share the
    /// allocation through a raw pointer. Groups are disjoint index sets, so
    /// assigning each group to exactly one worker makes the writes
    /// race-free.
    fn apply_strided_parallel(&self, amps: &mut [Complex], simd: SimdLevel) {
        let threads = rayon::current_num_threads().min(self.groups);
        let chunk = self.groups.div_ceil(threads);
        let shared = AmpsPtr::new(amps);
        (0..threads).into_par_iter().for_each(|t| {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(self.groups);
            if lo < hi {
                self.run_groups(shared, lo, hi, simd);
            }
        });
    }

    /// Runs the selected kernel over the groups `start..end`.
    ///
    /// The kernel kind is matched once out here; the per-group inner loops
    /// contain no `pow`, no division and no branching on the plan shape.
    /// Long runs dispatch to the blocked kernels (contiguous copies / span
    /// scales / tiled split-lane multiplies for blocks of more than
    /// [`IN_PLACE_MAX_BLOCK`] amplitudes); short runs fall back to the
    /// per-group kernels. Small dense blocks take the in-place kernel at
    /// every run length.
    pub(crate) fn run_groups(&self, amps: AmpsPtr, start: usize, end: usize, simd: SimdLevel) {
        if start >= end {
            return;
        }
        match &self.kind {
            PlanKind::Identity => {}
            PlanKind::Permutation { flat, bounds } => {
                if self.run >= 2 && self.run_stride == 1 {
                    // SAFETY: the caller owns the groups `start..end` of
                    // this plan's buffer, and the run stride is 1.
                    unsafe { self.permutation_runs(amps, start, end, flat, bounds) };
                } else {
                    let rs = self.run_stride;
                    self.for_each_run(start, end, |base, count| unsafe {
                        let mut b = base;
                        for _ in 0..count {
                            group_permutation(amps, b, flat, bounds);
                            b += rs;
                        }
                    });
                }
            }
            PlanKind::Diagonal { diag, split } => {
                if self.run >= 2 && self.run_stride == 1 {
                    self.for_each_run(start, end, |base, count| unsafe {
                        run_diagonal_spans(amps, base, count, &self.offsets, split, simd);
                    });
                } else {
                    let rs = self.run_stride;
                    self.for_each_run(start, end, |base, count| unsafe {
                        let mut b = base;
                        for _ in 0..count {
                            group_diagonal(amps, b, &self.offsets, diag);
                            b += rs;
                        }
                    });
                }
            }
            // SAFETY: the caller owns the groups `start..end` of this
            // plan's buffer; the plan holds `block²` entries, and `block`
            // selects the matching `B`.
            PlanKind::DenseInPlace { matrix } => unsafe {
                match self.block {
                    2 => dense_in_place::<2>(self, amps, start, end, matrix, simd),
                    3 => dense_in_place::<3>(self, amps, start, end, matrix, simd),
                    4 => dense_in_place::<4>(self, amps, start, end, matrix, simd),
                    block => unreachable!("in-place dense plan with a block of {block}"),
                }
            },
            PlanKind::Dense { matrix, split } => {
                if self.run >= RUN_DENSE_MIN {
                    let mut scratch = RunScratch::for_block(self.block);
                    self.for_each_run(start, end, |base, count| unsafe {
                        run_dense_tiled(
                            amps,
                            base,
                            count,
                            self.run_stride,
                            &self.offsets,
                            split,
                            simd,
                            &mut scratch,
                        );
                    });
                } else if self.block == 9 {
                    let rs = self.run_stride;
                    let offsets: &[usize; 9] = self.offsets[..].try_into().expect("9 offsets");
                    // SAFETY: the caller owns the groups `start..end`, whose
                    // bases the runs enumerate, and `matrix` holds 81 entries.
                    self.for_each_run(start, end, |base, count| unsafe {
                        let mut b = base;
                        for _ in 0..count {
                            group_fixed::<9>(amps, b, offsets, matrix);
                            b += rs;
                        }
                    });
                } else {
                    let rs = self.run_stride;
                    let mut scratch = vec![Complex::ZERO; self.block];
                    self.for_each_run(start, end, |base, count| unsafe {
                        let mut b = base;
                        for _ in 0..count {
                            group_dense(amps, b, &self.offsets, matrix, &mut scratch);
                            b += rs;
                        }
                    });
                }
            }
        }
    }

    /// The blocked permutation kernel over the runs of the groups
    /// `start..end`, with its save buffer on the stack. Kept out of line so
    /// only permutation plans pay for the 32 KiB frame.
    ///
    /// # Safety
    ///
    /// `amps` must be the plan's buffer (or a worker's chunk of it) with
    /// exclusive access to the groups, and the plan must have
    /// `run_stride == 1`.
    #[inline(never)]
    unsafe fn permutation_runs(
        &self,
        amps: AmpsPtr,
        start: usize,
        end: usize,
        flat: &[usize],
        bounds: &[usize],
    ) {
        let mut tmp = [MaybeUninit::<Complex>::uninit(); PERM_TILE];
        self.for_each_run(start, end, |base, count| {
            run_permutation_blocks(amps, base, count, flat, bounds, &mut tmp);
        });
    }

    /// Calls `f(base, count)` for maximal runs of consecutive groups in
    /// `start..end`: the groups `g, g+1, …, g+count-1` have bases
    /// `base, base+run_stride, …`. Runs are aligned to multiples of
    /// `self.run`, so a range that starts mid-run gets a partial first run.
    ///
    /// The one-off mixed-radix decomposition of `start` is the only place
    /// division appears; the loop body is pure adds/compares.
    pub(crate) fn for_each_run(&self, start: usize, end: usize, mut f: impl FnMut(usize, usize)) {
        if start >= end {
            return;
        }
        let dim = self.dim;
        let run = self.run;
        let rs = self.run_stride;
        let upper = &self.free_strides[..self.free_strides.len() - self.run_digits];
        let ucount = upper.len();
        let mut digit_buf = [0usize; MAX_QUDITS];
        let digits = &mut digit_buf[..ucount];
        let block_idx = start / run;
        let mut within = start - block_idx * run;
        let mut base = self.control_offset;
        let mut rem = block_idx;
        for i in (0..ucount).rev() {
            digits[i] = rem % dim;
            rem /= dim;
            base += digits[i] * upper[i];
        }
        debug_assert_eq!(rem, 0, "group index out of range");
        let mut g = start;
        loop {
            let count = (run - within).min(end - g);
            f(base + within * rs, count);
            g += count;
            if g >= end {
                break;
            }
            within = 0;
            let mut i = ucount;
            loop {
                debug_assert!(i > 0, "odometer overflow");
                i -= 1;
                digits[i] += 1;
                base += upper[i];
                if digits[i] < dim {
                    break;
                }
                digits[i] = 0;
                base -= dim * upper[i];
            }
        }
    }
}

/// Decomposes a local-basis permutation into its non-trivial cycles,
/// translating local indices into amplitude offsets as it goes. Returns the
/// concatenated cycle offsets plus the end position of each cycle.
fn permutation_cycles(perm: &[usize], offsets: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut visited = vec![false; perm.len()];
    let mut flat = Vec::new();
    let mut bounds = Vec::new();
    for start in 0..perm.len() {
        if visited[start] || perm[start] == start {
            visited[start] = true;
            continue;
        }
        let mut cur = start;
        while !visited[cur] {
            visited[cur] = true;
            flat.push(offsets[cur]);
            cur = perm[cur];
        }
        bounds.push(flat.len());
    }
    (flat, bounds)
}

/// A shareable raw view of the amplitude buffer.
///
/// Parallel kernels assign disjoint amplitude groups to workers; the type
/// exists to carry the pointer across the `Send`/`Sync` boundary. All
/// access goes through [`AmpsPtr::get`]/[`AmpsPtr::set`] (or the block-copy
/// helpers), whose callers must guarantee (a) in-bounds indices and (b)
/// that no two workers touch the same index — both are established by the
/// plan construction invariants (groups partition the index space).
#[derive(Clone, Copy)]
pub(crate) struct AmpsPtr {
    ptr: *mut Complex,
    len: usize,
}

unsafe impl Send for AmpsPtr {}
unsafe impl Sync for AmpsPtr {}

impl AmpsPtr {
    pub(crate) fn new(slice: &mut [Complex]) -> Self {
        AmpsPtr {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    #[inline(always)]
    unsafe fn get(self, i: usize) -> Complex {
        debug_assert!(
            i < self.len,
            "amplitude index {i} out of bounds {}",
            self.len
        );
        *self.ptr.add(i)
    }

    #[inline(always)]
    unsafe fn set(self, i: usize, value: Complex) {
        debug_assert!(
            i < self.len,
            "amplitude index {i} out of bounds {}",
            self.len
        );
        *self.ptr.add(i) = value;
    }

    /// Copies `count` amplitudes from `src` to `dst`. The ranges must be
    /// disjoint and in bounds.
    ///
    /// Plain `memcpy` on purpose: a non-temporal (streaming) variant was
    /// measured slower on cache-rich hosts — the state often fits in LLC,
    /// and bypassing it forces the next op's reads out to DRAM.
    #[inline(always)]
    unsafe fn copy_block(self, src: usize, dst: usize, count: usize) {
        debug_assert!(src + count <= self.len && dst + count <= self.len);
        debug_assert!(src + count <= dst || dst + count <= src, "overlap");
        std::ptr::copy_nonoverlapping(self.ptr.add(src), self.ptr.add(dst), count);
    }

    /// Copies `out.len()` amplitudes starting at `src` into `out`, which
    /// is fully initialised afterwards.
    #[inline(always)]
    unsafe fn read_block(self, src: usize, out: &mut [MaybeUninit<Complex>]) {
        debug_assert!(src + out.len() <= self.len);
        std::ptr::copy_nonoverlapping(self.ptr.add(src), out.as_mut_ptr().cast(), out.len());
    }

    /// Copies `input` into the buffer starting at `dst`. Every element of
    /// `input` must be initialised.
    #[inline(always)]
    unsafe fn write_block(self, dst: usize, input: &[MaybeUninit<Complex>]) {
        debug_assert!(dst + input.len() <= self.len);
        std::ptr::copy_nonoverlapping(input.as_ptr().cast(), self.ptr.add(dst), input.len());
    }

    /// Reborrows a sub-range of the buffer as a mutable slice.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and the caller must have exclusive
    /// access to it for the slice's entire use (the fused density sweep
    /// partitions the buffer into disjoint rows per worker).
    pub(crate) unsafe fn slice_mut<'a>(self, start: usize, len: usize) -> &'a mut [Complex] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Permutation kernel: rotates each precomputed cycle of amplitude offsets.
/// No complex arithmetic — classical gates move amplitudes, never mix them.
///
/// # Safety
///
/// `base + offset` must be in bounds for every offset in `flat`, and the
/// caller must have exclusive access to those indices.
unsafe fn group_permutation(amps: AmpsPtr, base: usize, flat: &[usize], bounds: &[usize]) {
    let mut start = 0usize;
    for &end in bounds {
        let cycle = &flat[start..end];
        start = end;
        let mut carry = amps.get(base + cycle[0]);
        for &off in &cycle[1..] {
            let idx = base + off;
            let tmp = amps.get(idx);
            amps.set(idx, carry);
            carry = tmp;
        }
        amps.set(base + cycle[0], carry);
    }
}

/// Blocked permutation kernel for a contiguous run of `count` groups
/// (`run_stride == 1`): every cycle rotation becomes whole-block copies —
/// `memcpy` traffic with full cache-line utilisation instead of `count`
/// strided per-group gathers. Moves the same values to the same slots as
/// `count` calls to [`group_permutation`], so results are bit-identical.
///
/// Long runs are processed in [`PERM_TILE`]-sized tiles so the save-buffer
/// for the cycle's displaced block stays L1-resident (its traffic beyond
/// the cache disappears).
///
/// # Safety
///
/// `base + off + count` must be in bounds for every offset in `flat`, the
/// caller must have exclusive access, and distinct offsets must differ by
/// at least `count` (guaranteed by the run construction: every target
/// stride exceeds the trailing free-stride chain).
unsafe fn run_permutation_blocks(
    amps: AmpsPtr,
    base: usize,
    count: usize,
    flat: &[usize],
    bounds: &[usize],
    tmp: &mut [MaybeUninit<Complex>; PERM_TILE],
) {
    let mut start = 0usize;
    for &end in bounds {
        let cycle = &flat[start..end];
        start = end;
        // new[c_i] = old[c_{i-1}] for i ≥ 1, new[c_0] = old[c_last]:
        // save the last block, shift the chain backwards, drop the save in.
        let mut done = 0usize;
        while done < count {
            let m = (count - done).min(PERM_TILE);
            let b = base + done;
            let save = &mut tmp[..m];
            amps.read_block(b + cycle[cycle.len() - 1], save);
            for i in (1..cycle.len()).rev() {
                amps.copy_block(b + cycle[i - 1], b + cycle[i], m);
            }
            amps.write_block(b + cycle[0], save);
            done += m;
        }
    }
}

/// Diagonal kernel: scales each amplitude of the group by its diagonal
/// entry. `block` complex multiplies per group — no gather, no scratch, no
/// `block²` matrix sweep.
///
/// # Safety
///
/// `base + offsets[b]` must be in bounds and exclusively owned by the
/// caller for `b < offsets.len()`; `diag` must hold `offsets.len()` entries.
unsafe fn group_diagonal(amps: AmpsPtr, base: usize, offsets: &[usize], diag: &[Complex]) {
    debug_assert_eq!(offsets.len(), diag.len());
    for (&off, &d) in offsets.iter().zip(diag) {
        let idx = base + off;
        amps.set(idx, d * amps.get(idx));
    }
}

/// Blocked diagonal kernel for a contiguous run of `count` groups: each
/// diagonal entry scales one contiguous span of `count` amplitudes. Uses
/// mul/add only (no FMA), so scalar and AVX2 results are bit-identical to
/// the per-group kernel.
///
/// # Safety
///
/// `base + off + count` must be in bounds and exclusively owned for every
/// offset; `split` must hold one entry per offset.
unsafe fn run_diagonal_spans(
    amps: AmpsPtr,
    base: usize,
    count: usize,
    offsets: &[usize],
    split: &SplitMatrix,
    simd: SimdLevel,
) {
    for (b, &off) in offsets.iter().enumerate() {
        let dre = split.re[b];
        let dim = split.im[b];
        let span = base + off;
        #[cfg(target_arch = "x86_64")]
        if simd == SimdLevel::Avx2 {
            avx2::scale_span(amps.ptr.add(span), count, dre, dim);
            continue;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        for t in 0..count {
            let a = amps.get(span + t);
            amps.set(
                span + t,
                Complex::new(dre * a.re - dim * a.im, dre * a.im + dim * a.re),
            );
        }
    }
}

/// Split-lane scratch for the tiled dense kernel (blocks of more than
/// [`IN_PLACE_MAX_BLOCK`] amplitudes): `block` gathered input lanes of up
/// to [`DENSE_TILE`] groups each, plus one output row. Smaller blocks
/// multiply in place and need none.
struct RunScratch {
    in_re: Vec<f64>,
    in_im: Vec<f64>,
    out_re: Vec<f64>,
    out_im: Vec<f64>,
}

impl RunScratch {
    fn for_block(block: usize) -> Self {
        RunScratch {
            in_re: vec![0.0; block * DENSE_TILE],
            in_im: vec![0.0; block * DENSE_TILE],
            out_re: vec![0.0; DENSE_TILE],
            out_im: vec![0.0; DENSE_TILE],
        }
    }
}

/// Tiled dense kernel over a run of `count` groups whose bases advance by
/// `rs`: gathers each local basis state's amplitudes for a tile of groups
/// into split re/im lanes, multiplies the whole tile by the matrix row by
/// row (vectorised *across groups*), and scatters the rows back.
///
/// With `rs == 1` the gathers and scatters are contiguous; the arithmetic
/// is contiguous in either case. The scalar path accumulates in the same
/// order as the per-group kernels; the AVX2 path uses FMA, so it agrees to
/// rounding (≈ 1e-16 per term) rather than bit-for-bit.
///
/// # Safety
///
/// `base + t·rs + offsets[b]` must be in bounds and exclusively owned for
/// `t < count`, `b < offsets.len()`; `split` must be the
/// `block × block` matrix in split row-major form.
#[allow(clippy::too_many_arguments)]
unsafe fn run_dense_tiled(
    amps: AmpsPtr,
    base: usize,
    count: usize,
    rs: usize,
    offsets: &[usize],
    split: &SplitMatrix,
    simd: SimdLevel,
    scratch: &mut RunScratch,
) {
    let block = offsets.len();
    let mut t0 = 0usize;
    while t0 < count {
        let tile = (count - t0).min(DENSE_TILE);
        let tbase = base + t0 * rs;
        for (c, &off) in offsets.iter().enumerate() {
            let src = tbase + off;
            let lane_re = &mut scratch.in_re[c * DENSE_TILE..c * DENSE_TILE + tile];
            let lane_im = &mut scratch.in_im[c * DENSE_TILE..c * DENSE_TILE + tile];
            for t in 0..tile {
                let a = amps.get(src + t * rs);
                lane_re[t] = a.re;
                lane_im[t] = a.im;
            }
        }
        for (r, &dst_off) in offsets.iter().enumerate() {
            let mre = &split.re[r * block..(r + 1) * block];
            let mim = &split.im[r * block..(r + 1) * block];
            mix_row(
                simd,
                &mut scratch.out_re[..tile],
                &mut scratch.out_im[..tile],
                &scratch.in_re,
                &scratch.in_im,
                tile,
                block,
                mre,
                mim,
            );
            let dst = tbase + dst_off;
            for t in 0..tile {
                amps.set(
                    dst + t * rs,
                    Complex::new(scratch.out_re[t], scratch.out_im[t]),
                );
            }
        }
        t0 += tile;
    }
}

/// One output row of the tiled dense multiply:
/// `out[t] = Σ_c m[c] · in[c][t]` over the gathered split lanes.
///
/// Zero matrix entries are skipped in both paths — the skip cannot change
/// the accumulated value (adding `±0·x` is an IEEE no-op for finite lanes)
/// but big controlled matrices are mostly zeros, where skipping beats
/// multiplying.
#[allow(clippy::too_many_arguments)]
#[inline]
fn mix_row(
    simd: SimdLevel,
    out_re: &mut [f64],
    out_im: &mut [f64],
    in_re: &[f64],
    in_im: &[f64],
    tile: usize,
    block: usize,
    mre: &[f64],
    mim: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    if simd == SimdLevel::Avx2 {
        unsafe {
            avx2::mix_row(out_re, out_im, in_re, in_im, tile, block, mre, mim);
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    mix_row_scalar(out_re, out_im, in_re, in_im, tile, block, mre, mim);
}

/// Scalar split-lane row multiply. The per-`c` accumulation computes
/// `t = (ar·br − ai·bi, ar·bi + ai·br); acc += t` in ascending `c` order —
/// the same expression tree and order as the per-group kernels, so the two
/// paths are bit-identical.
#[allow(clippy::too_many_arguments)]
fn mix_row_scalar(
    out_re: &mut [f64],
    out_im: &mut [f64],
    in_re: &[f64],
    in_im: &[f64],
    tile: usize,
    block: usize,
    mre: &[f64],
    mim: &[f64],
) {
    out_re[..tile].fill(0.0);
    out_im[..tile].fill(0.0);
    for c in 0..block {
        let ar = mre[c];
        let ai = mim[c];
        if ar == 0.0 && ai == 0.0 {
            continue;
        }
        let lre = &in_re[c * DENSE_TILE..c * DENSE_TILE + tile];
        let lim = &in_im[c * DENSE_TILE..c * DENSE_TILE + tile];
        for t in 0..tile {
            let br = lre[t];
            let bi = lim[t];
            out_re[t] += ar * br - ai * bi;
            out_im[t] += ar * bi + ai * br;
        }
    }
}

/// Explicit AVX2+FMA kernels. Only compiled on x86-64; only *called* when
/// runtime detection (or the `QUDIT_SIMD` override) selected
/// [`SimdLevel::Avx2`], which requires both `avx2` and `fma` to be present.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{group_fixed, AmpsPtr, ApplyPlan, DENSE_TILE};
    use core::arch::x86_64::*;
    use qudit_core::Complex;

    /// `out[t] = Σ_c m[c]·in[c][t]` with four f64 lanes per instruction.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available; slices must hold `tile`
    /// (`out`), `block` (`m`) and `block·DENSE_TILE` (`in`) elements.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mix_row(
        out_re: &mut [f64],
        out_im: &mut [f64],
        in_re: &[f64],
        in_im: &[f64],
        tile: usize,
        block: usize,
        mre: &[f64],
        mim: &[f64],
    ) {
        let or = out_re.as_mut_ptr();
        let oi = out_im.as_mut_ptr();
        let ire = in_re.as_ptr();
        let iim = in_im.as_ptr();
        let mut t = 0usize;
        while t + 4 <= tile {
            let mut acc_re = _mm256_setzero_pd();
            let mut acc_im = _mm256_setzero_pd();
            for c in 0..block {
                let ar = mre[c];
                let ai = mim[c];
                if ar == 0.0 && ai == 0.0 {
                    continue;
                }
                let var = _mm256_set1_pd(ar);
                let vai = _mm256_set1_pd(ai);
                let br = _mm256_loadu_pd(ire.add(c * DENSE_TILE + t));
                let bi = _mm256_loadu_pd(iim.add(c * DENSE_TILE + t));
                acc_re = _mm256_fmadd_pd(var, br, acc_re);
                acc_re = _mm256_fnmadd_pd(vai, bi, acc_re);
                acc_im = _mm256_fmadd_pd(var, bi, acc_im);
                acc_im = _mm256_fmadd_pd(vai, br, acc_im);
            }
            _mm256_storeu_pd(or.add(t), acc_re);
            _mm256_storeu_pd(oi.add(t), acc_im);
            t += 4;
        }
        while t < tile {
            let mut acc_re = 0.0f64;
            let mut acc_im = 0.0f64;
            for c in 0..block {
                let ar = mre[c];
                let ai = mim[c];
                if ar == 0.0 && ai == 0.0 {
                    continue;
                }
                let br = *ire.add(c * DENSE_TILE + t);
                let bi = *iim.add(c * DENSE_TILE + t);
                acc_re += ar * br - ai * bi;
                acc_im += ar * bi + ai * br;
            }
            *or.add(t) = acc_re;
            *oi.add(t) = acc_im;
            t += 1;
        }
    }

    /// The AVX2 body of `dense_in_place`: walks the runs of `plan` over the
    /// groups `start..end` and multiplies two groups per instruction on the
    /// interleaved buffer. A vector holds amplitude `c` of groups `g` and
    /// `g + rs` as `[re, im, re, im]`; row `r` accumulates
    /// `acc = fma(m.re, a, acc)` then `acc = fma([−m.im, m.im, −m.im, m.im],
    /// swap(a), acc)` for `c = 0, 1, …` from `+0`, which per lane is the
    /// tiled kernel's `fmadd(m.re, a.re)`, `fnmadd(m.im, a.im)` (real) and
    /// `fmadd(m.re, a.im)`, `fmadd(m.im, a.re)` (imaginary). `CONTIG`
    /// (`rs == 1`) loads the pair as one vector; otherwise as two halves.
    ///
    /// The broadcast matrix is built once per call, not per run (the runs
    /// are walked in here) and not per plan: a plan-held copy is four times
    /// the size of the matrix, and keeping one on every small dense plan
    /// raised the peak RSS of perfbench's `fig11-sweep` by 6–8%.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available, plus the contract of
    /// `dense_in_place`; `CONTIG` must equal `plan.run_stride == 1`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dense_runs<const B: usize, const CONTIG: bool>(
        plan: &ApplyPlan,
        amps: AmpsPtr,
        start: usize,
        end: usize,
        offsets: &[usize; B],
        matrix: &[Complex],
    ) {
        debug_assert_eq!(CONTIG, plan.run_stride == 1);
        let mut m_re = [[_mm256_setzero_pd(); B]; B];
        let mut m_im = [[_mm256_setzero_pd(); B]; B];
        for (r, row) in matrix.chunks_exact(B).take(B).enumerate() {
            for (c, m) in row.iter().enumerate() {
                m_re[r][c] = _mm256_set1_pd(m.re);
                m_im[r][c] = _mm256_setr_pd(-m.im, m.im, -m.im, m.im);
            }
        }
        let rs = plan.run_stride;
        let raw = amps.ptr.cast::<f64>();
        let offsets = *offsets;
        // `move`: the captures live in the closure itself, which the
        // compiler knows the amplitude stores cannot alias.
        plan.for_each_run(start, end, move |base, count| {
            let fused = count - count % 4;
            let mut g = base;
            let mut t = 0usize;
            while t < fused {
                debug_assert!(g + rs + offsets[B - 1] < amps.len);
                let mut a = [_mm256_setzero_pd(); B];
                let mut sw = [_mm256_setzero_pd(); B];
                for c in 0..B {
                    let p = raw.add(2 * (g + offsets[c]));
                    a[c] = if CONTIG {
                        _mm256_loadu_pd(p)
                    } else {
                        _mm256_loadu2_m128d(p.add(2 * rs), p)
                    };
                    sw[c] = _mm256_permute_pd::<0b0101>(a[c]);
                }
                for (r, &off) in offsets.iter().enumerate() {
                    let mut acc = _mm256_setzero_pd();
                    for c in 0..B {
                        acc = _mm256_fmadd_pd(m_re[r][c], a[c], acc);
                        acc = _mm256_fmadd_pd(m_im[r][c], sw[c], acc);
                    }
                    let p = raw.add(2 * (g + off));
                    if CONTIG {
                        _mm256_storeu_pd(p, acc);
                    } else {
                        _mm256_storeu2_m128d(p.add(2 * rs), p, acc);
                    }
                }
                g += 2 * rs;
                t += 2;
            }
            while t < count {
                group_fixed::<B>(amps, g, &offsets, matrix);
                g += rs;
                t += 1;
            }
        });
    }

    /// Scales `count` interleaved complex amplitudes at `ptr` by
    /// `(dre, dim)` in place. Uses mul/sub/add only (no FMA) so the result
    /// is bit-identical to the scalar diagonal kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `ptr[..count]` is an
    /// exclusively owned, in-bounds run of [`Complex`] (two f64s, re then
    /// im — its `#[repr(C)]` layout).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_span(ptr: *mut Complex, count: usize, dre: f64, dim: f64) {
        let raw = ptr as *mut f64;
        let vre = _mm256_set1_pd(dre);
        let vim = _mm256_set1_pd(dim);
        let mut t = 0usize;
        // Two complexes (four f64: re0 im0 re1 im1) per vector.
        while t + 2 <= count {
            let a = _mm256_loadu_pd(raw.add(2 * t));
            // [im0 re0 im1 re1]
            let sw = _mm256_permute_pd::<0b0101>(a);
            // even lanes: dre·re − dim·im, odd lanes: dre·im + dim·re.
            let prod = _mm256_mul_pd(vim, sw);
            let scaled = _mm256_mul_pd(vre, a);
            let res = _mm256_addsub_pd(scaled, prod);
            _mm256_storeu_pd(raw.add(2 * t), res);
            t += 2;
        }
        while t < count {
            let a = *ptr.add(t);
            *ptr.add(t) = Complex::new(dre * a.re - dim * a.im, dre * a.im + dim * a.re);
            t += 1;
        }
    }
}

/// Monomorphic per-group dense kernel over a block of `B` amplitudes:
/// loads them through the offsets table into stack scratch, then a dense
/// `B×B` multiply with the scalar expression
/// `acc += (m.re·a.re − m.im·a.im, m.re·a.im + m.im·a.re)` in ascending
/// column order — the tiled kernel's scalar arithmetic, so the two agree
/// bit for bit.
///
/// # Safety
///
/// `base + offsets[b]` must be in bounds and exclusively owned for
/// `b < B`; `matrix` must hold `B*B` entries.
#[inline(always)]
unsafe fn group_fixed<const B: usize>(
    amps: AmpsPtr,
    base: usize,
    offsets: &[usize; B],
    matrix: &[Complex],
) {
    debug_assert_eq!(matrix.len(), B * B);
    let mut local = [Complex::ZERO; B];
    for b in 0..B {
        local[b] = amps.get(base + offsets[b]);
    }
    for r in 0..B {
        let row = &matrix[r * B..(r + 1) * B];
        let mut acc = Complex::ZERO;
        for c in 0..B {
            acc += row[c] * local[c];
        }
        amps.set(base + offsets[r], acc);
    }
}

/// In-place dense kernel for blocks of `B ≤ 4` amplitudes, over the groups
/// `start..end` of `plan`.
///
/// Each group's amplitudes are read once and all `B` rows are written
/// back from registers: no scratch, no gather into lanes. The arithmetic
/// is the tiled kernel's, group for group, so the two agree bit for bit:
///
/// * at [`SimdLevel::Avx2`], within every run that
///   [`ApplyPlan::for_each_run`] emits, the first `count − count % 4`
///   groups take the tiled kernel's FMA chain (the 4-lane blocks of its
///   tiles; [`DENSE_TILE`] is a multiple of 4) and the last `count % 4`
///   take the scalar expression of [`group_fixed`];
/// * at [`SimdLevel::Scalar`] every group takes the scalar expression.
///
/// Zero matrix entries are multiplied, not skipped: every accumulator
/// starts at `+0`, and adding `±0` leaves `+0` and every nonzero value
/// unchanged, so for finite amplitudes the skip the tiled kernel makes
/// cannot change a bit (only an accumulator rounded to `−0`, from a product
/// below the smallest subnormal, could tell the two apart).
///
/// # Safety
///
/// `amps` must be `plan`'s whole buffer (or a worker's chunk of it) with
/// exclusive access to the groups `start..end`; `matrix` must hold `B*B`
/// entries.
unsafe fn dense_in_place<const B: usize>(
    plan: &ApplyPlan,
    amps: AmpsPtr,
    start: usize,
    end: usize,
    matrix: &[Complex],
    simd: SimdLevel,
) {
    let offsets: &[usize; B] = plan.offsets[..].try_into().expect("B offsets");
    #[cfg(target_arch = "x86_64")]
    if simd == SimdLevel::Avx2 {
        if plan.run_stride == 1 {
            avx2::dense_runs::<B, true>(plan, amps, start, end, offsets, matrix);
        } else {
            avx2::dense_runs::<B, false>(plan, amps, start, end, offsets, matrix);
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    let rs = plan.run_stride;
    plan.for_each_run(start, end, |base, count| {
        let mut b = base;
        for _ in 0..count {
            group_fixed::<B>(amps, b, offsets, matrix);
            b += rs;
        }
    });
}

/// Generic gather–scatter kernel for `k ≥ 3` targets (or unusual
/// dimensions). Keeps the zero-skip branch: big controlled matrices built by
/// `controlled_matrix` are mostly zeros, where skipping beats multiplying.
///
/// # Safety
///
/// `base + offsets[b]` must be in bounds and exclusively owned; `scratch`
/// and `offsets` must have the block length, `matrix` its square.
unsafe fn group_dense(
    amps: AmpsPtr,
    base: usize,
    offsets: &[usize],
    matrix: &[Complex],
    scratch: &mut [Complex],
) {
    let block = offsets.len();
    debug_assert_eq!(scratch.len(), block);
    debug_assert_eq!(matrix.len(), block * block);
    for b in 0..block {
        scratch[b] = amps.get(base + offsets[b]);
    }
    for r in 0..block {
        let row = &matrix[r * block..(r + 1) * block];
        let mut acc = Complex::ZERO;
        for (c, l) in scratch.iter().enumerate() {
            let m = row[c];
            if m != Complex::ZERO {
                acc += m * *l;
            }
        }
        amps.set(base + offsets[r], acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{Control, Gate, Operation};
    use qudit_core::gates;

    #[test]
    fn group_count_is_exactly_d_to_n_minus_k() {
        let h = gates::qutrit::h3();
        for n in 1..6 {
            for target in 0..n {
                let plan = ApplyPlan::for_matrix(3, n, &h, &[target]);
                assert_eq!(plan.groups(), 3usize.pow((n - 1) as u32));
                assert_eq!(plan.block(), 3);
            }
        }
    }

    #[test]
    fn controls_shrink_the_group_count_further() {
        let op = Operation::new(
            Gate::h(3),
            vec![Control::on_one(0), Control::on_two(2)],
            vec![4],
        )
        .unwrap();
        let plan = ApplyPlan::for_operation(5, &op);
        // n=5, k=1, c=2 → 3^2 groups.
        assert_eq!(plan.groups(), 9);
    }

    #[test]
    fn classical_gates_take_the_permutation_path() {
        for gate in [
            Gate::x(3),
            Gate::increment(3),
            Gate::decrement(3),
            Gate::swap_levels(3, 0, 2),
            Gate::swap(3),
        ] {
            let targets: Vec<usize> = (0..gate.num_targets()).collect();
            let plan = ApplyPlan::for_matrix(3, 3, gate.matrix(), &targets);
            assert!(plan.is_permutation(), "{} should be sparse", gate.name());
        }
        let dense = ApplyPlan::for_matrix(3, 3, &gates::qutrit::h3(), &[0]);
        assert!(!dense.is_permutation());
    }

    #[test]
    fn non_bijective_zero_one_matrix_takes_the_dense_path() {
        // [[1,1],[0,0]] has one 1 per column but is not a permutation; it
        // must go through the dense kernel (the cycle kernel would silently
        // mis-apply it). Compare against the naive reference on |1⟩.
        let m = CMatrix::from_real_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        let plan = ApplyPlan::for_matrix(2, 1, &m, &[0]);
        assert!(!plan.is_permutation());
        let mut fast = StateVector::from_basis_state(2, &[1]).unwrap();
        plan.apply(&mut fast);
        let mut naive = StateVector::from_basis_state(2, &[1]).unwrap();
        crate::apply::reference::apply_matrix_naive(&mut naive, &m, &[0]);
        for (a, b) in fast.amplitudes().iter().zip(naive.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn diagonal_gates_take_the_diagonal_path() {
        use qudit_circuit::KernelClass;
        for gate in [Gate::z(3), Gate::clock(3), Gate::clock(4)] {
            let plan = ApplyPlan::for_matrix(gate.dim(), 3, gate.matrix(), &[1]);
            assert_eq!(
                plan.kernel_class(),
                KernelClass::Diagonal,
                "{} should be diagonal",
                gate.name()
            );
        }
        assert_eq!(
            ApplyPlan::for_matrix(3, 2, &gates::qutrit::h3(), &[0]).kernel_class(),
            KernelClass::Dense
        );
        assert_eq!(
            ApplyPlan::for_matrix(3, 2, Gate::increment(3).matrix(), &[0]).kernel_class(),
            KernelClass::Permutation
        );
    }

    #[test]
    fn diagonal_kernel_matches_reference_with_controls() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let state = random_state(3, 4, &mut rng).unwrap();
        let clock = Gate::clock(3);
        for controls in [vec![], vec![(0usize, 1usize)], vec![(0, 2), (3, 0)]] {
            let plan = ApplyPlan::new(3, 4, clock.matrix(), &[1], &controls);
            let mut fast = state.clone();
            plan.apply(&mut fast);
            let mut forced_par = state.clone();
            plan.apply_forced(&mut forced_par, true);
            let mut naive = state.clone();
            if controls.is_empty() {
                crate::apply::reference::apply_matrix_naive(&mut naive, clock.matrix(), &[1]);
            } else {
                let cs: Vec<qudit_circuit::Control> = controls
                    .iter()
                    .map(|&(q, l)| qudit_circuit::Control::new(q, l))
                    .collect();
                let op = Operation::new(clock.clone(), cs, vec![1]).unwrap();
                crate::apply::reference::apply_operation_naive(&mut naive, &op);
            }
            for (a, b) in fast.amplitudes().iter().zip(naive.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-12), "controls {controls:?}");
            }
            for (a, b) in forced_par.amplitudes().iter().zip(naive.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-12), "parallel, controls {controls:?}");
            }
        }
    }

    #[test]
    fn diagonal_two_target_kernel_matches_reference() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let state = random_state(2, 4, &mut rng).unwrap();
        // CZ-style diagonal over two targets.
        let m = CMatrix::diagonal(&[
            Complex::ONE,
            Complex::ONE,
            Complex::ONE,
            Complex::real(-1.0),
        ]);
        let plan = ApplyPlan::for_matrix(2, 4, &m, &[0, 2]);
        assert_eq!(plan.kernel_class(), qudit_circuit::KernelClass::Diagonal);
        let mut fast = state.clone();
        plan.apply(&mut fast);
        let mut naive = state.clone();
        crate::apply::reference::apply_matrix_naive(&mut naive, &m, &[0, 2]);
        for (a, b) in fast.amplitudes().iter().zip(naive.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn identity_plan_is_a_no_op() {
        let plan = ApplyPlan::for_matrix(3, 2, &CMatrix::identity(3), &[1]);
        assert!(plan.is_permutation());
        let mut sv = StateVector::from_basis_state(3, &[1, 2]).unwrap();
        let before = sv.clone();
        plan.apply(&mut sv);
        assert_eq!(sv, before);
    }

    #[test]
    fn contiguous_detection() {
        let h = gates::qutrit::h3();
        assert!(ApplyPlan::for_matrix(3, 4, &h, &[3]).contiguous);
        assert!(!ApplyPlan::for_matrix(3, 4, &h, &[0]).contiguous);
        let g2 = gates::controlled_matrix(3, 1, &gates::qutrit::x_plus_1());
        assert!(ApplyPlan::for_matrix(3, 4, &g2, &[2, 3]).contiguous);
        assert!(ApplyPlan::for_matrix(3, 4, &g2, &[3, 2]).contiguous);
        assert!(!ApplyPlan::for_matrix(3, 4, &g2, &[1, 3]).contiguous);
    }

    #[test]
    fn run_shape_matches_free_stride_chain() {
        let h = gates::qutrit::h3();
        // Target 0 (most significant): trailing free digits 1..4 form a full
        // counter — one run covers every group, advancing by 1.
        let top = ApplyPlan::for_matrix(3, 5, &h, &[0]);
        assert_eq!((top.run, top.run_stride), (81, 1));
        // Target 4 (least significant): free strides 3..81, chain starts at
        // 3 — every group is in one run advancing by 3 (the block).
        let bottom = ApplyPlan::for_matrix(3, 5, &h, &[4]);
        assert_eq!((bottom.run, bottom.run_stride), (81, 3));
        // Target 2: free digits 3,4 trail (strides 3,1), digits 0,1 are
        // above the target — runs of 9 contiguous bases.
        let mid = ApplyPlan::for_matrix(3, 5, &h, &[2]);
        assert_eq!((mid.run, mid.run_stride), (9, 1));
        // A control on the trailing digit breaks the chain.
        let controlled = ApplyPlan::new(3, 5, &h, &[2], &[(4, 1)]);
        assert_eq!((controlled.run, controlled.run_stride), (3, 3));
    }

    #[test]
    fn for_each_run_visits_the_same_bases_as_single_groups() {
        let h = gates::qutrit::h3();
        let swap = Gate::swap(3);
        for targets in [vec![0usize], vec![2], vec![4], vec![1, 3]] {
            let m = if targets.len() == 2 {
                swap.matrix()
            } else {
                &h
            };
            let plan = ApplyPlan::for_matrix(3, 5, m, &targets);
            let mut from_runs = Vec::new();
            plan.for_each_run(0, plan.groups(), |base, count| {
                for t in 0..count {
                    from_runs.push(base + t * plan.run_stride);
                }
            });
            let mut singles = Vec::new();
            // Sub-ranges must splice together exactly, including mid-run
            // starts (the parallel path chunks at arbitrary boundaries).
            let third = plan.groups() / 3 + 1;
            for lo in (0..plan.groups()).step_by(third) {
                let hi = (lo + third).min(plan.groups());
                plan.for_each_run(lo, hi, |base, count| {
                    for t in 0..count {
                        singles.push(base + t * plan.run_stride);
                    }
                });
            }
            assert_eq!(from_runs, singles, "targets {targets:?}");
            assert_eq!(from_runs.len(), plan.groups());
        }
    }

    #[test]
    fn plan_reuse_matches_fresh_plans() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(33);
        let op = Operation::new(Gate::fourier(3), vec![Control::on_one(2)], vec![0]).unwrap();
        let plan = ApplyPlan::for_operation(4, &op);
        let mut a = random_state(3, 4, &mut rng).unwrap();
        let mut b = a.clone();
        // Apply the same cached plan twice vs two fresh plans.
        plan.apply(&mut a);
        plan.apply(&mut a);
        ApplyPlan::for_operation(4, &op).apply(&mut b);
        ApplyPlan::for_operation(4, &op).apply(&mut b);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }

    #[test]
    fn parallel_decision_weighs_per_group_work() {
        // These plans have known work estimates regardless of host core
        // count; check the estimator directly.
        let h = gates::qutrit::h3();
        let k1 = ApplyPlan::for_matrix(3, 9, &h, &[4]);
        assert!(k1.work_estimate() >= PAR_MIN_WORK, "dense k1 on 9 qutrits");
        let diag = ApplyPlan::for_matrix(3, 9, Gate::clock(3).matrix(), &[4]);
        assert!(
            diag.work_estimate() < PAR_MIN_WORK,
            "cheap diagonal on the same register stays sequential"
        );
        // A k=2 dense block reaches the threshold on a *smaller* register
        // than k=1 — the ISSUE's fused-block case. Kron of two qutrit
        // Hadamards: dense, no zero entries.
        let mut two = CMatrix::identity(9);
        for r in 0..9 {
            for c in 0..9 {
                let v = h.get(r / 3, c / 3) * h.get(r % 3, c % 3);
                two.set(r, c, v);
            }
        }
        let k2 = ApplyPlan::for_matrix(3, 8, &two, &[6, 7]);
        assert!(
            k2.work_estimate() >= PAR_MIN_WORK,
            "dense k2 fans out on 8 qutrits"
        );
        let k1_small = ApplyPlan::for_matrix(3, 8, &h, &[4]);
        assert!(k1_small.work_estimate() < PAR_MIN_WORK);
    }

    /// A per-group single-target reference kernel: gathers `D` amplitudes
    /// at `stride`, multiplies by the `D×D` matrix with [`Complex`]
    /// arithmetic (the scalar expression) and scatters back, with none of
    /// the plan's offsets or run machinery.
    unsafe fn group_k1_fixed<const D: usize>(
        amps: AmpsPtr,
        base: usize,
        stride: usize,
        matrix: &[Complex],
    ) {
        let mut local = [Complex::ZERO; D];
        let mut idx = base;
        for slot in &mut local {
            *slot = amps.get(idx);
            idx += stride;
        }
        let mut out = base;
        for r in 0..D {
            let mut acc = Complex::ZERO;
            for c in 0..D {
                acc += matrix[r * D + c] * local[c];
            }
            amps.set(out, acc);
            out += stride;
        }
    }

    /// Applies the single-target `matrix` at `stride` to every group of
    /// `plan` through [`group_k1_fixed`].
    fn apply_k1_reference(
        plan: &ApplyPlan,
        amps: &mut [Complex],
        stride: usize,
        matrix: &[Complex],
    ) {
        let ptr = AmpsPtr::new(amps);
        let rs = plan.run_stride;
        plan.for_each_run(0, plan.groups, |base, count| {
            for t in 0..count {
                let b = base + t * rs;
                // SAFETY: `amps` is the plan's whole buffer, and the groups
                // the plan's runs enumerate are in bounds and disjoint.
                unsafe {
                    match plan.dim {
                        2 => group_k1_fixed::<2>(ptr, b, stride, matrix),
                        3 => group_k1_fixed::<3>(ptr, b, stride, matrix),
                        4 => group_k1_fixed::<4>(ptr, b, stride, matrix),
                        d => unreachable!("no reference for d = {d}"),
                    }
                }
            }
        });
    }

    /// `plan` with its in-place dense kernel swapped for the tiled one (and
    /// the per-group gather–scatter kernel on short runs): the oracle the
    /// in-place kernel must match bit for bit.
    fn tiled_twin(plan: &ApplyPlan) -> ApplyPlan {
        let PlanKind::DenseInPlace { matrix } = &plan.kind else {
            panic!("expected an in-place dense plan, got {:?}", plan.kind);
        };
        let mut twin = plan.clone();
        twin.kind = PlanKind::Dense {
            matrix: matrix.clone(),
            split: SplitMatrix::of(matrix),
        };
        twin
    }

    /// The SIMD levels this host can execute.
    fn host_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if detect_simd() == SimdLevel::Avx2 {
            levels.push(SimdLevel::Avx2);
        }
        levels
    }

    fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{what}: amplitude {i} differs: {a:?} vs {b:?}"
            );
        }
    }

    /// Two `b×b` matrices per case: every entry random, and one with a zero
    /// entry, a purely imaginary one and a purely real one.
    fn in_place_matrices(b: usize, rng: &mut rand::rngs::StdRng) -> [CMatrix; 2] {
        let mut dense = CMatrix::zeros(b, b);
        for r in 0..b {
            for c in 0..b {
                dense.set(r, c, qudit_core::complex_gaussian(rng));
            }
        }
        let mut zeros = dense.clone();
        zeros.set(0, 1, Complex::ZERO);
        zeros.set(1, 0, Complex::new(0.0, dense.get(1, 0).im));
        zeros.set(b - 1, b - 1, Complex::real(dense.get(b - 1, b - 1).re));
        [dense, zeros]
    }

    /// Checks one in-place plan against its tiled twin at every host SIMD
    /// level, sequential and forced-parallel, and single-target plans
    /// against [`group_k1_fixed`] at the scalar level.
    fn check_in_place(
        dim: usize,
        width: usize,
        matrix: &CMatrix,
        targets: &[usize],
        controls: &[(usize, usize)],
        state: &StateVector,
    ) {
        let plan = ApplyPlan::new(dim, width, matrix, targets, controls);
        let twin = tiled_twin(&plan);
        let what = format!("d={dim} n={width} targets {targets:?} controls {controls:?}");
        for simd in host_levels() {
            for parallel in [false, true] {
                let mut got = state.clone();
                plan.apply_forced_simd(&mut got, parallel, simd);
                let mut want = state.clone();
                twin.apply_forced_simd(&mut want, parallel, simd);
                let how = format!("{what} {simd:?} parallel={parallel}");
                assert_bits_eq(got.amplitudes(), want.amplitudes(), &how);
                if simd == SimdLevel::Scalar && targets.len() == 1 {
                    let stride = dim.pow((width - 1 - targets[0]) as u32);
                    let mut reference = state.clone();
                    let amps = reference.amplitudes_mut();
                    apply_k1_reference(&plan, amps, stride, matrix.as_slice());
                    assert_bits_eq(got.amplitudes(), reference.amplitudes(), &how);
                }
            }
        }
    }

    /// The control sets of the bit-identity sweep: none, one on the first
    /// qudit and one on the last (where they do not hit a target).
    fn control_sets(width: usize, dim: usize, targets: &[usize]) -> Vec<Vec<(usize, usize)>> {
        let mut sets = vec![vec![]];
        for q in [0, width - 1] {
            if width > targets.len() && !targets.contains(&q) {
                sets.push(vec![(q, dim - 1)]);
            }
        }
        sets
    }

    #[test]
    fn in_place_single_target_kernel_is_bit_identical_to_the_tiled_kernel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for dim in 2..=4usize {
            for width in 1..=7usize {
                let state = qudit_core::random_state(dim, width, &mut rng).unwrap();
                for target in 0..width {
                    for matrix in in_place_matrices(dim, &mut rng) {
                        for controls in control_sets(width, dim, &[target]) {
                            check_in_place(dim, width, &matrix, &[target], &controls, &state);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_two_qubit_kernel_is_bit_identical_to_the_tiled_kernel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for width in 2..=7usize {
            let state = qudit_core::random_state(2, width, &mut rng).unwrap();
            for a in 0..width {
                for b in (0..width).filter(|&b| b != a) {
                    for matrix in in_place_matrices(4, &mut rng) {
                        for controls in control_sets(width, 2, &[a, b]) {
                            check_in_place(2, width, &matrix, &[a, b], &controls, &state);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_blocks_above_four_amplitudes_stay_tiled() {
        let h = gates::qutrit::h3();
        let two = gates::controlled_matrix(3, 1, &h);
        let plan = ApplyPlan::for_matrix(3, 4, &two, &[1, 2]);
        assert!(matches!(plan.kind, PlanKind::Dense { .. }));
        assert!(matches!(
            ApplyPlan::for_matrix(3, 4, &h, &[1]).kind,
            PlanKind::DenseInPlace { .. }
        ));
    }

    #[test]
    fn simd_level_is_stable_within_a_process() {
        assert_eq!(simd_level(), simd_level());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        ApplyPlan::for_matrix(3, 2, &gates::qutrit::x01(), &[5]);
    }

    #[test]
    #[should_panic(expected = "addressable")]
    fn rejects_a_register_whose_length_overflows() {
        // 3^41 > 2^64: the odometer's fixed digit array relies on this check.
        ApplyPlan::for_matrix(3, 41, &gates::qutrit::h3(), &[0]);
    }

    #[test]
    #[should_panic(expected = "repeated qudit")]
    fn rejects_control_overlapping_target() {
        ApplyPlan::new(3, 3, &gates::qutrit::x01(), &[1], &[(1, 2)]);
    }
}
