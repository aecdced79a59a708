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
//!   each run as cache-line-contiguous tiles: permutation cycles become
//!   block copies (`memcpy`-speed, full cache-line utilisation), diagonal
//!   scales become contiguous span sweeps, and the dense kernels gather a
//!   tile of groups into split re/im lanes and do the matrix multiply
//!   vectorised *across groups*.
//! * **Split-lane SIMD** ([`SimdLevel`]): the dense run kernels keep the
//!   scratch in separate `re`/`im` f64 lanes, which the autovectorizer can
//!   hold in SIMD registers; on x86-64 an explicit AVX2+FMA path (selected
//!   once per process by runtime feature detection, overridable with the
//!   `QUDIT_SIMD` environment variable) processes four groups per
//!   instruction. Non-x86 hosts and pre-AVX2 CPUs take the scalar
//!   fallback — there are no external SIMD crates involved.
//! * **Apply plans** ([`ApplyPlan`]): the per-operation precomputation
//!   (target strides, gather offsets, control offset, matrix in flat
//!   row-major and split re/im form, kernel selection, run shape) is done
//!   once and reused — the trajectory simulator replays the same circuit
//!   thousands of times, so plans are built per [`Operation`], not per
//!   application.
//! * **Specialised kernels**: monomorphic `k = 1` / `k = 2` kernels for the
//!   dominant qubit/qutrit dimensions (stack-allocated scratch, no branch in
//!   the multiply) cover the short-run tail, a sparse permutation fast path
//!   handles classical gates (`X`, `X+1`, `X−1`, level swaps — applied as
//!   precomputed index cycles, no complex arithmetic at all), and a generic
//!   gather–scatter kernel is the fallback.
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

/// Minimum run length before the dense kernels switch from the monomorphic
/// per-group path to the tiled split-lane (SIMD-capable) path: one AVX2
/// vector holds four f64 lanes, so shorter runs cannot fill a register.
const RUN_DENSE_MIN: usize = 4;

/// Groups per tile in the dense run kernels: bounds the split-lane scratch
/// (`2 · block · DENSE_TILE` f64) to stay L1/L2-resident even for `k = 2`
/// qutrit blocks.
const DENSE_TILE: usize = 128;

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
    /// Split-lane scalar f64 arithmetic (still autovectorizer-friendly).
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
    /// Dense single-target gate.
    DenseK1 {
        stride: usize,
        matrix: Vec<Complex>,
        split: SplitMatrix,
    },
    /// Dense two-target gate (gathers through the offsets table).
    DenseK2 {
        matrix: Vec<Complex>,
        split: SplitMatrix,
    },
    /// Dense gate on three or more targets: generic gather–scatter.
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
    /// repeats or overlaps a target, or a control level is `>= dim`.
    pub fn new(
        dim: usize,
        num_qudits: usize,
        matrix: &CMatrix,
        targets: &[usize],
        controls: &[(usize, usize)],
    ) -> Self {
        let n = num_qudits;
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
        let len = dim.pow(n as u32);

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
                    let split = SplitMatrix::of(&flat);
                    match k {
                        1 => PlanKind::DenseK1 {
                            stride: t_strides[0],
                            matrix: flat,
                            split,
                        },
                        2 => PlanKind::DenseK2 {
                            matrix: flat,
                            split,
                        },
                        _ => PlanKind::Dense {
                            matrix: flat,
                            split,
                        },
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
            PlanKind::DenseK1 { .. } | PlanKind::DenseK2 { .. } | PlanKind::Dense { .. } => {
                KernelClass::Dense
            }
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
            PlanKind::DenseK1 { .. } | PlanKind::DenseK2 { .. } | PlanKind::Dense { .. } => {
                4 * self.block * self.block
            }
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
    /// Long runs dispatch to the blocked kernels (contiguous copies /
    /// span scales / tiled split-lane multiplies); short runs fall back to
    /// the monomorphic per-group kernels.
    pub(crate) fn run_groups(&self, amps: AmpsPtr, start: usize, end: usize, simd: SimdLevel) {
        if start >= end {
            return;
        }
        match &self.kind {
            PlanKind::Identity => {}
            PlanKind::Permutation { flat, bounds } => {
                if self.run >= 2 && self.run_stride == 1 {
                    let mut tmp = vec![Complex::ZERO; self.run.min(end - start).min(PERM_TILE)];
                    self.for_each_run(start, end, |base, count| unsafe {
                        run_permutation_blocks(amps, base, count, flat, bounds, &mut tmp);
                    });
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
            PlanKind::DenseK1 {
                stride,
                matrix,
                split,
            } => {
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
                } else {
                    let s = *stride;
                    let rs = self.run_stride;
                    match self.dim {
                        2 => self.for_each_run(start, end, |base, count| unsafe {
                            let mut b = base;
                            for _ in 0..count {
                                group_k1_fixed::<2>(amps, b, s, matrix);
                                b += rs;
                            }
                        }),
                        3 => self.for_each_run(start, end, |base, count| unsafe {
                            let mut b = base;
                            for _ in 0..count {
                                group_k1_fixed::<3>(amps, b, s, matrix);
                                b += rs;
                            }
                        }),
                        4 => self.for_each_run(start, end, |base, count| unsafe {
                            let mut b = base;
                            for _ in 0..count {
                                group_k1_fixed::<4>(amps, b, s, matrix);
                                b += rs;
                            }
                        }),
                        _ => {
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
            PlanKind::DenseK2 { matrix, split } => {
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
                } else {
                    let rs = self.run_stride;
                    match self.dim {
                        2 => self.for_each_run(start, end, |base, count| unsafe {
                            let mut b = base;
                            for _ in 0..count {
                                group_k2_fixed::<2, 4>(amps, b, &self.offsets, matrix);
                                b += rs;
                            }
                        }),
                        3 => self.for_each_run(start, end, |base, count| unsafe {
                            let mut b = base;
                            for _ in 0..count {
                                group_k2_fixed::<3, 9>(amps, b, &self.offsets, matrix);
                                b += rs;
                            }
                        }),
                        _ => {
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
        let mut digits = vec![0usize; ucount];
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

    /// Copies `out.len()` amplitudes starting at `src` into `out`.
    #[inline(always)]
    unsafe fn read_block(self, src: usize, out: &mut [Complex]) {
        debug_assert!(src + out.len() <= self.len);
        std::ptr::copy_nonoverlapping(self.ptr.add(src), out.as_mut_ptr(), out.len());
    }

    /// Copies `input` into the buffer starting at `dst`.
    #[inline(always)]
    unsafe fn write_block(self, dst: usize, input: &[Complex]) {
        debug_assert!(dst + input.len() <= self.len);
        std::ptr::copy_nonoverlapping(input.as_ptr(), self.ptr.add(dst), input.len());
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
/// the cache disappears, as does the buffer-sized allocation).
///
/// # Safety
///
/// `base + off + count` must be in bounds for every offset in `flat`, the
/// caller must have exclusive access, and distinct offsets must differ by
/// at least `count` (guaranteed by the run construction: every target
/// stride exceeds the trailing free-stride chain). `tmp` must hold
/// `min(count, PERM_TILE)` elements.
unsafe fn run_permutation_blocks(
    amps: AmpsPtr,
    base: usize,
    count: usize,
    flat: &[usize],
    bounds: &[usize],
    tmp: &mut [Complex],
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

/// Split-lane scratch for the tiled dense run kernels: `block` gathered
/// input lanes of up to [`DENSE_TILE`] groups each, plus one output row.
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
    use super::DENSE_TILE;
    use core::arch::x86_64::*;

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

    /// Scales `count` interleaved complex amplitudes at `ptr` by
    /// `(dre, dim)` in place. Uses mul/sub/add only (no FMA) so the result
    /// is bit-identical to the scalar diagonal kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `ptr[..count]` is an
    /// exclusively owned, in-bounds run of `qudit_core::Complex` (two f64s,
    /// re then im).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_span(
        ptr: *mut qudit_core::Complex,
        count: usize,
        dre: f64,
        dim: f64,
    ) {
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
            *ptr.add(t) =
                qudit_core::Complex::new(dre * a.re - dim * a.im, dre * a.im + dim * a.re);
            t += 1;
        }
    }
}

/// Monomorphic single-target kernel: gathers `D` amplitudes at `stride`,
/// multiplies by the dense `D×D` matrix from stack scratch, scatters back.
///
/// # Safety
///
/// `base + j*stride` must be in bounds for `j < D` and exclusively owned by
/// the caller; `matrix` must hold `D*D` entries.
unsafe fn group_k1_fixed<const D: usize>(
    amps: AmpsPtr,
    base: usize,
    stride: usize,
    matrix: &[Complex],
) {
    debug_assert_eq!(matrix.len(), D * D);
    let mut local = [Complex::ZERO; D];
    let mut idx = base;
    for slot in &mut local {
        *slot = amps.get(idx);
        idx += stride;
    }
    let mut out = base;
    for r in 0..D {
        let row = &matrix[r * D..(r + 1) * D];
        let mut acc = Complex::ZERO;
        for c in 0..D {
            acc += row[c] * local[c];
        }
        amps.set(out, acc);
        out += stride;
    }
}

/// Monomorphic two-target kernel (`B = D*D`): gathers through the offsets
/// table into stack scratch, then a dense `B×B` multiply.
///
/// # Safety
///
/// `base + offsets[b]` must be in bounds and exclusively owned for
/// `b < B`; `matrix` must hold `B*B` entries; `offsets` must hold `B`.
unsafe fn group_k2_fixed<const D: usize, const B: usize>(
    amps: AmpsPtr,
    base: usize,
    offsets: &[usize],
    matrix: &[Complex],
) {
    debug_assert_eq!(D * D, B);
    debug_assert_eq!(offsets.len(), B);
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
    #[should_panic(expected = "repeated qudit")]
    fn rejects_control_overlapping_target() {
        ApplyPlan::new(3, 3, &gates::qutrit::x01(), &[1], &[(1, 2)]);
    }
}
