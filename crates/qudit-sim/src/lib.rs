//! # qudit-sim
//!
//! A dense state-vector simulator for qudit circuits. Gates are applied with
//! einsum-style kernels that never build the full `d^N × d^N` matrix, exactly
//! as the paper's Cirq extension does (Section 6.2); 14-qutrit circuits (a
//! ~77 MB state vector) are simulable on a laptop.
//!
//! ## Architecture: plans and kernels
//!
//! Gate application is the hot path of everything in this workspace — the
//! trajectory Monte Carlo simulator replays circuits thousands of times — so
//! it is split into a *planning* phase and an *execution* phase:
//!
//! 1. [`kernel::ApplyPlan`] precomputes, once per operation, everything the
//!    inner loop would otherwise recompute: target strides, the `d^k` gather
//!    offsets, the flat-index contribution of the control levels, the free
//!    (non-target, non-control) qudit strides, and the kernel to dispatch to.
//! 2. [`ApplyPlan::apply`](kernel::ApplyPlan::apply) enumerates the
//!    `d^(n-k-c)` amplitude-group base indices with a mixed-radix odometer
//!    over the free strides — no full-index scan, no `pow`/div/mod in any
//!    inner loop — and runs one of four kernels per group:
//!    * a **permutation** kernel for classical gates (`X`, `X±1`, level
//!      swaps): precomputed index cycles, zero complex arithmetic;
//!    * a **diagonal** kernel for phase-type gates;
//!    * an **in-place dense** kernel for blocks of at most four
//!      amplitudes (`k = 1` at `d ≤ 4`, `k = 2` at `d = 2`): each group is
//!      loaded once and all its rows accumulate in registers;
//!    * a **tiled dense** kernel for larger blocks (split re/im scratch
//!      lanes over long runs, per-group gather–scatter over short ones).
//!
//!    Above [`kernel::PAR_MIN_WORK`] estimated amplitude-operations the
//!    groups are chunked across rayon workers; groups never share an
//!    amplitude, so the workers are race-free by construction.
//! 3. [`Simulator`] caches plans per distinct (gate, qudits) pair, and
//!    [`CompiledCircuit`] pins down one plan per operation — plus a
//!    cache-blocked segment schedule that replays trailing-support runs
//!    chunk-by-chunk and folds all-permutation runs into one composed
//!    index permutation — so replay loops (ideal evolution, trajectory
//!    trials) do no planning at all.
//!
//! The seed's naive full-scan implementation is retained in
//! `apply::reference` as the oracle for the kernel equivalence test suite.
//!
//! ## Backends
//!
//! Two simulation backends share the same plan/kernel machinery:
//!
//! * the **state-vector** backend ([`Simulator`] / [`CompiledCircuit`]) —
//!   `d^n` amplitudes, exact for noise-free evolution, sampled (quantum
//!   trajectories, in `qudit-noise`) under noise;
//! * the **density-matrix** backend ([`density`]) — `d^2n` entries, exact
//!   under noise: `U·ρ·U†` is two plan applications on the vectorised `ρ`
//!   (`U` on the row digits, `conj(U)` on the column digits) and Kraus
//!   channels are single precompiled superoperator plans.
//!
//! The noise-free simulator lives here; the quantum-trajectory noise
//! simulator (Algorithm 1 of the paper) builds on these kernels from the
//! `qudit-noise` crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod apply;
pub mod density;
pub mod kernel;
mod measure;
mod simulator;

pub use apply::reference;
pub use density::{superoperator_targets, CompiledDensityCircuit, DensityMatrix, UnitaryPlanPair};
pub use kernel::ApplyPlan;
pub use measure::{
    marginal_distribution, qubit_subspace_probability, sample_histogram, sample_measurement,
};
pub use simulator::{CompiledCircuit, Simulator};
