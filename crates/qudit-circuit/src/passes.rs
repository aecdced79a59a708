//! A pass-based circuit compiler: IR transformation pipeline feeding the
//! simulation backends.
//!
//! The paper's headline claims are *resource* claims — depth and two-qudit
//! gate count — and its simulations replay every gate of the raw op list as
//! one kernel invocation. This module turns the circuit into a compiler IR
//! and runs a configurable pipeline of transformation passes over it before
//! anything is compiled to kernels:
//!
//! * [`CancellationPass`] removes adjacent inverse pairs (`U` then `U†` with
//!   no intervening operation on the same qudits, e.g. an increment
//!   immediately undone by a decrement) and outright identity operations;
//! * [`FusionPass`] composes runs of adjacent same-support gates — identical
//!   targets and control conditions, one or two targets — into one gate
//!   (`H` then `X` becomes the single matrix `X·H`; a pair of controlled
//!   two-qudit gates becomes one controlled product), and drops the run
//!   entirely when the product is the identity;
//! * [`RepackPass`] re-derives the as-early-as-possible [`Schedule`] after
//!   removals, so the depth the analyzer reports is the depth of the
//!   *transformed* circuit;
//! * [`SpecializePass`] tags every operation with its [`KernelClass`]
//!   (identity / permutation / diagonal / dense), the structure the
//!   simulator's plan builder uses to pick the cheap kernel.
//!
//! ## Pass levels and noise semantics
//!
//! Fusing or cancelling gates changes how many error channels a noisy
//! simulation charges, so optimization must never silently leak into
//! fidelity results. Two explicit [`PassLevel`]s pin the semantics:
//!
//! * [`PassLevel::NoisePreserving`] — only transformations that leave the
//!   schedule *and* the operation list unchanged are allowed: fusion is
//!   restricted to operations sharing a moment (a moment touches each qudit
//!   at most once, so nothing ever fuses) and cancellation/repacking do not
//!   run. The output circuit is guaranteed operation-for-operation identical
//!   to the input, so noisy fidelities are bit-identical with and without
//!   the pipeline. Both noise backends compile through this level.
//! * [`PassLevel::Ideal`] — the full pipeline, valid for noise-free runs
//!   only, where unitary equivalence is the only obligation.
//!
//! [`ResourceReport`] measures gate counts, two-qudit counts and depth
//! before and after the pipeline; the bench binaries regenerating the
//! paper's figures produce their count columns through it.

use crate::circuit::Circuit;
use crate::cost::{analyze, CircuitCosts, CostWeights};
use crate::decompose::decompose_operation;
use crate::gate::Gate;
use crate::operation::Operation;
use crate::routing::{RoutingPass, RoutingSummary};
use crate::schedule::{Frame, FrameDuration, FrameSchedule, Schedule};
use crate::topology::Topology;
use std::fmt;

/// Tolerance for structural matrix classification (permutation / diagonal /
/// identity detection) and inverse-pair recognition. Shared with the
/// simulator's kernel selection so the compiler's tags and the kernels
/// actually dispatched can never disagree.
pub const KERNEL_CLASS_TOL: f64 = 1e-12;

/// The structural class of an operation's gate matrix, which determines the
/// cheapest kernel the simulator can apply it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// The identity: applying the operation is a no-op.
    Identity,
    /// A basis permutation (classical gate): amplitudes move, never mix.
    Permutation,
    /// A diagonal matrix (phase-type gate): each amplitude is scaled
    /// independently, no gather/scatter.
    Diagonal,
    /// A general dense matrix.
    Dense,
}

impl KernelClass {
    /// Classifies a gate matrix. Controls do not change the class — the
    /// kernel applies control conditions by restricting which amplitude
    /// groups it visits, orthogonally to the matrix structure.
    pub fn of_matrix(matrix: &qudit_core::CMatrix) -> KernelClass {
        if let Some(perm) = matrix.as_permutation(KERNEL_CLASS_TOL) {
            if perm.iter().enumerate().all(|(i, &p)| i == p) {
                KernelClass::Identity
            } else {
                KernelClass::Permutation
            }
        } else if matrix.is_diagonal(KERNEL_CLASS_TOL) {
            KernelClass::Diagonal
        } else {
            KernelClass::Dense
        }
    }

    /// Classifies an operation by its gate matrix.
    pub fn of_operation(op: &Operation) -> KernelClass {
        KernelClass::of_matrix(op.gate().matrix())
    }
}

/// How aggressively the pipeline may transform the circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassLevel {
    /// Leave the operation list and schedule exactly as-is; only
    /// within-moment fusion (a provable no-op under the moment invariant)
    /// and specialization tagging run. Noisy fidelity results are
    /// bit-identical with and without the pipeline. This is the level the
    /// deprecated virtual-expansion noise shim compiles through.
    NoisePreserving,
    /// Physical lowering: every ≥3-qudit operation is expanded into its
    /// Di & Wei two-qudit realisation ([`DecompositionPass`]), and a
    /// [`FrameSchedule`] records which lowered operations belong to each
    /// original logical moment together with the frame's *measured*
    /// two-qudit layer count. No structural optimization runs — the frame
    /// partition is what makes the noise backends' uniform per-gate error
    /// accounting provably equal to the paper's published virtual
    /// accounting, and optimizing across decomposition boundaries would
    /// change which errors are charged. This is the level both noise
    /// backends compile through.
    Physical,
    /// Physical lowering followed by full optimization: cancellation (with
    /// commutation-aware lookthrough), cross-moment fusion and depth
    /// repacking run *across* decomposition boundaries. Valid for
    /// noise-free runs only.
    PhysicalIdeal,
    /// Full optimization at logical granularity: cancellation, cross-moment
    /// fusion and depth repacking, without lowering. Preserves the circuit
    /// unitary but not the gate count or schedule, so it is valid for
    /// noise-free runs only.
    Ideal,
}

impl PassLevel {
    /// The level's stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PassLevel::NoisePreserving => "noise-preserving",
            PassLevel::Physical => "physical",
            PassLevel::PhysicalIdeal => "physical-ideal",
            PassLevel::Ideal => "ideal",
        }
    }

    /// Parses a CLI flag or wire-format value. Accepts the stable names
    /// from [`PassLevel::name`] plus `logical` as an alias for
    /// `noise-preserving` (the ablation knob the noise backends map it to).
    pub fn from_flag(flag: &str) -> Option<PassLevel> {
        match flag.to_ascii_lowercase().as_str() {
            "noise-preserving" | "noisepreserving" | "logical" => Some(PassLevel::NoisePreserving),
            "physical" => Some(PassLevel::Physical),
            "physical-ideal" | "physicalideal" => Some(PassLevel::PhysicalIdeal),
            "ideal" => Some(PassLevel::Ideal),
            _ => None,
        }
    }

    /// Whether a noisy simulation can run at this level: only levels that
    /// preserve the error-site structure qualify (`Physical` — the lowered
    /// accounting — and `NoisePreserving` — the logical-granularity
    /// ablation). The optimizing levels change which errors would be
    /// charged, so they are noise-free only.
    pub fn supports_noise(self) -> bool {
        matches!(self, PassLevel::Physical | PassLevel::NoisePreserving)
    }
}

/// The mutable compilation state a [`Pass`] transforms.
///
/// Holds the current operation list (as a [`Circuit`]), the schedule when
/// one is known to be valid for that list, and the per-operation kernel
/// tags once [`SpecializePass`] has run. Mutating the operation list
/// invalidates both derived artifacts; [`RepackPass`] / [`SpecializePass`]
/// re-derive them.
#[derive(Clone, Debug)]
pub struct CircuitIr {
    pub(crate) circuit: Circuit,
    /// `None` after a transformation pass changed the op list ("stale").
    pub(crate) schedule: Option<Schedule>,
    /// Kernel tags per operation, in op order; `None` until specialization.
    pub(crate) kernel_tags: Option<Vec<KernelClass>>,
    /// The frame partition, once [`DecompositionPass`] has produced one.
    /// Invalidated (like the schedule) when a pass changes the op list.
    pub(crate) frames: Option<FrameSchedule>,
    /// What the [`RoutingPass`] did, once it has run. Deliberately survives
    /// [`CircuitIr::replace_ops`]: the placement permutations stay correct
    /// under later unitary-preserving transformations, and the pass keys its
    /// run-once behaviour on this being `Some`.
    pub(crate) routing: Option<RoutingSummary>,
}

impl CircuitIr {
    /// Builds the IR for a circuit, with its ASAP schedule attached.
    pub fn new(circuit: &Circuit) -> Self {
        CircuitIr {
            circuit: circuit.clone(),
            schedule: Some(Schedule::asap(circuit)),
            kernel_tags: None,
            frames: None,
            routing: None,
        }
    }

    /// The current operation list.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The current schedule, recomputing it if a transformation left it
    /// stale.
    pub fn schedule(&mut self) -> &Schedule {
        if self.schedule.is_none() {
            self.schedule = Some(Schedule::asap(&self.circuit));
        }
        self.schedule.as_ref().expect("just ensured")
    }

    /// Replaces the operation list, invalidating the schedule, tags and
    /// frame partition (but not the routing summary — see the field doc).
    pub(crate) fn replace_ops(&mut self, ops: Vec<Operation>) {
        self.circuit = Circuit::from_ops(self.circuit.dim(), self.circuit.width(), ops);
        self.schedule = None;
        self.kernel_tags = None;
        self.frames = None;
    }
}

/// What one pass invocation did, for the [`PassManager`]'s statistics.
///
/// The manager iterates its pipeline to a fixpoint, so the same pass can
/// appear in several rounds; `round` tells the invocations apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// The pass name.
    pub pass: &'static str,
    /// Which fixpoint round (1-based) this invocation ran in.
    pub round: usize,
    /// Operation count entering the pass.
    pub ops_before: usize,
    /// Operation count leaving the pass.
    pub ops_after: usize,
    /// Human-readable summary of the pass-specific effect (pairs fused,
    /// pairs cancelled, kernel-class histogram, …).
    pub detail: String,
    /// Whether the pass replaced the operation list *without* changing its
    /// length — routing that only relabels qudits onto sites does this.
    /// [`PassStats::changed`] folds it in, so the fixpoint loop still runs
    /// the follow-up round that re-derives the cleared frame partition.
    pub rewrote: bool,
}

impl PassStats {
    /// Whether the pass changed the operation list.
    pub fn changed(&self) -> bool {
        self.ops_before != self.ops_after || self.rewrote
    }
}

/// A circuit transformation pass.
pub trait Pass {
    /// The pass's stable name, used in statistics and reports.
    fn name(&self) -> &'static str;

    /// Transforms the IR in place and reports what happened.
    fn run(&self, ir: &mut CircuitIr) -> PassStats;

    /// Whether the pass only derives artifacts (schedule, tags) and never
    /// changes the operation list. Analysis passes run once after the
    /// transformation fixpoint instead of in every round.
    fn is_analysis(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Removes inverse pairs and identity operations.
///
/// Two operations cancel when they have identical controls and targets,
/// their gate matrices are mutual inverses, and the current operation can
/// be commuted back to its partner: every operation between them either
/// touches none of its qudits, or is diagonal while the cancelling pair is
/// diagonal too (diagonal operations commute regardless of how their
/// qudits overlap — controls are basis projectors, so a controlled
/// diagonal gate is diagonal as a whole). The wire-adjacent case of PR 3
/// is the special case with no lookthrough; the diagonal lookthrough is
/// what lets *lowered* circuits shrink, where a Di & Wei block ends in
/// diagonal phase gates that would otherwise fence off the mirror block.
///
/// A single pass catches the innermost pair of a nested `U V V† U†`
/// structure; the [`PassManager`] iterates the pipeline to a fixpoint,
/// unwrapping such nests completely.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancellationPass;

impl Pass for CancellationPass {
    fn name(&self) -> &'static str {
        "cancel"
    }

    fn run(&self, ir: &mut CircuitIr) -> PassStats {
        let ops_before = ir.circuit.len();
        let mut out: Vec<Option<Operation>> = Vec::with_capacity(ops_before);
        let mut pairs = 0usize;
        let mut identities = 0usize;
        let mut lookthroughs = 0usize;

        for op in ir.circuit.iter() {
            if op.gate().matrix().is_identity(KERNEL_CLASS_TOL) {
                identities += 1;
                continue;
            }
            let qudits = op.qudits();
            let diagonal = op.gate().matrix().is_diagonal(KERNEL_CLASS_TOL);
            // Walk backwards over the surviving operations. Disjoint ops
            // commute trivially; overlapping diagonal ops commute with a
            // diagonal `op`; the first overlapping op that is neither a
            // match nor commutable fences the search off.
            let mut cancelled = false;
            let mut skipped_overlap = false;
            for j in (0..out.len()).rev() {
                let Some(prev) = out[j].as_ref() else {
                    continue;
                };
                let overlaps = prev.qudits().iter().any(|q| qudits.contains(q));
                if !overlaps {
                    continue;
                }
                let matches = prev.controls() == op.controls()
                    && prev.targets() == op.targets()
                    && op
                        .gate()
                        .matrix()
                        .is_inverse_of(prev.gate().matrix(), KERNEL_CLASS_TOL);
                if matches {
                    out[j] = None;
                    pairs += 1;
                    if skipped_overlap {
                        lookthroughs += 1;
                    }
                    cancelled = true;
                    break;
                }
                if diagonal && prev.gate().matrix().is_diagonal(KERNEL_CLASS_TOL) {
                    skipped_overlap = true;
                    continue;
                }
                break;
            }
            if !cancelled {
                out.push(Some(op.clone()));
            }
        }

        let ops: Vec<Operation> = out.into_iter().flatten().collect();
        let ops_after = ops.len();
        if ops_after != ops_before {
            ir.replace_ops(ops);
        }
        PassStats {
            pass: self.name(),
            round: 0,
            ops_before,
            ops_after,
            detail: format!(
                "{pairs} inverse pair(s) ({lookthroughs} via commutation), {identities} identity op(s)"
            ),
            rewrote: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Physical decomposition
// ---------------------------------------------------------------------------

/// Lowers every ≥3-qudit operation into its exact Di & Wei two-qudit
/// realisation (see [`crate::decompose`]) and records the [`FrameSchedule`]:
/// one frame per pre-lowering logical moment, holding the lowered operation
/// indices and the frame's *measured* two-qudit layer count.
///
/// The frame partition is what downstream noise accounting consumes: gate
/// errors attach to the lowered gates themselves (one error per gate, on
/// the gate's own qudits — no arity dispatch), and idle durations are the
/// measured layer counts. Operations the decomposition cannot lower
/// (multi-target ops of arity ≥ 3) are passed through and counted in the
/// pass statistics; consumers that require a fully lowered circuit reject
/// them at program-construction time.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompositionPass;

impl Pass for DecompositionPass {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, ir: &mut CircuitIr) -> PassStats {
        let ops_before = ir.circuit.len();
        let has_high_arity = ir.circuit.iter().any(|op| op.arity() >= 3);
        if !has_high_arity && ir.frames.is_some() {
            // Fixpoint round after the lowering: the frames recorded in the
            // first round are still valid — leave them alone.
            return PassStats {
                pass: self.name(),
                round: 0,
                ops_before,
                ops_after: ops_before,
                detail: "already lowered".to_string(),
                rewrote: false,
            };
        }

        let dim = ir.circuit.dim();
        let width = ir.circuit.width();
        let schedule = ir.schedule().clone();
        let mut new_ops: Vec<Operation> = Vec::with_capacity(ops_before);
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(ops_before);
        let mut lowered = 0usize;
        let mut unsupported = 0usize;
        for op in ir.circuit.iter() {
            let start = new_ops.len();
            match decompose_operation(op) {
                Ok(seq) => {
                    if seq.len() > 1 {
                        lowered += 1;
                    }
                    new_ops.extend(seq);
                }
                Err(_) => {
                    unsupported += 1;
                    new_ops.push(op.clone());
                }
            }
            ranges.push((start, new_ops.len()));
        }

        let frames: Vec<Frame> = schedule
            .iter()
            .map(|(_, op_indices)| {
                let mut frame_ops: Vec<usize> = Vec::new();
                for &i in op_indices {
                    frame_ops.extend(ranges[i].0..ranges[i].1);
                }
                frame_ops.sort_unstable();
                let duration = measure_frame_duration(dim, width, &new_ops, &frame_ops);
                Frame::new(frame_ops, duration)
            })
            .collect();

        let ops_after = new_ops.len();
        if ops_after != ops_before {
            ir.replace_ops(new_ops);
        }
        ir.frames = Some(FrameSchedule::new(frames));
        PassStats {
            pass: self.name(),
            round: 0,
            ops_before,
            ops_after,
            detail: format!("{lowered} op(s) lowered, {unsupported} unsupported"),
            rewrote: false,
        }
    }
}

/// Measures one frame's duration: the number of two-qudit layers its
/// operations occupy under ASAP scheduling (single-qudit-only layers are
/// absorbed — the paper's "the single-qudit gates interleave" accounting).
pub(crate) fn measure_frame_duration(
    dim: usize,
    width: usize,
    ops: &[Operation],
    indices: &[usize],
) -> FrameDuration {
    let sub: Vec<Operation> = indices.iter().map(|&i| ops[i].clone()).collect();
    let sub_circuit = Circuit::from_ops(dim, width, sub);
    let layers = Schedule::asap(&sub_circuit)
        .moments()
        .iter()
        .filter(|m| m.max_arity() >= 2)
        .count();
    if layers == 0 {
        FrameDuration::SingleQudit
    } else {
        FrameDuration::TwoQuditLayers(layers)
    }
}

// ---------------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------------

/// Fuses runs of adjacent same-support gates into one composed gate,
/// dropping the run entirely when the product is the identity (`H` then
/// `H`, or a gate followed by its inverse).
///
/// Two consecutive ops have the *same support* when their target lists and
/// control conditions are identical (same qudits, same order, same
/// activation levels) and no other op touches any of those wires in
/// between. Then `C(U₂)·C(U₁) = C(U₂·U₁)`, so the run collapses to one op
/// whose matrix is pre-multiplied at compile time — each fused matrix is
/// applied once per trial instead of k times, which pays off thousands of
/// times under Monte Carlo replay. Fusion covers one- and two-target gates
/// (`d²×d²` products at most); wider gates pass through untouched.
///
/// With `across_moments = false` the pass only fuses gates that share a
/// schedule moment. A moment touches every qudit at most once, so nothing
/// ever fuses and the schedule is provably preserved — this is the
/// [`PassLevel::NoisePreserving`] configuration, kept as a real pass so the
/// invariant is enforced by construction rather than by convention.
#[derive(Clone, Copy, Debug)]
pub struct FusionPass {
    /// Whether gates from different schedule moments may fuse.
    pub across_moments: bool,
}

/// Longest fused-gate display name before collapsing to `"fused"`.
const MAX_FUSED_NAME: usize = 24;

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        if self.across_moments {
            "fuse"
        } else {
            "fuse(within-moment)"
        }
    }

    fn run(&self, ir: &mut CircuitIr) -> PassStats {
        let ops_before = ir.circuit.len();
        let dim = ir.circuit.dim();
        let width = ir.circuit.width();
        // Moment index per op, for the within-moment restriction.
        let moment_of: Vec<usize> = if self.across_moments {
            Vec::new()
        } else {
            let schedule = ir.schedule();
            let mut m = vec![0usize; ops_before];
            for (moment_idx, op_indices) in schedule.iter() {
                for &i in op_indices {
                    m[i] = moment_idx;
                }
            }
            m
        };

        let mut out: Vec<Option<Operation>> = Vec::with_capacity(ops_before);
        // Moment of the op currently held in each `out` slot (singles only).
        let mut out_moment: Vec<usize> = Vec::with_capacity(ops_before);
        let mut last_touch: Vec<Option<usize>> = vec![None; width];
        let mut fused = 0usize;
        let mut dropped = 0usize;

        for (op_idx, op) in ir.circuit.iter().enumerate() {
            let moment = if self.across_moments {
                0
            } else {
                moment_of[op_idx]
            };
            // Candidate ops: one or two targets (composed matrices stay at
            // most d²×d²). Every wire — targets and controls alike — must
            // have been last touched by the same held slot, and that slot's
            // op must have the identical support (targets in the same
            // order, identical control conditions), so the pair composes in
            // the same local basis.
            let wires = op.qudits();
            let prev_slot = (op.targets().len() <= 2)
                .then(|| {
                    let first = last_touch[wires[0]]?;
                    wires[1..]
                        .iter()
                        .all(|&w| last_touch[w] == Some(first))
                        .then_some(first)
                })
                .flatten()
                .filter(|&j| {
                    out[j].as_ref().is_some_and(|prev| {
                        prev.targets() == op.targets()
                            && prev.controls() == op.controls()
                            && (self.across_moments || out_moment[j] == moment)
                    })
                });

            if let Some(j) = prev_slot {
                let prev = out[j].as_ref().expect("filtered above");
                // `prev` runs first, so the composed matrix is op · prev.
                let composed = op.gate().matrix() * prev.gate().matrix();
                if composed.is_identity(KERNEL_CLASS_TOL) {
                    out[j] = None;
                    for &w in &wires {
                        last_touch[w] = None;
                    }
                    dropped += 1;
                } else {
                    let name = fused_name(prev.gate(), op.gate());
                    let gate = Gate::new(name, dim, op.targets().len(), composed)
                        .expect("product of same-shape matrices keeps the gate's shape");
                    out[j] = Some(
                        Operation::new(gate, op.controls().to_vec(), op.targets().to_vec())
                            .expect("support validated when the original ops were built"),
                    );
                    out_moment[j] = moment;
                    fused += 1;
                }
                continue;
            }

            out.push(Some(op.clone()));
            out_moment.push(moment);
            let idx = out.len() - 1;
            for q in op.qudits() {
                last_touch[q] = Some(idx);
            }
        }

        let ops: Vec<Operation> = out.into_iter().flatten().collect();
        let ops_after = ops.len();
        if ops_after != ops_before {
            ir.replace_ops(ops);
        }
        PassStats {
            pass: self.name(),
            round: 0,
            ops_before,
            ops_after,
            detail: format!("{fused} pair(s) fused, {dropped} identity product(s) dropped"),
            rewrote: false,
        }
    }
}

/// Display name for a fused gate, collapsing long chains.
fn fused_name(first: &Gate, second: &Gate) -> String {
    let name = format!("{}·{}", second.name(), first.name());
    if name.chars().count() > MAX_FUSED_NAME {
        "fused".to_string()
    } else {
        name
    }
}

// ---------------------------------------------------------------------------
// Repacking and specialization
// ---------------------------------------------------------------------------

/// Re-derives the ASAP schedule of the (possibly shrunken) operation list,
/// so downstream consumers see the post-removal depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepackPass;

impl Pass for RepackPass {
    fn name(&self) -> &'static str {
        "repack"
    }

    fn is_analysis(&self) -> bool {
        true
    }

    fn run(&self, ir: &mut CircuitIr) -> PassStats {
        let ops = ir.circuit.len();
        let depth = ir.schedule().depth();
        PassStats {
            pass: self.name(),
            round: 0,
            ops_before: ops,
            ops_after: ops,
            detail: format!("ASAP depth {depth}"),
            rewrote: false,
        }
    }
}

/// Tags every operation with its [`KernelClass`], the structure the
/// simulator's plan builder keys its kernel selection on.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpecializePass;

impl Pass for SpecializePass {
    fn name(&self) -> &'static str {
        "specialize"
    }

    fn is_analysis(&self) -> bool {
        true
    }

    fn run(&self, ir: &mut CircuitIr) -> PassStats {
        let ops = ir.circuit.len();
        let tags: Vec<KernelClass> = ir.circuit.iter().map(KernelClass::of_operation).collect();
        let counts = KernelCounts::from_tags(&tags);
        ir.kernel_tags = Some(tags);
        PassStats {
            pass: self.name(),
            round: 0,
            ops_before: ops,
            ops_after: ops,
            detail: counts.to_string(),
            rewrote: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Resource reporting
// ---------------------------------------------------------------------------

/// Histogram of operation kernel classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Operations whose gate is the identity.
    pub identity: usize,
    /// Basis-permutation (classical) operations.
    pub permutation: usize,
    /// Diagonal (phase-type) operations.
    pub diagonal: usize,
    /// General dense operations.
    pub dense: usize,
}

impl KernelCounts {
    /// Builds the histogram from per-operation tags.
    pub fn from_tags(tags: &[KernelClass]) -> Self {
        let mut counts = KernelCounts::default();
        for tag in tags {
            match tag {
                KernelClass::Identity => counts.identity += 1,
                KernelClass::Permutation => counts.permutation += 1,
                KernelClass::Diagonal => counts.diagonal += 1,
                KernelClass::Dense => counts.dense += 1,
            }
        }
        counts
    }
}

impl fmt::Display for KernelCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} perm / {} diag / {} dense / {} id",
            self.permutation, self.diagonal, self.dense, self.identity
        )
    }
}

/// The routed-circuit count columns, present when compilation ran under a
/// connectivity [`Topology`] (see [`RoutingPass`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutedCosts {
    /// Qudit-SWAP operations the router inserted to make every two-qudit
    /// gate nearest-neighbour.
    pub inserted_swaps: usize,
    /// Two-qudit gate count of the routed circuit (original gates plus
    /// inserted SWAPs).
    pub routed_two_qudit_gates: usize,
    /// Depth of the routed circuit (physical moments, including SWAPs).
    pub routed_depth: usize,
}

/// The resource analysis of one circuit: the paper's count columns (gate
/// counts, two-qudit gate count, depth) at logical and physical (Di & Wei)
/// granularity, plus the kernel-class histogram and — when compilation ran
/// under a connectivity [`Topology`] — the routed columns.
///
/// This analyzer is the single producer of the resource numbers the bench
/// binaries print for Figures 9–10 and the constructions' cost tables; ad
/// hoc counting at call sites is what it replaces.
///
/// ## Inferred vs measured physical costs (lowering at high arity)
///
/// [`ResourceReport::measure`] *infers* the physical column from the flat
/// Di & Wei per-operation weights: every ≥3-qudit operation is charged the
/// paper's fixed 6 two-qudit / 7 single-qudit constants regardless of
/// arity. That matches the actual lowering only for arity 3. At arity ≥ 4 the decomposition recurses (a k-controlled gate
/// lowers through (k−1)-controlled pieces), so the faithful physical
/// numbers exceed the flat constants — at k = 4 the recursion emits 14
/// two-qudit gates where the flat weights charge 6.
/// [`ResourceReport::measure_physical`] counts the *actual* lowered
/// operation list and is the faithful physical accounting; prefer it
/// whenever circuits may contain arity-≥4 operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceReport {
    /// Costs with ≥3-qudit operations counted as single logical gates.
    pub logical: CircuitCosts,
    /// Costs under the paper's Di & Wei expansion of ≥3-qudit operations.
    pub physical: CircuitCosts,
    /// Kernel-class histogram of the operation list.
    pub kernels: KernelCounts,
    /// Routed count columns; `None` unless compilation ran under a
    /// connectivity topology.
    pub routed: Option<RoutedCosts>,
}

impl ResourceReport {
    /// Measures a circuit. The physical column is *inferred* from the flat
    /// Di & Wei per-operation cost weights, which understate the recursive
    /// lowering of arity-≥4 operations; see
    /// [`ResourceReport::measure_physical`] for the measured (faithful)
    /// counterpart.
    pub fn measure(circuit: &Circuit) -> Self {
        let tags: Vec<KernelClass> = circuit.iter().map(KernelClass::of_operation).collect();
        ResourceReport::from_parts(circuit, &tags)
    }

    /// Measures a circuit with the physical column taken from the *actual*
    /// lowered circuit: the pipeline runs [`PassLevel::Physical`] and the
    /// two-qudit count, single-qudit count and physical depth are counted
    /// on the Di & Wei-expanded operation list and its frame schedule,
    /// rather than inferred from per-arity weights. The logical column and
    /// `total_ops` still describe the input circuit.
    ///
    /// These are the **faithful physical numbers**: for arity-≥4 operations
    /// the recursive lowering exceeds the flat Di & Wei constants that
    /// [`ResourceReport::measure`] charges (14 vs 6 two-qudit gates at
    /// k = 4), and this report reflects what is actually executed.
    pub fn measure_physical(circuit: &Circuit) -> Self {
        let ir = compile(circuit, PassLevel::Physical);
        ResourceReport {
            logical: analyze(circuit, CostWeights::logical()),
            physical: ir.report().post.physical,
            kernels: ir.report().post.kernels,
            routed: None,
        }
    }

    /// Builds the report from already-computed kernel tags (the pipeline
    /// reuses the specialization pass's tags rather than reclassifying).
    fn from_parts(circuit: &Circuit, tags: &[KernelClass]) -> Self {
        ResourceReport {
            logical: analyze(circuit, CostWeights::logical()),
            physical: analyze(circuit, CostWeights::di_wei()),
            kernels: KernelCounts::from_tags(tags),
            routed: None,
        }
    }

    /// Total operation count (logical granularity) — the number of kernel
    /// invocations a compiled replay performs.
    pub fn total_ops(&self) -> usize {
        self.logical.total_ops
    }

    /// The paper's two-qudit gate-count column (Di & Wei expansion).
    pub fn two_qudit_gates(&self) -> usize {
        self.physical.two_qudit_gates
    }

    /// The paper's circuit-depth column (physical moments, Di & Wei
    /// expansion).
    pub fn depth(&self) -> usize {
        self.physical.physical_depth
    }

    /// The logical depth (ASAP moments, no expansion).
    pub fn logical_depth(&self) -> usize {
        self.logical.logical_depth
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} two-qudit), depth {} (logical {}), kernels: {}",
            self.total_ops(),
            self.two_qudit_gates(),
            self.depth(),
            self.logical_depth(),
            self.kernels
        )?;
        if let Some(routed) = &self.routed {
            write!(
                f,
                ", routed: {} SWAPs / {} two-qudit / depth {}",
                routed.inserted_swaps, routed.routed_two_qudit_gates, routed.routed_depth
            )?;
        }
        Ok(())
    }
}

/// Everything the pipeline did to one circuit: resources before and after,
/// and per-pass statistics in execution order.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// The level the pipeline ran at.
    pub level: PassLevel,
    /// Resources of the input circuit.
    pub pre: ResourceReport,
    /// Resources of the transformed circuit.
    pub post: ResourceReport,
    /// Statistics of every pass invocation, in order.
    pub passes: Vec<PassStats>,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pass pipeline ({} level):", self.level.name())?;
        writeln!(f, "  pre:  {}", self.pre)?;
        writeln!(f, "  post: {}", self.post)?;
        // Show every invocation that changed the circuit, plus the final
        // (informational) invocation of each pass.
        for (i, stats) in self.passes.iter().enumerate() {
            let is_last_of_pass = self.passes[i + 1..].iter().all(|s| s.pass != stats.pass);
            if !stats.changed() && !is_last_of_pass {
                continue;
            }
            writeln!(
                f,
                "  round {} {:<20} {:>4} -> {:<4} ops  ({})",
                stats.round, stats.pass, stats.ops_before, stats.ops_after, stats.detail
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pass manager
// ---------------------------------------------------------------------------

/// Runs an ordered list of passes over a circuit, iterating to a fixpoint,
/// and collects per-pass statistics.
pub struct PassManager {
    level: PassLevel,
    passes: Vec<Box<dyn Pass>>,
    topology: Option<Topology>,
}

impl PassManager {
    /// The standard pipeline for a level:
    ///
    /// * `NoisePreserving` — within-moment fusion + specialization (no
    ///   structural change possible by construction);
    /// * `Physical` — Di & Wei decomposition + within-moment fusion +
    ///   repacking + specialization (structure-preserving after lowering,
    ///   so the recorded frame partition stays valid);
    /// * `PhysicalIdeal` — decomposition, then full optimization across
    ///   the decomposition boundaries;
    /// * `Ideal` — cancellation, cross-moment fusion, repacking,
    ///   specialization.
    pub fn standard(level: PassLevel) -> Self {
        PassManager::standard_with_topology(level, None)
    }

    /// The standard pipeline for a level, optionally constrained to a
    /// device [`Topology`]. With a topology, a [`RoutingPass`] joins the
    /// pipeline: *after* lowering on the `Physical` levels (so the
    /// interaction graph and SWAP insertion see the two-qudit gates that
    /// actually execute — triangle-free topologies cannot host a ≥3-qudit
    /// clique), and first on the logical-granularity levels. `None`
    /// topology is the implicit all-to-all device and yields exactly
    /// [`PassManager::standard`].
    pub fn standard_with_topology(level: PassLevel, topology: Option<Topology>) -> Self {
        let route = |passes: &mut Vec<Box<dyn Pass>>| {
            if let Some(t) = topology.clone() {
                passes.push(Box::new(RoutingPass::new(t)));
            }
        };
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        match level {
            PassLevel::NoisePreserving => {
                route(&mut passes);
                passes.push(Box::new(FusionPass {
                    across_moments: false,
                }));
                passes.push(Box::new(SpecializePass));
            }
            PassLevel::Physical => {
                passes.push(Box::new(DecompositionPass));
                route(&mut passes);
                passes.push(Box::new(FusionPass {
                    across_moments: false,
                }));
                passes.push(Box::new(RepackPass));
                passes.push(Box::new(SpecializePass));
            }
            PassLevel::PhysicalIdeal => {
                passes.push(Box::new(DecompositionPass));
                route(&mut passes);
                passes.push(Box::new(CancellationPass));
                passes.push(Box::new(FusionPass {
                    across_moments: true,
                }));
                passes.push(Box::new(RepackPass));
                passes.push(Box::new(SpecializePass));
            }
            PassLevel::Ideal => {
                route(&mut passes);
                passes.push(Box::new(CancellationPass));
                passes.push(Box::new(FusionPass {
                    across_moments: true,
                }));
                passes.push(Box::new(RepackPass));
                passes.push(Box::new(SpecializePass));
            }
        }
        PassManager {
            level,
            passes,
            topology,
        }
    }

    /// A manager with no passes, for building custom pipelines with
    /// [`PassManager::push`].
    pub fn empty(level: PassLevel) -> Self {
        PassManager {
            level,
            passes: Vec::new(),
            topology: None,
        }
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The level this manager runs at.
    pub fn level(&self) -> PassLevel {
        self.level
    }

    /// Runs the pipeline over `circuit` until no pass changes the operation
    /// list any more (cancellation exposes new fusion opportunities and vice
    /// versa — nested `U V V† U†` structures unwrap one layer per round).
    pub fn compile(&self, circuit: &Circuit) -> CompiledIr {
        let pre = ResourceReport::measure(circuit);
        let mut ir = CircuitIr::new(circuit);
        let mut all_stats: Vec<PassStats> = Vec::new();
        // Transformation passes iterate to a fixpoint (each round either
        // strictly shrinks the op list or is the last, so this terminates
        // after at most `len/2 + 1` rounds); analysis passes — which never
        // change the op list — run once afterwards.
        let mut round = 0usize;
        loop {
            round += 1;
            let mut changed = false;
            for pass in self.passes.iter().filter(|p| !p.is_analysis()) {
                let mut stats = pass.run(&mut ir);
                stats.round = round;
                changed |= stats.changed();
                all_stats.push(stats);
            }
            if !changed {
                break;
            }
        }
        for pass in self.passes.iter().filter(|p| p.is_analysis()) {
            let mut stats = pass.run(&mut ir);
            stats.round = round;
            all_stats.push(stats);
        }
        ir.schedule(); // ensure the final schedule is materialised
        let kernel_tags = ir
            .kernel_tags
            .take()
            .unwrap_or_else(|| ir.circuit.iter().map(KernelClass::of_operation).collect());
        let frames = ir.frames.take();
        let routing = ir.routing.take();
        // The post report reuses the tags the pipeline just computed
        // instead of reclassifying every matrix. When a frame partition
        // exists, the physical depth is the measured frame depth (the raw
        // ASAP depth of a lowered circuit both understates it — blocks can
        // stagger — and overstates it — padding singles spill a layer).
        let mut post = ResourceReport::from_parts(&ir.circuit, &kernel_tags);
        if let Some(frames) = &frames {
            post.physical.physical_depth = frames.physical_depth();
        }
        if let Some(summary) = &routing {
            post.routed = Some(RoutedCosts {
                inserted_swaps: summary.inserted_swaps,
                routed_two_qudit_gates: post.physical.two_qudit_gates,
                routed_depth: post.physical.physical_depth,
            });
        }
        CompiledIr {
            source: circuit.clone(),
            schedule: ir.schedule.take().expect("materialised above"),
            circuit: ir.circuit,
            kernel_tags,
            frames,
            routing,
            topology: self.topology.clone(),
            report: PipelineReport {
                level: self.level,
                pre,
                post,
                passes: all_stats,
            },
        }
    }
}

/// The pipeline's output: the transformed circuit, its schedule, the
/// per-operation kernel tags and the full [`PipelineReport`], plus the
/// source circuit the pipeline started from.
///
/// This is what the simulation layer compiles: `CompiledCircuit` /
/// `CompiledDensityCircuit` in `qudit-sim` build their per-operation plans
/// from `circuit()` (in op order, index-aligned with `schedule()`). The
/// noise backends charge their errors on `circuit()`, frame by frame:
/// `frames()` at the `Physical` levels, the moments of `schedule()` at
/// [`PassLevel::NoisePreserving`]. Their noise-free reference output comes
/// from [`CompiledIr::reference_circuit`] instead, compiled at
/// [`PassLevel::Ideal`].
#[derive(Clone, Debug)]
pub struct CompiledIr {
    source: Circuit,
    circuit: Circuit,
    schedule: Schedule,
    kernel_tags: Vec<KernelClass>,
    frames: Option<FrameSchedule>,
    routing: Option<RoutingSummary>,
    topology: Option<Topology>,
    report: PipelineReport,
}

impl CompiledIr {
    /// The transformed circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The schedule of the transformed circuit (op indices refer to
    /// [`CompiledIr::circuit`]).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The frame partition, when the pipeline contained a
    /// [`DecompositionPass`] (the `Physical` levels). Frames reference
    /// operations of [`CompiledIr::circuit`] and carry measured durations —
    /// the noise backends replay and account by frame.
    pub fn frames(&self) -> Option<&FrameSchedule> {
        self.frames.as_ref()
    }

    /// The kernel class of every operation, in op order.
    pub fn kernel_tags(&self) -> &[KernelClass] {
        &self.kernel_tags
    }

    /// The connectivity [`Topology`] the pipeline compiled under, when one
    /// was given — the noise backends consult it for schedule-adjacency
    /// (crosstalk pairing) and per-edge error weights. `None` means the
    /// implicit all-to-all device.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// What the router did, when the pipeline ran under a connectivity
    /// [`Topology`]: initial placement, final mapping and SWAP counts.
    /// Operations of [`CompiledIr::circuit`] then act on *sites*; undoing
    /// the recorded permutations recovers the logical-register semantics.
    pub fn routing(&self) -> Option<&RoutingSummary> {
        self.routing.as_ref()
    }

    /// The pipeline report (pre/post resources, per-pass statistics).
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// A circuit with the same unitary as [`CompiledIr::circuit`], built
    /// from the source circuit rather than the pipeline's output, so it
    /// holds none of the lowering. Without routing it is the source
    /// itself. A routed IR's circuit acts on sites, so its reference is
    /// the source relabelled through the routing placement, followed by the
    /// SWAPs ([`permutation_swaps`](crate::routing::permutation_swaps))
    /// that carry each qudit's state from its placement to its final
    /// mapping. Compiled at [`PassLevel::Ideal`] it is the cheapest
    /// noise-free replay of `circuit()` — the noise backends' reference.
    pub fn reference_circuit(&self) -> Circuit {
        let Some(summary) = &self.routing else {
            return self.source.clone();
        };
        let width = self.source.width();
        let mut reference = self
            .source
            .remap(&summary.placement, width)
            .expect("a placement is a permutation of the register");
        let mut carry = vec![0; width];
        for (q, &site) in summary.placement.iter().enumerate() {
            carry[site] = summary.final_mapping[q];
        }
        for pair in crate::routing::permutation_swaps(&carry) {
            reference
                .push_gate(Gate::swap(reference.dim()), &pair)
                .expect("a SWAP on two distinct sites is a valid operation");
        }
        reference
    }

    /// Decomposes into the owned circuit, schedule and report.
    pub fn into_parts(self) -> (Circuit, Schedule, PipelineReport) {
        (self.circuit, self.schedule, self.report)
    }
}

/// Runs the standard pipeline for `level` over a circuit.
///
/// This is the compile path the simulation backends use. A job compiles at
/// its own level. The noise backends charge their errors on a
/// [`PassLevel::Physical`] or [`PassLevel::NoisePreserving`] compile and
/// replay their noise-free reference from the [`PassLevel::Ideal`] compile
/// of its [`CompiledIr::reference_circuit`].
pub fn compile(circuit: &Circuit, level: PassLevel) -> CompiledIr {
    PassManager::standard(level).compile(circuit)
}

/// Runs the standard pipeline for `level` under an optional connectivity
/// [`Topology`]. `None` is the implicit all-to-all device and is exactly
/// [`compile`]. The topology's site count must equal the circuit width
/// (the job layer validates this before compiling).
///
/// # Panics
///
/// Panics when a topology is given and its site count differs from the
/// circuit width.
pub fn compile_with_topology(
    circuit: &Circuit,
    level: PassLevel,
    topology: Option<&Topology>,
) -> CompiledIr {
    if let Some(t) = topology {
        assert_eq!(
            t.sites(),
            circuit.width(),
            "topology site count must match circuit width"
        );
    }
    PassManager::standard_with_topology(level, topology.cloned()).compile(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Control;

    fn toffoli_fig4() -> Circuit {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c
    }

    #[test]
    fn noise_preserving_is_the_identity_transformation() {
        let mut c = toffoli_fig4();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::x(3), &[0]).unwrap(); // fusable at Ideal only
        let ir = compile(&c, PassLevel::NoisePreserving);
        assert_eq!(ir.circuit(), &c, "op list must be untouched");
        assert_eq!(ir.schedule(), &Schedule::asap(&c));
        assert_eq!(ir.report().post.total_ops(), c.len());
    }

    #[test]
    fn reference_circuit_is_the_source_without_routing() {
        let c = toffoli_fig4();
        for level in [
            PassLevel::Ideal,
            PassLevel::Physical,
            PassLevel::NoisePreserving,
        ] {
            assert_eq!(compile(&c, level).reference_circuit(), c);
        }
    }

    #[test]
    fn cancellation_removes_circuit_times_inverse_completely() {
        let mut c = toffoli_fig4();
        c.extend(&toffoli_fig4().inverse()).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(
            ir.circuit().len(),
            0,
            "U·U† must cancel to the empty circuit:\n{}",
            ir.report()
        );
        assert_eq!(ir.schedule().depth(), 0);
    }

    #[test]
    fn cancellation_requires_adjacency_on_every_wire() {
        // increment(0→1), CX(1→2), decrement(0→1): the CX touches qudit 1,
        // so the increment/decrement pair is *not* adjacent and must stay.
        let c = toffoli_fig4();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 3);
    }

    #[test]
    fn cancellation_commutes_through_diagonal_neighbours() {
        // Z(0), C[q0=1] Z(1), Z†(0): the middle op touches qudit 0 but is
        // diagonal (controls are projectors), so the Z/Z† pair commutes
        // through it and cancels — the ROADMAP follow-up PR 3 left open.
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::z(3), &[0]).unwrap();
        c.push_controlled(Gate::z(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_gate(Gate::z(3).inverse(), &[0]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(
            ir.circuit().len(),
            1,
            "diagonal pair must cancel through the diagonal CZ:\n{}",
            ir.report()
        );
        assert_eq!(ir.circuit().operations()[0].targets(), &[1]);
    }

    #[test]
    fn cancellation_does_not_commute_diagonals_through_dense_ops() {
        // Z(0), H(0), Z†(0): H is not diagonal, so the pair must stay.
        let mut c = Circuit::new(3, 1);
        c.push_gate(Gate::z(3), &[0]).unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::z(3).inverse(), &[0]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        // Fusion may still merge the run into fewer dense gates, so assert
        // on the unitary instead of the count: the composed product is not
        // the identity, hence something survives.
        assert!(!ir.circuit().is_empty());
    }

    #[test]
    fn cancellation_does_not_commute_dense_pairs_through_diagonals() {
        // H(0), C[q0=1] Z(1), H(0): H·H = I only if the pair is adjacent;
        // H is dense so the diagonal lookthrough must not apply.
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_controlled(Gate::z(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let manager = PassManager::standard(PassLevel::Ideal);
        let ir = manager.compile(&c);
        assert_eq!(ir.circuit().len(), 3);
    }

    #[test]
    fn fusion_composes_adjacent_single_qudit_gates() {
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_gate(Gate::z(3), &[1]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 2, "H·X fuse, Z(1) stays");
        let fused = &ir.circuit().operations()[0];
        let expected = Gate::x(3).matrix() * Gate::h(3).matrix();
        assert!(fused.gate().matrix().approx_eq(&expected, 1e-12));
        assert_eq!(fused.gate().name(), "X·H");
    }

    #[test]
    fn fusion_drops_self_inverse_pairs_entirely() {
        let mut c = Circuit::new(3, 1);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 0, "H·H = I must vanish");
    }

    #[test]
    fn fusion_respects_intervening_multi_qudit_ops() {
        // H(0), CX(0→1), H(0): the CX touches qudit 0, so the Hs must not
        // fuse across it.
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 3);
    }

    #[test]
    fn fusion_chains_runs_longer_than_two() {
        let mut c = Circuit::new(3, 1);
        for _ in 0..5 {
            c.push_gate(Gate::h(3), &[0]).unwrap();
        }
        let ir = compile(&c, PassLevel::Ideal);
        // H^5 = H: four gates' worth of products collapse into one.
        assert_eq!(ir.circuit().len(), 1);
        assert!(ir.circuit().operations()[0]
            .gate()
            .matrix()
            .approx_eq(Gate::h(3).matrix(), 1e-10));
    }

    #[test]
    fn fusion_composes_same_support_controlled_pairs() {
        // Two controlled gates with identical control condition and target:
        // C(X)·C(inc) = C(X·inc), one op.
        let mut c = Circuit::new(3, 2);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(0)], &[1])
            .unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 1, "same-support controlled pair fuses");
        let fused = &ir.circuit().operations()[0];
        assert_eq!(fused.targets(), &[1]);
        assert_eq!(fused.controls(), c.operations()[0].controls());
        let expected = Gate::x(3).matrix() * Gate::increment(3).matrix();
        assert!(fused.gate().matrix().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn fusion_drops_controlled_inverse_pairs() {
        let mut c = Circuit::new(3, 2);
        c.push_controlled(Gate::increment(3), &[Control::on_two(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_two(0)], &[1])
            .unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 0, "C(inc)·C(dec) = I must vanish");
    }

    #[test]
    fn fusion_requires_identical_control_conditions() {
        // Same wires, different activation level: C₁(U₂)·C₂(U₁) is NOT
        // C(U₂·U₁) — the pair must survive unfused (and uncancelled).
        let mut c = Circuit::new(3, 2);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_two(0)], &[1])
            .unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 2);

        // Swapped roles (control↔target) must not fuse either.
        let mut c = Circuit::new(3, 2);
        c.push_controlled(Gate::x(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(1)], &[0])
            .unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 2);
    }

    #[test]
    fn fusion_requires_no_intervening_touch_on_control_wires() {
        // A gate on the *control* qudit between two same-support controlled
        // ops changes what the control sees — no fusion allowed.
        let mut c = Circuit::new(3, 2);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 3);
    }

    #[test]
    fn repacking_shrinks_depth_after_removal() {
        // X(0), H(1), H(1), X(0): the Hs vanish, leaving two X ops on the
        // same qudit... which then fuse to identity too. Use distinct gates:
        // X(0), H(1), H(1), Z(0) → Z·X fused on qudit 0, depth 2 → 1.
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_gate(Gate::h(3), &[1]).unwrap();
        c.push_gate(Gate::h(3), &[1]).unwrap();
        c.push_gate(Gate::z(3), &[0]).unwrap();
        let pre_depth = Schedule::asap(&c).depth();
        assert_eq!(pre_depth, 2);
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 1);
        assert_eq!(ir.schedule().depth(), 1);
        assert!(ir.report().post.depth() < ir.report().pre.depth());
    }

    #[test]
    fn nested_inverse_structures_unwrap_via_fixpoint() {
        // A B B† A† with overlapping qudits: only the inner pair is
        // adjacent at first; the second round catches the outer pair.
        let mut c = Circuit::new(3, 2);
        let a = Operation::new(Gate::increment(3), vec![Control::on_one(0)], vec![1]).unwrap();
        let b = Operation::new(Gate::fourier(3), vec![Control::on_two(0)], vec![1]).unwrap();
        c.push(a.clone()).unwrap();
        c.push(b.clone()).unwrap();
        c.push(b.inverse()).unwrap();
        c.push(a.inverse()).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        assert_eq!(ir.circuit().len(), 0, "{}", ir.report());
    }

    #[test]
    fn kernel_classification_matches_gate_structure() {
        assert_eq!(
            KernelClass::of_matrix(&qudit_core::CMatrix::identity(3)),
            KernelClass::Identity
        );
        assert_eq!(
            KernelClass::of_matrix(Gate::increment(3).matrix()),
            KernelClass::Permutation
        );
        assert_eq!(
            KernelClass::of_matrix(Gate::z(3).matrix()),
            KernelClass::Diagonal
        );
        assert_eq!(
            KernelClass::of_matrix(Gate::clock(3).matrix()),
            KernelClass::Diagonal
        );
        assert_eq!(
            KernelClass::of_matrix(Gate::h(3).matrix()),
            KernelClass::Dense
        );
    }

    #[test]
    fn specialize_tags_every_operation() {
        let mut c = toffoli_fig4();
        c.push_controlled(Gate::z(3), &[Control::on_one(0)], &[2])
            .unwrap();
        let ir = compile(&c, PassLevel::NoisePreserving);
        assert_eq!(
            ir.kernel_tags(),
            &[
                KernelClass::Permutation,
                KernelClass::Permutation,
                KernelClass::Permutation,
                KernelClass::Diagonal
            ]
        );
        assert_eq!(ir.report().post.kernels.permutation, 3);
        assert_eq!(ir.report().post.kernels.diagonal, 1);
    }

    #[test]
    fn resource_report_measures_the_fig4_toffoli() {
        let report = ResourceReport::measure(&toffoli_fig4());
        assert_eq!(report.total_ops(), 3);
        assert_eq!(report.two_qudit_gates(), 3);
        assert_eq!(report.depth(), 3);
        assert_eq!(report.logical_depth(), 3);
    }

    #[test]
    fn report_display_mentions_passes_and_counts() {
        let mut c = Circuit::new(3, 1);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let ir = compile(&c, PassLevel::Ideal);
        let text = ir.report().to_string();
        assert!(text.contains("fuse"), "{text}");
        assert!(text.contains("ideal"), "{text}");
    }

    #[test]
    fn custom_pipelines_run_pushed_passes() {
        let mut c = Circuit::new(3, 1);
        c.push_gate(Gate::h(3), &[0]).unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let mut manager = PassManager::empty(PassLevel::Ideal);
        manager.push(Box::new(CancellationPass));
        let ir = manager.compile(&c);
        // H then H is an adjacent self-inverse pair: cancellation alone
        // removes it (round 1 changes, round 2 confirms the fixpoint).
        assert_eq!(ir.circuit().len(), 0);
        assert_eq!(ir.report().passes.iter().filter(|s| s.changed()).count(), 1);
    }
}
