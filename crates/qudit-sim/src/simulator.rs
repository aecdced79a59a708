//! Ideal (noise-free) circuit simulation.

use crate::kernel::{ApplyPlan, PAR_MIN_WORK};
use qudit_circuit::passes::{self, CompiledIr, PassLevel};
use qudit_circuit::{Circuit, Operation};
use qudit_core::{CoreResult, StateVector};
use rayon::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Maximum amplitudes per chunk of a cache-blocked replay segment (1 MiB of
/// complex amplitudes) — big enough that runs of ops are mergeable, small
/// enough that a chunk sits in a typical L2 while several ops sweep it.
const CHUNK_MAX_AMPS: usize = 1 << 16;

/// One stretch of a compiled circuit's replay order.
///
/// Whole-circuit replay is *cache-blocked*: a maximal run of consecutive
/// operations whose support (targets + controls) lies entirely within the
/// trailing (least-significant) qudits acts block-diagonally on contiguous,
/// identical chunks of the amplitude buffer — so the chunk loop can go
/// *outside* the op loop, streaming the state through cache once per
/// segment instead of once per op. Each amplitude sees the same arithmetic
/// in the same order either way, so chunked replay is bit-identical to
/// op-at-a-time replay.
#[derive(Clone, Debug)]
enum Segment {
    /// Ops `range`, applied one at a time via their full-width plans.
    Ops(Range<usize>),
    /// Ops `range`, applied chunk-by-chunk: every op's support lies in the
    /// trailing `span` qudits, so each is compiled as a width-`span` plan
    /// and applied to each `chunk = d^span`-amplitude slice independently.
    Chunked {
        range: Range<usize>,
        chunk: usize,
        plans: Vec<ApplyPlan>,
        /// The whole run folded into one explicit permutation of the chunk
        /// — present iff every op in the run is permutation-class.
        fused_perm: Option<ComposedPerm>,
        /// Total work estimate across all chunks — drives the decision to
        /// fan chunks out across rayon workers.
        work: usize,
    },
}

/// A run of permutation-class ops folded into one explicit permutation of
/// a chunk, stored as run-compressed cycles over chunk-local indices.
///
/// Permutations compose without any floating-point arithmetic, so applying
/// the composition is *exactly* the result of applying the ops one at a
/// time — including for paper constructions like `V·X·V⁻¹` conjugation
/// sandwiches, where most of the composition cancels and the fused
/// permutation moves only a small fraction of the chunk.
#[derive(Clone, Debug)]
struct ComposedPerm {
    /// Concatenated block-cycle positions (chunk-local amp indices).
    pos: Vec<u32>,
    /// End of each cycle within `pos`.
    bounds: Vec<u32>,
    /// Block length of each cycle: cycle positions `c` stand for the amp
    /// blocks `[c, c + len)`, which rotate together.
    lens: Vec<u32>,
    /// Largest block length — sizes the save buffer.
    max_len: usize,
    /// Amps moved per chunk (fixed points cost nothing).
    moved: usize,
}

/// Folds a run of permutation-class plans into the explicit permutation of
/// one `chunk`-amp slice, or `None` if any plan does arithmetic.
///
/// Works by tagging each slot with its own index and replaying the ops on
/// the tags: permutation kernels move amplitudes without mixing them, so
/// the final layout reads off the composed source map exactly (indices
/// below 2⁵³ are exact in f64; `chunk` is far below that).
fn compose_chunk_perm(plans: &[ApplyPlan], chunk: usize) -> Option<ComposedPerm> {
    if !plans.iter().all(|p| p.is_permutation()) {
        return None;
    }
    let mut tagged: Vec<qudit_core::Complex> = (0..chunk)
        .map(|i| qudit_core::Complex::real(i as f64))
        .collect();
    for plan in plans {
        plan.apply_amplitudes(&mut tagged, false);
    }
    // src[j] = chunk-local index whose input amp ends at position j.
    let src: Vec<u32> = tagged.iter().map(|c| c.re as u32).collect();

    let mut visited = vec![false; chunk];
    let mut pos = Vec::new();
    let mut bounds = Vec::new();
    let mut lens = Vec::new();
    let mut max_len = 0usize;
    let mut moved = 0usize;
    let mut cycle = Vec::new();
    for j in 0..chunk {
        if visited[j] || src[j] as usize == j {
            visited[j] = true;
            continue;
        }
        cycle.clear();
        cycle.push(j as u32);
        let mut cur = src[j] as usize;
        while cur != j {
            cycle.push(cur as u32);
            cur = src[cur] as usize;
        }
        // Run compression: grow the block length while every cycle position
        // translates consistently (src[c + t] = src[c] + t) into untouched
        // slots outside the cycle itself.
        let mut len = 1usize;
        'grow: loop {
            for &c in &cycle {
                let c = c as usize;
                if c + len >= chunk
                    || visited[c + len]
                    || src[c + len] as usize != src[c] as usize + len
                    || cycle.contains(&((c + len) as u32))
                {
                    break 'grow;
                }
            }
            len += 1;
        }
        for &c in &cycle {
            for slot in visited.iter_mut().skip(c as usize).take(len) {
                debug_assert!(!*slot, "overlapping cycle blocks");
                *slot = true;
            }
        }
        moved += cycle.len() * len;
        max_len = max_len.max(len);
        pos.extend_from_slice(&cycle);
        bounds.push(pos.len() as u32);
        lens.push(len as u32);
    }
    Some(ComposedPerm {
        pos,
        bounds,
        lens,
        max_len,
        moved,
    })
}

impl ComposedPerm {
    /// Applies the fused permutation to one chunk: each cycle is a forward
    /// block rotation (`out[cᵢ] = in[cᵢ₊₁]`, `out[c_last] = in[c₀]`).
    /// `save` must hold at least `max_len` amps.
    fn apply(&self, amps: &mut [qudit_core::Complex], save: &mut [qudit_core::Complex]) {
        let mut start = 0usize;
        for (ci, &end) in self.bounds.iter().enumerate() {
            let cycle = &self.pos[start..end as usize];
            start = end as usize;
            let len = self.lens[ci] as usize;
            let first = cycle[0] as usize;
            save[..len].copy_from_slice(&amps[first..first + len]);
            for w in cycle.windows(2) {
                let (dst, src) = (w[0] as usize, w[1] as usize);
                amps.copy_within(src..src + len, dst);
            }
            let last = cycle[cycle.len() - 1] as usize;
            amps[last..last + len].copy_from_slice(&save[..len]);
        }
    }
}

/// The number of trailing qudits that cover the op's support, or `None`
/// when the op touches the most significant qudit (span = full width, no
/// chunking possible).
fn trailing_span(width: usize, op: &Operation) -> Option<usize> {
    let min_q = op
        .targets()
        .iter()
        .copied()
        .chain(op.control_pairs().iter().map(|&(q, _)| q))
        .min()?;
    (min_q > 0).then_some(width - min_q)
}

/// Rebuilds `op`'s plan over only the trailing `span` qudits (indices
/// shifted down by `width - span`).
fn span_plan(dim: usize, width: usize, span: usize, op: &Operation) -> ApplyPlan {
    let shift = width - span;
    let targets: Vec<usize> = op.targets().iter().map(|&q| q - shift).collect();
    let controls: Vec<(usize, usize)> = op
        .control_pairs()
        .iter()
        .map(|&(q, l)| (q - shift, l))
        .collect();
    ApplyPlan::new(dim, span, op.gate().matrix(), &targets, &controls)
}

/// Greedily groups consecutive chunkable ops into [`Segment::Chunked`]
/// runs: a group grows while the union of supports still fits a
/// `CHUNK_MAX_AMPS`-bounded trailing span. Groups of one op gain nothing
/// from chunking (one stream either way) and fall back to [`Segment::Ops`].
fn build_segments(circuit: &Circuit) -> Vec<Segment> {
    let dim = circuit.dim();
    let width = circuit.width();
    let chunkable: Vec<Option<usize>> = circuit
        .iter()
        .map(|op| {
            trailing_span(width, op).filter(|&span| {
                dim.checked_pow(span as u32)
                    .is_some_and(|c| c <= CHUNK_MAX_AMPS)
            })
        })
        .collect();

    let mut segments: Vec<Segment> = Vec::new();
    let mut plain_start = 0usize;
    let mut i = 0usize;
    let ops: Vec<&Operation> = circuit.iter().collect();
    while i < ops.len() {
        let Some(mut span) = chunkable[i] else {
            i += 1;
            continue;
        };
        // Grow the group while the merged span stays under the cap.
        let mut j = i + 1;
        while j < ops.len() {
            let Some(s) = chunkable[j] else { break };
            let merged = span.max(s);
            if dim.pow(merged as u32) > CHUNK_MAX_AMPS {
                break;
            }
            span = merged;
            j += 1;
        }
        if j - i >= 2 {
            if plain_start < i {
                segments.push(Segment::Ops(plain_start..i));
            }
            let plans: Vec<ApplyPlan> = ops[i..j]
                .iter()
                .map(|op| span_plan(dim, width, span, op))
                .collect();
            let chunk = dim.pow(span as u32);
            let chunks = dim.pow((width - span) as u32);
            let fused_perm = compose_chunk_perm(&plans, chunk);
            let work = match &fused_perm {
                Some(cp) => cp.moved.saturating_mul(chunks),
                None => plans
                    .iter()
                    .map(|p| p.work_estimate())
                    .sum::<usize>()
                    .saturating_mul(chunks),
            };
            segments.push(Segment::Chunked {
                range: i..j,
                chunk,
                plans,
                fused_perm,
                work,
            });
            plain_start = j;
        }
        i = j.max(i + 1);
    }
    if plain_start < ops.len() {
        segments.push(Segment::Ops(plain_start..ops.len()));
    }
    segments
}

/// A circuit compiled into one [`ApplyPlan`] per operation, in program
/// order.
///
/// Compiling hoists all per-operation precomputation (strides, gather
/// offsets, control masks, kernel selection) out of the run loop; a compiled
/// circuit is immutable and [`Sync`], so the trajectory simulator shares one
/// across all its Monte Carlo trials.
///
/// Plans are index-aligned with the operation list they were compiled from:
/// `plan(i)` applies operation `i`. Whole-circuit replays should compile
/// from the *pass-transformed* IR ([`CompiledCircuit::compile_ir`]) so
/// fused/cancelled gates never reach the kernels; compile from a raw
/// [`Circuit`] only when an externally held
/// [`Schedule`](qudit_circuit::Schedule) must keep indexing the original op
/// list.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    dim: usize,
    width: usize,
    plans: Vec<Arc<ApplyPlan>>,
    /// Replay order for [`CompiledCircuit::run`], covering `0..plans.len()`
    /// — cache-blocked where consecutive ops allow it.
    segments: Vec<Segment>,
}

impl CompiledCircuit {
    /// Compiles every operation of the circuit exactly as given (no pass
    /// pipeline) — the index-aligned primitive.
    pub fn compile(circuit: &Circuit) -> Self {
        let plans = circuit
            .iter()
            .map(|op| Arc::new(ApplyPlan::for_operation(circuit.width(), op)))
            .collect();
        CompiledCircuit {
            dim: circuit.dim(),
            width: circuit.width(),
            plans,
            segments: build_segments(circuit),
        }
    }

    /// Compiles the pass-transformed IR: one plan per post-pass operation,
    /// index-aligned with [`CompiledIr::schedule`].
    pub fn compile_ir(ir: &CompiledIr) -> Self {
        CompiledCircuit::compile(ir.circuit())
    }

    /// The qudit dimension of the source circuit.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The register width of the source circuit.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The plans, in operation order.
    pub fn plans(&self) -> &[Arc<ApplyPlan>] {
        &self.plans
    }

    /// The plan of operation `op_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `op_idx` is out of range.
    pub fn plan(&self, op_idx: usize) -> &ApplyPlan {
        &self.plans[op_idx]
    }

    /// Runs the whole compiled circuit on `state`, consuming and returning
    /// it.
    ///
    /// Replay is cache-blocked: runs of consecutive ops supported on the
    /// trailing qudits are applied chunk-by-chunk (the state streams
    /// through cache once per run of ops, not once per op). The result is
    /// bit-identical to op-at-a-time replay.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape does not match the circuit.
    pub fn run(&self, state: StateVector) -> StateVector {
        self.run_inner(state, true)
    }

    /// Like [`CompiledCircuit::run`] but every gate is applied on the
    /// calling thread — for callers that already parallelise at a coarser
    /// granularity (one trajectory trial per core), where per-gate fan-out
    /// would oversubscribe the machine.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape does not match the circuit.
    pub fn run_sequential(&self, state: StateVector) -> StateVector {
        self.run_inner(state, false)
    }

    fn run_inner(&self, mut state: StateVector, may_parallelize: bool) -> StateVector {
        assert_eq!(state.dim(), self.dim, "dimension mismatch");
        assert_eq!(state.num_qudits(), self.width, "width mismatch");
        for segment in &self.segments {
            match segment {
                Segment::Ops(range) => {
                    for plan in &self.plans[range.clone()] {
                        if may_parallelize {
                            plan.apply(&mut state);
                        } else {
                            plan.apply_sequential(&mut state);
                        }
                    }
                }
                Segment::Chunked {
                    chunk,
                    plans,
                    fused_perm,
                    work,
                    ..
                } => {
                    let amps = state.amplitudes_mut();
                    let run_chunk = |slice: &mut [qudit_core::Complex]| match fused_perm {
                        Some(cp) => {
                            let mut save = vec![qudit_core::Complex::ZERO; cp.max_len];
                            cp.apply(slice, &mut save);
                        }
                        None => {
                            for plan in plans {
                                plan.apply_amplitudes(slice, false);
                            }
                        }
                    };
                    // Chunks are independent (every op acts block-diagonally
                    // on them), so fanning out cannot reorder arithmetic —
                    // the thread count never changes results.
                    if may_parallelize && *work >= PAR_MIN_WORK && rayon::current_num_threads() > 1
                    {
                        amps.par_chunks_mut(*chunk).for_each(run_chunk);
                    } else {
                        for slice in amps.chunks_exact_mut(*chunk) {
                            run_chunk(slice);
                        }
                    }
                }
            }
        }
        state
    }

    /// The replay segmentation as `(op count, chunk amplitudes)` pairs —
    /// chunk = 0 for op-at-a-time stretches. Diagnostic, used by the kernel
    /// microbench.
    pub fn replay_segments(&self) -> Vec<(usize, usize)> {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Ops(r) => (r.len(), 0),
                Segment::Chunked { range, chunk, .. } => (range.len(), *chunk),
            })
            .collect()
    }
}

/// Cache key for one (gate structure, register width, targets, controls)
/// combination. The matrix is keyed by *contents* (bit patterns of its
/// entries) plus its arity, so structurally-equal gates built by separate
/// constructor calls — e.g. the mirrored compute/uncompute halves of the
/// paper's circuits rebuilding `X+1` — share one plan. Negative zero is
/// normalised so `0.0` and `-0.0` entries produce the same key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    dim: usize,
    rows: usize,
    matrix_bits: Vec<u64>,
    width: usize,
    targets: Vec<usize>,
    controls: Vec<(usize, usize)>,
}

impl PlanKey {
    fn for_operation(width: usize, op: &Operation) -> Self {
        let matrix = op.gate().matrix();
        let bit = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        PlanKey {
            dim: op.gate().dim(),
            rows: matrix.rows(),
            matrix_bits: matrix
                .as_slice()
                .iter()
                .flat_map(|z| [bit(z.re), bit(z.im)])
                .collect(),
            width,
            targets: op.targets().to_vec(),
            controls: op.control_pairs(),
        }
    }
}

/// A dense state-vector simulator for qudit circuits.
///
/// The simulator caches one [`ApplyPlan`] per distinct (gate, qudits)
/// combination it encounters, so re-running the same circuit — or circuits
/// sharing gates — skips all per-operation precomputation after the first
/// pass.
///
/// # Examples
///
/// ```
/// use qudit_circuit::{Circuit, Control, Gate};
/// use qudit_sim::Simulator;
///
/// let mut c = Circuit::new(3, 2);
/// c.push_gate(Gate::x(3), &[0])?;
/// c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])?;
///
/// let out = Simulator::new().run(&c)?;
/// assert!((out.probability(&[1, 1]).unwrap() - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Simulator {
    cache: Mutex<HashMap<PlanKey, Arc<ApplyPlan>>>,
}

/// Plan-cache capacity. Keys are structural, so re-built gates re-hit; the
/// cap bounds growth from genuinely distinct matrices (e.g. the continuum
/// of `X^t` roots in the qubit baselines). Plans are cheap to rebuild, so
/// eviction is a wholesale clear rather than bookkeeping.
const PLAN_CACHE_CAP: usize = 1024;

impl Simulator {
    /// Creates a simulator with an empty plan cache.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Returns the cached plan for `op` on a `width`-qudit register,
    /// building and caching it on first sight.
    fn plan_for(&self, width: usize, op: &Operation) -> Arc<ApplyPlan> {
        let key = PlanKey::for_operation(width, op);
        let mut cache = self.cache.lock().expect("plan cache poisoned");
        if let Some(cached) = cache.get(&key) {
            return Arc::clone(cached);
        }
        let plan = Arc::new(ApplyPlan::for_operation(width, op));
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&plan));
        plan
    }

    /// The number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().expect("plan cache poisoned").len()
    }

    /// Compiles a circuit through this simulator's plan cache, exactly as
    /// given (no pass pipeline).
    ///
    /// Prefer this over [`CompiledCircuit::compile`] when several circuits
    /// share gates: shared operations compile once. Whole-circuit replays
    /// should run the pass pipeline first and compile its output
    /// ([`qudit_circuit::passes::compile`]).
    pub fn compile(&self, circuit: &Circuit) -> CompiledCircuit {
        CompiledCircuit {
            dim: circuit.dim(),
            width: circuit.width(),
            plans: circuit
                .iter()
                .map(|op| self.plan_for(circuit.width(), op))
                .collect(),
            segments: build_segments(circuit),
        }
    }

    /// Runs the circuit on the all-zeros input state.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit's dimension is invalid (propagated
    /// from state construction).
    pub fn run(&self, circuit: &Circuit) -> CoreResult<StateVector> {
        let state = StateVector::zero_state(circuit.dim(), circuit.width())?;
        Ok(self.run_with_state(circuit, state))
    }

    /// Runs the circuit on a caller-supplied initial state, consuming and
    /// returning it.
    ///
    /// Noise-free evolution compiles through the full
    /// [`PassLevel::Ideal`] pipeline: adjacent inverse pairs cancel,
    /// adjacent single-qudit gates fuse, and the kernels replay the
    /// transformed circuit — same unitary, fewer kernel invocations.
    ///
    /// # Panics
    ///
    /// Panics if the state's dimension or width does not match the circuit.
    pub fn run_with_state(&self, circuit: &Circuit, state: StateVector) -> StateVector {
        // Resolve the whole transformed circuit against the cache up
        // front: one key build + lock round-trip per op per *compile*,
        // zero per re-run of an op that is already cached.
        let ir = passes::compile(circuit, PassLevel::Ideal);
        self.compile(ir.circuit()).run(state)
    }

    /// Runs the circuit on a basis-state input given by digits.
    ///
    /// # Errors
    ///
    /// Returns an error if the digits are invalid for the circuit dimension.
    pub fn run_on_basis_state(
        &self,
        circuit: &Circuit,
        digits: &[usize],
    ) -> CoreResult<StateVector> {
        let state = StateVector::from_basis_state(circuit.dim(), digits)?;
        Ok(self.run_with_state(circuit, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{classical, Control, Gate};
    use qudit_core::random_qubit_subspace_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn zero_input_stays_zero_through_toffoli() {
        let out = Simulator::new().run(&toffoli_fig4()).unwrap();
        assert!((out.probability(&[0, 0, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_vector_agrees_with_classical_simulation_on_all_inputs() {
        let c = toffoli_fig4();
        let sim = Simulator::new();
        for input in classical::all_basis_states(3, 3) {
            let expected = classical::simulate_classical(&c, &input).unwrap();
            let out = sim.run_on_basis_state(&c, &input).unwrap();
            assert!(
                (out.probability(&expected).unwrap() - 1.0).abs() < 1e-10,
                "mismatch for input {input:?}"
            );
        }
    }

    #[test]
    fn superposition_input_entangles_correctly() {
        // Put the controls in (|00>+|11>)/√2 ⊗ |0>: after the Toffoli the
        // target should flip only on the |11> branch.
        let c = toffoli_fig4();
        let sim = Simulator::new();
        let mut init = StateVector::zero_state(3, 3).unwrap();
        let amp = qudit_core::Complex::real(1.0 / 2.0_f64.sqrt());
        init.amplitudes_mut()[0] = amp; // |000>
        init.amplitudes_mut()[StateVector::encode_digits(3, &[1, 1, 0]).unwrap()] = amp;
        let out = sim.run_with_state(&c, init);
        assert!((out.probability(&[0, 0, 0]).unwrap() - 0.5).abs() < 1e-10);
        assert!((out.probability(&[1, 1, 1]).unwrap() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn circuit_inverse_undoes_circuit_on_random_state() {
        let c = toffoli_fig4();
        let mut both = c.clone();
        both.extend(&c.inverse()).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let psi = random_qubit_subspace_state(3, 3, &mut rng).unwrap();
        let out = Simulator::new().run_with_state(&both, psi.clone());
        assert!(out.fidelity(&psi) > 1.0 - 1e-10);
    }

    #[test]
    fn plan_cache_deduplicates_repeated_operations() {
        // Figure 4's circuit re-runs share all plans; the increment and
        // decrement are distinct gates, X is a third, so 3 plans total.
        let c = toffoli_fig4();
        let sim = Simulator::new();
        sim.run(&c).unwrap();
        let after_first = sim.cached_plans();
        assert_eq!(after_first, 3);
        sim.run(&c).unwrap();
        sim.run(&c).unwrap();
        assert_eq!(
            sim.cached_plans(),
            after_first,
            "re-runs must not grow the cache"
        );
    }

    #[test]
    fn structurally_equal_gates_share_one_plan() {
        // Separate constructor calls build separate matrix allocations, but
        // the cache keys on contents, so they all dedup to a single plan.
        let sim = Simulator::new();
        for _ in 0..20 {
            let mut c = Circuit::new(3, 2);
            c.push_gate(Gate::increment(3), &[0]).unwrap();
            sim.run(&c).unwrap();
        }
        assert_eq!(sim.cached_plans(), 1);
    }

    #[test]
    fn plan_cache_is_bounded() {
        // Genuinely distinct matrices (a continuum of X^t roots) can never
        // re-hit; the cache must stay capped regardless.
        let sim = Simulator::new();
        for i in 0..(super::PLAN_CACHE_CAP + 100) {
            let mut c = Circuit::new(3, 2);
            c.push_gate(Gate::x_pow(3, (i + 1) as f64 * 1e-6), &[0])
                .unwrap();
            sim.run(&c).unwrap();
        }
        assert!(sim.cached_plans() <= super::PLAN_CACHE_CAP);
    }

    /// A circuit whose middle stretch is supported on trailing qudits, so
    /// the segment builder emits a chunked run bracketed by plain ops.
    fn chunkable_circuit(width: usize) -> Circuit {
        let mut c = Circuit::new(3, width);
        c.push_gate(Gate::fourier(3), &[0]).unwrap(); // touches q0: never chunked
        c.push_gate(Gate::fourier(3), &[width - 1]).unwrap();
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(width - 3)],
            &[width - 2],
        )
        .unwrap();
        c.push_gate(Gate::swap(3), &[width - 2, width - 1]).unwrap();
        c.push_gate(Gate::clock(3), &[width - 2]).unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap(); // touches q0 again
        c
    }

    #[test]
    fn segment_builder_blocks_the_trailing_support_run() {
        let c = chunkable_circuit(7);
        let compiled = CompiledCircuit::compile(&c);
        let segments = compiled.replay_segments();
        // [op0] plain, [ops1..5) chunked at span 3 (27 amps), [op5] plain.
        assert_eq!(segments, vec![(1, 0), (4, 27), (1, 0)]);
    }

    #[test]
    fn chunked_replay_is_bit_identical_to_op_at_a_time() {
        let c = chunkable_circuit(7);
        let compiled = CompiledCircuit::compile(&c);
        assert!(
            compiled
                .replay_segments()
                .iter()
                .any(|&(_, chunk)| chunk > 0),
            "test must exercise the chunked path"
        );
        let mut rng = StdRng::seed_from_u64(8);
        let psi = random_qubit_subspace_state(3, 7, &mut rng).unwrap();
        let mut reference = psi.clone();
        for plan in compiled.plans() {
            plan.apply_sequential(&mut reference);
        }
        let chunked = compiled.run_sequential(psi.clone());
        let parallel = compiled.run(psi);
        for ((r, c), p) in reference
            .amplitudes()
            .iter()
            .zip(chunked.amplitudes())
            .zip(parallel.amplitudes())
        {
            assert_eq!(r, c, "sequential chunked replay must be bit-identical");
            assert_eq!(r, p, "parallel chunked replay must be bit-identical");
        }
    }

    #[test]
    fn single_chunkable_ops_stay_unblocked() {
        // One chunkable op between unchunkable neighbours gains nothing
        // from chunking and must stay in a plain segment.
        let mut c = Circuit::new(3, 5);
        c.push_gate(Gate::fourier(3), &[0]).unwrap();
        c.push_gate(Gate::clock(3), &[4]).unwrap();
        c.push_gate(Gate::fourier(3), &[0]).unwrap();
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.replay_segments(), vec![(3, 0)]);
    }

    #[test]
    fn compiled_circuit_matches_simulator_run() {
        let c = toffoli_fig4();
        let sim = Simulator::new();
        let compiled = sim.compile(&c);
        for input in classical::all_basis_states(3, 3) {
            let a = sim.run_on_basis_state(&c, &input).unwrap();
            let b = compiled.run(StateVector::from_basis_state(3, &input).unwrap());
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                assert!(x.approx_eq(*y, 1e-12));
            }
        }
    }
}
