//! Quantum-trajectory Monte Carlo noise simulation (Algorithm 1).
//!
//! Instead of evolving a `d^N × d^N` density matrix, each trial propagates a
//! single state vector and draws one error branch per noise-channel
//! application; averaging the resulting fidelities over many trials converges
//! to the density-matrix result.
//!
//! ## Frame-based accounting
//!
//! Both noise backends replay a [`NoiseProgram`]: the circuit partitioned
//! into *frames* (one per logical moment of the source circuit), each frame
//! holding its operations and a measured idle duration. Per frame, a trial
//!
//! 1. applies every operation's unitary,
//! 2. applies every operation's gate-error channel — **one error per gate,
//!    on the gate's own qudits** (single-qudit depolarizing for 1-qudit
//!    gates, two-qudit depolarizing for 2-qudit gates),
//! 3. applies the idle amplitude-damping error to every qudit for the
//!    frame's duration, as one idle group in qudit order, and
//! 4. applies the crosstalk phases between the frame's busy adjacent pairs.
//!
//! That order is written once, in [`NoiseProgram::replay`]; the exact
//! density-matrix engine replays through the same loop, so the two engines
//! charge the same channels in the same order. Each engine applies the
//! idle group through the `NoisyState::idle` hook. The exact engine charges
//! the sites one by one. A trajectory trial samples them as the one-by-one
//! loop would, but in one read pass and one write pass over the state while
//! no qudit jumps; the group leaves the state at unit norm, so the frame
//! ends without a renormalisation pass.
//!
//! The default program is built from a circuit compiled through the
//! compiler's [`PassLevel::Physical`] pipeline, which lowers every
//! ≥3-qudit operation into its exact Di & Wei realisation (6
//! two-qudit + 7 single-qudit gates, 6 two-qudit layers) — so the error
//! sites and idle durations *fall out of the lowered circuit*, with no
//! arity-dispatch anywhere in the noise code. Because every gate-error
//! channel here is a Weyl-symmetric depolarizing channel (equivalently:
//! "replace the targeted qudits with the maximally mixed state with
//! probability `d²p`"), all gate errors of a frame commute with one
//! another, and charging them at the end of the frame is *exactly* equal
//! to the virtual per-arity accounting the paper publishes — the
//! `decomposition_diff` differential suite pins that equality at ≤ 1e-9
//! against an independent oracle across every noise model.
//!
//! ## Pass level
//!
//! Which accounting a simulation uses follows the compiler [`PassLevel`]
//! of the IR its [`SharedNoiseArtifacts`](crate::SharedNoiseArtifacts)
//! were built from (one layer up, the `qudit-api` job façade compiles each
//! job at its spec's level):
//!
//! * [`PassLevel::Physical`] (default) — the lowered accounting above.
//! * [`PassLevel::NoisePreserving`] — the *logical* ablation: the circuit
//!   is left unlowered and every operation charges a single error on its
//!   own qudits (one two-qudit error on the first two qudits for ≥2-qudit
//!   operations), with idle durations from the unexpanded schedule. This is
//!   the optimistic baseline the paper's ablation compares against.
//! * The optimizing levels (`Ideal`, `PhysicalIdeal`) change which errors
//!   would be charged, so building noise artifacts from them fails with a
//!   typed error.
//!
//! [`TrajectoryConfig::level`] selects nothing: neither backend reads it.
//!
//! ## Ideal reference
//!
//! The noise is charged on the program circuit, but the noise-free output
//! each fidelity compares against is not replayed from it. Both engines
//! take it from the [`PassLevel::Ideal`] compile of the IR's
//! [`reference_circuit`](CompiledIr::reference_circuit): the circuit the
//! job started from (relabelled through the routing placement and followed
//! by the residual SWAPs when the IR was routed), which has the program's
//! unitary and none of its lowering — 7 operations at nCX(7), where the
//! Physical program has 79. A deterministic input
//! ([`InputState::is_deterministic`]) is drawn and its reference replayed
//! once per run rather than once per trial.

use crate::cancel::CancelToken;
use crate::error::{NoiseError, NoiseResult};
use crate::kraus::{apply_idle_group, Channel, CompiledChannel};
use crate::models::NoiseModel;
use qudit_circuit::passes::{CompiledIr, PassLevel};
use qudit_circuit::{Circuit, FrameDuration, FrameSchedule, Operation, Topology};
use qudit_core::{random_qubit_subspace_state, CoreError, StateVector};
use qudit_sim::{CompiledCircuit, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The input-state distribution for each trial.
#[derive(Clone, Debug, PartialEq)]
pub enum InputState {
    /// A Haar-random state restricted to the qubit subspace of every qudit —
    /// the paper's circuits take qubit inputs and outputs.
    RandomQubitSubspace,
    /// The all-|1⟩ state (every control active), the worst case for
    /// propagating the |2⟩ temporary storage through the whole tree.
    AllOnes,
    /// A fixed basis state.
    Basis(Vec<usize>),
}

impl InputState {
    /// Draws one initial state of `width` qudits of dimension `dim`. Only
    /// [`InputState::RandomQubitSubspace`] consumes `rng`. Both noise
    /// engines seed draw `i` with `seed + i`, so an exact run and a
    /// trajectory run of the same config see the same inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if a basis state does not fit `dim` and `width`.
    pub fn draw<R: Rng + ?Sized>(
        &self,
        dim: usize,
        width: usize,
        rng: &mut R,
    ) -> Result<StateVector, CoreError> {
        match self {
            InputState::RandomQubitSubspace => random_qubit_subspace_state(dim, width, rng),
            InputState::AllOnes => StateVector::from_basis_state(dim, &vec![1usize; width]),
            InputState::Basis(digits) => StateVector::from_basis_state(dim, digits),
        }
    }

    /// Whether every draw gives the same state without consuming the RNG
    /// ([`InputState::AllOnes`] and [`InputState::Basis`]). The engines
    /// then draw the input and its ideal output once per run instead of
    /// once per trial or draw.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, InputState::RandomQubitSubspace)
    }
}

/// Configuration for a trajectory simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryConfig {
    /// Number of Monte Carlo trials.
    pub trials: usize,
    /// Base RNG seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// The pass level the caller compiled the circuit at. Neither backend
    /// reads it: the noise accounting follows the level of the IR the
    /// [`SharedNoiseArtifacts`](crate::SharedNoiseArtifacts) were built
    /// from ([`PassLevel::Physical`] for the Di & Wei-lowered circuit,
    /// [`PassLevel::NoisePreserving`] for the logical ablation).
    pub level: PassLevel,
    /// Input-state distribution.
    pub input: InputState,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            trials: 100,
            seed: 2019,
            level: PassLevel::Physical,
            input: InputState::RandomQubitSubspace,
        }
    }
}

/// The result of a trajectory simulation: a Monte Carlo fidelity estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FidelityEstimate {
    /// Mean fidelity over the trials.
    pub mean: f64,
    /// Standard error of the mean (σ/√trials).
    pub std_error: f64,
    /// Number of trials.
    pub trials: usize,
}

impl FidelityEstimate {
    /// The paper reports `2σ` error bars; this is `2 × std_error`.
    pub fn two_sigma(&self) -> f64 {
        2.0 * self.std_error
    }

    /// The binomial error bar `√(F(1−F)/trials)`, floored by the
    /// rule-of-three bound `3/trials`: since per-trial fidelities lie in
    /// `[0, 1]`, the closed form bounds the standard error of the mean
    /// regardless of the per-trial distribution — but it collapses to
    /// exactly 0 at `F ∈ {0, 1}` (all-success or all-failure samples),
    /// claiming perfect certainty at any finite trial count. `3/n` is the
    /// 95% confidence bound on a probability after `n` trials with zero
    /// observed failures (or successes), so the floor keeps the bar honest
    /// in the near-deterministic regime; it is what the adaptive stopping
    /// rule and the cross-validation gate rely on never being zero.
    pub fn binomial_sigma(&self) -> f64 {
        let n = self.trials.max(1) as f64;
        let f = self.mean.clamp(0.0, 1.0);
        (f * (1.0 - f) / n).sqrt().max((3.0 / n).min(1.0))
    }

    /// The conservative error bar adaptive early-stopping compares against
    /// its target: the larger of the sample standard error and the floored
    /// binomial bound. Never zero at a finite trial count, so a sequential
    /// stopper cannot quit with false certainty after a lucky first chunk.
    pub fn conservative_sigma(&self) -> f64 {
        self.std_error.max(self.binomial_sigma())
    }
}

/// How many Monte Carlo trials a noisy run executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Precision {
    /// Run exactly the configured trial count ([`TrajectoryConfig::trials`])
    /// — the pre-adaptive behaviour, bit-identical to it.
    FixedTrials,
    /// Sequential early stopping: run trials in chunks, accumulate the
    /// estimate via Welford merge, and stop as soon as the conservative
    /// error bar ([`FidelityEstimate::conservative_sigma`]) drops to
    /// `sigma` — with at least `min_trials` and at most `max_trials`
    /// trials. Trial `i` still uses `seed + i`, so the per-trial fidelity
    /// stream is bit-identical to the prefix of a fixed-count run.
    TargetSigma {
        /// The target standard error of the mean.
        sigma: f64,
        /// Never stop before this many trials (≥ 1).
        min_trials: usize,
        /// The trial budget: stop here even if the target is unmet.
        max_trials: usize,
    },
}

/// Streaming mean/variance accumulator (Welford's algorithm) with the
/// Chan et al. parallel merge — the aggregation behind adaptive
/// early-stopping. Merging per-chunk accumulators agrees with the
/// single-pass estimate over the concatenated samples to ≤ 1e-12 (pinned
/// by test).
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator in (Chan et al. pairwise update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The running mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The accumulated estimate, with the same degenerate-count rule as
    /// `estimate_from_samples`: at ≤ 1 sample the spread is unknown, so
    /// the standard error reports the floored binomial bound rather than a
    /// confident 0.
    pub fn estimate(&self) -> FidelityEstimate {
        let n = self.count.max(1) as f64;
        let base = FidelityEstimate {
            mean: self.mean,
            std_error: 0.0,
            trials: self.count,
        };
        let std_error = if self.count > 1 {
            // m2 is a sum of non-negative increments; max(0) only guards
            // against rounding driving a ~0 value epsilon-negative.
            (self.m2.max(0.0) / (n - 1.0) / n).sqrt()
        } else {
            base.binomial_sigma()
        };
        FidelityEstimate { std_error, ..base }
    }
}

/// One gate-error charge: a single-qudit or two-qudit channel application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ErrorSite {
    /// Charge the single-qudit gate-error channel to this qudit.
    Single(usize),
    /// Charge the two-qudit gate-error channel to this qudit pair.
    Pair([usize; 2]),
}

/// One frame of a [`NoiseProgram`]: the operations executed in it and the
/// idle duration charged after them.
#[derive(Clone, Debug)]
pub(crate) struct ProgramFrame {
    /// Indices into the program circuit's op list, in op order.
    pub(crate) ops: Vec<usize>,
    /// The frame's idle duration.
    pub(crate) duration: FrameDuration,
}

/// Everything a noise backend replays: the circuit (possibly lowered), its
/// frame partition, and the gate-error sites of every operation.
///
/// Both backends consume this one structure, so which errors are charged
/// where is defined in exactly one place and the two engines cannot drift
/// apart.
pub(crate) struct NoiseProgram {
    pub(crate) circuit: Circuit,
    pub(crate) frames: Vec<ProgramFrame>,
    /// Per-operation gate-error site, index-aligned with the circuit.
    pub(crate) sites: Vec<Option<ErrorSite>>,
    /// Per-frame qudit pairs a crosstalk-enabled model couples: sorted
    /// `u < v` pairs whose both endpoints are busy in the frame and — when
    /// the IR carries a topology — adjacent on it. Model-independent, so
    /// one program serves every model; models without crosstalk simply
    /// build no sites for these pairs.
    pub(crate) crosstalk_pairs: Vec<Vec<[usize; 2]>>,
    /// Per-edge error-rate multipliers from the IR's topology (sorted
    /// `u < v` keys; absent = 1.0): SWAPs and other two-qudit gates on a
    /// poor edge charge a proportionally scaled `p2`.
    pub(crate) edge_quality: HashMap<[usize; 2], f64>,
}

impl NoiseProgram {
    /// Builds the program from an already-compiled IR. Every operation of
    /// the IR's circuit charges one gate error (see `op_site`); the level
    /// the IR was compiled at decides only the frame partition:
    ///
    /// * [`PassLevel::Physical`] — the lowered accounting: the recorded
    ///   frames of the lowered circuit, so idle durations are measured from
    ///   the Di & Wei expansion.
    /// * [`PassLevel::NoisePreserving`] — the logical ablation: one frame
    ///   per unexpanded moment. This is the optimistic baseline the paper's
    ///   accounting ablation compares against.
    ///
    /// The pass pipeline (including the Di & Wei eigendecompositions) runs
    /// before this, once per structurally distinct circuit in the
    /// `qudit-api` executor's job cache.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::UnsupportedLevel`] for the optimizing levels
    /// and [`NoiseError::Simulation`] if a ≥3-qudit operation could not be
    /// lowered (multi-target high-arity operations).
    pub(crate) fn from_ir(ir: &CompiledIr) -> NoiseResult<NoiseProgram> {
        let frames = match ir.report().level {
            PassLevel::Physical => {
                if let Some(op) = ir.circuit().iter().find(|op| op.arity() >= 3) {
                    return Err(NoiseError::Simulation {
                        reason: format!("operation {op} could not be lowered to arity ≤ 2"),
                    });
                }
                program_frames(
                    ir.frames()
                        .expect("the Physical pipeline always records frames"),
                )
            }
            PassLevel::NoisePreserving => {
                program_frames(&FrameSchedule::from_moments(ir.schedule()))
            }
            level => {
                return Err(NoiseError::UnsupportedLevel {
                    level: level.name(),
                })
            }
        };
        let circuit = ir.circuit().clone();
        let sites = circuit.iter().map(op_site).collect();
        let crosstalk_pairs = crosstalk_pairs(&circuit, &frames, ir.topology());
        Ok(NoiseProgram {
            circuit,
            frames,
            sites,
            crosstalk_pairs,
            edge_quality: edge_quality_map(ir.topology()),
        })
    }

    /// Every qudit pair the program's gate errors charge, in first-use
    /// order.
    fn charged_pairs(&self) -> Vec<[usize; 2]> {
        let mut seen = std::collections::HashSet::new();
        let mut pairs = Vec::new();
        for site in self.sites.iter().flatten() {
            if let ErrorSite::Pair(pair) = site {
                if seen.insert(*pair) {
                    pairs.push(*pair);
                }
            }
        }
        pairs
    }

    /// Every distinct frame duration, in first-use order.
    fn durations(&self) -> Vec<FrameDuration> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for frame in &self.frames {
            if seen.insert(frame.duration) {
                out.push(frame.duration);
            }
        }
        out
    }
}

/// The qudit pairs crosstalk couples in each frame: every sorted pair of
/// qudits that are both busy (touched by one of the frame's operations),
/// restricted to topology-adjacent pairs when the IR carries a topology.
/// Without one the job compiled all-to-all, where every simultaneously
/// driven pair is a neighbour.
fn crosstalk_pairs(
    circuit: &Circuit,
    frames: &[ProgramFrame],
    topology: Option<&Topology>,
) -> Vec<Vec<[usize; 2]>> {
    frames
        .iter()
        .map(|frame| {
            let mut busy: Vec<usize> = frame
                .ops
                .iter()
                .flat_map(|&op_idx| circuit.operations()[op_idx].qudits())
                .collect();
            busy.sort_unstable();
            busy.dedup();
            let mut pairs = Vec::new();
            for (i, &u) in busy.iter().enumerate() {
                for &v in &busy[i + 1..] {
                    if topology.is_none_or(|t| t.is_adjacent(u, v)) {
                        pairs.push([u, v]);
                    }
                }
            }
            pairs
        })
        .collect()
}

/// The per-edge error-rate multipliers of the IR's topology as a sorted-key
/// map; empty when there is no topology or its edge weights are uniform.
fn edge_quality_map(topology: Option<&Topology>) -> HashMap<[usize; 2], f64> {
    let Some(topology) = topology else {
        return HashMap::new();
    };
    let weights = topology.edge_quality();
    if weights.is_empty() {
        return HashMap::new();
    }
    topology
        .edges()
        .into_iter()
        .zip(weights.iter().copied())
        .map(|((u, v), q)| ([u, v], q))
        .collect()
}

/// The site rule: an operation charges one error on its own qudits — the
/// single-qudit channel for a 1-qudit operation, one two-qudit channel on
/// its first two qudits otherwise. Only the logical ablation holds
/// operations of arity ≥ 3: a Physical program rejects them before its
/// sites are built.
fn op_site(op: &Operation) -> Option<ErrorSite> {
    match op.qudits()[..] {
        [] => None,
        [q] => Some(ErrorSite::Single(q)),
        [q0, q1, ..] => Some(ErrorSite::Pair([q0, q1])),
    }
}

fn program_frames(frames: &FrameSchedule) -> Vec<ProgramFrame> {
    frames
        .frames()
        .iter()
        .map(|f| ProgramFrame {
            ops: f.op_indices().to_vec(),
            duration: f.duration(),
        })
        .collect()
}

/// The idle duration of a frame in seconds under a model: single-qudit
/// frames last one single-qudit gate time, `k`-layer frames `k` two-qudit
/// gate times.
fn duration_seconds(duration: FrameDuration, model: &NoiseModel) -> f64 {
    match duration {
        FrameDuration::SingleQudit => model.gate_time_1q,
        FrameDuration::TwoQuditLayers(k) => k as f64 * model.gate_time_2q,
    }
}

/// Noise channels materialised per application *site*: one artifact per
/// qudit for single-qudit channels, one per qudit pair the program can
/// touch for two-qudit channels, and one per (frame duration, qudit) for
/// idle channels. Built once per model; the replay loop only looks up and
/// applies.
///
/// `T` is the backend-specific per-site artifact: [`CompiledChannel`]
/// (branch plans, or the damping form every idle site compiles to) for
/// the trajectory engine, a superoperator
/// [`ApplyPlan`](qudit_sim::ApplyPlan) for the exact engine. Both engines
/// build through [`build_noise_sites`], so which channels exist at which
/// sites is defined in exactly one place.
pub(crate) struct NoiseSites<T> {
    /// Single-qudit gate-error channel, indexed by qudit.
    pub(crate) single_gate: Vec<T>,
    /// Two-qudit gate-error channel, keyed by the (ordered) qudit pair.
    pub(crate) two_gate: HashMap<[usize; 2], T>,
    /// Idle channels per frame duration, each a per-qudit vector. Empty
    /// when the model has no `T1`.
    pub(crate) idle: HashMap<FrameDuration, Vec<T>>,
    /// Crosstalk channels keyed by `(frame duration, sorted qudit pair)` —
    /// the accumulated ZZ phase depends on how long the frame lasts. Empty
    /// when the model has no crosstalk.
    pub(crate) crosstalk: HashMap<(FrameDuration, [usize; 2]), T>,
}

/// A backend's noisy state as [`NoiseProgram::replay`] drives it: the
/// things the two engines do differently inside a frame.
pub(crate) trait NoisyState {
    /// The backend's per-site channel artifact.
    type Site;
    /// Applies operation `op`'s unitary.
    fn unitary(&mut self, op: usize);
    /// Applies one channel site.
    fn channel(&mut self, site: &Self::Site);
    /// Applies a frame's idle group: the T1 damping sites of its qudits, in
    /// ascending qudit order, each compiled for the register's shape. The
    /// default applies them one by one, as `channel` does; the trajectory
    /// engine weighs and applies the whole group in one walk of the state,
    /// drawing each site's branch as that loop would.
    fn idle(&mut self, sites: &[Self::Site]) {
        for site in sites {
            self.channel(site);
        }
    }
    /// Closes a frame.
    fn end_frame(&mut self);
}

impl NoiseProgram {
    /// Replays the noisy process on `state`, frame by frame: every
    /// operation's unitary, then each operation's gate error in op order,
    /// then the idle error on every qudit for the frame's duration, then
    /// the crosstalk phases between the frame's coupled pairs. `cancel` is
    /// checked before each frame. This is the one frame loop: both engines
    /// replay through it, so they charge the same channels in the same
    /// order.
    ///
    /// # Errors
    ///
    /// [`NoiseError::Cancelled`] once the token trips.
    pub(crate) fn replay<S: NoisyState>(
        &self,
        sites: &NoiseSites<S::Site>,
        state: &mut S,
        cancel: &CancelToken,
    ) -> NoiseResult<()> {
        for (frame, coupled) in self.frames.iter().zip(&self.crosstalk_pairs) {
            cancel.check()?;
            for &op in &frame.ops {
                state.unitary(op);
            }
            for site in frame.ops.iter().filter_map(|&op| self.sites[op]) {
                state.channel(match site {
                    ErrorSite::Single(q) => &sites.single_gate[q],
                    ErrorSite::Pair(pair) => sites
                        .two_gate
                        .get(&pair)
                        .expect("pair compiled at construction"),
                });
            }
            if let Some(idle) = sites.idle.get(&frame.duration) {
                state.idle(idle);
            }
            for pair in coupled {
                if let Some(site) = sites.crosstalk.get(&(frame.duration, *pair)) {
                    state.channel(site);
                }
            }
            state.end_frame();
        }
        Ok(())
    }
}

/// Builds the per-site noise artifacts for a (program, model) pair, with
/// `build` turning each `(channel, qudit set)` into the backend-specific
/// artifact.
///
/// # Errors
///
/// Propagates model-validation failures from channel construction.
pub(crate) fn build_noise_sites<T>(
    program: &NoiseProgram,
    model: &NoiseModel,
    mut build: impl FnMut(&Channel, &[usize]) -> T,
) -> NoiseResult<NoiseSites<T>> {
    let d = program.circuit.dim();
    let n = program.circuit.width();
    let single_gate = model.single_qudit_gate_error(d)?;
    let two_gate = model.two_qudit_gate_error(d)?;
    let single_sites: Vec<T> = (0..n).map(|q| build(&single_gate, &[q])).collect();
    let mut two_sites: HashMap<[usize; 2], T> = HashMap::new();
    for pair in program.charged_pairs() {
        // Edge-quality weights key on the undirected edge; charged pairs
        // keep op order (control, target).
        let edge = [pair[0].min(pair[1]), pair[0].max(pair[1])];
        let scale = program.edge_quality.get(&edge).copied().unwrap_or(1.0);
        let site = if scale == 1.0 {
            build(&two_gate, &pair)
        } else {
            build(&model.two_qudit_gate_error_scaled(d, scale)?, &pair)
        };
        two_sites.insert(pair, site);
    }
    let mut idle = HashMap::new();
    for duration in program.durations() {
        if let Some(channel) = model.idle_error(d, duration_seconds(duration, model))? {
            let sites: Vec<T> = (0..n).map(|q| build(&channel, &[q])).collect();
            idle.insert(duration, sites);
        }
    }
    let mut crosstalk = HashMap::new();
    if model.crosstalk.is_some() {
        for (frame, pairs) in program.frames.iter().zip(&program.crosstalk_pairs) {
            for &pair in pairs {
                let key = (frame.duration, pair);
                if crosstalk.contains_key(&key) {
                    continue;
                }
                let channel = model
                    .crosstalk_error(d, duration_seconds(frame.duration, model))?
                    .expect("crosstalk parameter checked above");
                crosstalk.insert(key, build(&channel, &pair));
            }
        }
    }
    Ok(NoiseSites {
        single_gate: single_sites,
        two_gate: two_sites,
        idle,
        crosstalk,
    })
}

/// A trajectory noise simulator bound to a compiled circuit and a noise
/// model.
///
/// Built from [`SharedNoiseArtifacts`](crate::SharedNoiseArtifacts): the
/// `NoiseProgram`, the program circuit's per-operation apply plans (the
/// noisy replay), the ideal reference ([`CompiledCircuit`]s both) and
/// every noise channel precompiled per application site (`NoiseSites`)
/// are all shared by every trial, so a Monte Carlo run does zero plan
/// building inside its trial loop. The reference is the
/// [`PassLevel::Ideal`] compile of the circuit the job started from, not
/// the lowered program: at nCX(7) it replays 7 operations where the
/// Physical program has 79. Trials already run one per core, so gate
/// application inside a trial is deliberately sequential — nested fan-out
/// would oversubscribe the machine.
pub struct TrajectorySimulator {
    program: Arc<NoiseProgram>,
    plans: Arc<CompiledCircuit>,
    reference: Arc<CompiledCircuit>,
    channels: Arc<NoiseSites<CompiledChannel>>,
}

impl TrajectorySimulator {
    /// Builds the simulator on memoized shared artifacts: the noise
    /// program, the program's gate plans, the ideal reference and the
    /// per-site channel plans are all shared — repeated constructions over
    /// the same cached circuit entry (a batch of jobs differing only in
    /// seed or trial count) build nothing at all. The accounting follows
    /// the level the artifacts' IR was compiled at; gate plans compile
    /// through `planner`'s plan cache on first use.
    ///
    /// # Errors
    ///
    /// Propagates model-validation failures from channel construction.
    pub fn from_artifacts_with(
        artifacts: &crate::SharedNoiseArtifacts,
        model: &NoiseModel,
        planner: &Simulator,
    ) -> NoiseResult<Self> {
        Ok(TrajectorySimulator {
            program: Arc::clone(artifacts.program()),
            plans: artifacts.program_plans(planner),
            reference: artifacts.ideal(planner),
            channels: artifacts.trajectory_sites(model)?,
        })
    }

    /// Draws an input with `rng` and replays the ideal reference on it.
    fn draw(
        &self,
        config: &TrajectoryConfig,
        rng: &mut StdRng,
    ) -> NoiseResult<(StateVector, StateVector)> {
        let circuit = &self.program.circuit;
        let input = config.input.draw(circuit.dim(), circuit.width(), rng)?;
        let ideal = self.reference.run_sequential(input.clone());
        Ok((input, ideal))
    }

    /// Trial `i`: one RNG seeded with `seed + i` draws the input and then
    /// every noise branch; the fidelity compares the ideal and the noisy
    /// replay of that input. `fixed` is the run's one (input, ideal output)
    /// pair for a deterministic input, whose draw consumes no randomness,
    /// so the trial's RNG stream is the same either way.
    fn trial(
        &self,
        config: &TrajectoryConfig,
        fixed: Option<&(StateVector, StateVector)>,
        i: usize,
        cancel: &CancelToken,
    ) -> NoiseResult<f64> {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let drawn;
        let (input, ideal) = match fixed {
            Some((input, ideal)) => (input.clone(), ideal),
            None => {
                drawn = self.draw(config, &mut rng)?;
                (drawn.0, &drawn.1)
            }
        };
        let mut noisy = Trial::new(&self.plans, input, rng);
        self.program.replay(&self.channels, &mut noisy, cancel)?;
        Ok(ideal.fidelity(&noisy.state))
    }

    /// The precision loop over trials `0, 1, 2, …`, with a deterministic
    /// input drawn and its reference replayed once, before the fan-out.
    fn run_trials(
        &self,
        config: &TrajectoryConfig,
        precision: &Precision,
        cancel: &CancelToken,
        trace: Option<&mut Vec<f64>>,
    ) -> NoiseResult<FidelityEstimate> {
        let fixed = if config.input.is_deterministic() {
            Some(self.draw(config, &mut StdRng::seed_from_u64(config.seed))?)
        } else {
            None
        };
        run_to_precision(config.trials, precision, cancel, trace, |i| {
            self.trial(config, fixed.as_ref(), i, cancel)
        })
    }

    /// Runs with the requested [`Precision`]: [`Precision::FixedTrials`]
    /// runs `config.trials` trials (in parallel) and aggregates them in
    /// one pass; [`Precision::TargetSigma`] runs the chunked sequential
    /// early-stopper — see [`run_traced`](Self::run_traced) for the loop's
    /// contract.
    ///
    /// # Errors
    ///
    /// [`NoiseError::Cancelled`] once the token trips; otherwise an error
    /// if the input specification is invalid for the circuit.
    pub fn run_with_precision(
        &self,
        config: &TrajectoryConfig,
        precision: &Precision,
        cancel: &CancelToken,
    ) -> NoiseResult<FidelityEstimate> {
        self.run_trials(config, precision, cancel, None)
    }

    /// Like [`TrajectorySimulator::run_with_precision`], but also returns
    /// the per-trial fidelity stream the run actually consumed, in trial
    /// order — the diagnostic surface the prefix-determinism tests compare
    /// bit-for-bit: an early-stopped run's stream is exactly the first
    /// `trials` entries of a fixed-count run's stream for the same seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrajectorySimulator::run_with_precision`].
    pub fn run_traced(
        &self,
        config: &TrajectoryConfig,
        precision: &Precision,
        cancel: &CancelToken,
    ) -> NoiseResult<(FidelityEstimate, Vec<f64>)> {
        let mut trace = Vec::new();
        let estimate = self.run_trials(config, precision, cancel, Some(&mut trace))?;
        Ok((estimate, trace))
    }
}

/// A trajectory trial's noisy state: the state vector, the trial's RNG
/// (every channel site draws its branch from it) and the program circuit's
/// shared gate plans.
struct Trial<'a> {
    plans: &'a CompiledCircuit,
    state: StateVector,
    rng: StdRng,
    /// Whether the current frame's idle group left the state at unit norm,
    /// so that `end_frame` has nothing to renormalise.
    normalised: bool,
}

impl<'a> Trial<'a> {
    fn new(plans: &'a CompiledCircuit, state: StateVector, rng: StdRng) -> Self {
        Trial {
            plans,
            state,
            rng,
            normalised: false,
        }
    }
}

impl NoisyState for Trial<'_> {
    type Site = CompiledChannel;

    fn unitary(&mut self, op: usize) {
        self.plans.plan(op).apply_sequential(&mut self.state);
    }

    fn channel(&mut self, site: &CompiledChannel) {
        site.apply_trajectory(&mut self.state, &mut self.rng);
    }

    /// The group goes through `apply_idle_group`, the one T1 sampler: one
    /// read walk and one write walk while no site jumps. Every branch
    /// divides by its own norm, so the group leaves the state at unit norm
    /// and the frame's crosstalk phases keep it there.
    fn idle(&mut self, sites: &[CompiledChannel]) {
        apply_idle_group(sites, &mut self.state, &mut self.rng);
        self.normalised = !sites.is_empty();
    }

    fn end_frame(&mut self) {
        if !std::mem::take(&mut self.normalised) {
            self.state.renormalize();
        }
    }
}

/// The one precision loop both engines run: evaluates `sample(i)` for
/// sample indices `0, 1, 2, …` until `precision` is met.
///
/// * [`Precision::FixedTrials`] evaluates `trials` samples and aggregates
///   them in one pass.
/// * [`Precision::TargetSigma`] runs chunks and Welford-merges them,
///   stopping once the conservative error bar reaches `sigma` (after at
///   least `min_trials`, at most `max_trials` samples). The first chunk
///   covers `min_trials`; afterwards the total doubles per round, which
///   bounds the overshoot past the optimal stopping point to 2×, with
///   chunks capped at `MAX_ADAPTIVE_CHUNK`.
///
/// Each chunk fans out across rayon workers and returns its samples in
/// index order. Sample `i` depends on `i` alone (both engines seed it with
/// `seed + i`), so an early-stopped run consumes exactly a prefix of the
/// fixed-count stream. Every sample checks `cancel` before it starts, and
/// the workers short-circuit on the first error. `trace`, when given,
/// receives the consumed samples in index order.
pub(crate) fn run_to_precision(
    trials: usize,
    precision: &Precision,
    cancel: &CancelToken,
    mut trace: Option<&mut Vec<f64>>,
    sample: impl Fn(usize) -> NoiseResult<f64> + Sync,
) -> NoiseResult<FidelityEstimate> {
    let chunk = |range: std::ops::Range<usize>| -> NoiseResult<Vec<f64>> {
        range
            .into_par_iter()
            .map(|i| {
                cancel.check()?;
                sample(i)
            })
            .collect()
    };
    let (sigma, min_trials, max_trials) = match *precision {
        Precision::FixedTrials => {
            let samples = chunk(0..trials)?;
            let estimate = estimate_from_samples(&samples);
            if let Some(trace) = trace {
                *trace = samples;
            }
            return Ok(estimate);
        }
        Precision::TargetSigma {
            sigma,
            min_trials,
            max_trials,
        } => (sigma, min_trials.max(1), max_trials.max(min_trials.max(1))),
    };
    let mut agg = Welford::new();
    let mut done = 0usize;
    let mut next = min_trials.min(max_trials);
    while done < max_trials {
        let end = (done + next).min(max_trials);
        let samples = chunk(done..end)?;
        let mut round = Welford::new();
        for &f in &samples {
            round.push(f);
        }
        agg.merge(&round);
        if let Some(trace) = trace.as_deref_mut() {
            trace.extend_from_slice(&samples);
        }
        done = end;
        if done >= min_trials && agg.estimate().conservative_sigma() <= sigma {
            break;
        }
        next = done.min(MAX_ADAPTIVE_CHUNK);
    }
    Ok(agg.estimate())
}

/// The largest chunk one adaptive round schedules at once: big enough to
/// saturate the worker pool, small enough that the stopping rule gets a
/// look-in at a bounded cadence even when the target needs many samples.
const MAX_ADAPTIVE_CHUNK: usize = 4096;

fn estimate_from_samples(samples: &[f64]) -> FidelityEstimate {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() <= 1 {
        // One sample says nothing about spread: report the floored
        // binomial bound ("unknown, bounded by rule-of-three") instead of
        // a confidently-zero error bar.
        let base = FidelityEstimate {
            mean,
            std_error: 0.0,
            trials: samples.len(),
        };
        return FidelityEstimate {
            std_error: base.binomial_sigma(),
            ..base
        };
    }
    let var = samples.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0);
    FidelityEstimate {
        mean,
        std_error: (var / n).sqrt(),
        trials: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{sc, sc_t1_gates};
    use crate::SharedNoiseArtifacts;
    use qudit_circuit::passes;
    use qudit_circuit::{Control, Gate};

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

    fn noiseless_model() -> NoiseModel {
        NoiseModel {
            name: "NOISELESS".to_string(),
            p1: 0.0,
            p2: 0.0,
            t1: None,
            gate_time_1q: 100e-9,
            gate_time_2q: 300e-9,
            leak_rate: None,
            overrotation: None,
            crosstalk: None,
        }
    }

    /// A simulator over `circuit` compiled at `level`, built the way the
    /// executor builds one.
    fn simulator(circuit: &Circuit, model: &NoiseModel, level: PassLevel) -> TrajectorySimulator {
        let artifacts = SharedNoiseArtifacts::from_ir(&passes::compile(circuit, level)).unwrap();
        TrajectorySimulator::from_artifacts_with(&artifacts, model, &Simulator::new()).unwrap()
    }

    /// A fixed-trials run of `circuit` under `model` at `config.level`.
    fn simulate(
        circuit: &Circuit,
        model: &NoiseModel,
        config: &TrajectoryConfig,
    ) -> FidelityEstimate {
        simulator(circuit, model, config.level)
            .run_with_precision(config, &Precision::FixedTrials, &CancelToken::never())
            .unwrap()
    }

    #[test]
    fn noiseless_model_gives_unit_fidelity() {
        let c = toffoli_fig4();
        let model = noiseless_model();
        let config = TrajectoryConfig {
            trials: 5,
            ..TrajectoryConfig::default()
        };
        let est = simulate(&c, &model, &config);
        assert!((est.mean - 1.0).abs() < 1e-9, "mean {}", est.mean);
        assert!(est.std_error < 1e-9);
    }

    #[test]
    fn noiseless_model_gives_unit_fidelity_on_lowered_three_qudit_ops() {
        // A genuine ≥3-qudit operation: the lowering must preserve the
        // unitary, so a noiseless run still returns fidelity 1.
        let mut c = Circuit::new(3, 3);
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        let config = TrajectoryConfig {
            trials: 5,
            ..TrajectoryConfig::default()
        };
        let est = simulate(&c, &noiseless_model(), &config);
        assert!((est.mean - 1.0).abs() < 1e-9, "mean {}", est.mean);
    }

    #[test]
    fn noisy_model_reduces_fidelity_but_not_below_zero() {
        let c = toffoli_fig4();
        let model = sc();
        let config = TrajectoryConfig {
            trials: 20,
            seed: 7,
            ..TrajectoryConfig::default()
        };
        let est = simulate(&c, &model, &config);
        assert!(est.mean <= 1.0 + 1e-12);
        assert!(est.mean >= 0.0);
        // A 3-qutrit circuit under the SC model should still be quite good.
        assert!(est.mean > 0.9, "mean fidelity {}", est.mean);
    }

    #[test]
    fn better_hardware_gives_better_fidelity() {
        let c = toffoli_fig4();
        let config = TrajectoryConfig {
            trials: 40,
            seed: 11,
            ..TrajectoryConfig::default()
        };
        let bad = NoiseModel {
            name: "BAD".to_string(),
            p1: 1e-3,
            p2: 1e-3,
            t1: Some(1e-4),
            gate_time_1q: 100e-9,
            gate_time_2q: 300e-9,
            leak_rate: None,
            overrotation: None,
            crosstalk: None,
        };
        let worse = simulate(&c, &bad, &config);
        let better = simulate(&c, &sc_t1_gates(), &config);
        assert!(
            better.mean > worse.mean,
            "better {} vs worse {}",
            better.mean,
            worse.mean
        );
    }

    #[test]
    fn all_ones_input_is_deterministic_per_seed() {
        let c = toffoli_fig4();
        let model = sc();
        let config = TrajectoryConfig {
            trials: 1,
            seed: 99,
            input: InputState::AllOnes,
            ..TrajectoryConfig::default()
        };
        let f1 = simulate(&c, &model, &config).mean;
        let f2 = simulate(&c, &model, &config).mean;
        assert_eq!(f1.to_bits(), f2.to_bits());
    }

    #[test]
    fn a_tripped_token_cancels_the_run() {
        let c = toffoli_fig4();
        let model = sc();
        let sim = simulator(&c, &model, PassLevel::Physical);
        let config = TrajectoryConfig {
            trials: 64,
            ..TrajectoryConfig::default()
        };
        let token = CancelToken::new();
        token.cancel();
        for precision in [
            Precision::FixedTrials,
            Precision::TargetSigma {
                sigma: 0.01,
                min_trials: 8,
                max_trials: 64,
            },
        ] {
            assert_eq!(
                sim.run_with_precision(&config, &precision, &token),
                Err(NoiseError::Cancelled)
            );
        }
    }

    #[test]
    fn physical_accounting_is_noisier_than_the_logical_ablation() {
        // Build a circuit with a genuine 3-qutrit operation.
        let mut c = Circuit::new(3, 3);
        for _ in 0..4 {
            c.push_controlled(
                Gate::increment(3),
                &[Control::on_one(0), Control::on_two(1)],
                &[2],
            )
            .unwrap();
        }
        let model = NoiseModel {
            name: "MODERATE".to_string(),
            p1: 2e-4,
            p2: 2e-4,
            t1: Some(1e-3),
            gate_time_1q: 100e-9,
            gate_time_2q: 300e-9,
            leak_rate: None,
            overrotation: None,
            crosstalk: None,
        };
        let config_base = TrajectoryConfig {
            trials: 60,
            seed: 5,
            level: PassLevel::NoisePreserving,
            input: InputState::AllOnes,
        };
        let logical = simulate(&c, &model, &config_base);
        let physical = simulate(
            &c,
            &model,
            &TrajectoryConfig {
                level: PassLevel::Physical,
                ..config_base
            },
        );
        assert!(
            physical.mean < logical.mean,
            "physical {} should be below logical {}",
            physical.mean,
            logical.mean
        );
    }

    #[test]
    fn optimizing_levels_are_rejected_for_noisy_runs() {
        let c = toffoli_fig4();
        for level in [PassLevel::Ideal, PassLevel::PhysicalIdeal] {
            match SharedNoiseArtifacts::from_ir(&passes::compile(&c, level)) {
                Err(NoiseError::UnsupportedLevel { .. }) => {}
                Err(other) => panic!("wrong error: {other}"),
                Ok(_) => panic!("{} must be rejected for noisy runs", level.name()),
            }
        }
    }

    #[test]
    fn physical_program_charges_one_site_per_lowered_gate() {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        let program = NoiseProgram::from_ir(&passes::compile(&c, PassLevel::Physical)).unwrap();
        assert_eq!(program.circuit.len(), 13, "6 two-qudit + 7 single-qudit");
        let pairs = program
            .sites
            .iter()
            .flatten()
            .filter(|s| matches!(s, ErrorSite::Pair(_)))
            .count();
        let singles = program
            .sites
            .iter()
            .flatten()
            .filter(|s| matches!(s, ErrorSite::Single(_)))
            .count();
        assert_eq!(pairs, 6);
        assert_eq!(singles, 7);
        assert_eq!(program.frames.len(), 1);
        assert_eq!(program.frames[0].duration, FrameDuration::TwoQuditLayers(6));
    }

    #[test]
    fn logical_program_charges_one_site_per_operation() {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        c.push_gate(Gate::h(3), &[0]).unwrap();
        let program =
            NoiseProgram::from_ir(&passes::compile(&c, PassLevel::NoisePreserving)).unwrap();
        assert_eq!(program.circuit.len(), 2, "no lowering at the logical level");
        assert_eq!(program.sites[0], Some(ErrorSite::Pair([0, 1])));
        assert_eq!(program.sites[1], Some(ErrorSite::Single(0)));
        // The ≥3-qudit moment lasts one two-qudit layer (no expansion).
        assert_eq!(program.frames[0].duration, FrameDuration::TwoQuditLayers(1));
    }

    #[test]
    fn estimate_from_samples_computes_mean_and_stderr() {
        let est = estimate_from_samples(&[1.0, 0.0]);
        assert!((est.mean - 0.5).abs() < 1e-12);
        assert!(est.std_error > 0.0);
        assert_eq!(est.trials, 2);
        assert!((est.two_sigma() - 2.0 * est.std_error).abs() < 1e-15);
    }

    #[test]
    fn binomial_sigma_matches_the_closed_form() {
        let est = FidelityEstimate {
            mean: 0.75,
            std_error: 0.01,
            trials: 100,
        };
        let expected = (0.75f64 * 0.25 / 100.0).sqrt();
        assert!((est.binomial_sigma() - expected).abs() < 1e-15);
    }

    #[test]
    fn binomial_sigma_is_floored_at_degenerate_means() {
        // Regression: successes ∈ {0, trials} used to report σ = 0 —
        // perfect certainty at any finite trial count. The rule-of-three
        // floor keeps the bar honest.
        for mean in [0.0, 1.0] {
            for trials in [1usize, 10, 100, 10_000] {
                let est = FidelityEstimate {
                    mean,
                    std_error: 0.0,
                    trials,
                };
                let expected = (3.0 / trials as f64).min(1.0);
                assert!(
                    (est.binomial_sigma() - expected).abs() < 1e-15,
                    "mean {mean} trials {trials}: {}",
                    est.binomial_sigma()
                );
            }
        }
        // The floor only ever loosens: once the closed form exceeds 3/n, a
        // non-degenerate mean keeps its closed-form value.
        let est = FidelityEstimate {
            mean: 0.5,
            std_error: 0.0,
            trials: 100,
        };
        assert!((est.binomial_sigma() - 0.05).abs() < 1e-15);
    }

    #[test]
    fn single_sample_std_error_reports_the_binomial_floor_not_zero() {
        let est = estimate_from_samples(&[0.97]);
        assert_eq!(est.trials, 1);
        assert!((est.mean - 0.97).abs() < 1e-15);
        // One sample says nothing about the spread; the old code reported
        // std_error = 0 here.
        assert!(est.std_error > 0.0);
        assert!((est.std_error - est.binomial_sigma()).abs() < 1e-15);
    }

    #[test]
    fn welford_merge_matches_single_pass_to_1e12() {
        let samples: Vec<f64> = (0..257)
            .map(|i| 0.5 + 0.4 * ((i as f64) * 0.7).sin())
            .collect();
        let single = estimate_from_samples(&samples);
        // Merge in uneven chunks, as the adaptive loop does.
        let mut agg = Welford::new();
        for chunk in samples.chunks(37) {
            let mut w = Welford::new();
            for &x in chunk {
                w.push(x);
            }
            agg.merge(&w);
        }
        let merged = agg.estimate();
        assert_eq!(merged.trials, single.trials);
        assert!((merged.mean - single.mean).abs() <= 1e-12);
        assert!((merged.std_error - single.std_error).abs() <= 1e-12);
    }

    #[test]
    fn fixed_trials_precision_is_the_single_pass_estimate_of_its_stream() {
        let c = toffoli_fig4();
        let model = sc();
        let sim = simulator(&c, &model, PassLevel::Physical);
        let config = TrajectoryConfig {
            trials: 24,
            seed: 3,
            ..TrajectoryConfig::default()
        };
        let token = CancelToken::never();
        let (traced, stream) = sim
            .run_traced(&config, &Precision::FixedTrials, &token)
            .unwrap();
        let fixed = estimate_from_samples(&stream);
        let via_precision = sim
            .run_with_precision(&config, &Precision::FixedTrials, &token)
            .unwrap();
        assert_eq!(stream.len(), 24);
        for est in [traced, via_precision] {
            assert_eq!(fixed.mean.to_bits(), est.mean.to_bits());
            assert_eq!(fixed.std_error.to_bits(), est.std_error.to_bits());
            assert_eq!(fixed.trials, est.trials);
        }
    }

    #[test]
    fn adaptive_run_does_not_stop_early_on_a_noiseless_circuit() {
        // Every trial returns fidelity 1, so the sample variance is 0 —
        // exactly the false-certainty trap the binomial floor exists for.
        // At σ = 0.05 the rule-of-three floor 3/n forces n ≥ 60 trials.
        let c = toffoli_fig4();
        let model = noiseless_model();
        let sim = simulator(&c, &model, PassLevel::Physical);
        let config = TrajectoryConfig {
            trials: 10_000,
            ..TrajectoryConfig::default()
        };
        let precision = Precision::TargetSigma {
            sigma: 0.05,
            min_trials: 8,
            max_trials: 4096,
        };
        let est = sim
            .run_with_precision(&config, &precision, &CancelToken::never())
            .unwrap();
        assert!(est.trials >= 60, "stopped at {} trials", est.trials);
        assert!(est.conservative_sigma() <= 0.05);
        assert!((est.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_run_respects_the_trial_bounds() {
        let c = toffoli_fig4();
        let model = sc();
        let sim = simulator(&c, &model, PassLevel::Physical);
        let config = TrajectoryConfig {
            trials: 10_000,
            seed: 13,
            ..TrajectoryConfig::default()
        };
        // An unreachable target pins the run to max_trials.
        let capped = sim
            .run_with_precision(
                &config,
                &Precision::TargetSigma {
                    sigma: 1e-9,
                    min_trials: 4,
                    max_trials: 40,
                },
                &CancelToken::never(),
            )
            .unwrap();
        assert_eq!(capped.trials, 40);
        // A trivially loose target still honours min_trials.
        let floored = sim
            .run_with_precision(
                &config,
                &Precision::TargetSigma {
                    sigma: 0.9,
                    min_trials: 16,
                    max_trials: 4096,
                },
                &CancelToken::never(),
            )
            .unwrap();
        assert!(floored.trials >= 16, "ran {} trials", floored.trials);
    }

    #[test]
    fn traced_adaptive_stream_is_a_prefix_of_the_fixed_run() {
        let c = toffoli_fig4();
        let model = sc();
        let sim = simulator(&c, &model, PassLevel::Physical);
        let config = TrajectoryConfig {
            trials: 512,
            seed: 21,
            ..TrajectoryConfig::default()
        };
        let token = CancelToken::never();
        let (_, fixed_stream) = sim
            .run_traced(&config, &Precision::FixedTrials, &token)
            .unwrap();
        let (est, adaptive_stream) = sim
            .run_traced(
                &config,
                &Precision::TargetSigma {
                    sigma: 0.02,
                    min_trials: 8,
                    max_trials: 512,
                },
                &token,
            )
            .unwrap();
        assert_eq!(est.trials, adaptive_stream.len());
        assert!(adaptive_stream.len() <= fixed_stream.len());
        for (i, (a, f)) in adaptive_stream.iter().zip(&fixed_stream).enumerate() {
            assert_eq!(a.to_bits(), f.to_bits(), "trial {i} diverged");
        }
    }
}
