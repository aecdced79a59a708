//! Quantum noise channels in the Kraus operator formalism (Appendix A.1).
//!
//! A channel `E(σ) = Σ_i K_i σ K_i†` is represented either as a general set
//! of Kraus operators, or — when every operator is a scaled unitary, as in
//! the depolarizing channel — as a probabilistic mixture of unitaries, which
//! admits a much cheaper trajectory sampling rule (the branch probabilities
//! are state-independent).
//!
//! A Kraus channel is sampled by the no-jump/jump split of the Monte Carlo
//! wave-function method (Dalibard, Castin & Mølmer, PRL 68, 580, 1992), with
//! each branch drawn from its norm as in qsim's noisy trajectories (Isakov et
//! al., arXiv:2111.02396). One read-only pass over the state gives every
//! branch weight `p_i = tr(K_i†K_i ρ_S)`, where `ρ_S` is the reduced density
//! matrix of the site's qudits; for amplitude damping every `K_i†K_i` is
//! diagonal, so the pass only sums level populations. Only the chosen `K_i`
//! is then applied, in place, with `1/√p_i` folded in: the no-jump `K_0` of
//! damping is a per-level scale, and a jump moves one level to `|0⟩`. No
//! site clones the state. `apply_idle_group` goes further for a frame's
//! idle group of damping sites: while no site jumps, the whole group shares
//! one read pass and one write pass.

use crate::error::{NoiseError, NoiseResult};
use qudit_core::{CMatrix, Complex, StateVector};
use qudit_sim::ApplyPlan;
use rand::Rng;
use std::cell::RefCell;

/// A quantum noise channel acting on one or more qudits.
#[derive(Clone, Debug, PartialEq)]
pub enum Channel {
    /// A probabilistic mixture of unitaries: with probability `probs[i]` the
    /// unitary `unitaries[i]` is applied. Branch probabilities do not depend
    /// on the state, so trajectory sampling is a single weighted draw.
    MixedUnitary {
        /// Branch probabilities (must sum to 1).
        probs: Vec<f64>,
        /// The unitary applied on each branch.
        unitaries: Vec<CMatrix>,
    },
    /// A general Kraus channel. Branch probabilities are state-dependent
    /// (`p_i = ‖K_i|ψ⟩‖²`), as required for amplitude damping.
    Kraus {
        /// The Kraus operators.
        operators: Vec<CMatrix>,
    },
}

impl Channel {
    /// The Hilbert-space dimension the channel acts on (`d` for one qudit,
    /// `d²` for two, …).
    pub fn dim(&self) -> usize {
        match self {
            Channel::MixedUnitary { unitaries, .. } => {
                unitaries.first().map(CMatrix::rows).unwrap_or(0)
            }
            Channel::Kraus { operators } => operators.first().map(CMatrix::rows).unwrap_or(0),
        }
    }

    /// The number of Kraus operators / branches (the paper's "error
    /// channels" count: 4 or 16 for qubits, 9 or 81 for qutrits).
    pub fn num_branches(&self) -> usize {
        match self {
            Channel::MixedUnitary { probs, .. } => probs.len(),
            Channel::Kraus { operators } => operators.len(),
        }
    }

    /// Validates that the channel is completely positive and trace
    /// preserving: probabilities sum to one (mixed-unitary form) or
    /// `Σ K†K = I` (Kraus form).
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::NotTracePreserving`] or
    /// [`NoiseError::InvalidProbability`] when the condition fails.
    pub fn validate(&self) -> NoiseResult<()> {
        match self {
            Channel::MixedUnitary { probs, unitaries } => {
                let total: f64 = probs.iter().sum();
                if (total - 1.0).abs() > 1e-9 {
                    return Err(NoiseError::InvalidProbability {
                        parameter: "sum of branch probabilities".to_string(),
                        value: total,
                    });
                }
                if probs.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
                    return Err(NoiseError::InvalidProbability {
                        parameter: "branch probability".to_string(),
                        value: *probs
                            .iter()
                            .find(|&&p| !(0.0..=1.0).contains(&p))
                            .expect("found above"),
                    });
                }
                for u in unitaries {
                    if !u.is_unitary(1e-8) {
                        return Err(NoiseError::InvalidModel {
                            reason: "mixed-unitary branch is not unitary".to_string(),
                        });
                    }
                }
                Ok(())
            }
            Channel::Kraus { operators } => {
                let d = self.dim();
                let mut sum = CMatrix::zeros(d, d);
                for k in operators {
                    sum = &sum + &(&k.adjoint() * k);
                }
                let deviation = sum.max_abs_diff(&CMatrix::identity(d));
                if deviation > 1e-8 {
                    return Err(NoiseError::NotTracePreserving { deviation });
                }
                Ok(())
            }
        }
    }

    /// The superoperator `Σᵢ wᵢ·Kᵢ ⊗ conj(Kᵢ)` of the channel as a dense
    /// matrix over the combined `(row ⊗ column)` space of the targeted
    /// qudits, with `wᵢ` the branch probability for mixed-unitary channels
    /// and 1 for general Kraus channels.
    ///
    /// Feeding this to
    /// [`DensityMatrix::apply_superoperator`](qudit_sim::DensityMatrix::apply_superoperator)
    /// applies the channel *exactly* — the density-matrix backend's
    /// deterministic counterpart of [`CompiledChannel::apply_trajectory`].
    pub fn superoperator(&self) -> CMatrix {
        let d2 = self.dim() * self.dim();
        let mut total = CMatrix::zeros(d2, d2);
        match self {
            Channel::MixedUnitary { probs, unitaries } => {
                for (&p, u) in probs.iter().zip(unitaries) {
                    if p == 0.0 {
                        continue;
                    }
                    total = &total + &u.kron(&u.conj()).scale(Complex::real(p));
                }
            }
            Channel::Kraus { operators } => {
                for k in operators {
                    total = &total + &k.kron(&k.conj());
                }
            }
        }
        total
    }

    /// Precompiles the channel's trajectory branches for one fixed
    /// `(register shape, qudit set)` site, so the Monte Carlo loop does no
    /// plan building per application. A Kraus channel also precomputes
    /// every `K_i†K_i`, and picks the in-place form of each `K_i`: a
    /// per-level scale, a one-level jump, or a general plan.
    ///
    /// # Panics
    ///
    /// Panics if the channel dimension does not match `dim^qudits.len()`, or
    /// the qudit indices are invalid for the register.
    pub fn compile(&self, dim: usize, width: usize, qudits: &[usize]) -> CompiledChannel {
        let expected = dim.pow(qudits.len() as u32);
        assert_eq!(
            self.dim(),
            expected,
            "channel dimension does not match targeted qudits"
        );
        match self {
            Channel::MixedUnitary { probs, unitaries } => CompiledChannel {
                kind: CompiledKind::MixedUnitary {
                    probs: probs.clone(),
                    plans: unitaries
                        .iter()
                        .map(|u| {
                            if is_identity(u) {
                                None
                            } else {
                                Some(ApplyPlan::for_matrix(dim, width, u, qudits))
                            }
                        })
                        .collect(),
                },
            },
            Channel::Kraus { operators } => CompiledChannel {
                kind: CompiledKind::Kraus(KrausSite::new(operators, dim, width, qudits)),
            },
        }
    }

    /// Composes this channel with a `later` one: the returned channel
    /// applies `self` first, then `later` (`E = later ∘ self`).
    ///
    /// Both channels must be mixed-unitary — the branch product of two
    /// state-independent mixtures is again a state-independent mixture with
    /// the outer-product branch probabilities, so the composite keeps the
    /// cheap single-draw trajectory rule. This is how the per-gate error is
    /// assembled from its physical pieces (coherent over-rotation, leakage,
    /// depolarizing) as *one* site, charged identically by both backends.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidModel`] when either channel is a general
    /// Kraus channel or the dimensions differ.
    pub fn then(&self, later: &Channel) -> NoiseResult<Channel> {
        let (p_a, u_a) = match self {
            Channel::MixedUnitary { probs, unitaries } => (probs, unitaries),
            Channel::Kraus { .. } => {
                return Err(NoiseError::InvalidModel {
                    reason: "channel composition requires mixed-unitary channels".to_string(),
                })
            }
        };
        let (p_b, u_b) = match later {
            Channel::MixedUnitary { probs, unitaries } => (probs, unitaries),
            Channel::Kraus { .. } => {
                return Err(NoiseError::InvalidModel {
                    reason: "channel composition requires mixed-unitary channels".to_string(),
                })
            }
        };
        if self.dim() != later.dim() {
            return Err(NoiseError::InvalidModel {
                reason: format!(
                    "cannot compose a dimension-{} channel with a dimension-{} channel",
                    self.dim(),
                    later.dim()
                ),
            });
        }
        let mut probs = Vec::with_capacity(p_a.len() * p_b.len());
        let mut unitaries = Vec::with_capacity(p_a.len() * p_b.len());
        // Earlier channel's branches vary fastest so that composing with a
        // single-branch (deterministic) later channel preserves branch order.
        for (pb, ub) in p_b.iter().zip(u_b) {
            for (pa, ua) in p_a.iter().zip(u_a) {
                probs.push(pa * pb);
                unitaries.push(ub * ua);
            }
        }
        Ok(Channel::MixedUnitary { probs, unitaries })
    }
}

/// A [`Channel`] precompiled for one `(dim, width, qudit set)` site: every
/// branch operator has a prebuilt in-place form, so trajectory sampling does
/// no per-application planning. Immutable and `Sync` — one compiled site is
/// shared by all Monte Carlo trials.
#[derive(Clone, Debug)]
pub struct CompiledChannel {
    kind: CompiledKind,
}

#[derive(Clone, Debug)]
enum CompiledKind {
    /// Branch probabilities are state-independent; identity branches (the
    /// dominant no-error case) are `None` and cost nothing to apply.
    MixedUnitary {
        probs: Vec<f64>,
        plans: Vec<Option<ApplyPlan>>,
    },
    /// Branch probabilities are `p_i = tr(K_i†K_i ρ_S)`: one read-only pass
    /// per application, against the `K_i†K_i` precomputed at compile time.
    Kraus(KrausSite),
}

impl CompiledChannel {
    /// Samples one branch and applies it on the calling thread. A Kraus
    /// branch `K_i` is applied in place and divided by `√p_i`, so the state
    /// leaves at unit norm.
    ///
    /// Returns the index of the branch that was applied. Both kinds draw one
    /// uniform per application, as the uncompiled reference sampler (kept
    /// with this module's tests) does. A mixed-unitary site matches it draw
    /// for draw. A Kraus site matches it branch for branch, with amplitudes
    /// equal to 1e-12: its weights are summed in another order, so only a
    /// draw within about 1e-12·Σp of a cut between two branches can land
    /// on the other side.
    ///
    /// # Panics
    ///
    /// Panics if the state shape does not match the site.
    pub fn apply_trajectory<R: Rng + ?Sized>(&self, state: &mut StateVector, rng: &mut R) -> usize {
        match &self.kind {
            CompiledKind::MixedUnitary { probs, plans } => {
                let r: f64 = rng.gen_range(0.0..1.0);
                let chosen = weighted_pick(probs, r);
                if let Some(plan) = &plans[chosen] {
                    plan.apply_sequential(state);
                }
                chosen
            }
            CompiledKind::Kraus(site) => {
                let (chosen, p) = SCRATCH.with_borrow_mut(|scratch| {
                    let probs = site.weights(state, scratch);
                    let chosen = draw(probs, rng);
                    (chosen, probs[chosen])
                });
                site.apply(state, chosen, p);
                chosen
            }
        }
    }
}

/// Per-thread scratch for the Kraus passes, grown once and then reused, so
/// no site allocates: the level populations or `ρ_S`, the branch weights,
/// and the fused idle pass's tables.
struct Scratch {
    reals: Vec<f64>,
    complexes: Vec<Complex>,
    probs: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            reals: Vec::new(),
            complexes: Vec::new(),
            probs: Vec::new(),
        })
    };
}

/// A Kraus channel compiled for one site.
#[derive(Clone, Debug)]
struct KrausSite {
    qudits: Vec<usize>,
    layout: SiteLayout,
    /// Every branch's `K_i†K_i`.
    effects: Effects,
    /// Every branch's `K_i`, in the form it is applied in.
    ops: Vec<KrausOp>,
}

/// The precomputed `K_i†K_i` of a Kraus site's branches.
#[derive(Clone, Debug)]
enum Effects {
    /// Every `K_i†K_i` is diagonal, as for amplitude damping: their
    /// diagonals, `D` entries per branch. The weights need only the site's
    /// level populations.
    Diagonal(Vec<f64>),
    /// The full `D × D` matrices, row-major, one per branch. The weights
    /// need all of `ρ_S`.
    Dense(Vec<Complex>),
}

/// How a Kraus operator is applied in place.
#[derive(Clone, Debug)]
enum KrausOp {
    /// A diagonal operator, such as damping's no-jump `K_0`: level `a` of
    /// every amplitude group is scaled by entry `a`.
    Scale(Vec<Complex>),
    /// An operator whose one nonzero entry, `coeff`, lies off the diagonal
    /// at `(to, from)`, such as a damping jump: level `from` moves to level
    /// `to`, and every other level is cleared.
    Jump {
        from: usize,
        to: usize,
        coeff: Complex,
    },
    /// Any other operator: its plan, then one scale pass.
    General(ApplyPlan),
}

impl KrausOp {
    fn new(k: &CMatrix, dim: usize, width: usize, qudits: &[usize]) -> KrausOp {
        if let Some(diagonal) = k.as_diagonal(0.0) {
            return KrausOp::Scale(diagonal);
        }
        let mut nonzero = (0..k.rows())
            .flat_map(|r| (0..k.cols()).map(move |c| (r, c)))
            .filter(|&(r, c)| k.get(r, c) != Complex::ZERO);
        match (nonzero.next(), nonzero.next()) {
            (Some((to, from)), None) => KrausOp::Jump {
                from,
                to,
                coeff: k.get(to, from),
            },
            _ => KrausOp::General(ApplyPlan::for_matrix(dim, width, k, qudits)),
        }
    }
}

impl KrausSite {
    fn new(operators: &[CMatrix], dim: usize, width: usize, qudits: &[usize]) -> KrausSite {
        let effects: Vec<CMatrix> = operators.iter().map(|k| &k.adjoint() * k).collect();
        let diagonals: Option<Vec<Vec<Complex>>> =
            effects.iter().map(|e| e.as_diagonal(0.0)).collect();
        let effects = match diagonals {
            Some(diagonals) => {
                Effects::Diagonal(diagonals.iter().flatten().map(|e| e.re).collect())
            }
            None => Effects::Dense(effects.iter().flat_map(|e| e.as_slice()).copied().collect()),
        };
        KrausSite {
            qudits: qudits.to_vec(),
            layout: SiteLayout::new(dim, width, qudits),
            effects,
            ops: operators
                .iter()
                .map(|k| KrausOp::new(k, dim, width, qudits))
                .collect(),
        }
    }

    /// Every branch weight `p_i = tr(K_i†K_i ρ_S)` of `state`, from one
    /// read-only pass, in `scratch.probs`.
    fn weights<'s>(&self, state: &StateVector, scratch: &'s mut Scratch) -> &'s [f64] {
        self.layout.check(state);
        let amps = state.amplitudes();
        let levels = self.layout.offsets.len();
        scratch.probs.clear();
        match &self.effects {
            Effects::Diagonal(diagonals) => {
                let pops = &mut scratch.reals;
                pops.clear();
                pops.resize(levels, 0.0);
                self.layout.populations(amps, pops);
                let weights = diagonals.chunks_exact(levels).map(|e| dot(e, pops));
                scratch.probs.extend(weights);
            }
            Effects::Dense(effects) => {
                let rho = &mut scratch.complexes;
                rho.clear();
                rho.resize(levels * levels, Complex::ZERO);
                self.layout.reduced_density(amps, rho);
                // tr(E ρ) = Σ_ab E[a][b]·ρ[b][a]; both are Hermitian, so
                // the trace is real.
                let weights = effects.chunks_exact(levels * levels).map(|e| {
                    (0..levels * levels)
                        .map(|ab| (e[ab] * rho[ab % levels * levels + ab / levels]).re)
                        .sum::<f64>()
                });
                scratch.probs.extend(weights);
            }
        }
        &scratch.probs
    }

    /// Applies branch `i` in place, divided by `√p` — the branch's weight
    /// on this state — so the state leaves at unit norm.
    fn apply(&self, state: &mut StateVector, i: usize, p: f64) {
        self.layout.check(state);
        // A drawn branch has p > 0 (see `draw`); the guard keeps a zero
        // state zero, as renormalising it would.
        let inv = if p > 0.0 { 1.0 / p.sqrt() } else { 1.0 };
        match &self.ops[i] {
            KrausOp::Scale(diagonal) => self.layout.scale(state.amplitudes_mut(), diagonal, inv),
            KrausOp::Jump { from, to, coeff } => {
                self.layout
                    .jump(state.amplitudes_mut(), *from, *to, coeff.scale(inv))
            }
            KrausOp::General(plan) => {
                plan.apply_sequential(state);
                scale_run(state.amplitudes_mut(), Complex::real(inv));
            }
        }
    }

    /// The parts of a single-qudit site with diagonal effects and a real
    /// diagonal `K_0` — amplitude damping — that the fused idle pass uses.
    fn damping(&self) -> Option<Damping<'_>> {
        match (&self.qudits[..], &self.effects, self.ops.first()) {
            (&[qudit], Effects::Diagonal(effects), Some(KrausOp::Scale(no_jump)))
                if no_jump.iter().all(|k| k.im == 0.0) =>
            {
                Some(Damping {
                    site: self,
                    qudit,
                    effects,
                    no_jump,
                })
            }
            _ => None,
        }
    }
}

/// A damping site as the fused idle pass sees it.
struct Damping<'a> {
    site: &'a KrausSite,
    qudit: usize,
    /// The diagonal of every `K_i†K_i`, `d` entries per branch; the first
    /// `d` are the no-jump weights `|K_0(l)|²`.
    effects: &'a [f64],
    /// The diagonal of `K_0`.
    no_jump: &'a [Complex],
}

fn damping(channel: &CompiledChannel) -> Option<Damping<'_>> {
    match &channel.kind {
        CompiledKind::Kraus(site) => site.damping(),
        CompiledKind::MixedUnitary { .. } => None,
    }
}

/// Where a site's amplitude groups lie in the state. Qudit `q` is digit `q`
/// from the most significant, with stride `dim^(width-1-q)`. Group `g`
/// holds the amplitudes `base_g + offsets[a]` for the site's `D` levels `a`,
/// and the group bases come in contiguous runs of `run`, the stride of the
/// site's least significant qudit. Every pass therefore works on contiguous
/// slices. The runs of a contiguous site come one block apart; otherwise an
/// odometer over the `outer` strides steps from one run to the next, with
/// no division either way.
#[derive(Clone, Debug)]
struct SiteLayout {
    dim: usize,
    width: usize,
    offsets: Vec<usize>,
    run: usize,
    /// Strides of the qudits outside the site that are more significant
    /// than its least significant qudit, most significant first.
    outer: Vec<usize>,
    /// Whether the site's qudits are consecutive and listed in ascending
    /// order, as a single qudit always is: then the groups' runs tile
    /// blocks of `D·run` contiguous amplitudes, and the runs come one block
    /// apart.
    contiguous: bool,
}

impl SiteLayout {
    fn new(dim: usize, width: usize, qudits: &[usize]) -> SiteLayout {
        for (i, &q) in qudits.iter().enumerate() {
            assert!(q < width, "qudit index {q} out of range");
            assert!(!qudits[..i].contains(&q), "repeated qudit index {q}");
        }
        let stride = |q: usize| dim.pow((width - 1 - q) as u32);
        // The first listed qudit is the most significant digit of a level.
        let offsets = (0..dim.pow(qudits.len() as u32))
            .map(|level| {
                let mut rest = level;
                let mut offset = 0;
                for &q in qudits.iter().rev() {
                    offset += rest % dim * stride(q);
                    rest /= dim;
                }
                offset
            })
            .collect();
        let lowest = qudits.iter().copied().max();
        SiteLayout {
            dim,
            width,
            offsets,
            run: lowest.map_or(dim.pow(width as u32), stride),
            outer: (0..lowest.unwrap_or(0))
                .filter(|q| !qudits.contains(q))
                .map(stride)
                .collect(),
            contiguous: qudits.windows(2).all(|pair| pair[1] == pair[0] + 1),
        }
    }

    fn check(&self, state: &StateVector) {
        assert_eq!(
            (state.dim(), state.num_qudits()),
            (self.dim, self.width),
            "state shape does not match the channel site"
        );
    }

    /// Calls `f` with the first group base of every run, in ascending order.
    fn for_each_run(&self, mut f: impl FnMut(usize)) {
        if self.contiguous {
            let block = self.offsets.len() * self.run;
            for base in (0..self.dim.pow(self.width as u32)).step_by(block) {
                f(base);
            }
            return;
        }
        // A register has fewer qudits than a usize has bits.
        let mut digits = [0usize; usize::BITS as usize];
        let mut base = 0;
        loop {
            f(base);
            let mut i = self.outer.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                base += self.outer[i];
                digits[i] += 1;
                if digits[i] < self.dim {
                    break;
                }
                base -= self.dim * self.outer[i];
                digits[i] = 0;
            }
        }
    }

    /// Adds each level's population `ρ_S[a][a]` into `pops`.
    fn populations(&self, amps: &[Complex], pops: &mut [f64]) {
        self.for_each_run(|base| {
            for (pop, &offset) in pops.iter_mut().zip(&self.offsets) {
                *pop += norm_sqr_sum(&amps[base + offset..][..self.run]);
            }
        });
    }

    /// Adds the site's reduced density matrix `ρ_S`, row-major, into `rho`.
    fn reduced_density(&self, amps: &[Complex], rho: &mut [Complex]) {
        let levels = self.offsets.len();
        self.for_each_run(|base| {
            for (row, &a) in rho.chunks_exact_mut(levels).zip(&self.offsets) {
                let xs = &amps[base + a..][..self.run];
                for (entry, &b) in row.iter_mut().zip(&self.offsets) {
                    let ys = &amps[base + b..][..self.run];
                    *entry += xs.iter().zip(ys).map(|(x, y)| *x * y.conj()).sum();
                }
            }
        });
    }

    /// Multiplies level `a` of every group by `diagonal[a]·inv`.
    fn scale(&self, amps: &mut [Complex], diagonal: &[Complex], inv: f64) {
        self.for_each_run(|base| {
            for (&offset, &k) in self.offsets.iter().zip(diagonal) {
                scale_run(&mut amps[base + offset..][..self.run], k.scale(inv));
            }
        });
    }

    /// Moves level `from` of every group to level `to`, times `coeff`, and
    /// clears every other level.
    fn jump(&self, amps: &mut [Complex], from: usize, to: usize, coeff: Complex) {
        let (from, to) = (self.offsets[from], self.offsets[to]);
        self.for_each_run(|base| {
            for x in base..base + self.run {
                amps[x + to] = amps[x + from] * coeff;
            }
            for &offset in self.offsets.iter().filter(|&&offset| offset != to) {
                amps[base + offset..][..self.run].fill(Complex::ZERO);
            }
        });
    }
}

/// Applies a frame's idle group, `sites` in order, and returns `true`; or
/// returns `false`, having touched nothing, unless every site is a
/// single-qudit Kraus channel with a real diagonal `K_0` and diagonal
/// `K_i†K_i`s (amplitude damping), the qudits strictly ascend, and
/// `dim ≤ BLOCK`.
///
/// Site-by-site sampling weighs site `j`'s branches on the state after `j`
/// no-jump sites. Up to their common norm, those weights are
/// `Σ_l E_i(l)·A[q_j][l]`, where `A[q][l] = Σ_{x: x_q = l} |ψ_x|²·W_q(x)`
/// and `W_q(x)` is the product of `|K_0(x_p)|²` over the sites on qudits
/// `p < q`. Qudit 0 is the most significant digit, so `W_q` is constant on
/// contiguous blocks, and one walk over the digit tree of the state fills
/// `A` for every qudit (see [`weigh`]). The sites are then sampled in
/// order, one uniform each, as site-by-site sampling draws them. If none
/// jumps, one walk applies the product of the `K_0`s with its
/// normalisation. At the first jump the pending product is applied, then
/// the jump, and the rest of the group starts over on the new state. Either
/// way the state leaves at unit norm. Scratch is `O(width·dim)` plus one
/// `BLOCK`-entry table.
pub(crate) fn apply_idle_group<R: Rng + ?Sized>(
    sites: &[CompiledChannel],
    state: &mut StateVector,
    rng: &mut R,
) -> bool {
    let (dim, width) = (state.dim(), state.num_qudits());
    if dim > BLOCK {
        return false;
    }
    let mut last = None;
    for site in sites {
        match damping(site) {
            Some(d)
                if last.is_none_or(|q| d.qudit > q)
                    && (d.site.layout.dim, d.site.layout.width) == (dim, width) =>
            {
                last = Some(d.qudit)
            }
            _ => return false,
        }
    }
    let mut rest = sites;
    while !rest.is_empty() {
        match SCRATCH.with_borrow_mut(|scratch| idle_pass(rest, state, rng, scratch)) {
            Some(jumped) => rest = &rest[jumped + 1..],
            None => break,
        }
    }
    true
}

/// One fused pass of [`apply_idle_group`] over `sites`, all damping sites
/// on ascending qudits. Returns the index of the first site that jumped,
/// having applied the group up to and including it, or `None` once the
/// whole group is applied.
fn idle_pass<R: Rng + ?Sized>(
    sites: &[CompiledChannel],
    state: &mut StateVector,
    rng: &mut R,
    scratch: &mut Scratch,
) -> Option<usize> {
    let damping = |site| damping(site).expect("every site is checked first");
    let (dim, width) = (state.dim(), state.num_qudits());
    let Scratch { reals, probs, .. } = scratch;
    // Per qudit and level: the no-jump weight |K_0(l)|² and factor K_0(l)
    // of the site on that qudit (1 where there is none), and A; then the
    // walks' block table.
    let cells = width * dim;
    if reals.len() < 3 * cells + BLOCK {
        reals.resize(3 * cells + BLOCK, 0.0);
    }
    let (weights, rest) = reals.split_at_mut(cells);
    let (factors, rest) = rest.split_at_mut(cells);
    let (acc, block) = rest.split_at_mut(cells);
    weights.fill(1.0);
    factors.fill(1.0);
    for site in sites {
        let d = damping(site);
        let cell = d.qudit * dim..(d.qudit + 1) * dim;
        weights[cell.clone()].copy_from_slice(&d.effects[..dim]);
        for (f, k) in factors[cell].iter_mut().zip(d.no_jump) {
            *f = k.re;
        }
    }
    acc.fill(0.0);
    weigh(state.amplitudes(), dim, weights, acc, block);
    // The squared norm of the state after the no-jump sites so far.
    let mut norm = 1.0_f64;
    for (j, site) in sites.iter().enumerate() {
        let d = damping(site);
        let populations = &acc[d.qudit * dim..][..dim];
        probs.clear();
        probs.extend(d.effects.chunks_exact(dim).map(|e| dot(e, populations)));
        let chosen = draw(probs, rng);
        if chosen != 0 {
            let p = if j == 0 {
                probs[chosen]
            } else {
                // Only the no-jump factors of the sites before j are due.
                for later in &sites[j..] {
                    factors[damping(later).qudit * dim..][..dim].fill(1.0);
                }
                let c = 1.0 / norm.sqrt();
                scale(state.amplitudes_mut(), dim, factors, c, block);
                probs[chosen] / norm
            };
            d.site.apply(state, chosen, p);
            return Some(j);
        }
        norm = probs[0];
    }
    scale(
        state.amplitudes_mut(),
        dim,
        factors,
        1.0 / norm.sqrt(),
        block,
    );
    None
}

/// The largest block of trailing digits the digit-tree walks cover with
/// flat loops over a table instead of recursion: `d^low ≤ BLOCK`.
const BLOCK: usize = 1024;

/// The number of trailing digits, `low`, and the block size `d^low` of the
/// walks over a `width`-qudit state.
fn low_digits(d: usize, width: usize) -> (usize, usize) {
    let (mut low, mut size) = (0, 1);
    while low < width && size * d <= BLOCK {
        low += 1;
        size *= d;
    }
    (low, size)
}

/// The read walk of [`apply_idle_group`]: adds `A[q][l]` into `acc`, for
/// the per-qudit no-jump weights `weights` (`d` entries per qudit, both).
///
/// The digits above the block digits are walked recursively, carrying the
/// product `w` of the weights above. Every block of `d^low` contiguous
/// amplitudes adds `w·|ψ_i|²` into entry `i` of a block table, and returns
/// its plain squared norm for the digits above. The block digits' weights
/// factor out of that table, so their rows come from it at the end, one
/// digit at a time: a digit's row sums the table's `d` contiguous slices,
/// and the slices weighted by the digit's weights fold into the table of
/// the digits below. Each amplitude thus costs one norm and two additions,
/// with no division and no call.
fn weigh(amps: &[Complex], d: usize, weights: &[f64], acc: &mut [f64], block: &mut [f64]) {
    let width = weights.len() / d;
    let (low, size) = low_digits(d, width);
    let high = width - low;
    let block = &mut block[..size];
    block.fill(0.0);
    weigh_high(amps, d, high, weights, acc, 1.0, block);
    let mut table = block;
    for (row, weights) in acc[high * d..]
        .chunks_exact_mut(d)
        .zip(weights[high * d..].chunks_exact(d))
    {
        let m = table.len() / d;
        for (a, slice) in row.iter_mut().zip(table.chunks_exact(m)) {
            *a += slice.iter().sum::<f64>();
        }
        let (head, tail) = table.split_at_mut(m);
        for x in head.iter_mut() {
            *x *= weights[0];
        }
        for (&w, slice) in weights[1..].iter().zip(tail.chunks_exact(m)) {
            for (x, &y) in head.iter_mut().zip(slice) {
                *x += w * y;
            }
        }
        table = head;
    }
}

/// The recursive part of [`weigh`] over `levels` digits above the block
/// digits; returns the squared norm of `amps`.
fn weigh_high(
    amps: &[Complex],
    d: usize,
    levels: usize,
    weights: &[f64],
    acc: &mut [f64],
    w: f64,
    block: &mut [f64],
) -> f64 {
    if levels == 0 {
        let mut sums = [0.0; 4];
        let mut quads = amps.chunks_exact(4);
        let mut slots = block.chunks_exact_mut(4);
        for (quad, slot) in (&mut quads).zip(&mut slots) {
            for ((sum, s), a) in sums.iter_mut().zip(slot).zip(quad) {
                let v = a.norm_sqr();
                *s += w * v;
                *sum += v;
            }
        }
        for (s, a) in slots.into_remainder().iter_mut().zip(quads.remainder()) {
            let v = a.norm_sqr();
            *s += w * v;
            sums[0] += v;
        }
        return (sums[0] + sums[1]) + (sums[2] + sums[3]);
    }
    let mut total = 0.0;
    for (l, child) in amps.chunks_exact(amps.len() / d).enumerate() {
        let t = weigh_high(
            child,
            d,
            levels - 1,
            &weights[d..],
            &mut acc[d..],
            w * weights[l],
            block,
        );
        acc[l] += w * t;
        total += t;
    }
    total
}

/// The write walk of [`apply_idle_group`]: multiplies every amplitude by
/// `c` times the product of its digits' `factors` (`d` per qudit). The
/// block digits' products are tabulated once, so each amplitude costs one
/// table multiply and one scale.
fn scale(amps: &mut [Complex], d: usize, factors: &[f64], c: f64, block: &mut [f64]) {
    let width = factors.len() / d;
    let (low, size) = low_digits(d, width);
    let block = &mut block[..size];
    products(&factors[(width - low) * d..], d, block);
    scale_high(amps, d, width - low, factors, c, block);
}

/// The recursive part of [`scale`] over `levels` digits above the block
/// digits.
fn scale_high(
    amps: &mut [Complex],
    d: usize,
    levels: usize,
    factors: &[f64],
    c: f64,
    block: &[f64],
) {
    if levels == 0 {
        for (a, &f) in amps.iter_mut().zip(block) {
            *a = a.scale(c * f);
        }
        return;
    }
    let sub = amps.len() / d;
    for (l, child) in amps.chunks_exact_mut(sub).enumerate() {
        scale_high(child, d, levels - 1, &factors[d..], c * factors[l], block);
    }
}

/// `out[i] = Π_b rows[b][digit_b(i)]` for every index `i` of the digits the
/// `rows` (`d` entries each, most significant first) cover.
fn products(rows: &[f64], d: usize, out: &mut [f64]) {
    out[0] = 1.0;
    let mut m = 1;
    // Least significant digit first: each digit prepends d copies of the
    // table so far, scaled by its factors.
    for row in rows.chunks_exact(d).rev() {
        let (head, tail) = out.split_at_mut(m);
        for (&f, slice) in row[1..].iter().zip(tail.chunks_exact_mut(m)) {
            for (o, &x) in slice.iter_mut().zip(head.iter()) {
                *o = f * x;
            }
        }
        for x in head.iter_mut() {
            *x *= row[0];
        }
        m *= d;
    }
}

/// `Σ |a|²` over a contiguous run. A long run sums into eight accumulators
/// (real and imaginary parts apart), so it is not bound by the latency of
/// one chain of additions and the compiler can vectorise it.
fn norm_sqr_sum(run: &[Complex]) -> f64 {
    if run.len() < 8 {
        return run.iter().map(|a| a.norm_sqr()).sum();
    }
    let mut acc = [0.0; 8];
    let mut quads = run.chunks_exact(4);
    for quad in &mut quads {
        for (pair, a) in acc.chunks_exact_mut(2).zip(quad) {
            pair[0] += a.re * a.re;
            pair[1] += a.im * a.im;
        }
    }
    let tail: f64 = quads.remainder().iter().map(|a| a.norm_sqr()).sum();
    acc.iter().sum::<f64>() + tail
}

/// Multiplies a contiguous run by `c`, as a real scale when `c` is real.
fn scale_run(run: &mut [Complex], c: Complex) {
    if c.im == 0.0 {
        for a in run {
            *a = a.scale(c.re);
        }
    } else {
        for a in run {
            *a *= c;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Draws a branch from unnormalised weights: one uniform `r ∈ [0, Σp)`,
/// then [`weighted_pick`]. `Σp` adds in the same order as the pick's
/// accumulator and `r < Σp`, so a zero-weight branch is never picked and
/// the chosen branch's `1/√p` is finite.
fn draw<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let total: f64 = probs.iter().sum();
    let r: f64 = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    weighted_pick(probs, r)
}

/// Index of the first branch whose cumulative weight exceeds `r`, falling
/// back to the last branch (guards against floating-point undershoot).
fn weighted_pick(probs: &[f64], r: f64) -> usize {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

fn is_identity(m: &CMatrix) -> bool {
    if !m.is_square() {
        return false;
    }
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let expected = if r == c { Complex::ONE } else { Complex::ZERO };
            if !m.get(r, c).approx_eq(expected, 1e-12) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{gates, random_qubit_subspace_state, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The uncompiled trajectory sampler, kept as the reference that
    /// [`CompiledChannel::apply_trajectory`] must match: samples one branch
    /// of `channel` and applies it to the given qudits of the state,
    /// renormalising afterwards. Returns the branch index.
    fn apply_trajectory<R: Rng + ?Sized>(
        channel: &Channel,
        state: &mut StateVector,
        qudits: &[usize],
        rng: &mut R,
    ) -> usize {
        reference_step(channel, state, qudits, rng).0
    }

    /// The reference sampler's step: the branch index, and whether the
    /// draw fell within 1e-12·Σp of a cut between branches, where weights
    /// summed in another order may pick the neighbouring branch.
    fn reference_step<R: Rng + ?Sized>(
        channel: &Channel,
        state: &mut StateVector,
        qudits: &[usize],
        rng: &mut R,
    ) -> (usize, bool) {
        let expected = state.dim().pow(qudits.len() as u32);
        assert_eq!(
            channel.dim(),
            expected,
            "channel dimension does not match targeted qudits"
        );
        match channel {
            Channel::MixedUnitary { probs, unitaries } => {
                let r: f64 = rng.gen_range(0.0..1.0);
                let chosen = weighted_pick(probs, r);
                // Identity branches are usually first and dominant; skip the
                // work when the chosen unitary is exactly the identity.
                let u = &unitaries[chosen];
                if !is_identity(u) {
                    ApplyPlan::for_matrix(state.dim(), state.num_qudits(), u, qudits)
                        .apply_sequential(state);
                }
                (chosen, false)
            }
            Channel::Kraus { operators } => {
                // Branch probabilities are ‖K_i|ψ⟩‖²; compute them by
                // applying each operator to a scratch copy.
                let mut branch_states: Vec<StateVector> = Vec::with_capacity(operators.len());
                let mut probs: Vec<f64> = Vec::with_capacity(operators.len());
                for k in operators {
                    let mut scratch = state.clone();
                    ApplyPlan::for_matrix(state.dim(), state.num_qudits(), k, qudits)
                        .apply_sequential(&mut scratch);
                    let p = scratch.norm().powi(2);
                    probs.push(p);
                    branch_states.push(scratch);
                }
                let total: f64 = probs.iter().sum();
                let r: f64 = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                let chosen = weighted_pick(&probs, r);
                let near_cut = probs
                    .iter()
                    .scan(0.0, |cut, p| {
                        *cut += p;
                        Some(*cut)
                    })
                    .any(|cut| (r - cut).abs() < 1e-12 * total);
                *state = branch_states.swap_remove(chosen);
                state.renormalize();
                (chosen, near_cut)
            }
        }
    }

    /// Applies `channel` on `qudits` `steps` times from `start`, through the
    /// reference and through the compiled site, each with its own RNG
    /// seeded `seed`. Asserts the same branch at every step and amplitudes
    /// equal to 1e-12 (none NaN). A draw within 1e-12·Σp of a cut that
    /// picks another branch is reported, and ends the comparison. Returns
    /// the branches drawn.
    fn assert_matches_reference(
        channel: &Channel,
        start: &StateVector,
        qudits: &[usize],
        seed: u64,
        steps: usize,
    ) -> Vec<usize> {
        let compiled = channel.compile(start.dim(), start.num_qudits(), qudits);
        let (mut a, mut b) = (start.clone(), start.clone());
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut branches = Vec::with_capacity(steps);
        for step in 0..steps {
            let (expected, near_cut) = reference_step(channel, &mut a, qudits, &mut rng_a);
            let got = compiled.apply_trajectory(&mut b, &mut rng_b);
            if got != expected && near_cut {
                eprintln!(
                    "qudits {qudits:?}, seed {seed}, step {step}: the draw is within \
                     1e-12·Σp of a cut (reference branch {expected}, compiled {got})"
                );
                break;
            }
            assert_eq!(got, expected, "qudits {qudits:?}, seed {seed}, step {step}");
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                assert!(
                    !y.is_nan() && x.approx_eq(*y, 1e-12),
                    "qudits {qudits:?}, seed {seed}, step {step}: {x} vs {y}"
                );
            }
            branches.push(got);
        }
        branches
    }

    /// The damping channel of a qudit of dimension `dim` (2 or 3).
    fn damping(dim: usize, lambda1: f64, lambda2: f64) -> Channel {
        match dim {
            2 => crate::damping::qubit_damping(lambda1).unwrap(),
            _ => crate::damping::qutrit_damping(lambda1, lambda2).unwrap(),
        }
    }

    #[test]
    fn mixed_unitary_validation() {
        let good = Channel::MixedUnitary {
            probs: vec![0.9, 0.1],
            unitaries: vec![CMatrix::identity(3), gates::qutrit::x_plus_1()],
        };
        assert!(good.validate().is_ok());

        let bad_sum = Channel::MixedUnitary {
            probs: vec![0.9, 0.2],
            unitaries: vec![CMatrix::identity(3), gates::qutrit::x_plus_1()],
        };
        assert!(bad_sum.validate().is_err());
    }

    #[test]
    fn kraus_validation_detects_non_cptp() {
        let good = Channel::Kraus {
            operators: vec![CMatrix::identity(2)],
        };
        assert!(good.validate().is_ok());
        let bad = Channel::Kraus {
            operators: vec![CMatrix::identity(2).scale(Complex::real(0.5))],
        };
        assert!(matches!(
            bad.validate(),
            Err(NoiseError::NotTracePreserving { .. })
        ));
    }

    #[test]
    fn identity_dominant_channel_rarely_changes_state() {
        let channel = Channel::MixedUnitary {
            probs: vec![1.0, 0.0],
            unitaries: vec![CMatrix::identity(3), gates::qutrit::x_plus_1()],
        };
        let mut state = StateVector::from_basis_state(3, &[1, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let branch = apply_trajectory(&channel, &mut state, &[0], &mut rng);
            assert_eq!(branch, 0);
        }
        assert!((state.probability(&[1, 1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn always_error_channel_applies_unitary() {
        let channel = Channel::MixedUnitary {
            probs: vec![0.0, 1.0],
            unitaries: vec![CMatrix::identity(3), gates::qutrit::x_plus_1()],
        };
        let mut state = StateVector::from_basis_state(3, &[0, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        apply_trajectory(&channel, &mut state, &[1], &mut rng);
        assert!((state.probability(&[0, 1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kraus_trajectory_branch_statistics_follow_state() {
        // Amplitude damping style channel on a qubit: K0 keeps, K1 decays.
        let lambda: f64 = 0.3;
        let k0 = CMatrix::from_rows(&[
            &[Complex::ONE, Complex::ZERO],
            &[Complex::ZERO, Complex::real((1.0 - lambda).sqrt())],
        ]);
        let k1 = CMatrix::from_rows(&[
            &[Complex::ZERO, Complex::real(lambda.sqrt())],
            &[Complex::ZERO, Complex::ZERO],
        ]);
        let channel = Channel::Kraus {
            operators: vec![k0, k1],
        };
        channel.validate().unwrap();

        // On |1> the decay branch should occur with probability lambda.
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 5000;
        let mut decays = 0;
        for _ in 0..trials {
            let mut state = StateVector::from_basis_state(2, &[1]).unwrap();
            let branch = apply_trajectory(&channel, &mut state, &[0], &mut rng);
            if branch == 1 {
                decays += 1;
                assert!((state.probability(&[0]).unwrap() - 1.0).abs() < 1e-12);
            }
        }
        let rate = decays as f64 / trials as f64;
        assert!((rate - lambda).abs() < 0.03, "decay rate {rate}");

        // On |0> the decay branch never fires.
        let mut state = StateVector::from_basis_state(2, &[0]).unwrap();
        for _ in 0..50 {
            assert_eq!(apply_trajectory(&channel, &mut state, &[0], &mut rng), 0);
        }
    }

    #[test]
    fn compiled_channel_consumes_the_same_rng_stream() {
        // Precompiling a site cannot shift trajectory results: on random
        // full states, every target qudit, d ∈ {2, 3} and widths 1–6, the
        // compiled site draws the reference's branch at every step.
        let mut rng = StdRng::seed_from_u64(40);
        let mut jumps = 0;
        for dim in [2, 3] {
            let channels = [
                crate::depolarizing::single_qudit_depolarizing(dim, 1e-2).unwrap(),
                damping(dim, 0.2, 0.35),
            ];
            for width in 1..=6 {
                for q in 0..width {
                    let start = random_state(dim, width, &mut rng).unwrap();
                    for (seed, channel) in channels.iter().enumerate() {
                        let branches = assert_matches_reference(
                            channel,
                            &start,
                            &[q],
                            (100 * width + 10 * q + seed) as u64,
                            40,
                        );
                        jumps += branches.iter().filter(|&&b| b != 0).count();
                    }
                }
            }
        }
        assert!(jumps > 50, "only {jumps} non-identity branches drawn");
    }

    #[test]
    fn general_and_two_qudit_kraus_sites_match_the_reference() {
        // Effects that are not diagonal take the ρ_S pass and the plan arm;
        // a two-qudit damping product on out-of-order qudits takes the
        // scale, jump and plan arms over a multi-qudit layout.
        let weak_measurement = |w: &CMatrix, a: &[f64]| {
            let root = |f: &dyn Fn(f64) -> f64| {
                let diag: Vec<Complex> = a.iter().map(|&x| Complex::real(f(x))).collect();
                &(w * &CMatrix::diagonal(&diag)) * &w.adjoint()
            };
            Channel::Kraus {
                operators: vec![root(&|x| x.sqrt()), root(&|x| (1.0 - x).sqrt())],
            }
        };
        let h3 = gates::qutrit::h3();
        let one = weak_measurement(&h3, &[0.1, 0.5, 0.8]);
        let two = weak_measurement(
            &h3.kron(&h3),
            &[0.1, 0.9, 0.5, 0.3, 0.7, 0.2, 0.6, 0.4, 0.8],
        );
        let Channel::Kraus { operators: k } = crate::damping::qutrit_damping(0.4, 0.6).unwrap()
        else {
            unreachable!("damping is a Kraus channel")
        };
        let product = Channel::Kraus {
            operators: k.iter().flat_map(|a| k.iter().map(|b| a.kron(b))).collect(),
        };
        for channel in [&one, &two, &product] {
            channel.validate().unwrap();
        }
        let mut rng = StdRng::seed_from_u64(41);
        let mut product_branches = Vec::new();
        for width in 2..=4 {
            for q in 0..width {
                let start = random_state(3, width, &mut rng).unwrap();
                let other = (q + 1) % width;
                assert_matches_reference(&one, &start, &[q], 7, 20);
                assert_matches_reference(&two, &start, &[q, other], 8, 20);
                product_branches.extend(assert_matches_reference(
                    &product,
                    &start,
                    &[other, q],
                    q as u64,
                    20,
                ));
            }
        }
        // Branch 3a + b is K_a ⊗ K_b: a jump when a, b ≥ 1 (one nonzero
        // entry), a general operator when exactly one of them is 0.
        assert!(product_branches.iter().any(|&i| i / 3 > 0 && i % 3 > 0));
        assert!(product_branches
            .iter()
            .any(|&i| (i / 3 == 0) != (i % 3 == 0)));
    }

    #[test]
    fn an_empty_level_is_never_drawn() {
        // Qubit-subspace qutrit states leave level 2 empty, so p_2 is
        // exactly 0: branch 2 is never drawn, and no amplitude turns NaN.
        let channel = crate::damping::qutrit_damping(0.6, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut jumps = 0;
        for width in 1..=5 {
            for q in 0..width {
                let start = random_qubit_subspace_state(3, width, &mut rng).unwrap();
                let branches = assert_matches_reference(&channel, &start, &[q], q as u64, 10);
                assert!(!branches.contains(&2), "branches {branches:?}");
                jumps += branches.iter().filter(|&&b| b == 1).count();
            }
        }
        assert!(jumps > 0);
    }

    #[test]
    fn damping_at_lambda_zero_and_one_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(43);
        // λ = 0: the jumps weigh nothing and K_0 = I.
        let idle = crate::damping::qutrit_damping(0.0, 0.0).unwrap();
        // λ = 1: K_0 = |0⟩⟨0|, so p_0 = 0 whenever the qudit has no |0⟩
        // population.
        let decay = crate::damping::qutrit_damping(1.0, 1.0).unwrap();
        for q in 0..3 {
            let start = random_state(3, 3, &mut rng).unwrap();
            let branches = assert_matches_reference(&idle, &start, &[q], 1, 10);
            assert!(branches.iter().all(|&b| b == 0));
            let mut state = start.clone();
            idle.compile(3, 3, &[q])
                .apply_trajectory(&mut state, &mut rng);
            for (x, y) in start.amplitudes().iter().zip(state.amplitudes()) {
                assert!(x.approx_eq(*y, 1e-12));
            }

            assert_matches_reference(&decay, &start, &[q], 2, 10);
            for level in [1, 2] {
                let mut digits = [0; 3];
                digits[q] = level;
                let excited = StateVector::from_basis_state(3, &digits).unwrap();
                let branches = assert_matches_reference(&decay, &excited, &[q], 3, 5);
                assert_eq!(branches, [level, 0, 0, 0, 0]);
            }
        }
    }

    #[test]
    fn composed_channel_matches_sequential_superoperators() {
        let first = crate::depolarizing::single_qudit_depolarizing(3, 2e-2).unwrap();
        let second = Channel::MixedUnitary {
            probs: vec![0.7, 0.3],
            unitaries: vec![CMatrix::identity(3), gates::qutrit::x_plus_1()],
        };
        let composed = first.then(&second).unwrap();
        composed.validate().unwrap();
        // later ∘ self: the superoperator of the composite is the product
        // S_later · S_self.
        let expected = &second.superoperator() * &first.superoperator();
        assert!(composed.superoperator().approx_eq(&expected, 1e-12));
        // Composing with a single identity branch is branch-order neutral.
        let identity = Channel::MixedUnitary {
            probs: vec![1.0],
            unitaries: vec![CMatrix::identity(3)],
        };
        let neutral = first.then(&identity).unwrap();
        assert_eq!(neutral.num_branches(), first.num_branches());
        assert!(neutral
            .superoperator()
            .approx_eq(&first.superoperator(), 1e-12));
    }

    #[test]
    fn composition_rejects_kraus_and_mismatched_dims() {
        let kraus = crate::damping::qutrit_damping(0.2, 0.35).unwrap();
        let mixed = crate::depolarizing::single_qudit_depolarizing(3, 1e-2).unwrap();
        assert!(kraus.then(&mixed).is_err());
        assert!(mixed.then(&kraus).is_err());
        let qubit = crate::depolarizing::single_qudit_depolarizing(2, 1e-2).unwrap();
        assert!(mixed.then(&qubit).is_err());
    }

    #[test]
    fn superoperator_of_identity_channel_is_identity() {
        let channel = Channel::MixedUnitary {
            probs: vec![1.0],
            unitaries: vec![CMatrix::identity(3)],
        };
        assert!(channel
            .superoperator()
            .approx_eq(&CMatrix::identity(9), 1e-12));
    }

    #[test]
    fn superoperator_preserves_trace_for_cptp_channels() {
        // tr(E(ρ)) = tr(ρ) ⇔ the superoperator's columns, reshaped, have
        // unit trace; check it on the damping channel by applying to vec(ρ).
        let channel = crate::damping::qutrit_damping(0.3, 0.5).unwrap();
        let s = channel.superoperator();
        // vec(|2⟩⟨2|) is the basis column 8; E(|2⟩⟨2|) populations must sum
        // to 1 with mass split between |0⟩ and |2⟩.
        let mut vec_rho = vec![Complex::ZERO; 9];
        vec_rho[8] = Complex::ONE;
        let out = s.mul_vec(&vec_rho);
        let trace: f64 = (0..3).map(|i| out[i * 3 + i].re).sum();
        assert!((trace - 1.0).abs() < 1e-12);
        assert!((out[0].re - 0.5).abs() < 1e-12); // λ2 = 0.5 decay to |0⟩
        assert!((out[8].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trajectory_preserves_normalisation() {
        let channel = Channel::Kraus {
            operators: vec![
                CMatrix::from_rows(&[
                    &[Complex::ONE, Complex::ZERO],
                    &[Complex::ZERO, Complex::real(0.8)],
                ]),
                CMatrix::from_rows(&[
                    &[Complex::ZERO, Complex::real(0.6)],
                    &[Complex::ZERO, Complex::ZERO],
                ]),
            ],
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut state = StateVector::zero_state(2, 2).unwrap();
        // Prepare |+⟩ on qubit 1.
        ApplyPlan::for_matrix(2, 2, &gates::qubit::h(), &[1]).apply(&mut state);
        apply_trajectory(&channel, &mut state, &[1], &mut rng);
        assert!((state.norm() - 1.0).abs() < 1e-10);
    }
}
