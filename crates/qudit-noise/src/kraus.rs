//! Quantum noise channels in the Kraus operator formalism (Appendix A.1).
//!
//! A channel `E(σ) = Σ_i K_i σ K_i†` is represented either as a general set
//! of Kraus operators, or — when every operator is a scaled unitary, as in
//! the depolarizing channel — as a probabilistic mixture of unitaries, which
//! admits a much cheaper trajectory sampling rule (the branch probabilities
//! are state-independent).

use crate::error::{NoiseError, NoiseResult};
use qudit_core::{CMatrix, Complex, StateVector};
use qudit_sim::ApplyPlan;
use rand::Rng;

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
    /// plan building per application.
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
                kind: CompiledKind::Kraus {
                    plans: operators
                        .iter()
                        .map(|k| ApplyPlan::for_matrix(dim, width, k, qudits))
                        .collect(),
                },
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
/// branch operator has a prebuilt [`ApplyPlan`], so trajectory sampling does
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
    /// Branch probabilities are `‖Kᵢ|ψ⟩‖²`, recomputed per application.
    Kraus { plans: Vec<ApplyPlan> },
}

impl CompiledChannel {
    /// Samples one branch and applies it on the calling thread,
    /// renormalising afterwards for state-dependent (Kraus) branches.
    ///
    /// Returns the index of the branch that was applied. Matches the
    /// uncompiled reference sampler (kept with this module's tests)
    /// draw-for-draw, so precompiling a site cannot shift the RNG stream a
    /// trajectory consumes.
    ///
    /// # Panics
    ///
    /// Panics if the state shape does not match the plans.
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
            CompiledKind::Kraus { plans } => {
                let mut branch_states: Vec<StateVector> = Vec::with_capacity(plans.len());
                let mut probs: Vec<f64> = Vec::with_capacity(plans.len());
                for plan in plans {
                    let mut scratch = state.clone();
                    plan.apply_sequential(&mut scratch);
                    probs.push(scratch.norm().powi(2));
                    branch_states.push(scratch);
                }
                let total: f64 = probs.iter().sum();
                let r: f64 = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                let chosen = weighted_pick(&probs, r);
                *state = branch_states.swap_remove(chosen);
                state.renormalize();
                chosen
            }
        }
    }
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
    use qudit_core::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The uncompiled trajectory sampler, kept as the reference that
    /// [`CompiledChannel::apply_trajectory`] must match draw-for-draw:
    /// samples one branch of `channel` and applies it to the given qudits
    /// of the state, renormalising afterwards. Returns the branch index.
    fn apply_trajectory<R: Rng + ?Sized>(
        channel: &Channel,
        state: &mut StateVector,
        qudits: &[usize],
        rng: &mut R,
    ) -> usize {
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
                chosen
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
                *state = branch_states.swap_remove(chosen);
                state.renormalize();
                chosen
            }
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
        // The compiled site must reproduce the uncompiled path draw-for-draw
        // so precompiling cannot shift trajectory results.
        for channel in [
            crate::depolarizing::single_qudit_depolarizing(3, 1e-2).unwrap(),
            crate::damping::qutrit_damping(0.2, 0.35).unwrap(),
        ] {
            let compiled = channel.compile(3, 2, &[1]);
            let mut a = StateVector::from_basis_state(3, &[2, 2]).unwrap();
            let mut b = a.clone();
            let mut rng_a = StdRng::seed_from_u64(40);
            let mut rng_b = StdRng::seed_from_u64(40);
            for _ in 0..200 {
                let ba = apply_trajectory(&channel, &mut a, &[1], &mut rng_a);
                let bb = compiled.apply_trajectory(&mut b, &mut rng_b);
                assert_eq!(ba, bb);
            }
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                assert!(x.approx_eq(*y, 1e-12));
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
