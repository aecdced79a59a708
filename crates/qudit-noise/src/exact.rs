//! Exact (density-matrix) noise simulation.
//!
//! Evolves `ρ` through the same noisy process the trajectory Monte Carlo
//! samples — the same `NoiseProgram`: per frame, the gate unitaries, then
//! one gate-error channel per gate, then the frame's idle error — but
//! applies every channel *exactly* as its superoperator `Σᵢ Kᵢ ⊗ conj(Kᵢ)`
//! instead of drawing one branch. The resulting fidelity
//! `⟨ψ_ideal|ρ|ψ_ideal⟩` is the ground-truth value the trajectory estimates
//! converge to; the cross-validation gate (`Executor::cross_validate` in
//! `qudit-api`) asserts exactly that, and the `decomposition_diff` suite
//! asserts the physically lowered program agrees with an independent
//! virtual-accounting oracle to ≤ 1e-9.
//!
//! Cost: `d^2n` entries instead of `d^n` amplitudes, so this is the small-n
//! oracle (≲ 6–7 qutrits) while trajectories remain the scalable engine.

use crate::cancel::CancelToken;
use crate::error::NoiseResult;
use crate::models::NoiseModel;
use crate::trajectory::{
    estimate_from_samples, FidelityEstimate, InputState, NoiseProgram, NoiseSites, Precision,
    TrajectoryConfig, Welford,
};
use qudit_core::{random_qubit_subspace_state, CoreError, StateVector};
use qudit_sim::{ApplyPlan, CompiledCircuit, CompiledDensityCircuit, DensityMatrix, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;

/// An exact density-matrix noise simulator bound to a compiled circuit and
/// a noise model.
///
/// Built from [`SharedNoiseArtifacts`](crate::SharedNoiseArtifacts): the
/// `NoiseProgram`, the program circuit compiled twice — a state-vector
/// [`CompiledCircuit`] for the ideal reference output and a
/// [`CompiledDensityCircuit`] for the noisy `U·ρ·U†` evolution — and one
/// superoperator [`ApplyPlan`] per (channel, site). Everything is
/// immutable and `Sync`, so input averaging fans out across rayon workers.
pub struct DensityNoiseSimulator {
    program: Arc<NoiseProgram>,
    ideal: Arc<CompiledCircuit>,
    noisy: Arc<CompiledDensityCircuit>,
    /// Per-site superoperator plans over the vectorised `2n`-qudit view of
    /// `ρ` — same site set as the trajectory engine, each site a single
    /// deterministic plan.
    sites: Arc<NoiseSites<ApplyPlan>>,
}

impl DensityNoiseSimulator {
    /// Builds the simulator on memoized shared artifacts: the noise
    /// program, both compiled replays and the per-site superoperator plans
    /// are all shared — repeated constructions over the same cached circuit
    /// entry build nothing at all. The accounting follows the level the
    /// artifacts' IR was compiled at; the ideal reference's gate plans
    /// compile through `planner`'s plan cache on first use.
    ///
    /// # Errors
    ///
    /// Propagates model-validation failures from channel construction.
    pub fn from_artifacts_with(
        artifacts: &crate::SharedNoiseArtifacts,
        model: &NoiseModel,
        planner: &Simulator,
    ) -> NoiseResult<Self> {
        Ok(DensityNoiseSimulator {
            program: Arc::clone(artifacts.program()),
            ideal: artifacts.ideal(planner),
            noisy: artifacts.noisy_density(),
            sites: artifacts.density_sites(model)?,
        })
    }

    /// Evolves `|ψ⟩⟨ψ|` for the initial state `initial` through the noisy
    /// process exactly and returns the final density matrix, checking
    /// `cancel` between frames — density frames are the expensive unit of
    /// work here (`d^2n`-entry superoperator applies), so per-frame
    /// granularity bounds the overrun after a deadline expires.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::Cancelled`](crate::NoiseError::Cancelled) once
    /// the token trips.
    ///
    /// # Panics
    ///
    /// Panics if the state shape does not match the circuit.
    fn evolve_cancellable(
        &self,
        initial: &StateVector,
        cancel: &CancelToken,
    ) -> NoiseResult<DensityMatrix> {
        let mut rho = DensityMatrix::from_pure(initial);
        for (frame_idx, frame) in self.program.frames.iter().enumerate() {
            cancel.check()?;
            for &op_idx in &frame.ops {
                self.noisy.pair(op_idx).apply(&mut rho);
            }
            for &op_idx in &frame.ops {
                self.sites
                    .for_op_sites(&self.program.sites[op_idx], |plan| rho.apply_plan(plan));
            }
            if let Some(sites) = self.sites.idle.get(&frame.duration) {
                for site in sites {
                    rho.apply_plan(site);
                }
            }
            // Crosstalk at the same point in the frame as the trajectory
            // loop. The channel is unitary, so the two loops' different
            // renormalisation cadence cannot make them disagree.
            if !self.sites.crosstalk.is_empty() {
                for pair in &self.program.crosstalk_pairs[frame_idx] {
                    if let Some(plan) = self.sites.crosstalk.get(&(frame.duration, *pair)) {
                        rho.apply_plan(plan);
                    }
                }
            }
        }
        // The evolution is CPTP, so this only corrects the accumulated
        // floating-point drift of the trace.
        rho.renormalize();
        Ok(rho)
    }

    /// Draws the initial state for input-sample `i`, consuming the RNG the
    /// same way trajectory trial `i` does — so an exact run and a trajectory
    /// run with the same config see the *same* random inputs and differ only
    /// in how noise is accounted.
    fn draw_input(&self, input: &InputState, seed: u64) -> Result<StateVector, CoreError> {
        let d = self.program.circuit.dim();
        let n = self.program.circuit.width();
        match input {
            InputState::RandomQubitSubspace => {
                let mut rng = StdRng::seed_from_u64(seed);
                random_qubit_subspace_state(d, n, &mut rng)
            }
            InputState::AllOnes => StateVector::from_basis_state(d, &vec![1usize; n]),
            InputState::Basis(digits) => StateVector::from_basis_state(d, digits),
        }
    }

    /// Runs the exact simulation for the configured input distribution,
    /// checking `cancel` between frames of every evolution.
    ///
    /// For a fixed input ([`InputState::AllOnes`] / [`InputState::Basis`])
    /// the result is a single deterministic value (`std_error` 0, one
    /// "trial"). For [`InputState::RandomQubitSubspace`] the exact fidelity
    /// is averaged over `config.trials` seeded input draws — deterministic
    /// for a fixed seed, with `std_error` reflecting input variation only
    /// (the noise itself contributes none); the sweep short-circuits on the
    /// first cancellation.
    fn run_cancellable(
        &self,
        config: &TrajectoryConfig,
        cancel: &CancelToken,
    ) -> NoiseResult<FidelityEstimate> {
        match &config.input {
            InputState::RandomQubitSubspace => {
                let fidelities = self.input_chunk(config, 0..config.trials, cancel)?;
                Ok(estimate_from_samples(&fidelities))
            }
            input => {
                let initial = self.draw_input(input, config.seed)?;
                let ideal = self.ideal.run_sequential(initial.clone());
                // Exact evolution of one fixed input: the value is ground
                // truth with genuinely zero sampling error, so no binomial
                // floor applies here.
                Ok(FidelityEstimate {
                    mean: self
                        .evolve_cancellable(&initial, cancel)?
                        .fidelity_with_pure(&ideal),
                    std_error: 0.0,
                    trials: 1,
                })
            }
        }
    }

    /// Evaluates the exact fidelity for input draws of one index range, in
    /// index order — draw `i` uses `seed + i`, mirroring the trajectory
    /// engine's per-trial seeding.
    fn input_chunk(
        &self,
        config: &TrajectoryConfig,
        range: std::ops::Range<usize>,
        cancel: &CancelToken,
    ) -> NoiseResult<Vec<f64>> {
        range
            .into_par_iter()
            .map(|i| {
                cancel.check()?;
                let input = self.draw_input(&config.input, config.seed.wrapping_add(i as u64))?;
                let ideal = self.ideal.run_sequential(input.clone());
                Ok(self
                    .evolve_cancellable(&input, cancel)?
                    .fidelity_with_pure(&ideal))
            })
            .collect()
    }

    /// Runs with the requested [`Precision`], mirroring the trajectory
    /// engine's adaptive loop where it makes sense:
    ///
    /// * [`Precision::FixedTrials`] — one evolution for a deterministic
    ///   input, or the mean over `config.trials` seeded input draws for
    ///   random inputs.
    /// * [`Precision::TargetSigma`] with a **deterministic input**
    ///   ([`InputState::AllOnes`] / [`InputState::Basis`]) — the cheap
    ///   fixed-cost path: the exact value has no sampling error at all, so
    ///   one evolution *is* the answer at any requested precision.
    /// * [`Precision::TargetSigma`] with random inputs — the chunked
    ///   early-stopper over input draws (the only stochastic axis the
    ///   exact backend has), Welford-merged like the trajectory loop.
    ///
    /// # Errors
    ///
    /// [`NoiseError::Cancelled`](crate::NoiseError::Cancelled) once the
    /// token trips; otherwise an error if the input specification is
    /// invalid for the circuit.
    pub fn run_with_precision(
        &self,
        config: &TrajectoryConfig,
        precision: &Precision,
        cancel: &CancelToken,
    ) -> NoiseResult<FidelityEstimate> {
        let (sigma, min_trials, max_trials) = match *precision {
            Precision::FixedTrials => return self.run_cancellable(config, cancel),
            Precision::TargetSigma {
                sigma,
                min_trials,
                max_trials,
            } => (sigma, min_trials.max(1), max_trials.max(min_trials.max(1))),
        };
        if !matches!(config.input, InputState::RandomQubitSubspace) {
            return self.run_cancellable(config, cancel);
        }
        let mut agg = Welford::new();
        let mut done = 0usize;
        let mut next = min_trials.min(max_trials);
        while done < max_trials {
            let end = (done + next).min(max_trials);
            let samples = self.input_chunk(config, done..end, cancel)?;
            let mut chunk = Welford::new();
            for &f in &samples {
                chunk.push(f);
            }
            agg.merge(&chunk);
            done = end;
            if done >= min_trials && agg.estimate().conservative_sigma() <= sigma {
                break;
            }
            next = done;
        }
        Ok(agg.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{sc, sc_t1_gates};
    use crate::{NoiseError, SharedNoiseArtifacts};
    use qudit_circuit::passes::{self, PassLevel};
    use qudit_circuit::{Circuit, Control, Gate};

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

    /// A simulator over the physically lowered `circuit`, built the way the
    /// executor builds one.
    fn simulator(circuit: &Circuit, model: &NoiseModel) -> DensityNoiseSimulator {
        let ir = passes::compile(circuit, PassLevel::Physical);
        let artifacts = SharedNoiseArtifacts::from_ir(&ir).unwrap();
        DensityNoiseSimulator::from_artifacts_with(&artifacts, model, &Simulator::new()).unwrap()
    }

    /// The exact fidelity of `circuit` under `model` for `config`'s inputs.
    fn exact(circuit: &Circuit, model: &NoiseModel, config: &TrajectoryConfig) -> FidelityEstimate {
        simulator(circuit, model)
            .run_with_precision(config, &Precision::FixedTrials, &CancelToken::never())
            .unwrap()
    }

    fn evolve(sim: &DensityNoiseSimulator, digits: &[usize]) -> DensityMatrix {
        let input = StateVector::from_basis_state(3, digits).unwrap();
        sim.evolve_cancellable(&input, &CancelToken::never())
            .unwrap()
    }

    #[test]
    fn noiseless_model_gives_exactly_unit_fidelity() {
        let model = NoiseModel {
            name: "NOISELESS".to_string(),
            p1: 0.0,
            p2: 0.0,
            t1: None,
            gate_time_1q: 100e-9,
            gate_time_2q: 300e-9,
            leak_rate: None,
            overrotation: None,
            crosstalk: None,
        };
        let c = toffoli_fig4();
        let config = TrajectoryConfig {
            input: InputState::AllOnes,
            ..TrajectoryConfig::default()
        };
        let est = exact(&c, &model, &config);
        assert!((est.mean - 1.0).abs() < 1e-12);
        assert_eq!(est.std_error, 0.0);
    }

    #[test]
    fn exact_fidelity_is_deterministic_and_physical() {
        let c = toffoli_fig4();
        let model = sc_t1_gates();
        let config = TrajectoryConfig {
            input: InputState::AllOnes,
            ..TrajectoryConfig::default()
        };
        let a = exact(&c, &model, &config);
        let b = exact(&c, &model, &config);
        assert_eq!(a.mean, b.mean, "exact backend must be deterministic");
        assert!(a.mean > 0.9 && a.mean < 1.0, "fidelity {}", a.mean);
    }

    #[test]
    fn evolved_density_matrix_stays_physical() {
        let c = toffoli_fig4();
        let model = sc();
        let rho = evolve(&simulator(&c, &model), &[1, 1, 1]);
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
        assert!(rho.hermiticity_error() < 1e-10);
        assert!(rho.min_population() > -1e-12);
    }

    #[test]
    fn evolved_density_matrix_stays_physical_under_lowered_blocks() {
        // A genuine three-qutrit op: the physical program replays the full
        // Di & Wei block with per-gate errors; ρ must remain a state.
        let mut c = Circuit::new(3, 3);
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        let model = sc_t1_gates();
        let rho = evolve(&simulator(&c, &model), &[1, 1, 0]);
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
        assert!(rho.hermiticity_error() < 1e-10);
        assert!(rho.min_population() > -1e-12);
    }

    #[test]
    fn a_tripped_token_cancels_the_exact_sweep() {
        let c = toffoli_fig4();
        let model = sc();
        let sim = simulator(&c, &model);
        let token = CancelToken::new();
        token.cancel();
        let config = TrajectoryConfig::default();
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
    fn random_input_average_is_seeded_and_deterministic() {
        let c = toffoli_fig4();
        let model = sc();
        let config = TrajectoryConfig {
            trials: 4,
            seed: 11,
            ..TrajectoryConfig::default()
        };
        let a = exact(&c, &model, &config);
        let b = exact(&c, &model, &config);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.trials, 4);
    }
}
