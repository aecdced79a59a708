//! Exact (density-matrix) noise simulation.
//!
//! Evolves `ρ` through the same noisy process the trajectory Monte Carlo
//! samples — the same `NoiseProgram`, replayed through the same frame loop
//! (`NoiseProgram::replay`) — but applies every channel *exactly* as its
//! superoperator `Σᵢ Kᵢ ⊗ conj(Kᵢ)` instead of drawing one branch. The
//! resulting fidelity `⟨ψ_ideal|ρ|ψ_ideal⟩` is the ground-truth value the
//! trajectory estimates converge to; the cross-validation gate
//! (`Executor::cross_validate` in `qudit-api`) asserts exactly that, and the
//! `decomposition_diff` suite asserts the physically lowered program agrees
//! with an independent virtual-accounting oracle to ≤ 1e-9.
//!
//! Cost: `d^2n` entries instead of `d^n` amplitudes, so this is the small-n
//! oracle (≲ 6–7 qutrits) while trajectories remain the scalable engine.

use crate::cancel::CancelToken;
use crate::error::NoiseResult;
use crate::models::NoiseModel;
use crate::trajectory::{
    run_to_precision, FidelityEstimate, NoiseProgram, NoiseSites, NoisyState, Precision,
    TrajectoryConfig,
};
use qudit_core::StateVector;
use qudit_sim::{ApplyPlan, CompiledCircuit, CompiledDensityCircuit, DensityMatrix, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// An exact density-matrix noise simulator bound to a compiled circuit and
/// a noise model.
///
/// Built from [`SharedNoiseArtifacts`](crate::SharedNoiseArtifacts): the
/// `NoiseProgram`, the ideal reference — the state-vector
/// [`CompiledCircuit`] of the circuit the job started from, compiled at
/// [`PassLevel::Ideal`](qudit_circuit::PassLevel::Ideal), which the
/// trajectory engine shares — the program circuit's
/// [`CompiledDensityCircuit`] for the noisy `U·ρ·U†` evolution, and one
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
    /// program, the ideal reference, the density replay and the per-site
    /// superoperator plans are all shared — repeated constructions over
    /// the same cached circuit entry build nothing at all. The accounting
    /// follows the level the artifacts' IR was compiled at; the ideal
    /// reference's gate plans compile through `planner`'s plan cache on
    /// first use.
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
    fn evolve(&self, initial: &StateVector, cancel: &CancelToken) -> NoiseResult<DensityMatrix> {
        let mut evolution = Evolution {
            noisy: &self.noisy,
            rho: DensityMatrix::from_pure(initial),
        };
        self.program.replay(&self.sites, &mut evolution, cancel)?;
        // The evolution is CPTP, so this only corrects the accumulated
        // floating-point drift of the trace.
        evolution.rho.renormalize();
        Ok(evolution.rho)
    }

    /// The exact fidelity of input draw `i` (seeded `seed + i`, as
    /// trajectory trial `i` draws its input): the ideal output against the
    /// evolved `ρ`.
    fn draw_fidelity(
        &self,
        config: &TrajectoryConfig,
        i: usize,
        cancel: &CancelToken,
    ) -> NoiseResult<f64> {
        let circuit = &self.program.circuit;
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let initial = config
            .input
            .draw(circuit.dim(), circuit.width(), &mut rng)?;
        let ideal = self.ideal.run_sequential(initial.clone());
        Ok(self.evolve(&initial, cancel)?.fidelity_with_pure(&ideal))
    }

    /// Runs with the requested [`Precision`], checking `cancel` between
    /// frames of every evolution.
    ///
    /// * A **deterministic input**
    ///   ([`InputState::is_deterministic`](crate::InputState::is_deterministic))
    ///   is one evolution at any precision: the value is ground truth with
    ///   genuinely zero sampling error (`std_error` 0, one "trial").
    /// * **Random inputs** run the trajectory engine's precision loop over
    ///   seeded input draws (the only stochastic axis the exact backend
    ///   has): [`Precision::FixedTrials`] averages `config.trials` draws,
    ///   [`Precision::TargetSigma`] stops early once the conservative error
    ///   bar meets the target. `std_error` reflects input variation only;
    ///   the noise itself contributes none.
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
        if !config.input.is_deterministic() {
            return run_to_precision(config.trials, precision, cancel, None, |i| {
                self.draw_fidelity(config, i, cancel)
            });
        }
        // No binomial floor: one exact evolution has no sampling error.
        Ok(FidelityEstimate {
            mean: self.draw_fidelity(config, 0, cancel)?,
            std_error: 0.0,
            trials: 1,
        })
    }
}

/// A density evolution's noisy state: `ρ` and the shared `U·ρ·U†` plans.
struct Evolution<'a> {
    noisy: &'a CompiledDensityCircuit,
    rho: DensityMatrix,
}

impl NoisyState for Evolution<'_> {
    type Site = ApplyPlan;

    fn unitary(&mut self, op: usize) {
        self.noisy.pair(op).apply(&mut self.rho);
    }

    fn channel(&mut self, site: &ApplyPlan) {
        self.rho.apply_plan(site);
    }

    /// Nothing: ρ is renormalised once, after the last frame.
    fn end_frame(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{sc, sc_t1_gates};
    use crate::{InputState, NoiseError, SharedNoiseArtifacts};
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
        sim.evolve(&input, &CancelToken::never()).unwrap()
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
    fn an_unreachable_target_runs_max_trials_over_the_fixed_draws() {
        let sim = simulator(&toffoli_fig4(), &sc());
        let config = TrajectoryConfig {
            trials: 40,
            seed: 3,
            ..TrajectoryConfig::default()
        };
        let token = CancelToken::never();
        let capped = sim
            .run_with_precision(
                &config,
                &Precision::TargetSigma {
                    sigma: 1e-9,
                    min_trials: 4,
                    max_trials: 40,
                },
                &token,
            )
            .unwrap();
        let fixed = sim
            .run_with_precision(&config, &Precision::FixedTrials, &token)
            .unwrap();
        assert_eq!(capped.trials, 40);
        assert!((capped.mean - fixed.mean).abs() <= 1e-12);
    }

    #[test]
    fn a_loose_target_stops_early_within_its_bound() {
        let sim = simulator(&toffoli_fig4(), &sc());
        let config = TrajectoryConfig {
            trials: 4096,
            seed: 3,
            ..TrajectoryConfig::default()
        };
        let est = sim
            .run_with_precision(
                &config,
                &Precision::TargetSigma {
                    sigma: 0.05,
                    min_trials: 8,
                    max_trials: 4096,
                },
                &CancelToken::never(),
            )
            .unwrap();
        assert!((8..4096).contains(&est.trials), "ran {} draws", est.trials);
        assert!(est.conservative_sigma() <= 0.05);
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
