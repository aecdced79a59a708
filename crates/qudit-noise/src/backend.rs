//! Backend selection and the trajectory-vs-exact comparison.
//!
//! Two engines answer the same fidelity question about a noisy circuit:
//!
//! * the **trajectory** backend — state-vector evolution, noise sampled as
//!   quantum trajectories (Algorithm 1). Scales to large registers; its
//!   fidelities are Monte Carlo estimates with statistical error bars.
//! * the **density-matrix** backend — exact `ρ` evolution with channels
//!   applied as superoperators. Exponentially more memory (`d^2n`), but its
//!   fidelities are ground truth with zero sampling error.
//!
//! [`BackendKind`] names the engine a job runs on, and
//! [`CrossValidation`] holds one comparison of the two: the trajectory
//! estimate must land within the computed confidence bound of the exact
//! value. `qudit_api::Executor::cross_validate` runs both legs.

use crate::trajectory::FidelityEstimate;

/// Backend selector, for CLI `--backend` switches and config plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The state-vector / quantum-trajectory engine.
    Trajectory,
    /// The exact density-matrix engine.
    DensityMatrix,
}

impl BackendKind {
    /// Parses a CLI flag value. Accepts `trajectory`/`sv`/`statevector` and
    /// `density`/`density-matrix`/`dm`/`exact`.
    pub fn from_flag(flag: &str) -> Option<BackendKind> {
        match flag.to_ascii_lowercase().as_str() {
            "trajectory" | "sv" | "statevector" => Some(BackendKind::Trajectory),
            "density" | "density-matrix" | "dm" | "exact" => Some(BackendKind::DensityMatrix),
            _ => None,
        }
    }

    /// The backend's stable name (`"trajectory"` / `"density-matrix"`),
    /// used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Trajectory => "trajectory",
            BackendKind::DensityMatrix => "density-matrix",
        }
    }
}

/// One trajectory-vs-exact comparison.
#[derive(Clone, Copy, Debug)]
pub struct CrossValidation {
    /// The exact (density-matrix) fidelity.
    pub exact: f64,
    /// The trajectory Monte Carlo estimate.
    pub estimate: FidelityEstimate,
    /// The confidence bound the estimate must fall within:
    /// `sigmas × max(binomial σ at the exact value, sample std error)`.
    pub tolerance: f64,
}

impl CrossValidation {
    /// Builds the comparison from an exact run and a trajectory run,
    /// computing the standard confidence bound.
    ///
    /// Per-trial fidelities lie in `[0, 1]`, so the sample-mean standard
    /// error is bounded by the binomial form `√(F(1−F)/trials)` evaluated
    /// at the exact `F`; the bound used is `sigmas` times the larger of
    /// that and the observed sample standard error, plus a small absolute
    /// floor for the near-deterministic `F → 1` regime. The single source
    /// of the bound formula: `Executor::cross_validate` and the `crossval`
    /// CI gate's virtual-accounting leg both build through it.
    pub fn from_runs(exact: FidelityEstimate, estimate: FidelityEstimate, sigmas: f64) -> Self {
        let trials = estimate.trials.max(1) as f64;
        let binomial_sigma =
            (exact.mean.clamp(0.0, 1.0) * (1.0 - exact.mean.clamp(0.0, 1.0)) / trials).sqrt();
        CrossValidation {
            exact: exact.mean,
            estimate,
            tolerance: sigmas * binomial_sigma.max(estimate.std_error) + 1e-6,
        }
    }

    /// The absolute trajectory-vs-exact deviation.
    pub fn deviation(&self) -> f64 {
        (self.estimate.mean - self.exact).abs()
    }

    /// Whether the trajectory estimate landed within the bound.
    pub fn within_bounds(&self) -> bool {
        self.deviation() <= self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::sc_t1_gates;
    use crate::{
        CancelToken, DensityNoiseSimulator, InputState, Precision, SharedNoiseArtifacts,
        TrajectoryConfig, TrajectorySimulator,
    };
    use qudit_circuit::passes::{self, PassLevel};
    use qudit_circuit::{Circuit, Control, Gate};
    use qudit_sim::Simulator;

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
    fn backend_kind_parses_flags() {
        assert_eq!(
            BackendKind::from_flag("TRAJECTORY"),
            Some(BackendKind::Trajectory)
        );
        assert_eq!(BackendKind::from_flag("sv"), Some(BackendKind::Trajectory));
        assert_eq!(
            BackendKind::from_flag("density"),
            Some(BackendKind::DensityMatrix)
        );
        assert_eq!(
            BackendKind::from_flag("exact"),
            Some(BackendKind::DensityMatrix)
        );
        assert_eq!(BackendKind::from_flag("qft"), None);
        assert_eq!(BackendKind::Trajectory.name(), "trajectory");
        assert_eq!(BackendKind::DensityMatrix.name(), "density-matrix");
    }

    #[test]
    fn cross_validation_passes_on_the_fig4_toffoli() {
        let artifacts =
            SharedNoiseArtifacts::from_ir(&passes::compile(&toffoli_fig4(), PassLevel::Physical))
                .unwrap();
        let model = sc_t1_gates();
        let planner = Simulator::new();
        let config = TrajectoryConfig {
            trials: 200,
            seed: 2019,
            input: InputState::AllOnes,
            ..TrajectoryConfig::default()
        };
        let never = CancelToken::never();
        let exact = DensityNoiseSimulator::from_artifacts_with(&artifacts, &model, &planner)
            .unwrap()
            .run_with_precision(&config, &Precision::FixedTrials, &never)
            .unwrap();
        let estimate = TrajectorySimulator::from_artifacts_with(&artifacts, &model, &planner)
            .unwrap()
            .run_with_precision(&config, &Precision::FixedTrials, &never)
            .unwrap();
        let cv = CrossValidation::from_runs(exact, estimate, 3.0);
        assert!(
            cv.within_bounds(),
            "trajectory {} vs exact {} exceeds bound {}",
            cv.estimate.mean,
            cv.exact,
            cv.tolerance
        );
        assert!(cv.exact > 0.9 && cv.exact < 1.0);
    }
}
