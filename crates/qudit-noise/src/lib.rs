//! # qudit-noise
//!
//! Realistic noise modelling for qudit circuits, reproducing Sections 6.1, 7
//! and Appendix A of the paper: symmetric depolarizing gate errors for
//! arbitrary qudit dimension, amplitude-damping (T1) idle errors, the
//! superconducting (Table 2) and trapped-ion (Table 3) parameter sets, and
//! two simulation backends over one shared noise program:
//!
//! * a quantum-trajectory Monte Carlo simulator (Algorithm 1),
//!   [`TrajectorySimulator`], that *estimates* the mean fidelity of a
//!   circuit under a noise model, and
//! * an exact density-matrix simulator, [`DensityNoiseSimulator`], that
//!   computes the same fidelity as ground truth for small registers, with
//!   every channel applied as its superoperator instead of sampled.
//!
//! Each backend has one constructor, `from_artifacts_with`, over the
//! memoized [`SharedNoiseArtifacts`] of a compiled circuit, and one run
//! method, `run_with_precision`. Jobs normally reach them through the
//! `qudit-api` executor, whose `cross_validate` checks the two against each
//! other ([`CrossValidation`]); the integration tests and the `crossval`
//! bench binary run it on a fixed seed set so backend drift fails the
//! build.
//!
//! ## Example
//!
//! ```
//! use qudit_circuit::passes::{self, PassLevel};
//! use qudit_circuit::{Circuit, Control, Gate};
//! use qudit_noise::{
//!     models, CancelToken, Precision, SharedNoiseArtifacts, TrajectoryConfig,
//!     TrajectorySimulator,
//! };
//! use qudit_sim::Simulator;
//!
//! // Figure 4's Toffoli-via-qutrits under the SC+T1+GATES noise model.
//! let mut c = Circuit::new(3, 3);
//! c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])?;
//! c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])?;
//! c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])?;
//!
//! let artifacts = SharedNoiseArtifacts::from_ir(&passes::compile(&c, PassLevel::Physical))?;
//! let model = models::sc_t1_gates();
//! let sim = TrajectorySimulator::from_artifacts_with(&artifacts, &model, &Simulator::new())?;
//! let config = TrajectoryConfig { trials: 40, ..TrajectoryConfig::default() };
//! let estimate = sim.run_with_precision(&config, &Precision::FixedTrials, &CancelToken::never())?;
//! assert!(estimate.mean > 0.9);
//! # Ok::<(), Box<dyn std::error::Error + Send + Sync>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod artifacts;
mod backend;
mod cancel;
mod channels;
mod damping;
mod depolarizing;
mod error;
mod exact;
mod kraus;
pub mod models;
#[cfg(feature = "serde")]
mod serde_impls;
mod trajectory;

pub use artifacts::{NoiseArtifactStats, SharedNoiseArtifacts};
pub use backend::{BackendKind, CrossValidation};
pub use cancel::CancelToken;
pub use channels::{
    crosstalk_channel, crosstalk_unitary, leakage_channel, overrotation_channel,
    overrotation_unitary, two_qudit_leakage_channel, two_qudit_overrotation_channel,
};
pub use damping::{idle_damping_channel, lambda_m, qubit_damping, qutrit_damping};
pub use depolarizing::{
    qutrit_two_qudit_reliability_ratio, single_qudit_depolarizing,
    single_qudit_no_error_probability, two_qudit_depolarizing, two_qudit_no_error_probability,
};
pub use error::{NoiseError, NoiseResult};
pub use exact::DensityNoiseSimulator;
pub use kraus::{Channel, CompiledChannel};
pub use models::NoiseModel;
pub use trajectory::{
    FidelityEstimate, InputState, Precision, TrajectoryConfig, TrajectorySimulator, Welford,
};
