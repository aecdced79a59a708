//! Typed execution results and their wire format.

use crate::error::{ApiError, ApiResult};
use qudit_circuit::ResourceReport;
use qudit_core::StateVector;
use qudit_noise::{BackendKind, FidelityEstimate};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// The result of running one [`JobSpec`](crate::JobSpec): which backend
/// produced it, the compiled circuit's resource report (post-pass, at the
/// job's level — the paper's count columns), and the typed outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionResult {
    /// The backend that produced the result.
    pub backend: BackendKind,
    /// Resources of the compiled (post-pass) circuit the job replayed.
    pub resources: ResourceReport,
    /// The job's payload.
    pub outcome: Outcome,
}

impl ExecutionResult {
    /// The fidelity estimate of a noisy job.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::WrongOutcome`] for noise-free jobs.
    pub fn fidelity(&self) -> ApiResult<&FidelityEstimate> {
        match &self.outcome {
            Outcome::Fidelity(estimate) => Ok(estimate),
            Outcome::States(_) => Err(ApiError::WrongOutcome {
                requested: "a fidelity estimate",
                actual: "output states",
            }),
        }
    }

    /// The output states of a noise-free job, one per input.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::WrongOutcome`] for noisy jobs.
    pub fn states(&self) -> ApiResult<&[OutputState]> {
        match &self.outcome {
            Outcome::States(states) => Ok(states),
            Outcome::Fidelity(_) => Err(ApiError::WrongOutcome {
                requested: "output states",
                actual: "a fidelity estimate",
            }),
        }
    }

    /// The number of Monte Carlo trials the job actually ran — `None` for
    /// noise-free jobs (nothing is sampled). Under an adaptive
    /// [`Precision`](crate::Precision) this is where the early stopper
    /// landed, which can be well below the fixed-trials budget.
    pub fn trials_run(&self) -> Option<usize> {
        match &self.outcome {
            Outcome::Fidelity(estimate) => Some(estimate.trials),
            Outcome::States(_) => None,
        }
    }

    /// Serializes the result to compact JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a result from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Wire`] on malformed input.
    pub fn from_json(text: &str) -> ApiResult<ExecutionResult> {
        Ok(serde::json::from_str(text)?)
    }
}

/// The payload of an [`ExecutionResult`].
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Noise-free evolution: one output per input, in input order.
    States(Vec<OutputState>),
    /// Noisy simulation: the mean fidelity with its error bars (the
    /// sample standard error plus the binomial bound via
    /// [`FidelityEstimate::binomial_sigma`]).
    Fidelity(FidelityEstimate),
}

/// One noise-free output state, backend-typed: the trajectory engine
/// returns the full state vector, the density-matrix engine the diagonal
/// populations (serializing a full `d^2n` ρ would dwarf every other
/// payload; the diagonal is what verification and read-out consume).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputState {
    /// A pure state `|ψ⟩` (trajectory backend).
    Pure(StateVector),
    /// Basis-state populations `diag(ρ)` (density-matrix backend).
    Populations {
        /// The qudit dimension.
        dim: usize,
        /// The register width.
        width: usize,
        /// The `dim^width` basis populations.
        probabilities: Vec<f64>,
    },
}

impl OutputState {
    /// The probability of measuring the basis state with the given digits.
    ///
    /// # Errors
    ///
    /// Returns an error if the digit count does not match the register
    /// width or a digit is out of range for the dimension.
    pub fn probability(&self, digits: &[usize]) -> ApiResult<f64> {
        let width = match self {
            OutputState::Pure(psi) => psi.num_qudits(),
            OutputState::Populations { width, .. } => *width,
        };
        if digits.len() != width {
            // encode_digits validates each digit but not the count; a short
            // slice would silently address the wrong basis state.
            return Err(ApiError::spec(format!(
                "{} digit(s) given for a width-{width} register",
                digits.len()
            )));
        }
        match self {
            OutputState::Pure(psi) => Ok(psi.probability(digits)?),
            OutputState::Populations {
                dim, probabilities, ..
            } => {
                let idx = StateVector::encode_digits(*dim, digits)?;
                probabilities
                    .get(idx)
                    .copied()
                    .ok_or_else(|| ApiError::spec(format!("basis index {idx} out of range")))
            }
        }
    }

    /// The full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        match self {
            OutputState::Pure(psi) => psi.probabilities(),
            OutputState::Populations { probabilities, .. } => probabilities.clone(),
        }
    }

    /// The digits of the most likely basis state.
    pub fn most_likely_state(&self) -> Vec<usize> {
        match self {
            OutputState::Pure(psi) => psi.most_likely_state(),
            OutputState::Populations {
                dim,
                width,
                probabilities,
            } => {
                let best = probabilities
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("probabilities are not NaN"))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                StateVector::decode_index(*dim, *width, best)
            }
        }
    }

    /// The pure state, when the backend produced one.
    pub fn pure(&self) -> Option<&StateVector> {
        match self {
            OutputState::Pure(psi) => Some(psi),
            OutputState::Populations { .. } => None,
        }
    }
}

impl Serialize for OutputState {
    fn to_value(&self) -> Value {
        match self {
            OutputState::Pure(psi) => {
                Value::object(vec![("kind", "pure".to_value()), ("state", psi.to_value())])
            }
            OutputState::Populations {
                dim,
                width,
                probabilities,
            } => Value::object(vec![
                ("kind", "populations".to_value()),
                ("dim", dim.to_value()),
                ("width", width.to_value()),
                ("probabilities", probabilities.to_value()),
            ]),
        }
    }
}

impl Deserialize for OutputState {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value.field("kind")?.as_str()? {
            "pure" => Ok(OutputState::Pure(StateVector::from_value(
                value.field("state")?,
            )?)),
            "populations" => {
                let dim = value.field("dim")?.as_usize()?;
                let width = value.field("width")?.as_usize()?;
                let probabilities = Vec::<f64>::from_value(value.field("probabilities")?)?;
                let expected = dim
                    .checked_pow(width as u32)
                    .ok_or_else(|| SerdeError::custom("state size overflows usize"))?;
                if probabilities.len() != expected {
                    return Err(SerdeError::custom(format!(
                        "populations need {expected} entries, got {}",
                        probabilities.len()
                    )));
                }
                Ok(OutputState::Populations {
                    dim,
                    width,
                    probabilities,
                })
            }
            other => Err(SerdeError::custom(format!(
                "unknown output state kind {other:?}"
            ))),
        }
    }
}

impl Serialize for Outcome {
    fn to_value(&self) -> Value {
        match self {
            Outcome::States(states) => Value::object(vec![
                ("kind", "states".to_value()),
                ("states", states.to_value()),
            ]),
            Outcome::Fidelity(estimate) => Value::object(vec![
                ("kind", "fidelity".to_value()),
                ("estimate", estimate.to_value()),
                // The binomial error bar is derived, but carrying it on the
                // wire lets thin clients render bounds without re-deriving.
                ("binomial_sigma", estimate.binomial_sigma().to_value()),
            ]),
        }
    }
}

impl Deserialize for Outcome {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value.field("kind")?.as_str()? {
            "states" => Ok(Outcome::States(Vec::<OutputState>::from_value(
                value.field("states")?,
            )?)),
            "fidelity" => Ok(Outcome::Fidelity(FidelityEstimate::from_value(
                value.field("estimate")?,
            )?)),
            other => Err(SerdeError::custom(format!(
                "unknown outcome kind {other:?}"
            ))),
        }
    }
}

impl Serialize for ExecutionResult {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("backend", self.backend.to_value()),
            ("resources", self.resources.to_value()),
            ("outcome", self.outcome.to_value()),
        ])
    }
}

impl Deserialize for ExecutionResult {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        Ok(ExecutionResult {
            backend: BackendKind::from_value(value.field("backend")?)?,
            resources: ResourceReport::from_value(value.field("resources")?)?,
            outcome: Outcome::from_value(value.field("outcome")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{Circuit, Control, Gate};

    fn report() -> ResourceReport {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])
            .unwrap();
        ResourceReport::measure(&c)
    }

    #[test]
    fn fidelity_accessor_is_typed() {
        let result = ExecutionResult {
            backend: BackendKind::Trajectory,
            resources: report(),
            outcome: Outcome::Fidelity(FidelityEstimate {
                mean: 0.9,
                std_error: 0.01,
                trials: 10,
            }),
        };
        assert!((result.fidelity().unwrap().mean - 0.9).abs() < 1e-15);
        assert!(matches!(
            result.states().unwrap_err(),
            ApiError::WrongOutcome { .. }
        ));
    }

    #[test]
    fn execution_result_round_trips_through_json() {
        let psi = StateVector::from_basis_state(3, &[1, 1, 1]).unwrap();
        for outcome in [
            Outcome::States(vec![
                OutputState::Pure(psi.clone()),
                OutputState::Populations {
                    dim: 3,
                    width: 1,
                    probabilities: vec![0.25, 0.75, 0.0],
                },
            ]),
            Outcome::Fidelity(FidelityEstimate {
                mean: 0.987_654_321,
                std_error: 2e-4,
                trials: 400,
            }),
        ] {
            let result = ExecutionResult {
                backend: BackendKind::DensityMatrix,
                resources: report(),
                outcome,
            };
            let back = ExecutionResult::from_json(&result.to_json()).unwrap();
            assert_eq!(back, result);
        }
    }

    #[test]
    fn output_state_queries_agree_across_representations() {
        let psi = StateVector::from_basis_state(3, &[2, 0]).unwrap();
        let pure = OutputState::Pure(psi.clone());
        let populations = OutputState::Populations {
            dim: 3,
            width: 2,
            probabilities: psi.probabilities(),
        };
        for out in [&pure, &populations] {
            assert!((out.probability(&[2, 0]).unwrap() - 1.0).abs() < 1e-12);
            assert_eq!(out.most_likely_state(), vec![2, 0]);
            // A digit slice of the wrong length is an error, not a silent
            // lookup of some other basis state.
            assert!(out.probability(&[2]).is_err());
            assert!(out.probability(&[2, 0, 0]).is_err());
        }
        assert!(pure.pure().is_some());
        assert!(populations.pure().is_none());
    }
}
