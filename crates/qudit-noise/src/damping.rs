//! Amplitude-damping (T1 relaxation) idle-error channels (Appendix A.1.2).
//!
//! Idle errors model the relaxation of excited states towards |0⟩ during the
//! time a qudit spends waiting. For qubits the single decay path |1⟩ → |0⟩
//! occurs with probability `λ1`; for qutrits the paper additionally models
//! |2⟩ → |0⟩ decay with probability `λ2`, using the Kraus operators of its
//! Equation 8. The damping probabilities follow `λ_m = 1 − e^{−m·Δt/T1}`
//! (Equation 9), so they depend on the moment duration and therefore on
//! whether the moment contains a (slower) two-qudit gate.

use crate::error::{NoiseError, NoiseResult};
use crate::kraus::Channel;
use qudit_core::{CMatrix, Complex};

/// Builds the qubit amplitude-damping channel with decay probability
/// `lambda1` (Equation 7).
///
/// # Errors
///
/// Returns [`NoiseError::InvalidProbability`] if `lambda1` is outside
/// `[0, 1]`.
pub fn qubit_damping(lambda1: f64) -> NoiseResult<Channel> {
    check_lambda("lambda1", lambda1)?;
    let k0 = CMatrix::from_rows(&[
        &[Complex::ONE, Complex::ZERO],
        &[Complex::ZERO, Complex::real((1.0 - lambda1).sqrt())],
    ]);
    let k1 = CMatrix::from_rows(&[
        &[Complex::ZERO, Complex::real(lambda1.sqrt())],
        &[Complex::ZERO, Complex::ZERO],
    ]);
    Ok(Channel::Kraus {
        operators: vec![k0, k1],
    })
}

/// Builds the qutrit amplitude-damping channel with decay probabilities
/// `lambda1` (|1⟩ → |0⟩) and `lambda2` (|2⟩ → |0⟩), following Equation 8.
///
/// # Errors
///
/// Returns [`NoiseError::InvalidProbability`] if either probability is
/// outside `[0, 1]`.
pub fn qutrit_damping(lambda1: f64, lambda2: f64) -> NoiseResult<Channel> {
    check_lambda("lambda1", lambda1)?;
    check_lambda("lambda2", lambda2)?;
    let z = Complex::ZERO;
    let k0 = CMatrix::from_rows(&[
        &[Complex::ONE, z, z],
        &[z, Complex::real((1.0 - lambda1).sqrt()), z],
        &[z, z, Complex::real((1.0 - lambda2).sqrt())],
    ]);
    let k1 = CMatrix::from_rows(&[
        &[z, Complex::real(lambda1.sqrt()), z],
        &[z, z, z],
        &[z, z, z],
    ]);
    let k2 = CMatrix::from_rows(&[
        &[z, z, Complex::real(lambda2.sqrt())],
        &[z, z, z],
        &[z, z, z],
    ]);
    Ok(Channel::Kraus {
        operators: vec![k0, k1, k2],
    })
}

/// Builds the amplitude-damping channel for a qudit of dimension `d`
/// (2 or 3), given the idle duration `dt` and the relaxation time `t1`
/// (same units).
///
/// Damping probabilities follow the paper's Equation 9:
/// `λ_m = 1 − e^{−m·Δt/T1}`.
///
/// # Errors
///
/// Returns [`NoiseError::InvalidModel`] for unsupported dimensions or
/// non-positive `t1`.
pub fn idle_damping_channel(d: usize, dt: f64, t1: f64) -> NoiseResult<Channel> {
    if t1 <= 0.0 {
        return Err(NoiseError::InvalidModel {
            reason: format!("T1 must be positive, got {t1}"),
        });
    }
    if dt < 0.0 {
        return Err(NoiseError::InvalidModel {
            reason: format!("idle duration must be non-negative, got {dt}"),
        });
    }
    match d {
        2 => qubit_damping(lambda_m(1, dt, t1)),
        3 => qutrit_damping(lambda_m(1, dt, t1), lambda_m(2, dt, t1)),
        _ => Err(NoiseError::InvalidModel {
            reason: format!("amplitude damping is implemented for d = 2 and 3, got d = {d}"),
        }),
    }
}

/// The damping probability `λ_m = 1 − e^{−m·Δt/T1}` of Equation 9.
pub fn lambda_m(m: u32, dt: f64, t1: f64) -> f64 {
    1.0 - (-(m as f64) * dt / t1).exp()
}

fn check_lambda(name: &str, value: f64) -> NoiseResult<()> {
    if !(0.0..=1.0).contains(&value) {
        return Err(NoiseError::InvalidProbability {
            parameter: name.to_string(),
            value,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn damping_channels_are_trace_preserving() {
        qubit_damping(0.2).unwrap().validate().unwrap();
        qutrit_damping(0.1, 0.3).unwrap().validate().unwrap();
        idle_damping_channel(3, 3e-7, 1e-3)
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn lambda_formula_matches_equation_nine() {
        let dt = 1e-7;
        let t1 = 1e-3;
        assert!((lambda_m(1, dt, t1) - (1.0 - (-dt / t1).exp())).abs() < 1e-15);
        assert!(lambda_m(2, dt, t1) > lambda_m(1, dt, t1));
        assert!(lambda_m(1, 0.0, t1).abs() < 1e-15);
    }

    #[test]
    fn ground_state_never_decays() {
        let channel = qutrit_damping(0.5, 0.5).unwrap().compile(3, 1, &[0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = StateVector::from_basis_state(3, &[0]).unwrap();
        for _ in 0..20 {
            let branch = channel.apply_trajectory(&mut state, &mut rng);
            assert_eq!(branch, 0);
        }
        assert!((state.probability(&[0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn excited_two_state_decays_to_zero_with_lambda2() {
        let lambda2: f64 = 0.4;
        let channel = qutrit_damping(0.0, lambda2).unwrap().compile(3, 1, &[0]);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 4000;
        let mut decays = 0;
        for _ in 0..trials {
            let mut state = StateVector::from_basis_state(3, &[2]).unwrap();
            let branch = channel.apply_trajectory(&mut state, &mut rng);
            if branch == 2 {
                decays += 1;
                assert!((state.probability(&[0]).unwrap() - 1.0).abs() < 1e-12);
            }
        }
        let rate = decays as f64 / trials as f64;
        assert!((rate - lambda2).abs() < 0.03, "decay rate {rate}");
    }

    #[test]
    fn rejects_unphysical_parameters() {
        assert!(qubit_damping(-0.1).is_err());
        assert!(qubit_damping(1.5).is_err());
        assert!(qutrit_damping(0.1, 2.0).is_err());
        assert!(idle_damping_channel(3, 1.0, 0.0).is_err());
        assert!(idle_damping_channel(5, 1.0, 1.0).is_err());
        assert!(idle_damping_channel(3, -1.0, 1.0).is_err());
    }

    #[test]
    fn longer_idle_means_more_damping() {
        let t1 = 1e-3;
        let short = lambda_m(1, 1e-7, t1);
        let long = lambda_m(1, 3e-7, t1);
        assert!(long > short);
    }
}
