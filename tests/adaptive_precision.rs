//! Adaptive-precision invariants at workspace level: the early stopper
//! consumes exactly a prefix of the fixed-count RNG stream (so "run until
//! the bar is small" never changes *what* is simulated, only *how much*),
//! the executor's result cache answers bit-identically without
//! re-simulating, the two together cut Zipf-shaped traffic's trials at
//! least tenfold, and pre-precision wire payloads keep their exact
//! behaviour.

use proptest::prelude::*;
use qudit_algos::{qft, qft_adder};
use qudit_api::{Executor, JobSpec};
use qudit_circuit::{passes, Circuit, Control, Gate, PassLevel};
use qudit_noise::{
    models, CancelToken, InputState, NoiseModel, Precision, SharedNoiseArtifacts, TrajectoryConfig,
    TrajectorySimulator,
};
use qudit_sim::Simulator;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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

/// The per-trial fidelity stream an adaptive run consumed must be
/// bit-identical to the first N entries of a fixed-count run with the same
/// seed — for one (model, level) pair.
fn assert_prefix_determinism(model: &NoiseModel, level: PassLevel, seed: u64, sigma: f64) {
    let artifacts =
        SharedNoiseArtifacts::from_ir(&passes::compile(&toffoli_fig4(), level)).unwrap();
    let sim =
        TrajectorySimulator::from_artifacts_with(&artifacts, model, &Simulator::new()).unwrap();
    let config = TrajectoryConfig {
        trials: 192,
        seed,
        level,
        input: InputState::RandomQubitSubspace,
    };
    let token = CancelToken::never();
    let (fixed_est, fixed_stream) = sim
        .run_traced(&config, &Precision::FixedTrials, &token)
        .unwrap();
    assert_eq!(fixed_est.trials, 192);
    let (est, stream) = sim
        .run_traced(
            &config,
            &Precision::TargetSigma {
                sigma,
                min_trials: 8,
                max_trials: 192,
            },
            &token,
        )
        .unwrap();
    assert_eq!(est.trials, stream.len());
    assert!(stream.len() <= fixed_stream.len());
    assert!(stream.len() >= 8);
    for (i, (a, f)) in stream.iter().zip(&fixed_stream).enumerate() {
        assert_eq!(
            a.to_bits(),
            f.to_bits(),
            "model {} level {} seed {seed}: trial {i} diverged",
            model.name,
            level.name()
        );
    }
}

#[test]
fn adaptive_stream_is_a_bit_identical_prefix_for_every_model_and_level() {
    // The full published-model sweep at both noise accountings — the
    // deterministic anchor the seed-randomized proptest below widens.
    for model in models::all_models() {
        for level in [PassLevel::Physical, PassLevel::NoisePreserving] {
            assert_prefix_determinism(&model, level, 2019, 0.03);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adaptive_prefix_determinism_holds_across_seeds_and_targets(
        seed in 0u64..100_000,
        model_idx in 0usize..7,
        level_idx in 0usize..2,
        sigma in 0.02f64..0.2,
    ) {
        let model = models::all_models()[model_idx].clone();
        let level = [PassLevel::Physical, PassLevel::NoisePreserving][level_idx];
        assert_prefix_determinism(&model, level, seed, sigma);
    }

    #[test]
    fn cache_hits_are_bit_identical_and_simulate_nothing(
        seed in 0u64..100_000,
        model_idx in 0usize..7,
    ) {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::all_models()[model_idx].clone())
            .trials(16)
            .seed(seed)
            .build()
            .unwrap();
        let miss = executor.run(&spec).unwrap();
        let simulated = executor.jobs_simulated();
        let hit = executor.run(&spec).unwrap();
        prop_assert_eq!(executor.jobs_simulated(), simulated);
        prop_assert_eq!(&hit, &miss);
        prop_assert_eq!(
            hit.fidelity().unwrap().mean.to_bits(),
            miss.fidelity().unwrap().mean.to_bits()
        );
        prop_assert_eq!(executor.result_cache_stats().hits, 1);
    }
}

#[test]
fn pre_precision_wire_payloads_parse_and_run_bit_identically() {
    // A payload from before the `precision` field existed: strip the field
    // from a current serialization to get the byte-for-byte old shape.
    let spec = JobSpec::builder(toffoli_fig4())
        .noise(models::sc())
        .trials(24)
        .seed(5)
        .input(InputState::AllOnes)
        .build()
        .unwrap();
    let old_json = spec
        .to_json()
        .replace(",\"precision\":{\"kind\":\"fixed\"}", "");
    assert!(!old_json.contains("precision"));
    let old_spec = JobSpec::from_json(&old_json).unwrap();
    assert_eq!(old_spec, spec);
    assert_eq!(*old_spec.precision(), Precision::FixedTrials);

    // And it runs bit-identically to the modern spec (uncached executors,
    // so both actually simulate).
    let a = Executor::with_result_cache(0).run(&old_spec).unwrap();
    let b = Executor::with_result_cache(0).run(&spec).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a.fidelity().unwrap().mean.to_bits(),
        b.fidelity().unwrap().mean.to_bits()
    );
    assert_eq!(
        a.fidelity().unwrap().std_error.to_bits(),
        b.fidelity().unwrap().std_error.to_bits()
    );
}

/// A Zipf(1.1) stream of `requests` indices into `n` specs: index `i` is
/// drawn with weight `1/(i+1)^1.1`, so the head of the catalogue dominates
/// the way hot service traffic does.
fn zipf_stream(n: usize, requests: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|_| {
            let mut point = rng.next_f64() * total;
            weights
                .iter()
                .position(|w| {
                    point -= w;
                    point <= 0.0
                })
                .unwrap_or(n - 1)
        })
        .collect()
}

/// Both levers on Zipf-shaped traffic, counted in trials rather than
/// timed: 600 requests drawn Zipf(1.1) over 50 noisy specs (the Figure-4
/// Toffoli, the 3-qutrit QFT and the 2-digit Draper adder under each of the
/// 7 paper models), each under `TargetSigma { 0.02, 8, 512 }`, through one
/// `Executor::new()`. Uncached fixed-trial runs would simulate
/// 600 × 512 = 307 200 trials; the cache answers every repeat and each miss
/// stops early, so the stream must simulate at least ten times fewer. Every
/// count is deterministic, so all are pinned.
#[test]
fn zipf_traffic_through_the_result_cache_simulates_ten_times_fewer_trials() {
    const REQUESTS: usize = 600;
    const SPECS: usize = 50;
    const BUDGET: usize = 512;
    let all_models = models::all_models();
    let specs: Vec<JobSpec> = (0..SPECS)
        .map(|i| {
            let circuit = match i % 3 {
                0 => toffoli_fig4(),
                1 => qft(3, 3).unwrap(),
                _ => qft_adder(3, 2).unwrap(),
            };
            JobSpec::builder(circuit)
                .noise(all_models[i % all_models.len()].clone())
                .trials(BUDGET)
                .seed(2019 + (i / all_models.len()) as u64)
                .input(InputState::AllOnes)
                .precision(Precision::TargetSigma {
                    sigma: 0.02,
                    min_trials: 8,
                    max_trials: BUDGET,
                })
                .build()
                .unwrap()
        })
        .collect();

    let executor = Executor::new();
    let mut simulated = 0usize;
    for idx in zipf_stream(SPECS, REQUESTS, 7) {
        let misses = executor.result_cache_stats().misses;
        let trials = executor.run(&specs[idx]).unwrap().trials_run().unwrap();
        assert!(
            trials <= BUDGET,
            "spec {idx} ran {trials} > {BUDGET} trials"
        );
        if executor.result_cache_stats().misses > misses {
            simulated += trials;
        }
    }
    let stats = executor.result_cache_stats();
    assert_eq!((stats.hits, stats.misses), (554, 46));
    assert_eq!(executor.jobs_simulated(), 46);
    assert_eq!(simulated, 11_776);
    assert!(
        simulated * 10 <= REQUESTS * BUDGET,
        "{simulated} trials simulated, not 10x under the {} of uncached fixed runs",
        REQUESTS * BUDGET
    );
}
