//! Pinned noisy results: the oracle for refactors of the two noise engines.
//!
//! Every case below is one noisy `JobSpec` run through `Executor::run`; its
//! `mean` and `std_error` must match the recorded values to 1e-12 absolute
//! and its trial count exactly. The values were recorded before the engines'
//! frame loop, input draw and precision loop were merged, so any change to
//! the RNG stream, to the order in which a frame charges its channels, or to
//! the adaptive chunk cadence fails here — the 3σ crossval gates would not
//! notice. The scalar and AVX2 kernels agree to ~1e-15, so the tolerance
//! holds on either kernel path (CI runs this file under both).
//!
//! The set covers every combination of backend × pass level × input
//! distribution × precision, all seven paper models, the optional leakage,
//! over-rotation and crosstalk channels, a routed basis-input spec with
//! per-edge error rates, and routed random-input specs on a ring, a grid and
//! (for a d = 2 qubit baseline) a line. Those last ones were recorded while
//! the ideal reference still replayed the routed program, so they pin the
//! routed reference built from the source circuit. Two noise-free
//! random-input cases pin the shared input draw on the noise-free path.

use qudit_api::algos::qft;
use qudit_api::{
    BackendKind, Executor, InputState, JobSpec, NoiseModel, PassLevel, Precision, Topology,
};
use qudit_circuit::Circuit;
use qudit_noise::models;
use qutrit_toffoli::baselines::qubit_no_ancilla;
use qutrit_toffoli::gen_toffoli::n_controlled_x;

const TOLERANCE: f64 = 1e-12;

const D: BackendKind = BackendKind::DensityMatrix;
const T: BackendKind = BackendKind::Trajectory;
const P: PassLevel = PassLevel::Physical;
const N: PassLevel = PassLevel::NoisePreserving;

fn fig4() -> Circuit {
    n_controlled_x(2).unwrap()
}

fn ncx3() -> Circuit {
    n_controlled_x(3).unwrap()
}

fn qft3() -> Circuit {
    qft(3, 3).unwrap()
}

fn sigma(sigma: f64, min_trials: usize, max_trials: usize) -> Precision {
    Precision::TargetSigma {
        sigma,
        min_trials,
        max_trials,
    }
}

const FIXED: Precision = Precision::FixedTrials;

/// One pinned case: the spec's label, the spec, and the recorded
/// `(mean, std_error, trials)`.
struct Case {
    label: &'static str,
    spec: JobSpec,
    expected: (f64, f64, usize),
}

#[allow(clippy::too_many_arguments)]
fn case(
    label: &'static str,
    circuit: Circuit,
    backend: BackendKind,
    level: PassLevel,
    model: NoiseModel,
    input: InputState,
    precision: Precision,
    trials: usize,
    expected: (f64, f64, usize),
) -> Case {
    let spec = JobSpec::builder(circuit)
        .backend(backend)
        .level(level)
        .noise(model)
        .input(input)
        .precision(precision)
        .trials(trials)
        .seed(2019)
        .build()
        .unwrap();
    Case {
        label,
        spec,
        expected,
    }
}

#[rustfmt::skip]
fn cases() -> Vec<Case> {
    use InputState::{AllOnes as ONES, RandomQubitSubspace as RAND};
    let mut cases = vec![
        // Trajectory: level × input × precision, one paper model each.
        case("T/P/ones/fixed fig4 SC", fig4(), T, P, models::sc(), ONES, FIXED, 256, (0.98046875, 0.008665862769678052, 256)),
        case("T/P/ones/sigma fig4 SC+T1", fig4(), T, P, models::sc_t1(), ONES, sigma(0.02, 8, 1024), 1024, (0.98046875, 0.008665862769678052, 256)),
        case("T/P/rand/fixed qft3 SC+GATES", qft3(), T, P, models::sc_gates(), RAND, FIXED, 32, (0.9741711647130282, 0.02582825017744207, 32)),
        case("T/P/rand/sigma ncx3 SC+T1+GATES", ncx3(), T, P, models::sc_t1_gates(), RAND, sigma(0.02, 8, 128), 128, (0.9845678452321114, 0.010869107524100162, 128)),
        case("T/N/ones/fixed ncx3 SC+T1", ncx3(), T, N, models::sc_t1(), ONES, FIXED, 256, (0.97265625, 0.010212654460096235, 256)),
        case("T/N/ones/sigma fig4 SC", fig4(), T, N, models::sc(), ONES, sigma(0.03, 8, 512), 512, (0.9765625, 0.013424675715302162, 128)),
        case("T/N/rand/fixed fig4 SC+T1+GATES", fig4(), T, N, models::sc_t1_gates(), RAND, FIXED, 64, (0.9852118842182614, 0.014788113639880808, 64)),
        case("T/N/rand/sigma qft3 SC", qft3(), T, N, models::sc(), RAND, sigma(0.02, 4, 64), 64, (0.9699081186864724, 0.021116465180260828, 64)),
        // Density: the same grid, with the trapped-ion models.
        case("D/P/ones/fixed ncx3 SC", ncx3(), D, P, models::sc(), ONES, FIXED, 1, (0.9223125669577474, 0.0, 1)),
        case("D/P/ones/sigma fig4 SC+T1", fig4(), D, P, models::sc_t1(), ONES, sigma(0.01, 8, 64), 64, (0.9854053023075986, 0.0, 1)),
        case("D/P/rand/fixed fig4 TI_QUBIT", fig4(), D, P, models::ti_qubit(), RAND, FIXED, 8, (0.9980530789188422, 5.575060037126168e-6, 8)),
        case("D/P/rand/sigma fig4 SC+T1+GATES", fig4(), D, P, models::sc_t1_gates(), RAND, sigma(1e-6, 4, 24), 24, (0.9983402221069206, 8.05643072247883e-6, 24)),
        case("D/N/ones/fixed ncx3 BARE_QUTRIT", ncx3(), D, N, models::bare_qutrit(), ONES, FIXED, 1, (0.9988394492499447, 0.0, 1)),
        case("D/N/ones/sigma qft3 SC+GATES", qft3(), D, N, models::sc_gates(), ONES, sigma(0.01, 8, 64), 64, (0.9947678878023128, 0.0, 1)),
        case("D/N/rand/fixed qft3 DRESSED_QUTRIT", qft3(), D, N, models::dressed_qutrit(), RAND, FIXED, 6, (0.9984480192188324, 1.0484515130118588e-5, 6)),
        case("D/N/rand/sigma fig4 SC", fig4(), D, N, models::sc(), RAND, sigma(0.05, 4, 64), 64, (0.9835345792911725, 4.454075086360543e-5, 64)),
        // Optional channels, each alone on the SC baseline.
        case("T/P/rand/fixed fig4 SC+leakage", fig4(), T, P, models::sc().with_leakage(2e-3), RAND, FIXED, 64, (0.9844279222129371, 0.015571863582908543, 64)),
        case("D/P/ones/fixed fig4 SC+leakage", fig4(), D, P, models::sc().with_leakage(2e-3), ONES, FIXED, 1, (0.973236865380383, 0.0, 1)),
        case("T/P/rand/fixed fig4 SC+overrotation", fig4(), T, P, models::sc().with_overrotation(0.03), RAND, FIXED, 64, (0.9734596749931592, 0.015378977106464251, 64)),
        case("D/P/rand/fixed qft3 SC+overrotation", qft3(), D, P, models::sc().with_overrotation(0.03), RAND, FIXED, 4, (0.938939635328295, 0.008729205329046958, 4)),
        case("T/P/rand/fixed fig4 SC+crosstalk", fig4(), T, P, models::sc().with_crosstalk(3e4), RAND, FIXED, 64, (0.9997926266585255, 1.0442172131703205e-5, 64)),
        case("D/P/rand/fixed fig4 SC+crosstalk", fig4(), D, P, models::sc().with_crosstalk(3e4), RAND, FIXED, 4, (0.9833876953555362, 0.00025436997269322594, 4)),
    ];
    // Routed on a line with one poor edge: the QFT couples qudits 0 and 2,
    // so routing inserts SWAPs, and the basis input is relabelled through
    // the placement.
    let line = Topology::linear(3)
        .unwrap()
        .with_edge_quality(vec![1.0, 4.0])
        .unwrap();
    for (label, backend, trials, expected) in [
        ("T/P/basis/fixed qft3 SC+T1 routed", T, 64, (0.9583333500968949, 0.02405625020361496, 64)),
        ("D/P/basis/fixed qft3 SC+T1 routed", D, 1, (0.9427351095467852, 0.0, 1)),
    ] {
        let spec = JobSpec::builder(qft3())
            .backend(backend)
            .noise(models::sc_t1())
            .input(InputState::Basis(vec![1, 0, 1]))
            .trials(trials)
            .seed(2019)
            .topology(line.clone())
            .build()
            .unwrap();
        cases.push(Case {
            label,
            spec,
            expected,
        });
    }
    // Routed random-input cases: the noise is charged on the routed program,
    // and the ideal reference must carry the same placement and final
    // mapping, on every topology shape, at both levels and on both backends.
    let ring = || Topology::ring(4).unwrap();
    let grid = || Topology::grid(2, 2).unwrap();
    let line4 = || Topology::linear(4).unwrap();
    let qubit_ncx3 = || qubit_no_ancilla(3, 2).unwrap();
    for (label, circuit, topology, backend, level, model, trials, expected) in [
        ("T/P/rand/fixed ncx3 SC+T1+GATES ring", ncx3(), ring(), T, P, models::sc_t1_gates(), 32, (0.9999999482318822, 2.107683370226584e-9, 32)),
        ("D/P/rand/fixed ncx3 SC+T1+GATES ring", ncx3(), ring(), D, P, models::sc_t1_gates(), 4, (0.9904376392433434, 2.7708064618732548e-5, 4)),
        ("T/N/rand/fixed ncx3 SC+T1 ring", ncx3(), ring(), T, N, models::sc_t1(), 32, (0.9999999973702448, 1.1490089820212881e-10, 32)),
        ("D/N/rand/fixed ncx3 SC ring", ncx3(), ring(), D, N, models::sc(), 4, (0.9829163113598637, 0.00010872459419874113, 4)),
        ("T/P/rand/fixed ncx3 SC+GATES grid", ncx3(), grid(), T, P, models::sc_gates(), 32, (0.96874769203517, 0.031246550999105928, 32)),
        ("D/P/rand/fixed ncx3 SC+T1 grid", ncx3(), grid(), D, P, models::sc_t1(), 4, (0.9121850522348242, 0.00018877736184454372, 4)),
        ("T/N/rand/fixed ncx3 SC+T1+GATES grid", ncx3(), grid(), T, N, models::sc_t1_gates(), 32, (0.9999999951507177, 2.0977962739191822e-10, 32)),
        ("D/N/rand/fixed ncx3 SC+T1+GATES grid", ncx3(), grid(), D, N, models::sc_t1_gates(), 4, (0.9977060389169337, 1.4461572213143177e-5, 4)),
        ("T/P/rand/fixed qubit ncx3 SC+T1+GATES line", qubit_ncx3(), line4(), T, P, models::sc_t1_gates(), 32, (0.9999998956463984, 5.001636116542474e-9, 32)),
    ] {
        let spec = JobSpec::builder(circuit)
            .backend(backend)
            .level(level)
            .noise(model)
            .input(RAND)
            .trials(trials)
            .seed(2019)
            .topology(topology)
            .build()
            .unwrap();
        cases.push(Case {
            label,
            spec,
            expected,
        });
    }
    cases
}

#[test]
fn noisy_results_match_the_recorded_goldens() {
    let mut failures = Vec::new();
    let mut recorded = String::new();
    for case in cases() {
        // A fresh uncached executor per case: nothing is shared but code.
        let result = Executor::with_result_cache(0).run(&case.spec).unwrap();
        let est = *result.fidelity().unwrap();
        recorded.push_str(&format!(
            "{}: ({:?}, {:?}, {})\n",
            case.label, est.mean, est.std_error, est.trials
        ));
        let (mean, std_error, trials) = case.expected;
        if (est.mean - mean).abs() > TOLERANCE
            || (est.std_error - std_error).abs() > TOLERANCE
            || est.trials != trials
        {
            failures.push(case.label);
        }
    }
    assert!(
        failures.is_empty(),
        "{} case(s) moved: {failures:?}\nobserved:\n{recorded}",
        failures.len()
    );
}

#[test]
fn noise_free_random_inputs_match_the_recorded_goldens() {
    let digits = [[0, 0, 0], [1, 0, 1], [2, 1, 0]];
    let mut moved = Vec::new();
    for (backend, expected) in [
        (
            T,
            [
                0.004707417525420856,
                0.045919005244712735,
                0.02523810284076578,
            ],
        ),
        (
            D,
            [
                0.0047074175254208615,
                0.045919005244712735,
                0.025238102840765782,
            ],
        ),
    ] {
        let spec = JobSpec::builder(qft3())
            .backend(backend)
            .input(InputState::RandomQubitSubspace)
            .seed(2019)
            .build()
            .unwrap();
        let result = Executor::with_result_cache(0).run(&spec).unwrap();
        let out = &result.states().unwrap()[0];
        let observed: Vec<f64> = digits.iter().map(|d| out.probability(d).unwrap()).collect();
        if observed
            .iter()
            .zip(expected)
            .any(|(got, want)| (got - want).abs() > TOLERANCE)
        {
            moved.push(format!("{backend:?}: observed {observed:?}"));
        }
    }
    assert!(moved.is_empty(), "{moved:#?}");
}
