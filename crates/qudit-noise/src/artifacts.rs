//! Shared, memoized noise-compilation artifacts.
//!
//! The executor's job cache shares the *pass pipeline* per structurally
//! distinct circuit, but noise-shaped artifacts — the [`NoiseProgram`],
//! the per-site channel compilations, the density engine's `U·ρ·U†` plan
//! pairs — were still rebuilt on every run. [`SharedNoiseArtifacts`]
//! closes that gap: one instance rides along with each cached circuit
//! entry and memoizes
//!
//! * the noise program itself (circuit + frames + error sites) — built
//!   once per entry, model-independent;
//! * the ideal reference: the IR's
//!   [`reference_circuit`](CompiledIr::reference_circuit) (the source
//!   circuit, relabelled and followed by the residual SWAPs when routed)
//!   compiled at [`PassLevel::Ideal`] for state-vector replay — both
//!   engines' noise-free output, built lazily, model-independent;
//! * the program circuit's state-vector plans (the trajectory engine's
//!   noisy replay) and its `U·ρ·U†` density plans (the exact engine's) —
//!   built lazily, model-independent;
//! * the per-site channel artifacts (`NoiseSites`) — keyed by the noise
//!   model's parameters, so a sweep over seeds/trial counts under one
//!   model compiles its channels once, while distinct models still get
//!   their own.
//!
//! The hit/build counters are observability for exactly that sharing;
//! [`NoiseArtifactStats`] is surfaced through `qudit_api::Executor`.

use crate::error::NoiseResult;
use crate::kraus::{Channel, CompiledChannel};
use crate::models::NoiseModel;
use crate::trajectory::{build_noise_sites, NoiseProgram, NoiseSites};
use qudit_circuit::passes::{self, CompiledIr, PassLevel};
use qudit_circuit::Circuit;
use qudit_sim::{
    superoperator_targets, ApplyPlan, CompiledCircuit, CompiledDensityCircuit, Simulator,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A noise model's physics parameters as an exact (bitwise) hash key. Two
/// models with the same parameters produce identical channel artifacts
/// regardless of display name, so the name is deliberately excluded.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ModelKey {
    p1: u64,
    p2: u64,
    t1: Option<u64>,
    gate_time_1q: u64,
    gate_time_2q: u64,
    leak_rate: Option<u64>,
    overrotation: Option<u64>,
    crosstalk: Option<u64>,
}

impl ModelKey {
    fn of(model: &NoiseModel) -> Self {
        ModelKey {
            p1: model.p1.to_bits(),
            p2: model.p2.to_bits(),
            t1: model.t1.map(f64::to_bits),
            gate_time_1q: model.gate_time_1q.to_bits(),
            gate_time_2q: model.gate_time_2q.to_bits(),
            leak_rate: model.leak_rate.map(f64::to_bits),
            overrotation: model.overrotation.map(f64::to_bits),
            crosstalk: model.crosstalk.map(f64::to_bits),
        }
    }
}

/// Counters describing how often per-site channel artifacts were rebuilt
/// versus shared — the observability the memoization satellite asks for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoiseArtifactStats {
    /// Site sets compiled from scratch (one per distinct model per entry
    /// per backend).
    pub sites_built: usize,
    /// Site-set requests answered from the cache.
    pub sites_shared: usize,
}

impl NoiseArtifactStats {
    /// Element-wise sum, for aggregating over cache entries.
    pub fn merge(self, other: NoiseArtifactStats) -> NoiseArtifactStats {
        NoiseArtifactStats {
            sites_built: self.sites_built + other.sites_built,
            sites_shared: self.sites_shared + other.sites_shared,
        }
    }
}

/// One backend's site sets, keyed by model.
type SiteMemo<T> = Mutex<HashMap<ModelKey, Arc<NoiseSites<T>>>>;

/// Memoized noise artifacts for one compiled circuit (see the module doc).
///
/// Everything is interior-mutable and `Sync`: the replay circuits sit
/// behind `OnceLock`s, the model-keyed site maps behind mutexes that are
/// held only for a map lookup/insert (channel compilation itself happens
/// outside the lock, so two *distinct* models can compile concurrently —
/// a duplicated build for the *same* model in that window is benign and
/// the first insert wins).
pub struct SharedNoiseArtifacts {
    program: Arc<NoiseProgram>,
    /// The circuit the ideal reference compiles from.
    reference: Circuit,
    ideal: OnceLock<Arc<CompiledCircuit>>,
    program_plans: OnceLock<Arc<CompiledCircuit>>,
    noisy_density: OnceLock<Arc<CompiledDensityCircuit>>,
    trajectory_sites: SiteMemo<CompiledChannel>,
    density_sites: SiteMemo<ApplyPlan>,
    sites_built: AtomicUsize,
    sites_shared: AtomicUsize,
}

impl SharedNoiseArtifacts {
    /// Builds the artifact set from an already-compiled IR — the noise
    /// program is constructed eagerly (it defines everything else), the
    /// rest lazily.
    ///
    /// # Errors
    ///
    /// Same conditions as the underlying program construction:
    /// `UnsupportedLevel` for optimizing pass levels, `Simulation` if a
    /// ≥3-qudit operation could not be lowered.
    pub fn from_ir(ir: &CompiledIr) -> NoiseResult<Self> {
        Ok(SharedNoiseArtifacts {
            program: Arc::new(NoiseProgram::from_ir(ir)?),
            reference: ir.reference_circuit(),
            ideal: OnceLock::new(),
            program_plans: OnceLock::new(),
            noisy_density: OnceLock::new(),
            trajectory_sites: SiteMemo::default(),
            density_sites: SiteMemo::default(),
            sites_built: AtomicUsize::new(0),
            sites_shared: AtomicUsize::new(0),
        })
    }

    /// The shared noise program.
    pub(crate) fn program(&self) -> &Arc<NoiseProgram> {
        &self.program
    }

    /// The ideal reference: the [`PassLevel::Ideal`] compile of the IR's
    /// reference circuit, with the program circuit's unitary and none of
    /// its lowering, built through `planner`'s plan cache on first use.
    pub(crate) fn ideal(&self, planner: &Simulator) -> Arc<CompiledCircuit> {
        Arc::clone(self.ideal.get_or_init(|| {
            let ir = passes::compile(&self.reference, PassLevel::Ideal);
            Arc::new(planner.compile(ir.circuit()))
        }))
    }

    /// The program circuit compiled for state-vector replay — the plans a
    /// trajectory trial's noisy replay applies op by op — built through
    /// `planner`'s plan cache on first use.
    pub(crate) fn program_plans(&self, planner: &Simulator) -> Arc<CompiledCircuit> {
        Arc::clone(
            self.program_plans
                .get_or_init(|| Arc::new(planner.compile(&self.program.circuit))),
        )
    }

    /// The program circuit compiled for noisy `U·ρ·U†` density replay,
    /// built on first use.
    pub(crate) fn noisy_density(&self) -> Arc<CompiledDensityCircuit> {
        Arc::clone(
            self.noisy_density
                .get_or_init(|| Arc::new(CompiledDensityCircuit::compile(&self.program.circuit))),
        )
    }

    /// The trajectory engine's per-site channel branch plans under `model`,
    /// compiled once per distinct model.
    ///
    /// # Errors
    ///
    /// Propagates model-validation failures from channel construction.
    pub(crate) fn trajectory_sites(
        &self,
        model: &NoiseModel,
    ) -> NoiseResult<Arc<NoiseSites<CompiledChannel>>> {
        let (d, n) = (self.program.circuit.dim(), self.program.circuit.width());
        self.memo_sites(&self.trajectory_sites, model, |c, qudits| {
            c.compile(d, n, qudits)
        })
    }

    /// The density engine's per-site superoperator plans under `model`,
    /// compiled once per distinct model.
    ///
    /// # Errors
    ///
    /// Propagates model-validation failures from channel construction.
    pub(crate) fn density_sites(
        &self,
        model: &NoiseModel,
    ) -> NoiseResult<Arc<NoiseSites<ApplyPlan>>> {
        let (d, n) = (self.program.circuit.dim(), self.program.circuit.width());
        self.memo_sites(&self.density_sites, model, |c, qudits| {
            ApplyPlan::for_matrix(
                d,
                2 * n,
                &c.superoperator(),
                &superoperator_targets(qudits, n),
            )
        })
    }

    /// The site set `memo` holds for `model`, building it with `build` on
    /// the first request: the build runs outside the lock, the first insert
    /// wins, and the counters record whether the request built or shared.
    fn memo_sites<T>(
        &self,
        memo: &SiteMemo<T>,
        model: &NoiseModel,
        build: impl FnMut(&Channel, &[usize]) -> T,
    ) -> NoiseResult<Arc<NoiseSites<T>>> {
        let key = ModelKey::of(model);
        if let Some(sites) = memo.lock().expect("sites map").get(&key) {
            self.sites_shared.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(sites));
        }
        let built = Arc::new(build_noise_sites(&self.program, model, build)?);
        self.sites_built.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(
            memo.lock().expect("sites map").entry(key).or_insert(built),
        ))
    }

    /// A snapshot of the build/share counters.
    pub fn stats(&self) -> NoiseArtifactStats {
        NoiseArtifactStats {
            sites_built: self.sites_built.load(Ordering::Relaxed),
            sites_shared: self.sites_shared.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use qudit_circuit::passes::compile_with_topology;
    use qudit_circuit::{Control, Gate, Topology};
    use qudit_core::random_qubit_subspace_state;
    use qutrit_toffoli::baselines::{qubit_no_ancilla, qubit_one_dirty_ancilla};
    use qutrit_toffoli::n_controlled_x;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toffoli() -> Circuit {
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
    fn same_model_shares_sites_distinct_models_build() {
        let ir = passes::compile(&toffoli(), PassLevel::Physical);
        let artifacts = SharedNoiseArtifacts::from_ir(&ir).unwrap();
        let sc = models::sc();
        let a = artifacts.trajectory_sites(&sc).unwrap();
        let b = artifacts.trajectory_sites(&sc).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same model must share one site set");
        let _ = artifacts.density_sites(&sc).unwrap();
        let mut other = models::sc();
        other.p1 *= 2.0;
        let c = artifacts.trajectory_sites(&other).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "distinct models must not share");
        assert_eq!(
            artifacts.stats(),
            NoiseArtifactStats {
                sites_built: 3,
                sites_shared: 1
            }
        );
    }

    #[test]
    fn replay_circuits_build_once() {
        let ir = passes::compile(&toffoli(), PassLevel::Physical);
        let artifacts = SharedNoiseArtifacts::from_ir(&ir).unwrap();
        let planner = Simulator::new();
        assert!(Arc::ptr_eq(
            &artifacts.ideal(&planner),
            &artifacts.ideal(&planner)
        ));
        assert!(Arc::ptr_eq(
            &artifacts.program_plans(&planner),
            &artifacts.program_plans(&planner)
        ));
        assert!(Arc::ptr_eq(
            &artifacts.noisy_density(),
            &artifacts.noisy_density()
        ));
    }

    /// A `rows × cols = width` grid, as square as `width` allows (a
    /// prime width gives a one-row grid).
    fn grid(width: usize) -> Topology {
        let rows = (1..=width)
            .filter(|&r| width.is_multiple_of(r) && r * r <= width)
            .max()
            .unwrap();
        Topology::grid(rows, width / rows).unwrap()
    }

    #[test]
    fn reference_replays_the_program_unitary() {
        let planner = Simulator::new();
        let mut rng = StdRng::seed_from_u64(2019);
        for n in 2..=4 {
            for circuit in [
                n_controlled_x(n).unwrap(),
                qubit_no_ancilla(n, 2).unwrap(),
                qubit_one_dirty_ancilla(n, 2).unwrap(),
            ] {
                let (d, width) = (circuit.dim(), circuit.width());
                for topology in [
                    None,
                    Some(Topology::linear(width).unwrap()),
                    Some(Topology::ring(width).unwrap()),
                    Some(grid(width)),
                ] {
                    for level in [PassLevel::Physical, PassLevel::NoisePreserving] {
                        let ir = compile_with_topology(&circuit, level, topology.as_ref());
                        let artifacts = SharedNoiseArtifacts::from_ir(&ir).unwrap();
                        let reference = artifacts.ideal(&planner);
                        let program = artifacts.program_plans(&planner);
                        for _ in 0..3 {
                            let input = random_qubit_subspace_state(d, width, &mut rng).unwrap();
                            let ideal = reference.run_sequential(input.clone());
                            let replayed = program.run_sequential(input);
                            let infidelity = 1.0 - ideal.fidelity(&replayed);
                            assert!(
                                infidelity <= 1e-12,
                                "d = {d}, {n} controls, {level:?} on {:?}: 1 − F = {infidelity:e}",
                                topology.as_ref().map(Topology::kind)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reference_is_the_unlowered_source() {
        let ir = passes::compile(&n_controlled_x(7).unwrap(), PassLevel::Physical);
        let artifacts = SharedNoiseArtifacts::from_ir(&ir).unwrap();
        let planner = Simulator::new();
        assert_eq!(artifacts.program_plans(&planner).plans().len(), 79);
        assert_eq!(artifacts.ideal(&planner).plans().len(), 7);
    }
}
