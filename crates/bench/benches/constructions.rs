//! Criterion benches for building the Figure 9 / Figure 10 constructions and
//! computing their costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_circuit::ResourceReport;
use qutrit_toffoli::baselines::{he_log_depth, qubit_no_ancilla, qubit_one_dirty_ancilla};
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use qutrit_toffoli::incrementer::incrementer;

fn bench_generalized_toffoli_constructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_fig10_constructions");
    for n in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("qutrit_tree", n), &n, |b, &n| {
            b.iter(|| {
                let circuit = n_controlled_x(n).unwrap();
                ResourceReport::measure(&circuit).physical
            })
        });
        group.bench_with_input(BenchmarkId::new("qubit_ancilla", n), &n, |b, &n| {
            b.iter(|| {
                let circuit = qubit_one_dirty_ancilla(n, 2).unwrap();
                ResourceReport::measure(&circuit).physical
            })
        });
        group.bench_with_input(BenchmarkId::new("qubit_no_ancilla", n), &n, |b, &n| {
            b.iter(|| {
                let circuit = qubit_no_ancilla(n, 2).unwrap();
                ResourceReport::measure(&circuit).physical
            })
        });
        group.bench_with_input(BenchmarkId::new("he_log_depth", n), &n, |b, &n| {
            b.iter(|| {
                let circuit = he_log_depth(n, 2).unwrap();
                ResourceReport::measure(&circuit).physical
            })
        });
    }
    group.finish();
}

fn bench_incrementer_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("incrementer_construction");
    for n in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let circuit = incrementer(n).unwrap();
                ResourceReport::measure(&circuit).physical
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generalized_toffoli_constructions,
    bench_incrementer_construction
);
criterion_main!(benches);
