//! Criterion benches for the histogram figures (Figs. 8–11): one benchmark
//! id per figure, run at smoke scale.

use apps::histogram::{run_histogram, HistogramConfig};
use apps::ClusterSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use tramlib::Scheme;

fn small(scheme: Scheme, nodes: u32, buffer: usize) -> HistogramConfig {
    HistogramConfig::new(ClusterSpec::smp(nodes, 2, 4), scheme)
        .with_updates(1_000)
        .with_buffer(buffer)
        .with_seed(7)
}

fn fig08_ppn_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08_histogram_ppn");
    group.sample_size(10);
    for ppn in [8u32, 4, 2] {
        group.bench_function(format!("wps_ppn{ppn}"), |b| {
            b.iter(|| {
                let cluster = ClusterSpec::smp(2, 16 / ppn, ppn);
                run_histogram(
                    HistogramConfig::new(cluster, Scheme::WPs)
                        .with_updates(1_000)
                        .with_buffer(64),
                )
            })
        });
    }
    group.finish();
}

fn fig09_scheme_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_histogram_schemes");
    group.sample_size(10);
    for scheme in [
        Scheme::WW,
        Scheme::WPs,
        Scheme::PP,
        Scheme::WsP,
        Scheme::NoAgg,
    ] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| run_histogram(small(scheme, 2, 64)))
        });
    }
    group.finish();
}

fn fig10_buffer_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_buffer_size");
    group.sample_size(10);
    for buffer in [16usize, 64, 256] {
        group.bench_function(format!("wps_buffer{buffer}"), |b| {
            b.iter(|| run_histogram(small(Scheme::WPs, 2, buffer)))
        });
    }
    group.finish();
}

fn fig11_small_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_histogram_small");
    group.sample_size(10);
    for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| {
                run_histogram(
                    HistogramConfig::new(ClusterSpec::smp(2, 2, 4), scheme)
                        .with_updates(250)
                        .with_buffer(64),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    fig08_ppn_sweep,
    fig09_scheme_sweep,
    fig10_buffer_sweep,
    fig11_small_updates
);
criterion_main!(benches);
