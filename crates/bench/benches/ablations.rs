//! Ablation benches for the design choices DESIGN.md calls out:
//! integrator order, routing-grid resolution, H-correction cost, and the
//! timing-model ladder (Elmore / D2M / characterized library).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cts::benchmarks::generate_custom;
use cts::spice::units::{NS, PS};
use cts::spice::{simulate, Circuit, Integrator, SimOptions, Waveform};
use cts::timing::fast_library;
use cts::timing::{metrics, RcTree};
use cts::{CtsOptions, HCorrection, Synthesizer, Technology};

/// Backward Euler vs trapezoidal at equal step size: cost comparison (the
/// accuracy side is covered by the solver tests).
fn ablate_integrator(c: &mut Criterion) {
    let tech = Technology::nominal_45nm();
    let mut group = c.benchmark_group("integrator");
    group.sample_size(10);
    for integ in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
        let mut circuit = Circuit::new(&tech);
        let vin = circuit.add_node("in");
        let out = circuit.add_node("out");
        circuit.add_buffer(vin, out, &tech.buffer_library()[2]);
        let far = circuit.add_node("far");
        circuit.add_wire(out, far, 1000.0, tech.wire());
        circuit.drive(
            vin,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, tech.vdd()),
        );
        let mut opts = SimOptions::default_for(2.0 * NS);
        opts.integrator = integ;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{integ:?}")),
            &(circuit, opts),
            |b, (circ, o)| b.iter(|| simulate(circ, o).expect("sim")),
        );
    }
    group.finish();
}

/// Routing-grid resolution: the paper's R = 45 vs finer/coarser grids, on
/// a full small-instance synthesis.
fn ablate_grid_resolution(c: &mut Criterion) {
    let lib = fast_library();
    let inst = generate_custom("grid_ablation", 12, 5000.0, 9);
    let mut group = c.benchmark_group("grid_resolution");
    group.sample_size(10);
    for r in [25u32, 45, 90] {
        let opts = CtsOptions::builder().grid_resolution(r).build().unwrap();
        let synth = Synthesizer::new(lib, opts);
        group.bench_with_input(BenchmarkId::from_parameter(r), &synth, |b, s| {
            b.iter(|| s.synthesize(&inst).expect("synthesis"));
        });
    }
    group.finish();
}

/// H-correction modes: Off vs Method 1 vs Method 2 synthesis cost (the
/// paper notes Method 2 is "the most computationally expensive").
fn ablate_hcorrection(c: &mut Criterion) {
    let lib = fast_library();
    let inst = generate_custom("hcost", 16, 5000.0, 11);
    let mut group = c.benchmark_group("h_correction");
    group.sample_size(10);
    for mode in [
        HCorrection::Off,
        HCorrection::ReEstimate,
        HCorrection::Correct,
    ] {
        let opts = CtsOptions::builder().h_correction(mode).build().unwrap();
        let synth = Synthesizer::new(lib, opts);
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.to_string()),
            &synth,
            |b, s| b.iter(|| s.synthesize(&inst).expect("synthesis")),
        );
    }
    group.finish();
}

/// The timing-model ladder: cost of Elmore, D2M, and a library lookup for
/// one net evaluation (accuracy ladder is in the tests; this is the speed
/// side of the trade).
fn ablate_timing_models(c: &mut Criterion) {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let wire = tech.wire();
    c.bench_function("model_elmore", |b| {
        b.iter(|| {
            let mut t = RcTree::new(0.0);
            let end = t.add_wire(
                t.root(),
                wire.resistance(std::hint::black_box(1000.0)),
                wire.capacitance(1000.0),
                16,
            );
            t.elmore_delay(end)
        });
    });
    c.bench_function("model_d2m", |b| {
        b.iter(|| {
            let mut t = RcTree::new(0.0);
            let end = t.add_wire(
                t.root(),
                wire.resistance(std::hint::black_box(1000.0)),
                wire.capacitance(1000.0),
                16,
            );
            let (m1, m2) = t.m1_m2(end);
            metrics::d2m_delay(m1, m2)
        });
    });
    c.bench_function("model_library", |b| {
        b.iter(|| {
            lib.single_wire(
                cts::timing::BufferId(1),
                cts::timing::Load::Buffer(cts::timing::BufferId(1)),
                std::hint::black_box(60.0 * PS),
                std::hint::black_box(1000.0),
            )
        });
    });
}

criterion_group!(
    ablations,
    ablate_integrator,
    ablate_grid_resolution,
    ablate_hcorrection,
    ablate_timing_models
);
criterion_main!(ablations);
