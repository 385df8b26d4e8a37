//! Criterion benches for the flow's computational kernels, backing the
//! paper's §4.3 complexity analysis (nearest-neighbor selection dominates;
//! maze routing is steady per merge thanks to dynamic grid sizing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cts::benchmarks::generate_custom;
use cts::core::maze::{MazeRouter, MergeSide};
use cts::core::topology::{find_matching, MatchCandidate};
use cts::geom::Point;
use cts::spice::units::{NS, PS};
use cts::spice::{simulate, Circuit, SimOptions, Waveform};
use cts::timing::fast_library;
use cts::timing::fit::PolyFit;
use cts::timing::{BufferId, Load};
use cts::{CtsOptions, Synthesizer, Technology, TimingEngine};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("nearest_neighbor_matching");
    for n in [64usize, 256, 1024] {
        let candidates: Vec<MatchCandidate> = (0..n)
            .map(|i| MatchCandidate {
                location: Point::new((i * 37 % 101) as f64 * 50.0, (i * 61 % 103) as f64 * 50.0),
                delay: (i % 17) as f64 * 5e-12,
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &candidates, |b, cand| {
            b.iter(|| find_matching(cand, Point::new(2500.0, 2500.0), 1e-3, 1e11).expect("finite"));
        });
    }
    group.finish();
}

fn bench_maze_route(c: &mut Criterion) {
    let lib = fast_library();
    let opts = CtsOptions::default();
    let router = MazeRouter::new(lib, &opts);
    let mut group = c.benchmark_group("maze_route");
    group.sample_size(10);
    for dist in [500.0f64, 2000.0, 8000.0] {
        let a = MergeSide {
            root_point: Point::new(0.0, 0.0),
            root_load: Load::Sink { cap: 25e-15 },
            subtree_delay: 0.0,
            unbuffered_depth_um: 0.0,
        };
        let b_side = MergeSide {
            root_point: Point::new(dist, dist * 0.2),
            root_load: Load::Sink { cap: 25e-15 },
            subtree_delay: 10.0 * PS,
            unbuffered_depth_um: 0.0,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(dist as u64),
            &(a, b_side),
            |bch, (x, y)| {
                bch.iter(|| router.route(x, y).expect("route"));
            },
        );
    }
    group.finish();
}

fn bench_engine_eval(c: &mut Criterion) {
    let lib = fast_library();
    let synth = Synthesizer::new(lib, CtsOptions::default());
    let engine = TimingEngine::new(lib);
    let mut group = c.benchmark_group("engine_evaluate");
    group.sample_size(20);
    for n in [16usize, 48] {
        let inst = generate_custom("bench", n, 6000.0, 42);
        let result = synth.synthesize(&inst).expect("synthesis");
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(result.tree, result.source),
            |b, (tree, source)| {
                b.iter(|| engine.evaluate(tree, *source, 80.0 * PS));
            },
        );
    }
    group.finish();
}

fn bench_library_lookup(c: &mut Criterion) {
    let lib = fast_library();
    c.bench_function("library_single_wire_lookup", |b| {
        b.iter(|| {
            lib.single_wire(
                BufferId(1),
                Load::Buffer(BufferId(2)),
                std::hint::black_box(60.0 * PS),
                std::hint::black_box(700.0),
            )
        });
    });
    // The single-surface queries the maze router's wavefront calls: one
    // fitted surface instead of the three `single_wire` evaluates.
    c.bench_function("library_single_wire_delay_lookup", |b| {
        b.iter(|| {
            lib.single_wire_delay(
                BufferId(1),
                Load::Buffer(BufferId(2)),
                std::hint::black_box(60.0 * PS),
                std::hint::black_box(700.0),
            )
        });
    });
    c.bench_function("library_single_wire_slew_lookup", |b| {
        b.iter(|| {
            lib.single_wire_slew(
                BufferId(1),
                Load::Buffer(BufferId(2)),
                std::hint::black_box(60.0 * PS),
                std::hint::black_box(700.0),
            )
        });
    });
    c.bench_function("library_branch_lookup", |b| {
        b.iter(|| {
            lib.branch(
                BufferId(2),
                (Load::Buffer(BufferId(0)), Load::Buffer(BufferId(1))),
                std::hint::black_box(60.0 * PS),
                (std::hint::black_box(400.0), std::hint::black_box(900.0)),
            )
        });
    });
}

/// A `dims`-variable fit of total degree `order` over a small grid of
/// delay-like samples in `(slew [s], length [µm], …)`.
fn grid_fit(dims: usize, order: u32) -> PolyFit {
    let mut points = vec![Vec::new()];
    for d in 0..dims {
        let step = if d == 0 { 20e-12 } else { 300.0 };
        points = points
            .iter()
            .flat_map(|p| {
                (0..5).map(move |i| {
                    let mut q = p.clone();
                    q.push(f64::from(i) * step);
                    q
                })
            })
            .collect();
    }
    let values: Vec<f64> = points
        .iter()
        .map(|p| {
            1e-12
                + 0.3 * p[0]
                + p[1..]
                    .iter()
                    .map(|l| 1e-15 * l * (1.0 + 1e-4 * l))
                    .sum::<f64>()
        })
        .collect();
    PolyFit::fit(dims, order, &points, &values).expect("grid fit")
}

fn bench_fit_eval(c: &mut Criterion) {
    // The kernel every library query ends in: the single-wire surfaces
    // are 2-D, the branch volumes 3-D; the fast library fits both at
    // order 2.
    let surface = grid_fit(2, 2);
    c.bench_function("fit_eval_2d_order2", |b| {
        b.iter(|| surface.eval(&[std::hint::black_box(45e-12), std::hint::black_box(700.0)]));
    });
    let volume = grid_fit(3, 2);
    c.bench_function("fit_eval_3d_order2", |b| {
        b.iter(|| {
            volume.eval(&[
                std::hint::black_box(45e-12),
                std::hint::black_box(400.0),
                std::hint::black_box(900.0),
            ])
        });
    });
    // What the maze router's wavefront evaluates per relaxation: the
    // virtual driver's wire delay with the input slew pinned.
    let lib = fast_library();
    let curve = lib.wire_delay_curve(BufferId(1), BufferId(2), 60.0 * PS);
    c.bench_function("maze_pending_delay_curve", |b| {
        b.iter(|| curve.eval(std::hint::black_box(700.0)));
    });
}

fn bench_transient_sim(c: &mut Criterion) {
    let tech = Technology::nominal_45nm();
    let mut group = c.benchmark_group("transient_sim");
    group.sample_size(10);
    for len in [300.0f64, 1500.0] {
        let mut circuit = Circuit::new(&tech);
        let vin = circuit.add_node("in");
        let out = circuit.add_node("out");
        circuit.add_buffer(vin, out, &tech.buffer_library()[1]);
        let far = circuit.add_node("far");
        circuit.add_wire(out, far, len, tech.wire());
        circuit.drive(
            vin,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, tech.vdd()),
        );
        let opts = SimOptions::default_for(2.0 * NS);
        group.bench_with_input(
            BenchmarkId::from_parameter(len as u64),
            &(circuit, opts),
            |b, (circ, o)| {
                b.iter(|| simulate(circ, o).expect("sim"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_matching,
    bench_maze_route,
    bench_engine_eval,
    bench_library_lookup,
    bench_fit_eval,
    bench_transient_sim
);
criterion_main!(kernels);
