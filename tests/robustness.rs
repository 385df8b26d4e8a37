//! Failure injection and degenerate inputs: the flow must either handle or
//! cleanly reject pathological instances.

use cts::geom::Point;
use cts::{CtsError, CtsOptions, Instance, Sink, Synthesizer};
use cts_timing::fast_library;

#[test]
fn single_sink() {
    let synth = Synthesizer::new(fast_library(), CtsOptions::default());
    let inst = Instance::new("one", vec![Sink::new("s", Point::new(5.0, 5.0), 20e-15)]);
    let r = synth.synthesize(&inst).expect("single sink must work");
    assert_eq!(r.levels, 0);
    assert_eq!(r.report.skew(), 0.0);
}

#[test]
fn two_coincident_sinks() {
    let synth = Synthesizer::new(fast_library(), CtsOptions::default());
    let p = Point::new(10.0, 10.0);
    let inst = Instance::new(
        "coincident",
        vec![Sink::new("a", p, 20e-15), Sink::new("b", p, 20e-15)],
    );
    let r = synth.synthesize(&inst).expect("coincident sinks must work");
    assert_eq!(r.tree.sinks_under(r.source).len(), 2);
    assert!(r.report.skew() < 1e-12);
}

#[test]
fn collinear_sinks() {
    let synth = Synthesizer::new(fast_library(), CtsOptions::default());
    let sinks = (0..9)
        .map(|i| Sink::new(format!("s{i}"), Point::new(i as f64 * 800.0, 0.0), 25e-15))
        .collect();
    let inst = Instance::new("line", sinks);
    let r = synth.synthesize(&inst).expect("collinear sinks must work");
    assert_eq!(r.tree.sinks_under(r.source).len(), 9);
}

#[test]
fn extreme_cap_spread() {
    let synth = Synthesizer::new(fast_library(), CtsOptions::default());
    let inst = Instance::new(
        "caps",
        vec![
            Sink::new("tiny", Point::new(0.0, 0.0), 1e-15),
            Sink::new("huge", Point::new(1500.0, 0.0), 80e-15),
            Sink::new("mid", Point::new(700.0, 900.0), 25e-15),
        ],
    );
    let r = synth.synthesize(&inst).expect("cap spread must work");
    assert_eq!(r.tree.sinks_under(r.source).len(), 3);
}

#[test]
fn impossible_slew_target_is_rejected_not_hung() {
    let mut opts = CtsOptions::default();
    // 1 ps slew target: no buffer can meet this on any wire.
    opts.slew_target = 1e-12;
    opts.slew_limit = 1e-12;
    let synth = Synthesizer::new(fast_library(), opts);
    let a = Sink::new("a", Point::new(0.0, 0.0), 20e-15);
    let b = Sink::new("b", Point::new(3000.0, 0.0), 20e-15);
    // A single sink has no merge to discover the target in; it must still
    // be rejected rather than returned as a slew-violating tree.
    for sinks in [vec![a.clone(), b], vec![a]] {
        let inst = Instance::new("impossible", sinks);
        match synth.synthesize(&inst) {
            Err(CtsError::SlewUnachievable { .. }) => {}
            Err(other) => panic!("expected SlewUnachievable, got {other}"),
            Ok(_) => panic!("1 ps slew target cannot succeed"),
        }
    }
}

#[test]
fn invalid_options_surface_as_errors() {
    type OptionTweak = Box<dyn Fn(&mut CtsOptions)>;
    let cases: Vec<OptionTweak> = vec![
        Box::new(|o| o.slew_limit = -1.0),
        Box::new(|o| o.slew_target = 0.0),
        Box::new(|o| o.grid_resolution = 0),
        Box::new(|o| o.grid_resolution = 100_000),
        Box::new(|o| o.cost_alpha = -2.0),
    ];
    let inst = Instance::new("opts", vec![Sink::new("s", Point::ORIGIN, 20e-15)]);
    for mutate in cases {
        let mut opts = CtsOptions::default();
        mutate(&mut opts);
        let synth = Synthesizer::new(fast_library(), opts);
        assert!(
            matches!(synth.synthesize(&inst), Err(CtsError::BadOptions(_))),
            "invalid options must be rejected"
        );
    }
}

#[test]
fn giant_die_small_sink_count() {
    // 30 mm between two sinks: dozens of buffer stages on one path.
    let synth = Synthesizer::new(fast_library(), CtsOptions::default());
    let inst = Instance::new(
        "span",
        vec![
            Sink::new("west", Point::new(0.0, 0.0), 25e-15),
            Sink::new("east", Point::new(30_000.0, 0.0), 25e-15),
        ],
    );
    let r = synth.synthesize(&inst).expect("giant span must work");
    assert!(
        r.buffers >= 10,
        "30 mm of wire needs many buffers, got {}",
        r.buffers
    );
    assert!(
        r.report.worst_slew <= synth.options().slew_limit * 1.1,
        "slew {} ps",
        r.report.worst_slew / 1e-12
    );
}
