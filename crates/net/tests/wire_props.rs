//! Property tests for the wire codec tables: random finite values of every
//! request, reply and event — and so of every `wire_struct!` table nested
//! in them — must decode back to themselves through the textual JSON
//! layer, and re-encode to the same bytes. Each optional field is drawn
//! both set and unset, and each defaultable scalar both at and off its
//! default, so a row with the wrong presence rule fails here even when no
//! fixed example exercises it.

use cts_core::{
    Buffering, DistStats, HCorrection, Instance, LevelStats, NodeKind, RequestStatus,
    ServiceMetrics, Sink, TreeNode, TreeNodeId, VariationMode,
};
use cts_geom::{Point, Rect};
use cts_net::proto::{
    decode_event, decode_request, decode_response, encode_event, encode_request, encode_response,
    BatchEntry, ErrorCode, Event, MetricsReply, OptionsPatch, Outcome, ParetoEvent,
    ParetoWirePoint, RemoteResult, Request, Response, ResultEvent, Scheduling, SpanStat,
    StatsReply, SweepAxesSpec, SweepPointOutcome, SweepProgressEvent, SweepRange, TimingStats,
    TreeChunkEvent, TreeDoneEvent, TreeEvent, TreeInfo, VariationStats,
};
use cts_net::Json;
use cts_obs::Histogram;
use cts_timing::BufferId;
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;

/// Integers travel exactly below 2^53.
const MAX_EXACT: u64 = 1 << 53;

fn int(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => rng.gen_range(1..100),
        _ => rng.gen_range(0..MAX_EXACT),
    }
}

fn size(rng: &mut TestRng) -> usize {
    int(rng) as usize
}

/// A finite float across many magnitudes, with exact dyadic tails and
/// zeros, so shortest-roundtrip printing sees "ugly" values.
fn real(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0..5) {
        0 => 0.0,
        1 => rng.gen_range(-1000..1000) as f64 + 0.5,
        2 => rng.gen_range(-1.0..1.0f64) * 10f64.powi(rng.gen_range(-200..200)),
        3 => rng.gen_range(0.0..1.0f64) + 2f64.powi(-rng.gen_range(20..50)),
        _ => rng.gen_range(-1e-9..1e-9f64),
    }
}

fn text(rng: &mut TestRng) -> String {
    let n = rng.gen_range(0..8);
    (0..n)
        .filter_map(|_| match rng.gen_range(0..3) {
            0 => char::from_u32(rng.gen_range(0u32..0x11_0000)),
            _ => char::from_u32(rng.gen_range(0x20u32..0x7f)),
        })
        .collect()
}

fn maybe<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| f(rng))
}

fn list<T>(rng: &mut TestRng, max: usize, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let n = rng.gen_range(0..max + 1);
    (0..n).map(|_| f(rng)).collect()
}

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

fn instance(rng: &mut TestRng) -> Instance {
    let sinks = (0..rng.gen_range(1..5))
        .map(|i| {
            let at = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            Sink::new(format!("s{i}{}", text(rng)), at, rng.gen_range(0.0..60e-15))
        })
        .collect();
    let die = Rect::from_corners(Point::new(-0.5, 0.0), Point::new(1000.0, 1024.25));
    Instance::with_die(text(rng), sinks, die)
}

fn scheduling(rng: &mut TestRng) -> Scheduling {
    Scheduling {
        priority: match rng.gen_range(0..3) {
            0 => 0,
            1 => rng.gen_range(-5..5),
            _ => rng.gen_range(i32::MIN..i32::MAX),
        },
        deadline_ms: maybe(rng, int),
        client_id: maybe(rng, text),
        publish_levels: rng.gen_bool(0.5),
    }
}

const H_CORRECTIONS: &[HCorrection] = &[
    HCorrection::Off,
    HCorrection::ReEstimate,
    HCorrection::Correct,
];
const BUFFERINGS: &[Buffering] = &[Buffering::Greedy, Buffering::VanGinneken];

/// A patch; `point` limits it to the sweep-axis keys.
fn patch(rng: &mut TestRng, point: bool) -> OptionsPatch {
    let mut p = OptionsPatch {
        slew_target_ps: maybe(rng, real),
        h_correction: maybe(rng, |r| pick(r, H_CORRECTIONS)),
        buffering: maybe(rng, |r| pick(r, BUFFERINGS)),
        library_subset: maybe(rng, size),
        ..OptionsPatch::default()
    };
    if !point {
        p.slew_limit_ps = maybe(rng, real);
        p.grid_resolution = maybe(rng, |r| r.gen_range(0..u32::MAX));
        p.threads = maybe(rng, size);
        p.variation_corners = maybe(rng, size);
        p.variation_seed = maybe(rng, int);
        p.variation_sigma_buffer = maybe(rng, real);
        p.variation_sigma_wire = maybe(rng, real);
        p.variation_sigma_slew = maybe(rng, real);
        p.variation_mode = maybe(rng, |r| {
            pick(r, &[VariationMode::Evaluate, VariationMode::Resynthesize])
        });
    }
    p
}

fn request(rng: &mut TestRng) -> Request {
    match rng.gen_range(0..10) {
        0 => Request::Hello {
            version: int(rng),
            client_id: maybe(rng, text),
        },
        1 => Request::Submit {
            instance: instance(rng),
            options: patch(rng, false),
            scheduling: scheduling(rng),
        },
        2 => Request::SubmitBatch {
            entries: (0..rng.gen_range(1..4))
                .map(|_| BatchEntry {
                    instance: instance(rng),
                    scheduling: scheduling(rng),
                })
                .collect(),
            options: patch(rng, false),
        },
        3 => Request::SubmitSweep {
            instance: instance(rng),
            base: patch(rng, false),
            range: if rng.gen_bool(0.5) {
                SweepRange::Axes(SweepAxesSpec {
                    slew_targets_ps: list(rng, 3, real),
                    library_subsets: list(rng, 3, size),
                    h_corrections: list(rng, 3, |r| pick(r, H_CORRECTIONS)),
                    bufferings: list(rng, 2, |r| pick(r, BUFFERINGS)),
                })
            } else {
                SweepRange::Points((0..rng.gen_range(1..4)).map(|_| patch(rng, true)).collect())
            },
            scheduling: scheduling(rng),
        },
        4 => Request::FetchTree {
            id: int(rng),
            chunk: maybe(rng, |r| r.gen_range(1..MAX_EXACT)),
            levels: rng.gen_bool(0.5),
        },
        5 => Request::Status { id: int(rng) },
        6 => Request::Cancel { id: int(rng) },
        7 => Request::Metrics,
        8 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn histogram(rng: &mut TestRng) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..rng.gen_range(0..6) {
        h.record(rng.gen_range(0..1_000_000_000_000));
    }
    h
}

fn metrics(rng: &mut TestRng) -> ServiceMetrics {
    ServiceMetrics {
        submitted: int(rng),
        completed: int(rng),
        cancelled: int(rng),
        expired: int(rng),
        failed: int(rng),
        queue_depth: size(rng),
        synth_seconds: real(rng),
        verify_seconds: real(rng),
        stages_simulated: int(rng),
        stages_reused: int(rng),
        symbolic_hits: int(rng),
        symbolic_misses: int(rng),
        topology_seconds: real(rng),
        merge_seconds: real(rng),
        sinks_synthesized: int(rng),
        sinks_verified: int(rng),
        corners_evaluated: int(rng),
        corner_lib_hits: int(rng),
        corner_lib_misses: int(rng),
        queue_depth_high_water: int(rng),
        sweeps_submitted: int(rng),
    }
}

fn response(rng: &mut TestRng) -> Response {
    match rng.gen_range(0..11) {
        0 => Response::Hello {
            version: int(rng),
            server: text(rng),
            workers: int(rng),
        },
        1 => Response::Submitted { id: int(rng) },
        2 => Response::BatchSubmitted {
            ids: list(rng, 4, int),
        },
        3 => Response::SweepSubmitted {
            sweep: int(rng),
            ids: list(rng, 4, int),
        },
        4 => {
            let partial = rng.gen_bool(0.5);
            Response::TreeHeader(TreeInfo {
                id: int(rng),
                name: text(rng),
                nodes: int(rng),
                chunks: int(rng),
                // Each header kind carries only its own field.
                source: if partial { 0 } else { int(rng) },
                partial,
                levels_done: if partial { int(rng) } else { 0 },
            })
        }
        5 => Response::Status {
            id: int(rng),
            state: pick(
                rng,
                &[
                    RequestStatus::Queued,
                    RequestStatus::InFlight,
                    RequestStatus::Done,
                ],
            ),
        },
        6 => Response::Cancelled { id: int(rng) },
        7 => Response::Metrics(MetricsReply {
            workers: int(rng),
            metrics: metrics(rng),
        }),
        8 => Response::Stats(Box::new(StatsReply {
            workers: int(rng),
            metrics: metrics(rng),
            queue_wait: list(rng, 3, |r| (r.gen_range(i32::MIN..i32::MAX), histogram(r))),
            synth_latency: histogram(rng),
            verify_latency: histogram(rng),
            spans: list(rng, 3, |r| SpanStat {
                name: text(r),
                durations: histogram(r),
            }),
            dropped: int(rng),
        })),
        9 => Response::ShuttingDown,
        _ => Response::Error {
            code: pick(
                rng,
                &[
                    ErrorCode::BadJson,
                    ErrorCode::BadRequest,
                    ErrorCode::UnsupportedVersion,
                    ErrorCode::UnknownId,
                    ErrorCode::ShuttingDown,
                ],
            ),
            message: text(rng),
        },
    }
}

fn timing(rng: &mut TestRng) -> TimingStats {
    TimingStats {
        worst_slew: real(rng),
        skew: real(rng),
        latency: real(rng),
    }
}

fn dist(rng: &mut TestRng) -> DistStats {
    DistStats {
        min: real(rng),
        median: real(rng),
        p95: real(rng),
        max: real(rng),
    }
}

fn remote_result(rng: &mut TestRng, id: u64) -> RemoteResult {
    RemoteResult {
        id,
        name: text(rng),
        client_id: maybe(rng, text),
        priority: rng.gen_range(i32::MIN..i32::MAX),
        dispatch_order: int(rng),
        sinks: int(rng),
        levels: int(rng),
        buffers: int(rng),
        buffer_cap_f: real(rng),
        wirelength_um: real(rng),
        synth_seconds: real(rng),
        verify_seconds: real(rng),
        estimate: timing(rng),
        verified: maybe(rng, timing),
        variation: maybe(rng, |r| VariationStats {
            corners: int(r),
            skew: dist(r),
            worst_slew: dist(r),
            latency: dist(r),
        }),
    }
}

fn tree_node(rng: &mut TestRng) -> TreeNode {
    let kind = match rng.gen_range(0..4) {
        0 => NodeKind::Source {
            driver: BufferId(size(rng)),
        },
        1 => NodeKind::Sink {
            index: size(rng),
            cap: real(rng),
        },
        2 => NodeKind::Joint,
        _ => NodeKind::Buffer {
            buffer: BufferId(size(rng)),
        },
    };
    let parent = maybe(rng, |r| TreeNodeId::from_index(size(r)));
    TreeNode {
        kind,
        location: Point::new(real(rng), real(rng)),
        parent,
        // A root carries no wire length on the wire.
        wire_to_parent_um: if parent.is_some() { real(rng) } else { 0.0 },
        children: list(rng, 3, |r| TreeNodeId::from_index(size(r))),
    }
}

fn level_stats(rng: &mut TestRng) -> LevelStats {
    LevelStats {
        level: size(rng),
        pairs: size(rng),
        seed_promoted: rng.gen_bool(0.5),
        flippings: size(rng),
        buffers_inserted: size(rng),
        worst_skew_estimate: real(rng),
        max_latency_estimate: real(rng),
        nodes_total: size(rng),
    }
}

const POINT_OUTCOMES: &[SweepPointOutcome] = &[
    SweepPointOutcome::Completed,
    SweepPointOutcome::Cancelled,
    SweepPointOutcome::Expired,
    SweepPointOutcome::Failed,
];

fn event(rng: &mut TestRng) -> Event {
    match rng.gen_range(0..5) {
        0 => {
            let id = int(rng);
            let outcome = match rng.gen_range(0..4) {
                0 => Outcome::Completed(Box::new(remote_result(rng, id))),
                1 => Outcome::Cancelled,
                2 => Outcome::Expired,
                _ => Outcome::Failed { error: text(rng) },
            };
            Event::Result(ResultEvent { id, outcome })
        }
        1 => Event::Tree(TreeEvent::Chunk(TreeChunkEvent {
            id: int(rng),
            chunk: int(rng),
            nodes: list(rng, 4, tree_node),
        })),
        2 => Event::Tree(TreeEvent::Done(TreeDoneEvent {
            id: int(rng),
            level_stats: list(rng, 3, level_stats),
        })),
        3 => Event::SweepProgress(SweepProgressEvent {
            sweep: int(rng),
            done: int(rng),
            total: int(rng),
            id: int(rng),
            outcome: pick(rng, POINT_OUTCOMES),
        }),
        _ => Event::Pareto(ParetoEvent {
            sweep: int(rng),
            total: int(rng),
            completed: int(rng),
            points: list(rng, 3, |r| ParetoWirePoint {
                ordinal: int(r),
                id: int(r),
                skew: real(r),
                buffer_cap_f: real(r),
                latency: real(r),
            }),
            front: list(rng, 3, int),
        }),
    }
}

/// A strategy from a sampling function.
struct Sampled<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Sampled<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Through text, as on the wire.
fn reparse(frame: &Json) -> (String, Json) {
    let text = frame.to_string();
    let j = Json::parse(&text).expect("an encoded frame parses");
    (text, j)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn requests_roundtrip_byte_identically(seq in 0..MAX_EXACT, req in Sampled(request)) {
        let (text, j) = reparse(&encode_request(seq, &req));
        let (back_seq, back) = decode_request(&j).expect("an encoded request decodes");
        prop_assert_eq!(back_seq, seq);
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(encode_request(back_seq, &back).to_string(), text);
    }

    #[test]
    fn responses_roundtrip_byte_identically(seq in 0..MAX_EXACT, resp in Sampled(response)) {
        // Only an error answering an undecodable frame has no seq.
        let seq = match resp {
            Response::Error { .. } if seq % 2 == 0 => None,
            _ => Some(seq),
        };
        let (text, j) = reparse(&encode_response(seq, &resp));
        let (back_seq, back) = decode_response(&j).expect("an encoded reply decodes");
        prop_assert_eq!(back_seq, seq);
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(encode_response(back_seq, &back).to_string(), text);
    }

    #[test]
    fn events_roundtrip_byte_identically(ev in Sampled(event)) {
        let (text, j) = reparse(&encode_event(&ev));
        let back = decode_event(&j).expect("an encoded event decodes");
        prop_assert_eq!(&back, &ev);
        prop_assert_eq!(encode_event(&back).to_string(), text);
    }
}
