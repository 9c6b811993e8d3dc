//! Per-layer probes: each times calls into one layer's public functions
//! on inputs taken from this run's workload and from the network a rep
//! left behind. A probe reports the fastest of [`BATCHES`] batches of at
//! least [`MIN_BATCH`] each; operands and results pass through
//! `black_box`.
//!
//! The probes run only in the traced run, after the timed reps.

use crate::counts::{ratio, Counts};
use crate::inputs::Inputs;
use crate::shape::{Shape, NETWORK_SEED};
use crate::span::Recorder;
use hypersub_chord::{build_ring, next_hop, route_path, ChordState, Peer, RingConfig};
use hypersub_core::config::SystemConfig;
use hypersub_core::index::HybridIndex;
use hypersub_core::model::{Event, SubId, SubTarget};
use hypersub_core::msg::{DeliveryMsg, HyperMsg};
use hypersub_core::repo::ZoneRepo;
use hypersub_core::sim::Network;
use hypersub_core::world::Oracle;
use hypersub_lph::rotation::rotate_key;
use hypersub_lph::{lph_point, lph_rect, Point, Rect, ZoneCode};
use hypersub_net::{read_frame, write_frame, TimerWheel};
use hypersub_simnet::queue::EventQueue;
use hypersub_simnet::{SimEvent, SimTime, WireMsg};
use hypersub_workload::WorkloadGen;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCHES: usize = 7;
pub const MIN_BATCH: Duration = Duration::from_millis(5);

/// What the probes measured; `ns` fields are per operation.
#[derive(Debug, Clone, Default)]
pub struct Probed {
    pub queue_ns: f64,
    pub topology_latency_ns: f64,
    pub next_hop_ns: f64,
    pub hops_per_lookup: f64,
    pub build_ring_ms: f64,
    pub lph_point_ns: f64,
    pub lph_rect_ns: f64,
    pub zone_key_ns: f64,
    pub match_ns: f64,
    /// `match_point` calls the timed events make (see [`MatchReplay`]).
    pub match_calls: usize,
    pub candidates_per_match: f64,
    pub useful_ratio: f64,
    pub index_insert_ns: f64,
    pub index_remove_ns: f64,
    pub index_build_us: f64,
    pub expected_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub wire_bytes_per_msg: f64,
    pub frame_ns: f64,
    pub wheel_ns: f64,
    pub gen_event_ns: f64,
    pub gen_sub_ns: f64,
    /// Opening and closing one span of the recorder.
    pub span_ns: f64,
}

/// Nanoseconds per operation: `run(n)` performs `n` operations and
/// returns how long they took (its own set-up excluded). `n` is grown
/// until a batch lasts [`MIN_BATCH`], then the fastest of `batches` wins.
fn fastest(batches: usize, mut run: impl FnMut(usize) -> Duration) -> f64 {
    let mut n = 1usize;
    loop {
        let dt = run(n);
        if dt >= MIN_BATCH {
            break;
        }
        let grow = MIN_BATCH.as_secs_f64() / dt.as_secs_f64().max(1e-9) * 1.25;
        n = ((n as f64 * grow).ceil() as usize).max(n * 2);
    }
    (0..batches)
        .map(|_| run(n).as_secs_f64() * 1e9 / n as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Times `op(i)` for `i` in `0..n`.
fn timed(n: usize, mut op: impl FnMut(usize)) -> Duration {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    t.elapsed()
}

fn delivery_msg(point: &Point, targets: usize) -> HyperMsg {
    HyperMsg::Delivery(DeliveryMsg {
        scheme: 0,
        ss: 0,
        event: Arc::new(Event {
            id: 1,
            point: point.clone(),
        }),
        hops: 3,
        sender: Some(Peer {
            id: 0x1234_5678_9abc_def0,
            idx: 7,
        }),
        targets: (0..targets)
            .map(|i| {
                SubTarget::sub(SubId {
                    nid: (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    iid: i as u32 + 1,
                })
            })
            .collect(),
    })
}

/// The repositories a rep left behind and the `match_point` calls the
/// timed events make against them, found by walking each event the way
/// Algorithm 5 does: the rendezvous node matches its own repositories on
/// the leaf-to-root zone path, and a matched surrogate entry leads to the
/// ancestor repository it stands for. Each repository sees an event once.
struct MatchReplay {
    repos: Vec<ZoneRepo>,
    /// `(timed event index, repository index)`, in visiting order.
    calls: Vec<(usize, usize)>,
    /// Entries examined and entries matched over `calls`.
    candidates: u64,
    matched: u64,
}

impl MatchReplay {
    /// `rendezvous[e]` is the node responsible for event `e`'s zone key.
    fn new(
        net: &Network,
        rendezvous: &[usize],
        leaves: &[ZoneCode],
        points: &[&Point],
        projs: &[Point],
    ) -> Self {
        let cfg = SystemConfig::default();
        let mut repos: Vec<ZoneRepo> = Vec::new();
        let mut by_zone: HashMap<(usize, ZoneCode), usize> = HashMap::new();
        let mut by_subid: HashMap<SubId, usize> = HashMap::new();
        for (idx, node) in net.nodes().iter().enumerate() {
            let mut keys: Vec<_> = node.repos.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let repo = &node.repos[&key];
                by_zone.insert((idx, key.2), repos.len());
                let nid = node.chord().id;
                by_subid.insert(SubId { nid, iid: repo.iid }, repos.len());
                repos.push(repo.clone());
            }
        }
        let mut replay = MatchReplay {
            repos,
            calls: Vec::new(),
            candidates: 0,
            matched: 0,
        };
        let mut seen: HashSet<usize> = HashSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for (e, leaf) in leaves.iter().enumerate() {
            seen.clear();
            let mut z = Some(*leaf);
            while let Some(cur) = z {
                queue.extend(by_zone.get(&(rendezvous[e], cur)));
                z = cur.parent(&cfg.zone);
            }
            // The order only permutes the calls of one event.
            while let Some(r) = queue.pop() {
                if !seen.insert(r) {
                    continue;
                }
                replay.calls.push((e, r));
                let repo = &mut replay.repos[r];
                let before = repo.index_diag();
                let ids = repo.match_point(points[e], &projs[e], cfg.index_mode);
                let after = repo.index_diag();
                // Without an index a repository examines every entry.
                replay.candidates += if after.entries > 0 {
                    after.candidates_scanned - before.candidates_scanned
                } else {
                    repo.entries.len() as u64
                };
                replay.matched += ids.len() as u64;
                queue.extend(ids.iter().filter_map(|id| by_subid.get(id)));
            }
        }
        replay
    }

    /// The repository with the most entries; they are kept in (node, key)
    /// order, so the choice among equals repeats.
    fn largest(&self) -> &ZoneRepo {
        self.repos
            .iter()
            .max_by_key(|r| r.entries.len())
            .expect("a network with subscriptions has repositories")
    }
}

pub fn run(
    net: &Network,
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    counts: &Counts,
    rec: &mut Recorder,
) -> Probed {
    let mut p = Probed::default();
    let cfg = SystemConfig::default();
    let scheme = inputs.spec.scheme_def(0);
    let ss = &scheme.subschemes[0];
    let events = inputs.timed(shape);
    let points: Vec<&Point> = events.iter().map(|e| &e.point).collect();
    let rects: Vec<&Rect> = inputs.subs.iter().map(|s| &s.rect).collect();
    let leaves: Vec<ZoneCode> = points
        .iter()
        .map(|pt| lph_point(&cfg.zone, &ss.space, pt))
        .collect();
    let keys: Vec<u64> = leaves
        .iter()
        .map(|z| rotate_key(z.key(&cfg.zone), ss.rotation))
        .collect();

    // simnet
    let s = rec.enter("probe.simnet.queue");
    // A batch is scheduled up front, so its publish timers are the depth
    // the queue starts from.
    let depth = shape.batch_events;
    p.queue_ns = fastest(BATCHES, |n| {
        let mut q: EventQueue<HyperMsg> = EventQueue::new();
        for i in 0..depth {
            q.schedule(
                SimTime::from_micros(1_000_000 + 100_000 * i as u64),
                SimEvent::Timer {
                    node: i,
                    token: i as u64,
                },
            );
        }
        let mut now = SimTime::ZERO;
        timed(n, |i| {
            // Link latencies scatter arrivals over ~0-360 ms ahead of now.
            let ahead = (i as u64).wrapping_mul(7919) % 360_000;
            q.schedule(
                now + SimTime::from_micros(ahead),
                // The queue moves event bodies by value: any variant
                // costs what a delivery message costs.
                SimEvent::Deliver {
                    src: i,
                    dst: i + 1,
                    msg: black_box(HyperMsg::Ack { token: i as u64 }),
                },
            );
            let (at, ev) = q.pop().expect("queue holds the pre-filled timers");
            now = at;
            black_box(ev);
        })
    });
    rec.exit(s);

    let s = rec.enter("probe.simnet.topology");
    let topo = net.topology();
    p.topology_latency_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            let a = events[i % events.len()].node;
            let b = events[(i + 1) % events.len()].node;
            black_box(topo.latency(black_box(a), black_box(b)));
        })
    });
    rec.exit(s);

    // chord
    let s = rec.enter("probe.chord.next_hop");
    let states: Vec<ChordState> = net.nodes().iter().map(|n| n.chord().clone()).collect();
    let mut hops = 0usize;
    let mut lookups: Vec<(usize, u64)> = Vec::new();
    let mut rendezvous: Vec<usize> = Vec::with_capacity(events.len());
    for (e, &key) in events.iter().zip(&keys) {
        let path = route_path(&states, e.node, key);
        hops += path.len() - 1;
        rendezvous.push(*path.last().expect("a route starts somewhere"));
        lookups.extend(path.into_iter().map(|at| (at, key)));
    }
    p.hops_per_lookup = hops as f64 / events.len() as f64;
    p.next_hop_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            let (at, key) = lookups[i % lookups.len()];
            black_box(next_hop(&states[at], black_box(key)));
        })
    });
    rec.exit(s);

    let s = rec.enter("probe.chord.build_ring");
    let ring = RingConfig::default();
    p.build_ring_ms = fastest(3, |n| {
        timed(n, |_| {
            black_box(build_ring(&ring, topo.as_ref(), black_box(NETWORK_SEED)));
        })
    }) / 1e6;
    rec.exit(s);

    // lph
    let s = rec.enter("probe.lph");
    p.lph_point_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            black_box(lph_point(
                &cfg.zone,
                &ss.space,
                black_box(points[i % points.len()]),
            ));
        })
    });
    p.lph_rect_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            black_box(lph_rect(
                &cfg.zone,
                &ss.space,
                black_box(rects[i % rects.len()]),
            ));
        })
    });
    p.zone_key_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            let z = black_box(leaves[i % leaves.len()]);
            black_box(rotate_key(z.key(&cfg.zone), ss.rotation));
        })
    });
    rec.exit(s);

    // core.repo / core.index
    let s = rec.enter("probe.core.repo.match");
    let projs: Vec<Point> = points
        .iter()
        .map(|pt| scheme.project_point(0, pt))
        .collect();
    let mut replay = MatchReplay::new(net, &rendezvous, &leaves, &points, &projs);
    p.match_calls = replay.calls.len();
    p.candidates_per_match = ratio(replay.candidates as f64, replay.calls.len() as f64);
    p.useful_ratio = ratio(replay.matched as f64, replay.candidates as f64);
    if !replay.calls.is_empty() {
        p.match_ns = fastest(BATCHES, |n| {
            let MatchReplay { repos, calls, .. } = &mut replay;
            timed(n, |i| {
                let (e, r) = calls[i % calls.len()];
                black_box(repos[r].match_point(points[e], &projs[e], cfg.index_mode));
            })
        });
    }
    rec.exit(s);

    let s = rec.enter("probe.core.index");
    let entries: Vec<(SubId, Rect)> = {
        let mut v: Vec<_> = replay
            .largest()
            .entries
            .iter()
            .map(|(id, sub)| (*id, sub.proj().clone()))
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    };
    let build = || HybridIndex::build(entries.iter().map(|(id, r)| (id, r)));
    p.index_build_us = fastest(BATCHES, |n| {
        timed(n, |_| {
            black_box(build());
        })
    }) / 1e3;
    let built = build();
    let fresh = |i: usize| SubId {
        nid: u64::MAX - i as u64,
        iid: 1,
    };
    p.index_insert_ns = fastest(BATCHES, |n| {
        let mut ix = built.clone();
        timed(n, |i| {
            black_box(ix.insert(fresh(i), &entries[i % entries.len()].1));
        })
    });
    p.index_remove_ns = fastest(BATCHES, |n| {
        let mut ix = built.clone();
        for i in 0..n {
            ix.insert(fresh(i), &entries[i % entries.len()].1);
        }
        timed(n, |i| {
            black_box(ix.remove(&fresh(i)));
        })
    });
    rec.exit(s);

    // core.world: the publish path asks the oracle for the expected count
    let s = rec.enter("probe.core.world");
    let mut oracle = Oracle::default();
    for (i, sub) in inputs.subs.iter().enumerate() {
        oracle.add(0, fresh(i), sub.clone());
    }
    p.expected_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            black_box(oracle.expected_count(0, black_box(points[i % points.len()])));
        })
    });
    rec.exit(s);

    // core.msg / net: the live path's single-threaded costs
    let s = rec.enter("probe.core.msg");
    let msgs = [
        delivery_msg(points[0], counts.list_len_p50),
        delivery_msg(points[0], counts.list_len_p99),
    ];
    let wire: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_wire_bytes()).collect();
    p.wire_bytes_per_msg = wire.iter().map(|w| w.len() as f64).sum::<f64>() / wire.len() as f64;
    p.encode_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            black_box(black_box(&msgs[i % 2]).to_wire_bytes());
        })
    });
    p.decode_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            black_box(HyperMsg::from_wire_bytes(black_box(&wire[i % 2])).expect("own encoding"));
        })
    });
    rec.exit(s);

    let s = rec.enter("probe.net");
    let mut buf: Vec<u8> = Vec::new();
    p.frame_ns = fastest(BATCHES, |n| {
        timed(n, |i| {
            buf.clear();
            write_frame(&mut buf, black_box(&wire[i % 2])).expect("write to memory");
            black_box(read_frame(&mut &buf[..]).expect("read own frame"));
        })
    });
    p.wheel_ns = fastest(BATCHES, |n| {
        // A node holds a handful of timers (retries, leases, maintenance).
        let mut wheel = TimerWheel::default();
        for i in 0..64u64 {
            wheel.arm(SimTime::from_micros(1000 * i), i);
        }
        timed(n, |i| {
            let now = SimTime::from_micros(1000 * (64 + i as u64));
            wheel.arm(now, i as u64);
            black_box(wheel.pop_due(black_box(now)));
        })
    });
    rec.exit(s);

    // workload: generation is outside every timed batch; show it is cheap
    let s = rec.enter("probe.workload.gen");
    p.gen_event_ns = fastest(BATCHES, |n| {
        let mut gen = WorkloadGen::new(inputs.spec.clone(), seed);
        timed(n, |_| {
            black_box((
                gen.random_node(shape.nodes),
                gen.event_point(),
                gen.interarrival(),
            ));
        })
    });
    p.gen_sub_ns = fastest(BATCHES, |n| {
        let mut gen = WorkloadGen::new(inputs.spec.clone(), seed);
        timed(n, |_| {
            black_box(gen.subscription());
        })
    });
    rec.exit(s);

    let s = rec.enter("probe.bench.span");
    p.span_ns = fastest(BATCHES, |n| {
        let mut scratch = Recorder::new(true);
        timed(n, |_| {
            let open = scratch.enter("probe");
            scratch.exit(open);
        })
    });
    rec.exit(s);
    p
}
