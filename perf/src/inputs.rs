//! Everything a run feeds the program, generated once from `--seed`.

use crate::shape::Shape;
use hypersub_core::model::Subscription;
use hypersub_lph::Point;
use hypersub_simnet::SimTime;
use hypersub_workload::{WorkloadGen, WorkloadSpec};

/// One scheduled publication.
#[derive(Debug, Clone)]
pub struct PubEvent {
    pub node: usize,
    pub point: Point,
    /// Gap to the next publication of the same batch.
    pub gap: SimTime,
}

/// One subscription replacement: the live subscription at `pos` (an index
/// into the node-major list of live subscriptions) is cancelled and `sub`
/// installed at the same node.
#[derive(Debug, Clone)]
pub struct Replace {
    pub pos: usize,
    pub sub: Subscription,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub spec: WorkloadSpec,
    /// Initial subscriptions; `Shape::subscriber` says which node makes each.
    pub subs: Vec<Subscription>,
    /// The warm-up batch first, then `rounds` batches of `batch_events`.
    pub events: Vec<PubEvent>,
    /// Per round, the replacements made after that round's publish batch.
    pub churn: Vec<Vec<Replace>>,
}

/// The generator's seed for a network seed — `hotpath`'s pairing, which
/// `selftest` depends on.
fn gen_seed(seed: u64) -> u64 {
    seed ^ 0xabcd
}

impl Inputs {
    /// Draws in `hotpath`'s order (subscriptions node by node, then per
    /// event publisher, point, gap) so the pinned recipe comes out
    /// bit-identical; replacements are drawn last.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let spec = shape.spec();
        let mut gen = WorkloadGen::new(spec.clone(), gen_seed(seed));
        let subs = (0..shape.subs).map(|_| gen.subscription()).collect();
        let events = (0..shape.warmup_events + shape.timed_events())
            .map(|_| PubEvent {
                node: gen.random_node(shape.nodes),
                point: gen.event_point(),
                gap: gen.interarrival(),
            })
            .collect();
        let per_round = shape.churn_per_round();
        let churn = (0..shape.rounds)
            .map(|_| {
                let mut taken = vec![false; shape.subs];
                (0..per_round)
                    .map(|_| {
                        let pos = loop {
                            let p = gen.random_node(shape.subs);
                            if !std::mem::replace(&mut taken[p], true) {
                                break p;
                            }
                        };
                        Replace {
                            pos,
                            sub: gen.subscription(),
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            spec,
            subs,
            events,
            churn,
        }
    }

    /// The events of timed batch `b` (`None` = the warm-up batch).
    pub fn batch(&self, shape: &Shape, b: Option<usize>) -> &[PubEvent] {
        match b {
            None => &self.events[..shape.warmup_events],
            Some(b) => {
                &self.events[shape.warmup_events + b * shape.batch_events..][..shape.batch_events]
            }
        }
    }

    /// The events of all timed batches.
    pub fn timed(&self, shape: &Shape) -> &[PubEvent] {
        &self.events[shape.warmup_events..]
    }
}
