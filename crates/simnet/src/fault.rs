//! Deterministic fault injection.
//!
//! A [`FaultPlane`] sits between [`crate::Ctx::send`] and the event queue:
//! every unicast message (self-sends are exempt — they never touch the
//! network) is run through [`FaultPlane::judge`], which can drop it,
//! duplicate it, or stretch its latency. Three fault classes compose:
//!
//! * **Link policies** ([`LinkPolicy`]) — probabilistic loss, duplication
//!   and added delay/jitter, either globally or per directed link. A
//!   per-link policy fully replaces the global one for that link.
//! * **Partitions** ([`FaultPlane::add_partition`]) — timed node-set
//!   bisections: while `[from, until)` covers the current time, messages
//!   crossing the cut are silently dropped in both directions. Healing is
//!   implicit (the window ends); multiple overlapping windows compose as
//!   "dropped if any active partition separates the endpoints".
//! * **Policy windows** ([`FaultPlane::add_policy_window`]) — timed
//!   global-policy overrides: while `[from, until)` covers the current
//!   time, the window's policy replaces the steady-state global policy
//!   (per-link overrides still win). Overlapping windows resolve to the
//!   most recently added active one; zero-length windows are no-ops.
//!   This is how scenarios schedule fault/latency *phases* — a
//!   bufferbloat hour, a lossy afternoon — over one long run.
//! * **Silence** — all fault losses are *silent*: unlike fail-stop death
//!   of the destination, the sender gets no [`crate::Node::on_send_failed`]
//!   callback. Recovering from them is the protocol's job (acks/retries).
//!
//! Determinism: the plane owns its own `SmallRng`, seeded independently of
//! the engine's, so (a) the same `(seed, policy)` pair replays the exact
//! same fault schedule, and (b) installing a plane whose policies are all
//! zero leaves the engine's random stream — and therefore the whole run —
//! byte-identical to a run without one.

use crate::time::SimTime;
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Loss/duplication/delay knobs for one directed link (or the whole net).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a second copy of the message is
    /// delivered (after an independently jittered latency).
    pub dup_prob: f64,
    /// Fixed extra one-way delay added to every surviving message.
    pub extra_delay: SimTime,
    /// Upper bound of a uniform random extra delay in `[0, jitter)`,
    /// drawn independently per copy.
    pub jitter: SimTime,
}
codec!(struct LinkPolicy { drop_prob, dup_prob, extra_delay, jitter });

impl LinkPolicy {
    /// The do-nothing policy.
    pub const IDEAL: LinkPolicy = LinkPolicy {
        drop_prob: 0.0,
        dup_prob: 0.0,
        extra_delay: SimTime::ZERO,
        jitter: SimTime::ZERO,
    };

    /// Uniform-loss policy: drop with probability `p`, nothing else.
    pub fn loss(p: f64) -> Self {
        LinkPolicy {
            drop_prob: p,
            ..Self::IDEAL
        }
    }

    /// Duplication policy: duplicate with probability `p`, nothing else.
    pub fn duplication(p: f64) -> Self {
        LinkPolicy {
            dup_prob: p,
            ..Self::IDEAL
        }
    }

    /// Adds a duplication probability to this policy.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Adds a uniform random extra delay in `[0, jitter)` to this policy.
    pub fn with_jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }

    fn is_ideal(&self) -> bool {
        *self == Self::IDEAL
    }
}

/// A timed bisection of the node set.
#[derive(Debug, Clone)]
struct Partition {
    side_a: HashSet<usize>,
    from: SimTime,
    until: SimTime,
}
codec!(struct Partition { side_a, from, until });

impl Partition {
    fn separates(&self, src: usize, dst: usize, now: SimTime) -> bool {
        now >= self.from
            && now < self.until
            && (self.side_a.contains(&src) != self.side_a.contains(&dst))
    }
}

/// A timed override of the global link policy.
#[derive(Debug, Clone)]
struct PolicyWindow {
    policy: LinkPolicy,
    from: SimTime,
    until: SimTime,
}
codec!(struct PolicyWindow { policy, from, until });

impl PolicyWindow {
    fn active(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// What the plane decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver after `extra` additional delay; also deliver a duplicate
    /// copy after `dup_extra` if it is `Some`.
    Deliver {
        /// Extra delay for the primary copy.
        extra: SimTime,
        /// Extra delay for the duplicate copy, if one was injected.
        dup_extra: Option<SimTime>,
    },
    /// Silently dropped by probabilistic loss.
    DropLoss,
    /// Silently dropped because an active partition separates the nodes.
    DropPartition,
}

/// Deterministic fault-injection state, installed via
/// [`crate::Sim::install_fault_plane`].
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rng: SmallRng,
    global: LinkPolicy,
    links: HashMap<(usize, usize), LinkPolicy>,
    partitions: Vec<Partition>,
    windows: Vec<PolicyWindow>,
}

impl FaultPlane {
    /// A plane with no faults configured, drawing from its own stream
    /// seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            global: LinkPolicy::IDEAL,
            links: HashMap::new(),
            partitions: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Sets the policy applied to every link without a per-link override.
    pub fn set_global_policy(&mut self, policy: LinkPolicy) -> &mut Self {
        self.global = policy;
        self
    }

    /// Sets the policy for the directed link `src -> dst`, replacing the
    /// global policy on that link.
    pub fn set_link_policy(&mut self, src: usize, dst: usize, policy: LinkPolicy) -> &mut Self {
        self.links.insert((src, dst), policy);
        self
    }

    /// Schedules a partition: from `from` (inclusive) until `until`
    /// (exclusive), messages between `side_a` and its complement are
    /// dropped. The partition heals itself when the window closes.
    pub fn add_partition(
        &mut self,
        side_a: impl IntoIterator<Item = usize>,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from <= until, "partition window must not be inverted");
        self.partitions.push(Partition {
            side_a: side_a.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// Schedules a timed global-policy override: from `from` (inclusive)
    /// until `until` (exclusive), `policy` replaces the steady-state
    /// global policy on every link without a per-link override. When
    /// several windows cover the same instant, the most recently added
    /// one wins. A zero-length window (`from == until`) is a no-op.
    pub fn add_policy_window(
        &mut self,
        policy: LinkPolicy,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from <= until, "policy window must not be inverted");
        self.windows.push(PolicyWindow {
            policy,
            from,
            until,
        });
        self
    }

    /// True if some active partition separates `a` and `b` at `now`.
    pub fn is_partitioned(&self, a: usize, b: usize, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.separates(a, b, now))
    }

    /// Judges one message on `src -> dst` at time `now`.
    ///
    /// Partition checks precede probabilistic faults and draw no
    /// randomness; an ideal effective policy draws none either, so a
    /// fully-zero plane consumes no random numbers at all.
    pub fn judge(&mut self, src: usize, dst: usize, now: SimTime) -> Verdict {
        if self.is_partitioned(src, dst, now) {
            return Verdict::DropPartition;
        }
        let policy = match self.links.get(&(src, dst)) {
            Some(p) => *p,
            None => self.effective_global(now),
        };
        if policy.is_ideal() {
            return Verdict::Deliver {
                extra: SimTime::ZERO,
                dup_extra: None,
            };
        }
        if policy.drop_prob > 0.0 && self.rng.gen_bool(policy.drop_prob) {
            return Verdict::DropLoss;
        }
        let extra = policy.extra_delay + self.draw_jitter(policy.jitter);
        let dup_extra = if policy.dup_prob > 0.0 && self.rng.gen_bool(policy.dup_prob) {
            Some(policy.extra_delay + self.draw_jitter(policy.jitter))
        } else {
            None
        };
        Verdict::Deliver { extra, dup_extra }
    }

    /// The global policy in force at `now`: the most recently added
    /// active window, or the steady-state global policy when no window
    /// covers `now`. Pure — draws no randomness.
    pub fn effective_global(&self, now: SimTime) -> LinkPolicy {
        self.windows
            .iter()
            .rev()
            .find(|w| w.active(now))
            .map(|w| w.policy)
            .unwrap_or(self.global)
    }

    fn draw_jitter(&mut self, jitter: SimTime) -> SimTime {
        if jitter == SimTime::ZERO {
            SimTime::ZERO
        } else {
            SimTime(self.rng.gen_range(0..jitter.0))
        }
    }
}

// Hand-written codec: the RNG is rebuilt from its raw state. The
// partition *list* keeps its original order (`is_partitioned` uses `any`,
// so order only changes short-circuiting, but byte stability wants the
// insertion order preserved verbatim).
impl Encode for FaultPlane {
    fn encode(&self, w: &mut Writer) {
        self.rng.state().encode(w);
        self.global.encode(w);
        self.links.encode(w);
        self.partitions.encode(w);
        // Policy windows keep insertion order verbatim: "last added wins"
        // is part of the resolution semantics, not just byte stability.
        self.windows.encode(w);
    }
}

impl Decode for FaultPlane {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(FaultPlane {
            rng: SmallRng::from_state(<[u64; 4]>::decode(r)?),
            global: LinkPolicy::decode(r)?,
            links: Decode::decode(r)?,
            partitions: Vec::<Partition>::decode(r)?,
            windows: Vec::<PolicyWindow>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn ideal_plane_draws_nothing_and_delivers() {
        let mut fp = FaultPlane::new(42);
        let before = fp.rng.clone();
        for _ in 0..100 {
            assert_eq!(
                fp.judge(0, 1, T0),
                Verdict::Deliver {
                    extra: SimTime::ZERO,
                    dup_extra: None
                }
            );
        }
        assert_eq!(fp.rng, before, "ideal policy must not consume randomness");
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut fp = FaultPlane::new(1);
        fp.set_global_policy(LinkPolicy::loss(1.0));
        for _ in 0..50 {
            assert_eq!(fp.judge(0, 1, T0), Verdict::DropLoss);
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let mut fp = FaultPlane::new(7);
        fp.set_global_policy(LinkPolicy::loss(0.1));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| fp.judge(0, 1, T0) == Verdict::DropLoss)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "observed loss {rate}");
    }

    #[test]
    fn duplication_injects_second_copy() {
        let mut fp = FaultPlane::new(3);
        fp.set_global_policy(LinkPolicy::duplication(1.0));
        match fp.judge(0, 1, T0) {
            Verdict::Deliver {
                dup_extra: Some(_), ..
            } => {}
            v => panic!("expected duplicate, got {v:?}"),
        }
    }

    #[test]
    fn per_link_policy_overrides_global() {
        let mut fp = FaultPlane::new(5);
        fp.set_global_policy(LinkPolicy::loss(1.0));
        fp.set_link_policy(2, 3, LinkPolicy::IDEAL);
        assert_eq!(fp.judge(0, 1, T0), Verdict::DropLoss);
        assert_eq!(
            fp.judge(2, 3, T0),
            Verdict::Deliver {
                extra: SimTime::ZERO,
                dup_extra: None
            }
        );
        // Directed: the reverse link still uses the global policy.
        assert_eq!(fp.judge(3, 2, T0), Verdict::DropLoss);
    }

    #[test]
    fn extra_delay_and_jitter_stretch_latency() {
        let mut fp = FaultPlane::new(9);
        fp.set_global_policy(LinkPolicy {
            drop_prob: 0.0,
            dup_prob: 0.0,
            extra_delay: SimTime::from_millis(5),
            jitter: SimTime::from_millis(10),
        });
        for _ in 0..100 {
            match fp.judge(0, 1, T0) {
                Verdict::Deliver { extra, .. } => {
                    assert!(extra >= SimTime::from_millis(5));
                    assert!(extra < SimTime::from_millis(15));
                }
                v => panic!("unexpected {v:?}"),
            }
        }
    }

    #[test]
    fn partition_window_separates_then_heals() {
        let mut fp = FaultPlane::new(11);
        fp.add_partition([0, 1], SimTime::from_millis(100), SimTime::from_millis(200));
        // Before the window: connected.
        assert!(!fp.is_partitioned(0, 2, SimTime::from_millis(50)));
        // During: cross-cut separated, same-side connected.
        let mid = SimTime::from_millis(150);
        assert!(fp.is_partitioned(0, 2, mid));
        assert!(fp.is_partitioned(2, 1, mid));
        assert!(!fp.is_partitioned(0, 1, mid));
        assert!(!fp.is_partitioned(2, 3, mid));
        assert_eq!(fp.judge(0, 2, mid), Verdict::DropPartition);
        // After: healed.
        assert!(!fp.is_partitioned(0, 2, SimTime::from_millis(200)));
    }

    #[test]
    fn snapshot_resumes_fault_schedule_mid_stream() {
        let mut fp = FaultPlane::new(77);
        fp.set_global_policy(LinkPolicy {
            drop_prob: 0.3,
            dup_prob: 0.2,
            extra_delay: SimTime::from_millis(1),
            jitter: SimTime::from_millis(3),
        });
        fp.set_link_policy(1, 2, LinkPolicy::IDEAL);
        fp.add_partition([0, 1], SimTime::from_millis(5), SimTime::from_millis(9));
        fp.add_policy_window(
            LinkPolicy::loss(0.9),
            SimTime::from_millis(2),
            SimTime::from_millis(7),
        );
        for i in 0..100 {
            fp.judge(i % 8, (i + 1) % 8, T0);
        }
        let mut w = Writer::new();
        fp.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let mut back = FaultPlane::decode(&mut r).unwrap();
        r.finish().unwrap();
        let tail: Vec<Verdict> = (0..200).map(|i| fp.judge(i % 8, (i + 3) % 8, T0)).collect();
        let tail2: Vec<Verdict> = (0..200)
            .map(|i| back.judge(i % 8, (i + 3) % 8, T0))
            .collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn zero_length_partition_is_a_noop() {
        let mut fp = FaultPlane::new(13);
        let t = SimTime::from_millis(100);
        fp.add_partition([0, 1], t, t);
        // Never active — not even at the shared boundary instant.
        for ms in [99, 100, 101] {
            assert!(!fp.is_partitioned(0, 2, SimTime::from_millis(ms)));
            assert_eq!(
                fp.judge(0, 2, SimTime::from_millis(ms)),
                Verdict::Deliver {
                    extra: SimTime::ZERO,
                    dup_extra: None
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not be inverted")]
    fn inverted_partition_window_panics() {
        let mut fp = FaultPlane::new(13);
        fp.add_partition([0], SimTime::from_millis(2), SimTime::from_millis(1));
    }

    #[test]
    fn overlapping_partitions_drop_if_any_cut_separates() {
        let mut fp = FaultPlane::new(17);
        // Two overlapping windows with different sides: {0,1} cut during
        // [100, 300), {1,2} cut during [200, 400).
        fp.add_partition([0, 1], SimTime::from_millis(100), SimTime::from_millis(300));
        fp.add_partition([1, 2], SimTime::from_millis(200), SimTime::from_millis(400));
        let at = SimTime::from_millis;
        // Only the first cut active: 0-3 separated, 2-3 connected.
        assert!(fp.is_partitioned(0, 3, at(150)));
        assert!(!fp.is_partitioned(2, 3, at(150)));
        // Overlap region: both cuts active. 2-3 now separated by the
        // second cut even though the first keeps them on the same side,
        // and 0-1 (same side of the first cut) is split by the second.
        assert!(fp.is_partitioned(2, 3, at(250)));
        assert!(fp.is_partitioned(0, 1, at(250)));
        assert!(fp.is_partitioned(0, 3, at(250)));
        // First window healed, second still cutting.
        assert!(!fp.is_partitioned(0, 3, at(350)));
        assert!(fp.is_partitioned(1, 3, at(350)));
        // Both healed.
        assert!(!fp.is_partitioned(1, 3, at(400)));
        assert!(!fp.is_partitioned(2, 3, at(400)));
    }

    #[test]
    fn partition_boundaries_are_half_open() {
        let mut fp = FaultPlane::new(19);
        fp.add_partition([0], SimTime::from_millis(100), SimTime::from_millis(200));
        assert!(!fp.is_partitioned(0, 1, SimTime::from_millis(99)));
        assert!(
            fp.is_partitioned(0, 1, SimTime::from_millis(100)),
            "inclusive at from"
        );
        assert!(fp.is_partitioned(0, 1, SimTime::from_millis(199)));
        assert!(
            !fp.is_partitioned(0, 1, SimTime::from_millis(200)),
            "exclusive at until"
        );
    }

    #[test]
    fn policy_window_applies_only_inside_half_open_window() {
        let mut fp = FaultPlane::new(23);
        fp.add_policy_window(
            LinkPolicy::loss(1.0),
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        );
        let before = fp.rng.clone();
        // Outside the window the plane is ideal and draws nothing —
        // including at the exclusive `until` tick.
        for ms in [0, 99, 200, 500] {
            assert_eq!(
                fp.judge(0, 1, SimTime::from_millis(ms)),
                Verdict::Deliver {
                    extra: SimTime::ZERO,
                    dup_extra: None
                }
            );
        }
        assert_eq!(
            fp.rng, before,
            "inactive window must not consume randomness"
        );
        // Inside — including the inclusive `from` tick — the override rules.
        for ms in [100, 150, 199] {
            assert_eq!(fp.judge(0, 1, SimTime::from_millis(ms)), Verdict::DropLoss);
        }
    }

    #[test]
    fn zero_length_policy_window_is_a_noop() {
        let mut fp = FaultPlane::new(29);
        let t = SimTime::from_millis(50);
        fp.add_policy_window(LinkPolicy::loss(1.0), t, t);
        for ms in [49, 50, 51] {
            assert_eq!(
                fp.judge(0, 1, SimTime::from_millis(ms)),
                Verdict::Deliver {
                    extra: SimTime::ZERO,
                    dup_extra: None
                }
            );
        }
    }

    #[test]
    fn overlapping_policy_windows_resolve_to_last_added() {
        let mut fp = FaultPlane::new(31);
        fp.set_global_policy(LinkPolicy::loss(1.0));
        fp.add_policy_window(
            LinkPolicy::IDEAL,
            SimTime::from_millis(0),
            SimTime::from_millis(300),
        );
        fp.add_policy_window(
            LinkPolicy {
                drop_prob: 0.0,
                dup_prob: 0.0,
                extra_delay: SimTime::from_millis(7),
                jitter: SimTime::ZERO,
            },
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        );
        // [0, 100): first window overrides the lossy global — ideal.
        assert_eq!(
            fp.judge(0, 1, SimTime::from_millis(50)),
            Verdict::Deliver {
                extra: SimTime::ZERO,
                dup_extra: None
            }
        );
        // [100, 200): both active, the later-added delay window wins.
        assert_eq!(
            fp.judge(0, 1, SimTime::from_millis(150)),
            Verdict::Deliver {
                extra: SimTime::from_millis(7),
                dup_extra: None
            }
        );
        // [200, 300): back to the first window.
        assert_eq!(
            fp.judge(0, 1, SimTime::from_millis(250)),
            Verdict::Deliver {
                extra: SimTime::ZERO,
                dup_extra: None
            }
        );
        // [300, ...): the steady-state global policy resumes.
        assert_eq!(fp.judge(0, 1, SimTime::from_millis(300)), Verdict::DropLoss);
    }

    #[test]
    fn per_link_policy_still_overrides_active_window() {
        let mut fp = FaultPlane::new(37);
        fp.set_link_policy(2, 3, LinkPolicy::IDEAL);
        fp.add_policy_window(LinkPolicy::loss(1.0), SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(fp.judge(0, 1, SimTime::from_secs(1)), Verdict::DropLoss);
        assert_eq!(
            fp.judge(2, 3, SimTime::from_secs(1)),
            Verdict::Deliver {
                extra: SimTime::ZERO,
                dup_extra: None
            }
        );
    }

    #[test]
    fn window_jitter_draws_only_inside_window_even_at_tick_boundaries() {
        let jittery = LinkPolicy {
            drop_prob: 0.0,
            dup_prob: 0.0,
            extra_delay: SimTime::from_millis(5),
            jitter: SimTime::from_millis(10),
        };
        let mut fp = FaultPlane::new(41);
        fp.add_policy_window(
            jittery,
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        );
        // Judging at `until` and beyond draws nothing, so a run that only
        // touches the boundary stays byte-identical to a windowless one.
        let before = fp.rng.clone();
        fp.judge(0, 1, SimTime::from_millis(200));
        fp.judge(0, 1, SimTime::from_millis(99));
        assert_eq!(fp.rng, before);
        // At exactly `from` (and up to the last covered tick) the jitter
        // draw happens and stays within [extra_delay, extra_delay+jitter).
        for ms in [100, 199] {
            match fp.judge(0, 1, SimTime::from_millis(ms)) {
                Verdict::Deliver { extra, .. } => {
                    assert!(extra >= SimTime::from_millis(5));
                    assert!(extra < SimTime::from_millis(15));
                }
                v => panic!("unexpected {v:?}"),
            }
        }
        assert_ne!(fp.rng, before, "active window must consume randomness");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut fp = FaultPlane::new(seed);
            fp.set_global_policy(LinkPolicy {
                drop_prob: 0.3,
                dup_prob: 0.2,
                extra_delay: SimTime::ZERO,
                jitter: SimTime::from_millis(3),
            });
            (0..200)
                .map(|i| fp.judge(i % 8, (i + 1) % 8, T0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
