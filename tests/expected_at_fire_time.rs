//! What a published event's `expected` means: the number of
//! subscriptions that match it at the moment it fires. A publication
//! scheduled ahead of time must count the subscriptions made and
//! cancelled while it waits, on HyperSub and on a rival node type alike,
//! and a checkpoint taken while it waits must not change the count.

use hypersub_baselines::gossip::GossipNode;
use hypersub_core::prelude::*;

const NODES: usize = 12;

fn registry() -> Registry {
    Registry::new(vec![SchemeDef::builder("t")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0)])
}

fn builder() -> NetworkBuilder {
    Network::builder(NODES).registry(registry()).seed(17)
}

/// A vertical band per node; node `i`'s covers `x` in `[8i, 8i + 10]`.
fn band(i: usize) -> Subscription {
    let lo = i as f64 * 8.0;
    Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]))
}

fn whole_domain() -> Subscription {
    Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]))
}

/// Every point lies in node 4's band (`x` in `[32, 42]`).
fn points() -> Vec<Point> {
    [(33.0, 10.0), (36.5, 50.0), (41.0, 90.0)]
        .into_iter()
        .map(|(x, y)| Point(vec![x, y]))
        .collect()
}

/// Subscribes a band on every node and lets the installs settle.
fn subscribed<N: PubSubNode>(net: &mut Net<N>) -> Vec<SubId> {
    let ids = (0..NODES).map(|i| net.subscribe(i, 0, band(i))).collect();
    net.run_to_quiescence();
    ids
}

/// Schedules one publication per point, one second apart, and returns
/// each event's id with the count of matching subscriptions right now.
fn schedule<N: PubSubNode>(net: &mut Net<N>) -> Vec<(u64, usize)> {
    let mut at = net.time();
    points()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            at += SimTime::from_secs(1);
            let now = net.expected_matches(0, &p).len();
            (net.schedule_publish(at, i * 5 % NODES, 0, p).unwrap(), now)
        })
        .collect()
}

/// Each event's `expected` is the count after the mutations — `gained`
/// more than at scheduling — and every match was delivered once.
fn assert_counted_at_fire_time<N: PubSubNode>(
    net: &Net<N>,
    scheduled: &[(u64, usize)],
    gained: usize,
) {
    let stats = net.event_stats();
    assert_eq!(stats.len(), scheduled.len());
    for (&(event, at_schedule), p) in scheduled.iter().zip(points()) {
        let s = stats.iter().find(|s| s.event == event).unwrap();
        assert_eq!(
            s.expected,
            net.expected_matches(0, &p).len(),
            "event {event}"
        );
        assert_eq!(s.expected, at_schedule + gained, "event {event}");
        assert_eq!(s.delivered, s.expected, "event {event}");
        assert_eq!(s.duplicates, 0, "event {event}");
    }
}

/// Subscribes the whole domain on nodes 0 and 7 and cancels node 4's
/// band: every pending event gains two matches and loses one.
fn mutate(net: &mut Network, ids: &[SubId]) {
    net.subscribe(0, 0, whole_domain());
    net.subscribe(7, 0, whole_domain());
    net.unsubscribe(4, ids[4]).unwrap();
}

#[test]
fn hypersub_counts_subscriptions_made_and_cancelled_while_an_event_waits() {
    let mut net = builder().build().unwrap();
    let ids = subscribed(&mut net);
    let scheduled = schedule(&mut net);
    mutate(&mut net, &ids);
    net.run_to_quiescence();
    assert_counted_at_fire_time(&net, &scheduled, 1);
}

#[test]
fn a_rival_counts_subscriptions_made_while_an_event_waits() {
    let mut net = builder().build_with(GossipNode::new).unwrap();
    subscribed(&mut net);
    let scheduled = schedule(&mut net);
    net.subscribe(0, 0, whole_domain());
    net.subscribe(7, 0, whole_domain());
    net.run_to_quiescence();
    assert_counted_at_fire_time(&net, &scheduled, 2);
}

#[test]
fn a_checkpoint_taken_while_events_wait_keeps_their_counts() {
    let mut straight = builder().build().unwrap();
    let ids = subscribed(&mut straight);
    let scheduled = schedule(&mut straight);
    mutate(&mut straight, &ids);
    straight.run_to_quiescence();
    assert_counted_at_fire_time(&straight, &scheduled, 1);

    let mut first = builder().build().unwrap();
    subscribed(&mut first);
    schedule(&mut first);
    let bytes = first.snapshot();
    drop(first);
    let mut resumed = Network::restore(&bytes).unwrap();
    mutate(&mut resumed, &ids);
    resumed.run_to_quiescence();
    assert_eq!(resumed.event_stats(), straight.event_stats());
    assert_eq!(resumed.run_digest(), straight.run_digest());
}
