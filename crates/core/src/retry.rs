//! Ack + bounded-exponential-backoff retransmission for request-shaped
//! protocol messages.
//!
//! The fail-stop path (`on_send_failed`) only covers *dead destinations*;
//! a lossy network (see `hypersub-simnet`'s fault plane) loses messages
//! silently. This layer makes the request-shaped steps — subscription
//! registration (Algorithm 2), unsubscription, summary-filter chain
//! pushes (Algorithm 3), event-delivery hops (Algorithm 5) and the load
//! balancer's migration handoff (§4) — survive such loss:
//!
//! * The sender wraps the message in [`HyperMsg::Reliable`] with a
//!   sender-unique token, remembers it in [`RelState::pending`], and arms
//!   a retransmit timer. Unacked messages are re-sent with the timeout
//!   doubling each attempt, up to `retry.max_attempts` transmissions.
//! * The receiver acks every `Reliable` it sees, but *processes* each
//!   `(sender, token)` at most once ([`RelState::seen`]) — so
//!   retransmissions (and fault-plane duplicates) are exactly-once even
//!   for handlers that are not idempotent, like migration acceptance.
//! * Periodic traffic (load probes, Chord maintenance) is *not*
//!   protected: it re-sends itself every period by construction, and the
//!   Chord layer tolerates missed rounds via its strike counter.
//!
//! Give-up is explicit: registrations are re-established by soft-state
//! refresh, deliveries accept the residual loss (bounded by
//! `loss^max_attempts` per hop), and an abandoned migration offer clears
//! its bookkeeping exactly like a dead-acceptor abort.

use crate::msg::HyperMsg;
use crate::node::{Cx, DedupCache, HyperSubNode, TOKEN_RETRY_BASE};
use hypersub_simnet::{FxHashMap, ProtoEvent, SimTime};
use hypersub_snapshot::codec;

/// One unacked reliable transmission.
#[derive(Debug, Clone)]
pub struct PendingSend {
    /// Destination node index.
    pub dst: usize,
    /// The unwrapped message (re-wrapped with the same token on re-send).
    pub msg: HyperMsg,
    /// Transmissions so far (first send counts).
    pub attempts: u32,
    /// When the first transmission left (ack latency is measured from
    /// here, spanning any retransmissions in between).
    pub sent_at: SimTime,
}
codec!(struct PendingSend { dst, msg, attempts, sent_at });

/// Per-node reliable-transmission state.
#[derive(Debug, Clone)]
pub struct RelState {
    /// Outstanding sends by token. Keyed lookups only (never iterated),
    /// so the fixed-seed fast hasher is safe.
    pub pending: FxHashMap<u64, PendingSend>,
    /// `(token, sender)` pairs already processed — dedups retransmissions
    /// and fault-injected duplicates.
    pub seen: DedupCache,
    next_token: u64,
}
codec!(struct RelState { pending, seen, next_token });

impl Default for RelState {
    fn default() -> Self {
        Self {
            pending: FxHashMap::default(),
            seen: DedupCache::default(),
            next_token: 1,
        }
    }
}

impl RelState {
    /// Whether nothing was ever sent or received reliably.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.seen == DedupCache::default() && self.next_token == 1
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }
}

impl HyperSubNode {
    /// Sends `msg` to `dst` with ack/retransmit protection when retries
    /// are enabled; plain send otherwise (and always for self-sends,
    /// which cannot be lost).
    pub(crate) fn send_reliable(&mut self, ctx: &mut Cx<'_>, dst: usize, msg: HyperMsg) {
        if !self.cfg.retry.enabled || dst == ctx.me() {
            ctx.send(dst, msg);
            return;
        }
        let rel = &mut self.planes_mut().rel;
        let token = rel.alloc_token();
        rel.pending.insert(
            token,
            PendingSend {
                dst,
                msg: msg.clone(),
                attempts: 1,
                sent_at: ctx.now(),
            },
        );
        ctx.send(
            dst,
            HyperMsg::Reliable {
                token,
                inner: Box::new(msg),
            },
        );
        ctx.set_timer(self.cfg.retry.base_timeout, TOKEN_RETRY_BASE + token);
    }

    /// Receiver side: ack the transmission, then process the payload
    /// exactly once per `(sender, token)`.
    pub(crate) fn handle_reliable(
        &mut self,
        ctx: &mut Cx<'_>,
        from: usize,
        token: u64,
        inner: HyperMsg,
    ) {
        ctx.send(from, HyperMsg::Ack { token });
        // The dedup cache stores (u64, u32) pairs; node indices fit u32.
        if self
            .planes_mut()
            .rel
            .seen
            .insert((token, from as u32), ctx.now())
        {
            use hypersub_simnet::Node;
            self.on_message(ctx, from, inner);
        }
    }

    /// Sender side: the destination confirmed receipt.
    pub(crate) fn handle_ack(&mut self, ctx: &mut Cx<'_>, token: u64) {
        let planes = self.planes.as_deref_mut();
        if let Some(p) = planes.and_then(|planes| planes.rel.pending.remove(&token)) {
            let latency = ctx.now().saturating_sub(p.sent_at);
            let me = ctx.me();
            let m = &mut ctx.world().metrics.proto;
            m.acks.inc(me);
            m.ack_latency_us.observe(latency.as_micros());
            ctx.trace(|| ProtoEvent {
                kind: "retry.ack",
                flow: None,
                a: token,
                b: latency.as_micros(),
            });
        }
    }

    /// Retransmit-timer expiry for `token`: re-send with doubled timeout,
    /// or give up after the configured attempts.
    pub(crate) fn retry_fire(&mut self, ctx: &mut Cx<'_>, token: u64) {
        let planes = self.planes.as_deref_mut();
        let Some(p) = planes.and_then(|planes| planes.rel.pending.get_mut(&token)) else {
            return; // acked (or resolved via SendFailed) in the meantime
        };
        if p.attempts >= self.cfg.retry.max_attempts {
            let p = self
                .planes_mut()
                .rel
                .pending
                .remove(&token)
                .expect("present");
            self.give_up(ctx, p, token);
            return;
        }
        p.attempts += 1;
        let exponent = p.attempts - 1; // 2nd transmission waits 2x base, ...
        let attempts = p.attempts;
        let dst = p.dst;
        let msg = p.msg.clone();
        let me = ctx.me();
        ctx.world().metrics.proto.retry_attempts.inc(me);
        ctx.trace(|| ProtoEvent {
            kind: "retry.xmit",
            flow: None,
            a: token,
            b: attempts as u64,
        });
        ctx.send(
            dst,
            HyperMsg::Reliable {
                token,
                inner: Box::new(msg),
            },
        );
        let timeout = SimTime::from_micros(
            self.cfg
                .retry
                .base_timeout
                .as_micros()
                .saturating_mul(1u64 << exponent.min(32)),
        );
        ctx.set_timer(timeout, TOKEN_RETRY_BASE + token);
    }

    /// All retransmissions exhausted without an ack.
    fn give_up(&mut self, ctx: &mut Cx<'_>, p: PendingSend, token: u64) {
        let me = ctx.me();
        ctx.world().metrics.proto.retry_give_ups.inc(me);
        ctx.trace(|| ProtoEvent {
            kind: "retry.give_up",
            flow: None,
            a: token,
            b: p.attempts as u64,
        });
        if let HyperMsg::Migrate { batches, .. } = &p.msg {
            self.planes_mut().lb.abort_offer(p.dst, batches);
        }
        // A silent host (dead but never fail-stop-detected, e.g. behind a
        // partition) holding subscriptions we migrated to it: re-home them
        // (no-op unless self-healing is on).
        self.heal_on_peer_dead(ctx, p.dst);
        // Registrations: the soft-state lease re-installs. Deliveries: the
        // residual loss after max_attempts is the accepted failure floor.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_unique_and_dense() {
        let mut r = RelState::default();
        assert_eq!(r.alloc_token(), 1);
        assert_eq!(r.alloc_token(), 2);
        assert_eq!(r.alloc_token(), 3);
    }
}
