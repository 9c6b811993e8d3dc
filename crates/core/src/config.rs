//! System configuration.

use hypersub_lph::ZoneParams;
use hypersub_simnet::SimTime;
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// Load-balancing configuration (§4, "Dynamic Subscriptions Migration").
#[derive(Debug, Clone)]
pub struct LbConfig {
    /// Master switch (the paper's "no LB" vs "LB" configurations).
    pub enabled: bool,
    /// Probe/evaluate period.
    pub period: SimTime,
    /// Threshold factor δ: a node is heavily loaded when its load exceeds
    /// the neighbor average by `(1 + delta)`.
    pub delta: f64,
    /// Probing level P_l: 1 probes neighbors, 2 also neighbors' neighbors.
    pub probe_level: u8,
    /// Maximum number of migration targets k chosen per round.
    pub max_targets: usize,
    /// Absolute load floor (scaled by node capacity) below which a node
    /// never considers itself overloaded — keeps the relative rule
    /// meaningful when neighbors are empty and avoids migration churn for
    /// trivially small loads.
    pub min_load: u64,
}
codec!(struct LbConfig {
    enabled,
    period,
    delta,
    probe_level,
    max_targets,
    min_load,
});

impl Default for LbConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            period: SimTime::from_secs(30),
            delta: 1.0,
            probe_level: 1,
            max_targets: 4,
            min_load: 8,
        }
    }
}

impl LbConfig {
    /// The paper's evaluated configuration: enabled, P_l = 1, δ = 1.0.
    pub fn paper_default() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Ack/retransmit configuration for request-shaped protocol steps
/// (registration, unsubscription, chain pushes, migration handoff,
/// delivery hops). Off by default: on an ideal network the fail-stop
/// `on_send_failed` path already covers dead destinations, and acks would
/// only add traffic. Enable it (`SystemConfig::with_retries`) when the
/// network can silently lose messages (fault injection).
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Timeout before the first retransmit; doubles per attempt.
    pub base_timeout: SimTime,
    /// Total transmission attempts (first send included) before giving up.
    pub max_attempts: u32,
}
codec!(struct RetryConfig { enabled, base_timeout, max_attempts });

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            base_timeout: SimTime::from_millis(250),
            max_attempts: 5,
        }
    }
}

/// Self-healing configuration (§4, "soft-state refresh" made decentralized):
/// successor replication of rendezvous state plus per-subscriber soft-state
/// leases. Off by default — when disabled, no lease timers are armed, no
/// replica messages are sent, and run digests are bit-identical to builds
/// that predate this subsystem.
#[derive(Debug, Clone)]
pub struct HealConfig {
    /// Master switch.
    pub enabled: bool,
    /// Number of successors each rendezvous node replicates its
    /// subscription entries to (`r`). `0` disables replication but keeps
    /// leases: lost state still regenerates, just no faster than one lease
    /// period.
    pub replication_factor: usize,
    /// Period of the per-subscriber lease timer. Each node re-pushes its
    /// own subscriptions (and re-derives its surrogate chains) every
    /// period; timers are staggered per node so refreshes do not
    /// synchronize.
    pub lease_period: SimTime,
}
codec!(struct HealConfig { enabled, replication_factor, lease_period });

impl Default for HealConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            replication_factor: 2,
            lease_period: SimTime::from_secs(5),
        }
    }
}

/// Whole-system configuration shared by every node.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Zone geometry (base β, zone bits). The paper's default is base 2
    /// with 20 zone bits ("Base 2, level 20").
    pub zone: ZoneParams,
    /// Load balancing settings.
    pub lb: LbConfig,
    /// Ack/retransmit settings.
    pub retry: RetryConfig,
    /// Self-healing (replication + leases) settings.
    pub heal: HealConfig,
    /// Whether repositories build the matching index (`Linear` is the
    /// differential oracle). Performance-only: both modes yield identical
    /// match sets and run digests. Deliberately *not* snapshot-encoded —
    /// a restored network reverts to the default mode, which cannot
    /// change results (see `core::index`).
    pub index_mode: crate::index::IndexMode,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            zone: ZoneParams::base2_level20(),
            lb: LbConfig::default(),
            retry: RetryConfig::default(),
            heal: HealConfig::default(),
            index_mode: crate::index::IndexMode::default(),
        }
    }
}

impl SystemConfig {
    /// Base 4 / level 10 variant (the paper's second configuration).
    pub fn base4() -> Self {
        Self {
            zone: ZoneParams::base4_level10(),
            ..Self::default()
        }
    }

    /// Enables load balancing with the paper's parameters.
    pub fn with_lb(mut self) -> Self {
        self.lb = LbConfig::paper_default();
        self
    }

    /// Enables ack + bounded-exponential-backoff retransmission for
    /// request-shaped protocol messages.
    pub fn with_retries(mut self) -> Self {
        self.retry.enabled = true;
        self
    }

    /// Enables the self-healing plane: successor replication of rendezvous
    /// state and per-subscriber soft-state leases, with the default
    /// replication factor and lease period.
    pub fn with_self_healing(mut self) -> Self {
        self.heal.enabled = true;
        self
    }

    /// Selects whether repositories index or scan.
    pub fn with_index_mode(mut self, mode: crate::index::IndexMode) -> Self {
        self.index_mode = mode;
        self
    }
}

// Hand-written codec: skips a field (`index_mode`).
impl Encode for SystemConfig {
    fn encode(&self, w: &mut Writer) {
        self.zone.encode(w);
        self.lb.encode(w);
        self.retry.encode(w);
        self.heal.encode(w);
        // `index_mode` is deliberately not encoded: it selects a
        // result-neutral cache structure (every mode produces identical
        // match sets), and keeping it out preserves snapshot-format
        // byte stability. Restored networks use the default mode.
    }
}

impl Decode for SystemConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(SystemConfig {
            zone: ZoneParams::decode(r)?,
            lb: LbConfig::decode(r)?,
            retry: RetryConfig::decode(r)?,
            heal: HealConfig::decode(r)?,
            index_mode: crate::index::IndexMode::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.zone.base(), 2);
        assert_eq!(c.zone.max_level(), 20);
        assert!(!c.lb.enabled);
        assert_eq!(c.lb.delta, 1.0);
        assert_eq!(c.lb.probe_level, 1);
    }

    #[test]
    fn base4_variant() {
        let c = SystemConfig::base4();
        assert_eq!(c.zone.base(), 4);
        assert_eq!(c.zone.max_level(), 10);
    }

    #[test]
    fn with_lb_enables() {
        assert!(SystemConfig::default().with_lb().lb.enabled);
    }

    #[test]
    fn self_healing_default_off_and_enable() {
        let c = SystemConfig::default();
        assert!(!c.heal.enabled);
        assert_eq!(c.heal.replication_factor, 2);
        assert_eq!(c.heal.lease_period, SimTime::from_secs(5));
        assert!(SystemConfig::default().with_self_healing().heal.enabled);
    }

    #[test]
    fn retries_default_off_and_enable() {
        let c = SystemConfig::default();
        assert!(!c.retry.enabled);
        assert_eq!(c.retry.max_attempts, 5);
        assert!(SystemConfig::default().with_retries().retry.enabled);
    }
}
