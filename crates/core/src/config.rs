//! System configuration.

use hypersub_lph::ZoneParams;
use hypersub_simnet::SimTime;
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// Load-balancing configuration (§4, "Dynamic Subscriptions Migration").
/// The paper's probing level P_l and threshold δ, the target count and
/// the load floor are constants in [`crate::loadbal`].
#[derive(Debug, Clone)]
pub struct LbConfig {
    /// Master switch (the paper's "no LB" vs "LB" configurations).
    pub enabled: bool,
    /// Probe/evaluate period.
    pub period: SimTime,
}
codec!(struct LbConfig { enabled, period });

impl Default for LbConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            period: SimTime::from_secs(30),
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
    /// Total transmission attempts (first send included) before giving
    /// up; at most 8, so the last leaves within the visit-once window.
    pub max_attempts: u32,
}
codec!(struct RetryConfig { enabled, max_attempts });

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            max_attempts: 5,
        }
    }
}

/// Self-healing configuration (§4, "soft-state refresh" made decentralized):
/// successor replication of rendezvous state plus per-subscriber soft-state
/// leases, with [`crate::heal::REPLICATION_FACTOR`] replicas and a
/// [`crate::heal::LEASE_PERIOD`] lease. Off by default — when disabled, no
/// lease timers are armed, no replica messages are sent, and run digests
/// are bit-identical to builds that predate this subsystem.
#[derive(Debug, Clone, Default)]
pub struct HealConfig {
    /// Master switch.
    pub enabled: bool,
}
codec!(struct HealConfig { enabled });

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
        self.lb.enabled = true;
        self
    }

    /// Enables ack + bounded-exponential-backoff retransmission for
    /// request-shaped protocol messages.
    pub fn with_retries(mut self) -> Self {
        self.retry.enabled = true;
        self
    }

    /// Enables the self-healing plane: successor replication of rendezvous
    /// state and per-subscriber soft-state leases.
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
