//! Fleet-level serving configuration: replica counts, request routing, and
//! the prefill/decode pool split.
//!
//! One schedule describes one pipeline replica. Serving heavy traffic means
//! running *N* replicas of that pipeline behind a router — the decisions
//! studied by the cluster-provisioning literature (DistServe, Splitwise):
//! how many replicas does an SLO at a target rate require, and which routing
//! policy spreads the load best? A [`FleetConfig`] captures both knobs so
//! the cluster simulation in `rago-serving-sim` and the capacity planner in
//! `rago-core` can share one description.
//!
//! A fleet may additionally be *disaggregated*: its `replicas` and `router`
//! then describe a Prefill pool that runs the pre-decode stages and hands
//! each request's KV state to a Decode pool ([`FleetConfig::decode`], a
//! [`PoolSpec`]) over an interconnect priced by a [`KvTransferModel`]. A
//! flat fleet has no decode pool, and its replicas are labelled Monolithic.

use crate::error::SchemaError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How arriving requests are routed across the replicas of a fleet.
///
/// Policies are evaluated at each request's arrival instant against the live
/// state of every replica simulation; ties always break toward the
/// lowest-indexed replica, keeping fleet runs deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cycle through replicas in index order, ignoring load. The baseline
    /// policy: perfectly fair in counts, oblivious to request-size skew.
    RoundRobin,
    /// Route to the replica with the fewest outstanding requests (arrived
    /// but not yet fully decoded).
    #[default]
    LeastOutstanding,
    /// Route to the replica with the shortest wait queue (requests queued
    /// before a pre-decode stage or for decode admission, excluding those in
    /// service).
    JoinShortestQueue,
    /// Route to the replica whose continuous-batching decode has the lowest
    /// fill fraction (resident sequences over slot capacity), falling back
    /// to least-outstanding on ties. Decode residency is the long-lived
    /// resource in LLM serving, so balancing it directly protects TPOT.
    DecodeFillAware,
    /// Route by the request's shared-prefix/template id via rendezvous
    /// hashing over the replicas' *stable* slot ids — a static partition
    /// of the template space, so each template's prefix-KV state
    /// concentrates on one replica, and an autoscaler scale event re-homes
    /// only the templates touching the added/removed replica. Identity-free
    /// requests fall back to least-outstanding. Oblivious to load: a hot
    /// template hot-spots its home replica.
    PrefixHash,
    /// Route to the replica whose *live* prefix-KV cache currently owns the
    /// request's template (least-outstanding among several owners); when no
    /// replica owns it, fall back to the template's hash home so residency
    /// builds in one place. Identity-free requests fall back to
    /// least-outstanding. This is the state-aware refinement of
    /// [`RouterPolicy::PrefixHash`]: it follows evictions and newly warmed
    /// replicas instead of a fixed partition.
    CacheAffinity,
}

impl RouterPolicy {
    /// Every policy, in a stable order (useful for sweeps and benches).
    pub const ALL: [RouterPolicy; 6] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::DecodeFillAware,
        RouterPolicy::PrefixHash,
        RouterPolicy::CacheAffinity,
    ];
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::DecodeFillAware => "decode-fill-aware",
            RouterPolicy::PrefixHash => "prefix-hash",
            RouterPolicy::CacheAffinity => "cache-affinity",
        };
        f.write_str(name)
    }
}

/// The phase a replica pool serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PoolRole {
    /// The classic collocated replica: every request runs its full
    /// pre-decode pipeline *and* decode on the same replica.
    #[default]
    Monolithic,
    /// Prefill-only replicas: requests run the pre-decode stages (encode …
    /// prefix) and then hand their KV state to a Decode pool.
    Prefill,
    /// Decode-only replicas: requests arrive with prefilled KV state (after
    /// the cross-pool transfer) and run continuous-batching decode.
    Decode,
}

impl fmt::Display for PoolRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolRole::Monolithic => "monolithic",
            PoolRole::Prefill => "prefill",
            PoolRole::Decode => "decode",
        })
    }
}

/// The decode pool of a disaggregated fleet: its replica count and the
/// router that dispatches transfer completions across it.
///
/// # Examples
///
/// ```
/// use rago_schema::{PoolSpec, RouterPolicy};
///
/// let pool = PoolSpec::new(3, RouterPolicy::CacheAffinity);
/// assert!(pool.validate().is_ok());
/// assert!(PoolSpec::new(0, RouterPolicy::RoundRobin).validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Number of replicas in the pool (at least 1).
    pub replicas: u32,
    /// Intra-pool routing policy dispatching requests across the pool's
    /// replicas.
    pub router: RouterPolicy,
}

impl PoolSpec {
    /// Creates a pool.
    pub fn new(replicas: u32, router: RouterPolicy) -> Self {
        Self { replicas, router }
    }

    /// Validates the pool.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Invalid`] when the pool has zero replicas.
    pub fn validate(&self) -> Result<(), SchemaError> {
        if self.replicas == 0 {
            return Err(SchemaError::Invalid {
                field: "pool.replicas",
                reason: "a pool needs at least one replica".into(),
            });
        }
        Ok(())
    }
}

/// Prices the prefill→decode KV-cache handoff of a disaggregated fleet.
///
/// Transferred bytes scale with the request's prefix length
/// (`prefix_tokens × kv_bytes_per_token`); latency is a fixed overhead plus
/// bytes over bandwidth — the same shape as
/// `rago-hardware`'s `InterconnectSpec::transfer_latency_s`, which is the
/// intended source of the bandwidth and overhead numbers.
///
/// # Examples
///
/// ```
/// use rago_schema::KvTransferModel;
///
/// // 128 KiB of KV per token over a 200 GB/s link with 50 µs of overhead.
/// let model = KvTransferModel::new(131_072.0, 200e9, 50e-6);
/// assert_eq!(model.bytes_for(1000), 131_072_000.0);
/// let latency = model.latency_s(1000);
/// assert!((latency - (50e-6 + 131_072_000.0 / 200e9)).abs() < 1e-15);
///
/// // The degenerate model prices every transfer at exactly zero.
/// assert_eq!(KvTransferModel::zero().latency_s(4096), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvTransferModel {
    /// KV-cache bytes per prefix token (2 × layers × KV heads × head dim ×
    /// bytes per element for a transformer).
    pub kv_bytes_per_token: f64,
    /// Interconnect bandwidth in bytes per second. `f64::INFINITY` makes
    /// the per-byte cost exactly zero.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-transfer overhead in seconds (handshake, scheduling).
    pub base_latency_s: f64,
}

impl KvTransferModel {
    /// Creates a transfer model.
    pub fn new(kv_bytes_per_token: f64, bandwidth_bytes_per_s: f64, base_latency_s: f64) -> Self {
        Self {
            kv_bytes_per_token,
            bandwidth_bytes_per_s,
            base_latency_s,
        }
    }

    /// The zero-cost model: every handoff completes instantaneously. A
    /// disaggregated 1+1 fleet under this model reproduces the monolithic
    /// engine's per-request timings exactly.
    pub fn zero() -> Self {
        Self::new(0.0, f64::INFINITY, 0.0)
    }

    /// Whether every transfer under this model costs exactly zero seconds.
    pub fn is_zero_cost(&self) -> bool {
        self.base_latency_s == 0.0
            && (self.kv_bytes_per_token == 0.0 || self.bandwidth_bytes_per_s == f64::INFINITY)
    }

    /// KV bytes moved for a request with `prefix_tokens` of prefilled state.
    pub fn bytes_for(&self, prefix_tokens: u32) -> f64 {
        f64::from(prefix_tokens) * self.kv_bytes_per_token
    }

    /// Seconds the handoff of `prefix_tokens` of KV state takes.
    pub fn latency_s(&self, prefix_tokens: u32) -> f64 {
        self.base_latency_s + self.bytes_for(prefix_tokens) / self.bandwidth_bytes_per_s
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Invalid`] for negative or NaN fields or a
    /// non-positive bandwidth.
    pub fn validate(&self) -> Result<(), SchemaError> {
        if !(self.kv_bytes_per_token >= 0.0 && self.kv_bytes_per_token.is_finite()) {
            return Err(SchemaError::Invalid {
                field: "kv_bytes_per_token",
                reason: "must be finite and non-negative".into(),
            });
        }
        if self.bandwidth_bytes_per_s <= 0.0 || self.bandwidth_bytes_per_s.is_nan() {
            return Err(SchemaError::Invalid {
                field: "bandwidth_bytes_per_s",
                reason: "must be positive (INFINITY for a free interconnect)".into(),
            });
        }
        if !(self.base_latency_s >= 0.0 && self.base_latency_s.is_finite()) {
            return Err(SchemaError::Invalid {
                field: "base_latency_s",
                reason: "must be finite and non-negative".into(),
            });
        }
        Ok(())
    }
}

impl Default for KvTransferModel {
    fn default() -> Self {
        KvTransferModel::zero()
    }
}

/// A fleet of pipeline replicas behind a router, either flat or
/// disaggregated into a Prefill pool feeding a Decode pool.
///
/// # Examples
///
/// ```
/// use rago_schema::{FleetConfig, PoolSpec, RouterPolicy};
///
/// let fleet = FleetConfig::new(4, RouterPolicy::LeastOutstanding);
/// assert_eq!(fleet.replicas, 4);
/// assert!(!fleet.is_disaggregated());
/// assert!(fleet.validate().is_ok());
/// assert!(FleetConfig::new(0, RouterPolicy::RoundRobin).validate().is_err());
///
/// let split = FleetConfig::split(2, 3, RouterPolicy::LeastOutstanding);
/// assert!(split.is_disaggregated());
/// // `replicas` and `router` describe the arrival (prefill) pool.
/// assert_eq!(split.replicas, 2);
/// assert_eq!(split.decode, Some(PoolSpec::new(3, RouterPolicy::LeastOutstanding)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Replicas of the pool arrivals route over (at least 1): every
    /// replica of a flat fleet, or a split fleet's prefill pool.
    pub replicas: u32,
    /// Routing policy dispatching arrivals across those replicas.
    pub router: RouterPolicy,
    /// A split fleet's decode pool; `None` for a flat fleet (what every
    /// pre-pools config deserializes to).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub decode: Option<PoolSpec>,
    /// Prices the prefill→decode KV handoff of a disaggregated fleet; a
    /// flat fleet has no handoff and must keep a zero-cost model. Defaults
    /// to [`KvTransferModel::zero`], under which a 1+1 split reproduces the
    /// monolithic engine's per-request timings.
    #[serde(default)]
    pub transfer: KvTransferModel,
}

impl FleetConfig {
    /// Creates a flat fleet.
    pub fn new(replicas: u32, router: RouterPolicy) -> Self {
        Self {
            replicas,
            router,
            decode: None,
            transfer: KvTransferModel::zero(),
        }
    }

    /// A single replica behind the default router — the degenerate fleet
    /// equivalent to running the engine directly.
    pub fn single() -> Self {
        Self::new(1, RouterPolicy::default())
    }

    /// Prices the KV handoff of a disaggregated fleet (see
    /// [`KvTransferModel`]; `rago-hardware`'s
    /// `InterconnectSpec::transfer_latency_s` is the intended source of the
    /// bandwidth and overhead numbers).
    #[must_use]
    pub fn with_transfer(mut self, transfer: KvTransferModel) -> Self {
        self.transfer = transfer;
        self
    }

    /// A disaggregated fleet: `prefill_replicas` prefill replicas feeding
    /// `decode_replicas` decode replicas, both pools routed by `router`.
    pub fn split(prefill_replicas: u32, decode_replicas: u32, router: RouterPolicy) -> Self {
        Self {
            decode: Some(PoolSpec::new(decode_replicas, router)),
            ..Self::new(prefill_replicas, router)
        }
    }

    /// Whether the fleet splits prefill and decode onto separate pools.
    pub fn is_disaggregated(&self) -> bool {
        self.decode.is_some()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Invalid`] when the arrival pool or the decode
    /// pool has zero replicas, the transfer model is invalid, or a flat
    /// fleet prices a KV handoff it never makes.
    pub fn validate(&self) -> Result<(), SchemaError> {
        if self.replicas == 0 {
            return Err(SchemaError::Invalid {
                field: "replicas",
                reason: "a fleet needs at least one replica".into(),
            });
        }
        if let Some(decode) = &self.decode {
            decode.validate()?;
        }
        self.transfer.validate()?;
        if self.decode.is_none() && !self.transfer.is_zero_cost() {
            return Err(SchemaError::Invalid {
                field: "transfer",
                reason: "a flat fleet has no KV handoff to price".into(),
            });
        }
        Ok(())
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::single()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_empty_fleets() {
        assert!(FleetConfig::new(0, RouterPolicy::RoundRobin)
            .validate()
            .is_err());
        assert!(FleetConfig::new(1, RouterPolicy::RoundRobin)
            .validate()
            .is_ok());
        assert!(FleetConfig::default().validate().is_ok());
        assert_eq!(FleetConfig::default().replicas, 1);
    }

    #[test]
    fn policies_display_distinctly() {
        let names: std::collections::HashSet<String> =
            RouterPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names.len(), RouterPolicy::ALL.len());
    }

    #[test]
    fn default_router_is_least_outstanding() {
        assert_eq!(RouterPolicy::default(), RouterPolicy::LeastOutstanding);
    }

    #[test]
    fn flat_constructors_keep_the_original_shape() {
        // `new`/`single` must keep producing the pre-pools flat fleet: no
        // decode pool, same replica count and router as before.
        let flat = FleetConfig::new(4, RouterPolicy::RoundRobin);
        assert!(flat.decode.is_none());
        assert!(!flat.is_disaggregated());
        assert_eq!(FleetConfig::single().replicas, 1);
        assert!(FleetConfig::single().decode.is_none());
    }

    #[test]
    fn pool_shape_validation() {
        let ok = FleetConfig::split(2, 3, RouterPolicy::LeastOutstanding);
        assert!(ok.validate().is_ok());

        let mut zero_prefill = ok.clone();
        zero_prefill.replicas = 0;
        assert!(zero_prefill.validate().is_err());

        let zero_decode = FleetConfig::split(2, 0, RouterPolicy::LeastOutstanding);
        assert!(zero_decode.validate().is_err());
    }

    /// A flat fleet has no KV handoff, so a priced transfer model would be
    /// silently dropped.
    #[test]
    fn flat_fleets_reject_a_priced_transfer() {
        let fleet = FleetConfig::new(2, RouterPolicy::RoundRobin)
            .with_transfer(KvTransferModel::new(131_072.0, 25e9, 20e-6));
        assert!(fleet.validate().is_err());
    }

    #[test]
    fn fleet_carries_and_validates_its_transfer_model() {
        let fleet = FleetConfig::split(2, 3, RouterPolicy::LeastOutstanding)
            .with_transfer(KvTransferModel::new(131_072.0, 25e9, 20e-6));
        assert!(fleet.validate().is_ok());
        assert!(!fleet.transfer.is_zero_cost());
        // Flat fleets default to the zero-cost model.
        assert!(FleetConfig::new(2, RouterPolicy::RoundRobin)
            .transfer
            .is_zero_cost());
        // An invalid transfer model fails fleet validation.
        let bad = FleetConfig::split(1, 1, RouterPolicy::RoundRobin)
            .with_transfer(KvTransferModel::new(-1.0, 1e9, 0.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn transfer_model_prices_handoffs() {
        let model = KvTransferModel::new(1024.0, 1e9, 1e-4);
        assert!(model.validate().is_ok());
        assert_eq!(model.bytes_for(100), 102_400.0);
        assert!((model.latency_s(100) - (1e-4 + 102_400.0 / 1e9)).abs() < 1e-15);
        assert!(!model.is_zero_cost());

        let zero = KvTransferModel::zero();
        assert!(zero.validate().is_ok());
        assert!(zero.is_zero_cost());
        assert_eq!(zero.latency_s(u32::MAX), 0.0);

        assert!(KvTransferModel::new(-1.0, 1e9, 0.0).validate().is_err());
        assert!(KvTransferModel::new(1.0, 0.0, 0.0).validate().is_err());
        assert!(KvTransferModel::new(1.0, 1e9, f64::NAN).validate().is_err());
    }
}
