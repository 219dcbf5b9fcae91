//! Cluster-level resource description and budgets.
//!
//! The RAGO evaluation assumes a datacenter serving environment with 16–32
//! host servers, four XPUs per server (64–128 XPUs total), where the host
//! CPUs also serve the sharded vector database (§4 "System setup"). The
//! [`ClusterSpec`] captures that environment and [`ResourceBudget`] expresses
//! the resource constraint handed to the optimizer.

use crate::cpu::CpuServerSpec;
use crate::error::HardwareError;
use crate::interconnect::InterconnectSpec;
use crate::xpu::XpuSpec;
use serde::{Deserialize, Serialize};

/// A homogeneous serving cluster: `num_servers` host servers, each with
/// `xpus_per_server` accelerators and one CPU socket described by `cpu`.
///
/// # Examples
///
/// ```
/// use rago_hardware::ClusterSpec;
/// let cluster = ClusterSpec::paper_default();
/// assert_eq!(cluster.total_xpus(), 128);
/// assert!(cluster.total_host_memory_bytes() > 5.6e12); // fits the 5.6 TiB database
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of host servers.
    pub num_servers: u32,
    /// Number of XPU accelerators attached to each host server.
    pub xpus_per_server: u32,
    /// Specification of each XPU.
    pub xpu: XpuSpec,
    /// Specification of each host CPU server.
    pub cpu: CpuServerSpec,
    /// XPU-to-XPU interconnect.
    pub interconnect: InterconnectSpec,
    /// Host-to-XPU link used to ship retrieved documents to the accelerators.
    pub host_link: InterconnectSpec,
}

impl ClusterSpec {
    /// The paper's default system setup: 32 servers × 4 XPU-C accelerators
    /// (128 XPUs), EPYC-Milan hosts, 3D-torus XPU interconnect.
    pub fn paper_default() -> Self {
        Self {
            num_servers: 32,
            xpus_per_server: 4,
            xpu: XpuSpec::default(),
            cpu: CpuServerSpec::default(),
            interconnect: InterconnectSpec::torus_3d(),
            host_link: InterconnectSpec::host_to_xpu_pcie(),
        }
    }

    /// The smaller 16-server configuration (64 XPUs), the paper's minimum
    /// deployment that still holds the 5.6 TiB quantized database in host
    /// memory.
    pub fn paper_minimum() -> Self {
        Self {
            num_servers: 16,
            ..Self::paper_default()
        }
    }

    /// Creates a cluster with a specific XPU spec, keeping the other defaults.
    pub fn with_xpu(mut self, xpu: XpuSpec) -> Self {
        self.xpu = xpu;
        self
    }

    /// Creates a cluster with a specific server count, keeping the rest.
    pub fn with_servers(mut self, num_servers: u32) -> Self {
        self.num_servers = num_servers;
        self
    }

    /// Validates the cluster description.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InvalidSpec`] if the server or per-server XPU
    /// count is zero or a nested specification is invalid.
    pub fn validate(&self) -> Result<(), HardwareError> {
        if self.num_servers == 0 {
            return Err(HardwareError::InvalidSpec {
                field: "num_servers",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.xpus_per_server == 0 {
            return Err(HardwareError::InvalidSpec {
                field: "xpus_per_server",
                reason: "must be at least 1".to_string(),
            });
        }
        self.xpu.validate()?;
        self.cpu.validate()?;
        self.interconnect.validate()?;
        self.host_link.validate()?;
        Ok(())
    }

    /// Total number of XPUs in the cluster.
    pub fn total_xpus(&self) -> u32 {
        self.num_servers * self.xpus_per_server
    }

    /// Total host DRAM capacity in bytes (what the sharded database must fit in).
    pub fn total_host_memory_bytes(&self) -> f64 {
        self.cpu.dram_capacity_bytes() * f64::from(self.num_servers)
    }

    /// Total XPU HBM capacity in bytes.
    pub fn total_hbm_bytes(&self) -> f64 {
        self.xpu.hbm_capacity_bytes() * f64::from(self.total_xpus())
    }

    /// Checks that a database of `database_bytes` fits in aggregate host memory,
    /// leaving `headroom_fraction` (e.g. 0.2) free for the OS and indexes.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InsufficientResources`] when it does not fit.
    pub fn check_database_fits(
        &self,
        database_bytes: f64,
        headroom_fraction: f64,
    ) -> Result<(), HardwareError> {
        let usable = self.total_host_memory_bytes() * (1.0 - headroom_fraction);
        if database_bytes > usable {
            return Err(HardwareError::InsufficientResources {
                requested: format!("{:.2} GB of host memory", database_bytes / 1e9),
                available: format!("{:.2} GB usable host memory", usable / 1e9),
            });
        }
        Ok(())
    }

    /// The full resource budget represented by this cluster.
    pub fn budget(&self) -> ResourceBudget {
        ResourceBudget {
            max_xpus: self.total_xpus(),
            max_cpu_servers: self.num_servers,
        }
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::paper_default()
    }
}

/// A resource budget constraining the optimizer's search (the `RC` input of
/// Algorithm 1 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceBudget {
    /// Maximum number of XPU accelerators available for inference components.
    pub max_xpus: u32,
    /// Maximum number of CPU servers available for retrieval.
    pub max_cpu_servers: u32,
}

impl ResourceBudget {
    /// Creates a budget of `max_xpus` accelerators and `max_cpu_servers` hosts.
    pub fn new(max_xpus: u32, max_cpu_servers: u32) -> Self {
        Self {
            max_xpus,
            max_cpu_servers,
        }
    }

    /// Returns all power-of-two XPU counts up to (and including, if it is a
    /// power of two) the budget: `1, 2, 4, ... <= max_xpus`. The paper's
    /// search uses powers-of-two scaling factors for accelerator counts.
    pub fn xpu_steps(&self) -> Vec<u32> {
        power_of_two_steps(self.max_xpus)
    }

    /// Power-of-two CPU-server counts up to the budget.
    pub fn cpu_server_steps(&self) -> Vec<u32> {
        power_of_two_steps(self.max_cpu_servers)
    }

    /// Filters candidate per-group XPU counts down to the steps that can
    /// appear in *some* feasible allocation: positive, unique, and within
    /// `max_xpus`. The optimizer applies this before building its schedule
    /// space, so over-budget steps never inflate the enumerated grid.
    pub fn admissible_xpu_steps(&self, candidates: &[u32]) -> Vec<u32> {
        admissible_steps(candidates, self.max_xpus)
    }

    /// Filters candidate CPU-server counts to positive, unique steps within
    /// `max_cpu_servers` (see [`ResourceBudget::admissible_xpu_steps`]).
    pub fn admissible_server_steps(&self, candidates: &[u32]) -> Vec<u32> {
        admissible_steps(candidates, self.max_cpu_servers)
    }
}

/// Keeps the candidates in `0 < step <= max`, preserving the caller's order
/// and dropping duplicates.
fn admissible_steps(candidates: &[u32], max: u32) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(candidates.len());
    for &step in candidates {
        if step >= 1 && step <= max && !out.contains(&step) {
            out.push(step);
        }
    }
    out
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ClusterSpec::paper_default().budget()
    }
}

/// Returns `1, 2, 4, ...` up to and including `max` if `max` is itself a power
/// of two; otherwise the largest power of two below `max` is the last entry,
/// followed by `max` itself (so the full budget is always reachable).
pub fn power_of_two_steps(max: u32) -> Vec<u32> {
    let mut steps = Vec::new();
    if max == 0 {
        return steps;
    }
    let mut v = 1u32;
    while v <= max {
        steps.push(v);
        if v > u32::MAX / 2 {
            break;
        }
        v *= 2;
    }
    if let Some(&last) = steps.last() {
        if last != max {
            steps.push(max);
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::tib;

    #[test]
    fn paper_default_cluster() {
        let c = ClusterSpec::paper_default();
        assert_eq!(c.total_xpus(), 128);
        assert_eq!(c.num_servers, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn minimum_cluster_fits_the_quantized_database() {
        // The quantized hyperscale database is 64e9 vectors x 96 bytes =
        // 6.144e12 bytes (~5.6 TiB). 16 servers x 384 GB = 6.144e12 bytes of
        // host DRAM, so it fits exactly with no headroom — the paper's stated
        // minimum of 16 servers.
        let database_bytes = 64e9 * 96.0;
        assert!(database_bytes < tib(5.65) && database_bytes > tib(5.55));
        let c = ClusterSpec::paper_minimum();
        assert_eq!(c.total_xpus(), 64);
        assert!(c.check_database_fits(database_bytes, 0.0).is_ok());
        // But with 20% headroom it does not fit on 16 servers.
        assert!(c.check_database_fits(database_bytes, 0.2).is_err());
        // The full 32-server cluster fits it comfortably.
        assert!(ClusterSpec::paper_default()
            .check_database_fits(database_bytes, 0.2)
            .is_ok());
    }

    #[test]
    fn budget_reflects_cluster() {
        let b = ClusterSpec::paper_default().budget();
        assert_eq!(b.max_xpus, 128);
        assert_eq!(b.max_cpu_servers, 32);
    }

    #[test]
    fn admissible_steps_filter_zero_overbudget_and_duplicates() {
        let b = ResourceBudget::new(16, 8);
        assert_eq!(
            b.admissible_xpu_steps(&[0, 1, 4, 4, 16, 32, 64]),
            vec![1, 4, 16]
        );
        assert_eq!(b.admissible_server_steps(&[2, 8, 9]), vec![2, 8]);
        // Order is the caller's, not sorted.
        assert_eq!(b.admissible_xpu_steps(&[8, 2, 8]), vec![8, 2]);
        assert!(b.admissible_xpu_steps(&[32, 64]).is_empty());
    }

    #[test]
    fn power_of_two_steps_cover_budget() {
        assert_eq!(power_of_two_steps(8), vec![1, 2, 4, 8]);
        assert_eq!(power_of_two_steps(6), vec![1, 2, 4, 6]);
        assert_eq!(power_of_two_steps(1), vec![1]);
        assert_eq!(power_of_two_steps(0), Vec::<u32>::new());
    }

    #[test]
    fn validation_rejects_empty_cluster() {
        let mut c = ClusterSpec::paper_default();
        c.num_servers = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterSpec::paper_default();
        c.xpus_per_server = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_style_modifiers() {
        let c = ClusterSpec::paper_default()
            .with_servers(8)
            .with_xpu(XpuSpec::generation(crate::XpuGeneration::A));
        assert_eq!(c.total_xpus(), 32);
        assert_eq!(c.xpu.name, "XPU-A");
    }
}
