//! Calibration of the retrieval cost model against the in-workspace PQ
//! implementation.
//!
//! The paper populates its retrieval model by benchmarking ScaNN's PQ-code
//! scanning throughput on real CPUs (18 GB/s per core on EPYC 7R13). We do
//! the same against [`rago_vectordb::ProductQuantizer::scan`]: measure how
//! many bytes of PQ codes one thread scans per second, and produce a
//! [`CpuServerSpec`] with that measured constant. Our scalar Rust scanner is
//! far slower than ScaNN's SIMD kernels, and the difference does not only
//! shift absolute retrieval latencies: it can move the bottleneck. One
//! calibration read 0.30 GB/s per core. At that rate, with
//! `SearchOptions::paper_default()` on `ClusterSpec::paper_default()`,
//! Case III 8B (4 retrievals) falls from 1.519 to 0.274 QPS/chip, and
//! retrieval becomes its bottleneck; Case I 8B's least TTFT rises from
//! 22.4 to 694.6 ms. The presets therefore keep the paper's constant, and
//! a calibrated spec answers a different question: how this scanner's
//! deployment would perform.

use rago_hardware::CpuServerSpec;
use rago_vectordb::{ProductQuantizer, SyntheticDataset};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Result of a scan-throughput calibration run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Measured single-thread PQ-code scan throughput in GB/s.
    pub scan_throughput_per_core_gbps: f64,
    /// Number of code bytes scanned during the measurement.
    pub bytes_scanned: f64,
    /// Wall-clock seconds the measurement took.
    pub elapsed_s: f64,
}

impl CalibrationReport {
    /// Produces a CPU-server spec identical to `base` but with the measured
    /// per-core scan throughput.
    pub fn apply_to(&self, base: &CpuServerSpec) -> CpuServerSpec {
        CpuServerSpec {
            scan_throughput_per_core_gbps: self.scan_throughput_per_core_gbps,
            ..base.clone()
        }
    }
}

/// Measures the single-thread ADC scan throughput of this workspace's PQ
/// implementation on a synthetic database of `num_vectors` 768-dimensional
/// vectors quantized to 96 bytes per vector (the paper's code size), repeating
/// the scan until at least `min_duration_s` of work has been timed.
///
/// The codebooks use 4 bits per code so that calibration stays fast even in
/// debug builds; the scanned byte count — which is what the throughput
/// constant measures — is identical to the 8-bit configuration.
///
/// # Panics
///
/// Panics if `num_vectors` is smaller than 256 (enough vectors to train the
/// codebooks and produce a scan long enough to time).
pub fn calibrate_scan_throughput(num_vectors: usize, min_duration_s: f64) -> CalibrationReport {
    assert!(
        num_vectors >= 256,
        "need at least 256 vectors to train the PQ codebooks"
    );
    let dim = 768;
    let subspaces = 96;
    let data = SyntheticDataset::clustered(num_vectors, dim, 32, 0xCA11B).vectors;
    let pq = ProductQuantizer::train(dim, subspaces, 4, &data[..num_vectors.min(512)], 7)
        .expect("PQ training on the calibration dataset always succeeds");
    let codes = pq.encode_batch(&data);
    let query = data[0].clone();
    let table = pq.build_lookup_table(&query);

    let mut bytes_scanned = 0.0f64;
    let start = Instant::now();
    let mut elapsed = 0.0;
    while elapsed < min_duration_s {
        let hits = pq.scan(&table, &codes, None, 10);
        std::hint::black_box(&hits);
        bytes_scanned += codes.len() as f64;
        elapsed = start.elapsed().as_secs_f64();
    }
    CalibrationReport {
        scan_throughput_per_core_gbps: bytes_scanned / elapsed / 1e9,
        bytes_scanned,
        elapsed_s: elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_a_positive_rate() {
        let report = calibrate_scan_throughput(2_000, 0.05);
        assert!(report.scan_throughput_per_core_gbps > 0.0);
        assert!(report.bytes_scanned > 0.0);
        assert!(report.elapsed_s >= 0.05);
        // A scalar scanner should land somewhere between 10 MB/s and 50 GB/s.
        assert!(report.scan_throughput_per_core_gbps < 50.0);
        assert!(report.scan_throughput_per_core_gbps > 0.01);
    }

    #[test]
    fn report_applies_to_a_server_spec() {
        let report = CalibrationReport {
            scan_throughput_per_core_gbps: 2.5,
            bytes_scanned: 1e9,
            elapsed_s: 0.4,
        };
        let spec = report.apply_to(&CpuServerSpec::epyc_milan());
        assert_eq!(spec.scan_throughput_per_core_gbps, 2.5);
        assert_eq!(spec.cores, 96);
    }

    #[test]
    #[should_panic(expected = "256")]
    fn tiny_calibration_sets_are_rejected() {
        let _ = calibrate_scan_throughput(100, 0.01);
    }
}
