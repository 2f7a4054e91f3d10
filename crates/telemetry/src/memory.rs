//! Peak-memory accounting.
//!
//! Engines report the resident size of their core data structures —
//! DD arenas and unique/complex/compute tables, MPS bond tensors,
//! state-vector chunks, tableau words — through [`MemoryGauge`]s: one
//! gauge per subsystem, named `mem.<subsystem>.peak_bytes`, recording
//! the high-water mark via the registry's order-independent max-gauge
//! (so peaks merge deterministically across threads and record order).
//!
//! The traced run loop additionally maintains `engine.mem.peak_bytes`,
//! the peak of `SimulationEngine::memory_bytes` across the whole run,
//! and mirrors it into `RunStats::peak_memory_bytes`, which `repro`
//! prints.

use crate::metrics::{MetricId, MetricValue, MetricsRegistry};

/// A peak-bytes tracker for one subsystem.
///
/// Construction interns the metric name once; [`MemoryGauge::record`]
/// is then id-keyed — no `String`, no hash — and a no-op against a
/// disabled registry.
#[derive(Debug, Clone)]
pub struct MemoryGauge {
    registry: MetricsRegistry,
    id: MetricId,
}

impl MemoryGauge {
    /// Creates the gauge `mem.<subsystem>.peak_bytes` on `registry`.
    #[must_use]
    pub fn new(registry: &MetricsRegistry, subsystem: &str) -> Self {
        let id = registry.register(&format!("mem.{subsystem}.peak_bytes"));
        Self {
            registry: registry.clone(),
            id,
        }
    }

    /// Raises the subsystem's peak to `bytes` if larger.
    pub fn record(&self, bytes: usize) {
        #[allow(clippy::cast_precision_loss)]
        self.registry.gauge_max_id(self.id, bytes as f64);
    }

    /// The recorded peak in bytes, if anything was recorded.
    #[must_use]
    pub fn peak_bytes(&self) -> Option<u64> {
        let name = self.registry.name_of(self.id)?;
        match self.registry.get(&name)? {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            MetricValue::Gauge(v) => Some(v.max(0.0) as u64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_the_high_water_mark() {
        let registry = MetricsRegistry::new();
        let gauge = MemoryGauge::new(&registry, "dd.arena");
        gauge.record(1024);
        gauge.record(4096);
        gauge.record(2048);
        assert_eq!(gauge.peak_bytes(), Some(4096));
        assert_eq!(
            registry.get("mem.dd.arena.peak_bytes"),
            Some(MetricValue::Gauge(4096.0))
        );
    }

    #[test]
    fn disabled_registry_gauge_is_inert() {
        let registry = MetricsRegistry::disabled();
        let gauge = MemoryGauge::new(&registry, "array.state_vector");
        gauge.record(1 << 20);
        assert_eq!(gauge.peak_bytes(), None);
        assert!(registry.is_empty());
    }

    #[test]
    fn peaks_merge_across_threads() {
        let registry = MetricsRegistry::new();
        let gauge = MemoryGauge::new(&registry, "stabilizer.tableau");
        std::thread::scope(|scope| {
            for t in 1..=4usize {
                let gauge = gauge.clone();
                scope.spawn(move || gauge.record(t * 1000));
            }
        });
        assert_eq!(gauge.peak_bytes(), Some(4000));
    }
}
