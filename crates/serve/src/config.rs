//! Serving configuration: how large a result cache, and which cost-model
//! planner queries are planned under.

use fsi_index::Planner;

/// Configuration of a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Number of independently locked cache segments (≥ 1); higher values
    /// reduce lock contention between concurrent callers.
    pub cache_segments: usize,
    /// The cost-model planner queries are planned under: five per-kernel
    /// cost units. The default is calibrated for the SIMD tier this
    /// process dispatches to; set a unit to re-price one kernel — e.g.
    /// `Planner { rgs_unit: 2.0, ..Planner::auto() }` narrows the band of
    /// balanced sparse queries RanGroupScan wins.
    pub planner: Planner,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            cache_segments: 8,
            // Cost constants tuned for the SIMD tier this process
            // dispatches to, so plans favour the vectorized bitmap sweep
            // exactly where `BENCH_simd.json` measured it winning.
            planner: Planner::auto(),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, normalizing a zero segment count up
    /// to one.
    pub fn normalized(mut self) -> Self {
        self.cache_segments = self.cache_segments.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ServeConfig::default();
        assert!(c.cache_segments >= 1);
        assert_eq!(c.planner.gallop_unit, Planner::auto().gallop_unit);
    }

    #[test]
    fn normalized_lifts_zeros() {
        let c = ServeConfig {
            cache_segments: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.cache_segments, 1);
    }
}
