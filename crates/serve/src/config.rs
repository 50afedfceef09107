//! Serving configuration: how large a result cache. Queries are planned
//! under the one cost table at this process's SIMD tier
//! (`fsi_index::Planner::auto`), which is not configurable.

/// Configuration of a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Number of independently locked cache segments (≥ 1); higher values
    /// reduce lock contention between concurrent callers.
    pub cache_segments: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            cache_segments: 8,
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
        assert!(c.cache_capacity > 0);
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
