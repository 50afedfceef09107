//! Serving configuration: how large a result cache. Queries are planned
//! under the one cost table at this process's SIMD tier
//! (`fsi_index::Planner::auto`), which is not configurable.

/// Configuration of a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ServeConfig::default();
        assert!(c.cache_capacity > 0);
    }
}
