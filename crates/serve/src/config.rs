//! Serving configuration: how many shards and workers, how large a result
//! cache, and which cost-model planner shards plan queries under.

use fsi_index::Planner;

/// Configuration of a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of document shards (≥ 1). Posting lists are partitioned into
    /// contiguous document-ID ranges, one per shard.
    pub num_shards: usize,
    /// Worker threads draining query batches (≥ 1).
    pub num_workers: usize,
    /// Total result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Number of independently locked cache segments (≥ 1); higher values
    /// reduce lock contention under concurrent batches.
    pub cache_segments: usize,
    /// The cost-model planner every shard plans queries under. Set a dial
    /// directly to express operator intent — e.g.
    /// `Planner { bytes_unit: 1.5, ..Planner::auto() }` charges every
    /// candidate its resident footprint, so queries over compressible
    /// lists run in the compressed domain.
    pub planner: Planner,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            num_workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
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
    /// Validates the configuration, normalizing zero counts up to one.
    pub fn normalized(mut self) -> Self {
        self.num_shards = self.num_shards.max(1);
        self.num_workers = self.num_workers.max(1);
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
        assert!(c.num_shards >= 1);
        assert!(c.num_workers >= 1);
        assert!(c.cache_segments >= 1);
        assert_eq!(c.planner.gallop_unit, Planner::auto().gallop_unit);
    }

    #[test]
    fn normalized_lifts_zeros() {
        let c = ServeConfig {
            num_shards: 0,
            num_workers: 0,
            cache_segments: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!((c.num_shards, c.num_workers, c.cache_segments), (1, 1, 1));
    }
}
