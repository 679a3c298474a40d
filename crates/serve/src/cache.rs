//! Sharded LRU cache of decoded per-file particle payloads.
//!
//! Decoding a data file (CRC verification + byte unpacking) dominates a
//! warm query's cost, so the engine caches the *decoded* particle vector,
//! not file bytes. Keys are `(file id, LOD prefix level)`: a full-file read
//! and an LOD prefix of the same file are distinct blocks. The cache is
//! byte-budgeted (particle payload bytes, the dominant term) and sharded —
//! each shard has its own lock and its own slice of the budget, so
//! concurrent queries touching different files do not serialize on one
//! mutex.
//!
//! Only successfully decoded blocks are ever inserted: a corrupt or
//! missing file produces an error *upstream* of the cache, so faults can
//! never become sticky (see the chaos tests).

use spio_trace::{Counter, Gauge, Metrics};
use spio_types::{Particle, PARTICLE_BYTES};
use spio_util::lock_unpoisoned;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Cache key: one decoded block per (file, prefix depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Index of the file's entry in the dataset metadata.
    pub file: u32,
    /// `None` = the whole file; `Some(l)` = the LOD prefix through level
    /// `l`. Callers canonicalize the level (clamp to the dataset's level
    /// count) before lookup so one prefix never appears under two keys.
    pub lod_level: Option<u32>,
}

/// Metric names the cache publishes into the job's registry.
pub mod metric_names {
    pub const HITS: &str = "serve.cache.hits";
    pub const MISSES: &str = "serve.cache.misses";
    pub const EVICTIONS: &str = "serve.cache.evictions";
    pub const BYTES: &str = "serve.cache.bytes";
}

struct Slot {
    block: Arc<Vec<Particle>>,
    cost: u64,
    /// Logical timestamp of the last touch; also this slot's key in `lru`.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<BlockKey, Slot>,
    /// Recency order: stamp → key. `pop_first` is the LRU victim.
    lru: BTreeMap<u64, BlockKey>,
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    /// Bump `key`'s recency and return its block, if cached.
    fn touch(&mut self, key: BlockKey) -> Option<Arc<Vec<Particle>>> {
        let slot = self.map.get_mut(&key)?;
        self.clock += 1;
        self.lru.remove(&slot.stamp);
        slot.stamp = self.clock;
        self.lru.insert(self.clock, key);
        Some(slot.block.clone())
    }
}

/// The sharded, byte-budgeted LRU block cache.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget split evenly).
    shard_budget: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes_gauge: Gauge,
}

/// Point-in-time cache statistics, summed over the shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
    pub blocks: u64,
}

/// Payload bytes a decoded block occupies (the budgeted quantity).
pub fn block_cost(particles: &[Particle]) -> u64 {
    particles.len() as u64 * PARTICLE_BYTES as u64
}

impl BlockCache {
    /// A cache holding at most `total_bytes` of decoded payload across
    /// `shards` independently locked shards.
    pub fn new(total_bytes: u64, shards: usize, metrics: &Metrics) -> BlockCache {
        let shards = shards.max(1);
        BlockCache {
            shard_budget: total_bytes / shards as u64,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: metrics.counter(metric_names::HITS),
            misses: metrics.counter(metric_names::MISSES),
            evictions: metrics.counter(metric_names::EVICTIONS),
            bytes_gauge: metrics.gauge(metric_names::BYTES),
        }
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<Shard> {
        // Multiply-mix the key so file ids that differ only in low bits
        // still spread across shards.
        let raw = ((key.file as u64) << 33)
            ^ key
                .lod_level
                .map_or(u64::MAX, |l| l as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mixed = raw.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Look up a block, bumping its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Vec<Particle>>> {
        let mut shard = lock_unpoisoned(self.shard_of(key));
        let block = shard.touch(*key);
        if block.is_some() {
            shard.hits += 1;
            self.hits.inc();
        } else {
            shard.misses += 1;
            self.misses.inc();
        }
        block
    }

    /// Insert a successfully decoded block, evicting LRU blocks from the
    /// same shard until it fits. A block larger than a whole shard's
    /// budget is not cached at all (it would evict everything for one
    /// self-evicting tenant).
    pub fn insert(&self, key: BlockKey, block: Arc<Vec<Particle>>) {
        let cost = block_cost(&block);
        if cost > self.shard_budget {
            return;
        }
        let mut delta = cost as i64;
        let mut shard = lock_unpoisoned(self.shard_of(&key));
        if let Some(old) = shard.map.remove(&key) {
            // Racing loads of the same block: keep the newcomer.
            shard.lru.remove(&old.stamp);
            shard.bytes -= old.cost;
            delta -= old.cost as i64;
        }
        // Bytes over budget imply an LRU entry, and every entry has a slot.
        while shard.bytes + cost > self.shard_budget {
            let Some((_, victim)) = shard.lru.pop_first() else {
                break;
            };
            let Some(evicted) = shard.map.remove(&victim) else {
                continue;
            };
            shard.bytes -= evicted.cost;
            delta -= evicted.cost as i64;
            shard.evictions += 1;
            self.evictions.inc();
        }
        shard.clock += 1;
        let stamp = shard.clock;
        shard.bytes += cost;
        shard.lru.insert(stamp, key);
        shard.map.insert(key, Slot { block, cost, stamp });
        drop(shard);
        self.bytes_gauge.add(delta);
    }

    /// Current decoded payload bytes held across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| lock_unpoisoned(s).bytes).sum()
    }

    /// Aggregate statistics across the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let s = lock_unpoisoned(s);
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.bytes += s.bytes;
            total.blocks += s.map.len() as u64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_types::Particle;

    fn block(n: usize, tag: u64) -> Arc<Vec<Particle>> {
        Arc::new(
            (0..n)
                .map(|i| Particle::synthetic([0.1, 0.2, 0.3], (tag << 32) | i as u64))
                .collect(),
        )
    }

    fn key(file: u32) -> BlockKey {
        BlockKey {
            file,
            lod_level: None,
        }
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let m = spio_trace::Trace::collecting().metrics();
        let c = BlockCache::new(1 << 20, 4, &m);
        assert!(c.get(&key(0)).is_none());
        c.insert(key(0), block(10, 0));
        let got = c.get(&key(0)).unwrap();
        assert_eq!(got.len(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.blocks), (1, 1, 1));
        assert_eq!(s.bytes, block_cost(&got));
        assert_eq!(m.counter_value(metric_names::HITS), 1);
    }

    #[test]
    fn full_and_lod_blocks_are_distinct() {
        let m = spio_trace::Trace::collecting().metrics();
        let c = BlockCache::new(1 << 20, 2, &m);
        c.insert(key(3), block(8, 1));
        let lod = BlockKey {
            file: 3,
            lod_level: Some(0),
        };
        assert!(c.get(&lod).is_none());
        c.insert(lod, block(2, 2));
        assert_eq!(c.get(&lod).unwrap().len(), 2);
        assert_eq!(c.get(&key(3)).unwrap().len(), 8);
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        let m = spio_trace::Trace::collecting().metrics();
        // Single shard, room for exactly two 10-particle blocks.
        let c = BlockCache::new(2 * block_cost(&block(10, 0)), 1, &m);
        c.insert(key(0), block(10, 0));
        c.insert(key(1), block(10, 1));
        c.get(&key(0)); // 0 is now more recent than 1
        c.insert(key(2), block(10, 2));
        assert!(c.get(&key(1)).is_none(), "LRU victim was 1");
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(2)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_block_is_not_cached() {
        let m = spio_trace::Trace::collecting().metrics();
        let c = BlockCache::new(block_cost(&block(10, 0)), 1, &m);
        c.insert(key(0), block(100, 0));
        assert_eq!(c.stats().blocks, 0);
        assert!(c.get(&key(0)).is_none());
    }

    #[test]
    fn reinsert_replaces_without_leaking_budget() {
        let m = spio_trace::Trace::collecting().metrics();
        let c = BlockCache::new(1 << 20, 1, &m);
        c.insert(key(0), block(10, 0));
        c.insert(key(0), block(20, 1));
        let s = c.stats();
        assert_eq!(s.blocks, 1);
        assert_eq!(s.bytes, block_cost(&block(20, 1)));
        assert_eq!(c.get(&key(0)).unwrap().len(), 20);
    }

    #[test]
    fn concurrent_mixed_access_keeps_budget_invariant() {
        let m = spio_trace::Trace::collecting().metrics();
        let budget = 64 * block_cost(&block(10, 0));
        let c = Arc::new(BlockCache::new(budget, 8, &m));
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let k = key((t * 37 + i) % 100);
                        if c.get(&k).is_none() {
                            c.insert(k, block(10, k.file as u64));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.total_bytes() <= budget);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 1600);
    }
}
