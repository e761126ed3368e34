//! Consistent-hash shard map: frozen-itemset signatures → workers.
//!
//! A tenant's warm rows partition into shards so that rows matching the
//! same frequent-itemset family — the rows that share materialized
//! perturbations — land in the same shard. Library API only: the serve
//! workers pull from one shared queue instead (work conservation is
//! what removes head-of-line blocking, and the warm store is small
//! enough that worker affinity bought nothing measurable — DESIGN.md
//! §5k), so today nothing routes by this map. The map is a classic consistent-hash ring: every shard owns
//! `vnodes` pseudo-random points on the `u64` circle, and a signature
//! is routed to the shard owning the first point at or after it.
//! Consistency is what makes the pool elastically resizable: growing
//! the ring from `n` to `n+1` shards remaps only ~`1/(n+1)` of the
//! signatures, so most rows keep their worker (and its warm cache)
//! across a resize.
//!
//! Routing never affects results: [`shahin::WarmEngine::explain_request`]
//! is bit-identical on whichever worker runs it, which
//! `tests/shard_identity.rs` proptests.

/// One SplitMix64 step — the same mixer the core crate uses for seeds
/// and snapshot fingerprints, so ring placement is stable across
/// platforms and builds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Default virtual nodes per shard; enough for <5% load imbalance at
/// typical worker counts while keeping the ring a few KB.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring routing row signatures to worker shards.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Ring points, sorted ascending: `(point, shard)`.
    points: Vec<(u64, u32)>,
    n_shards: usize,
}

impl ShardMap {
    /// A ring of `n_shards` shards with [`DEFAULT_VNODES`] points each.
    pub fn new(n_shards: usize) -> ShardMap {
        ShardMap::with_vnodes(n_shards, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-node count (≥1 enforced).
    pub fn with_vnodes(n_shards: usize, vnodes: usize) -> ShardMap {
        let n_shards = n_shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(n_shards * vnodes);
        for shard in 0..n_shards {
            for vnode in 0..vnodes {
                let point = splitmix(((shard as u64) << 32) | vnode as u64);
                points.push((point, shard as u32));
            }
        }
        // Ties (astronomically unlikely) resolve to the lower shard id,
        // deterministically.
        points.sort_unstable();
        ShardMap { points, n_shards }
    }

    /// Shards on the ring.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning `signature`: the first ring point at or after
    /// it, wrapping at the top of the circle.
    pub fn shard_for(&self, signature: u64) -> usize {
        let at = self.points.partition_point(|&(p, _)| p < signature);
        let (_, shard) = self.points[at % self.points.len()];
        shard as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let map = ShardMap::new(4);
        for sig in (0..10_000u64).map(splitmix) {
            let s = map.shard_for(sig);
            assert!(s < 4);
            assert_eq!(s, ShardMap::new(4).shard_for(sig), "unstable routing");
        }
    }

    #[test]
    fn all_shards_receive_traffic_and_load_is_roughly_balanced() {
        let n = 8;
        let map = ShardMap::new(n);
        let mut counts = vec![0usize; n];
        let total = 20_000;
        for i in 0..total {
            counts[map.shard_for(splitmix(i as u64))] += 1;
        }
        let ideal = total / n;
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {shard} starved");
            assert!(
                c < ideal * 2,
                "shard {shard} holds {c} of {total} (ideal {ideal})"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_fraction_of_keys() {
        let before = ShardMap::new(8);
        let after = ShardMap::new(9);
        let total = 20_000;
        let moved = (0..total)
            .map(|i| splitmix(i as u64))
            .filter(|&sig| before.shard_for(sig) != after.shard_for(sig))
            .count();
        // Ideal is total/9 ≈ 11%; allow generous slack for vnode variance
        // but far below the ~89% a modulo hash would move.
        let frac = moved as f64 / total as f64;
        assert!(frac < 0.30, "consistency broken: {frac:.2} of keys moved");
        assert!(moved > 0, "a new shard must take some keys");
    }

    #[test]
    fn degenerate_rings_are_total() {
        let one = ShardMap::new(1);
        assert_eq!(one.shard_for(0), 0);
        assert_eq!(one.shard_for(u64::MAX), 0);
        let zero = ShardMap::new(0); // clamped to 1
        assert_eq!(zero.n_shards(), 1);
        assert_eq!(zero.shard_for(42), 0);
    }
}
