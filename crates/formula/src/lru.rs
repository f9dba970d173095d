//! Shared batch LRU eviction for the stamped memo tables of the
//! verification sessions (decision cache, ANF polynomial cache, BDD
//! translation cache, the daemon's auto-winner table).
//!
//! All of them follow the same discipline: entries carry a logical
//! `last_used` stamp, and once the map outgrows its capacity the
//! least-recently-stamped entries are evicted in a batch down to ¾
//! capacity, so the O(n log n) stamp sort amortises to O(log n) per
//! insertion.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Evicts the least-recently-used entries of `map` down to ¾ of `cap`
/// (no-op while `map` is within capacity). `stamp_of` reads an entry's
/// last-used stamp; `on_evict` observes each removed entry (release
/// references, update side tables). Returns the number evicted, for the
/// caller's eviction counter.
pub fn lru_evict_batch<K, V, H, S, E>(
    map: &mut HashMap<K, V, H>,
    cap: usize,
    stamp_of: S,
    mut on_evict: E,
) -> u64
where
    K: Copy + Ord + Hash,
    H: BuildHasher,
    S: Fn(&V) -> u64,
    E: FnMut(K, V),
{
    if map.len() <= cap {
        return 0;
    }
    let target = cap - cap / 4;
    let mut stamps: Vec<(u64, K)> = map.iter().map(|(&k, v)| (stamp_of(v), k)).collect();
    stamps.sort_unstable();
    let evict = map.len() - target;
    for &(_, k) in stamps.iter().take(evict) {
        if let Some(v) = map.remove(&k) {
            on_evict(k, v);
        }
    }
    evict as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_down_to_three_quarters() {
        let mut map: HashMap<u32, u64> = (0..100).map(|i| (i, i as u64)).collect();
        let mut gone = Vec::new();
        let evicted = lru_evict_batch(&mut map, 80, |&stamp| stamp, |k, _| gone.push(k));
        assert_eq!(evicted, 40); // down to 60 = 80 - 80/4
        assert_eq!(map.len(), 60);
        gone.sort_unstable();
        assert_eq!(gone, (0..40).collect::<Vec<_>>(), "oldest stamps go first");
        assert_eq!(
            lru_evict_batch(&mut map, 80, |&s| s, |_, _| unreachable!("within capacity")),
            0
        );
    }
}
