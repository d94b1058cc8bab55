//! A sharded LRU of hot decoded rows, plus per-shard routing statistics.
//!
//! The artifact path is zero-copy — every v1 row is a `&[u64]` slice out
//! of a memory mapping — so a cache cannot make a *warm* page faster.
//! What it buys is the expensive-read cases: csr2 rows decoded again on
//! every read, mapped pages evicted under memory pressure, artifacts on
//! slow or network-attached storage. Its one reader is the triangle loop
//! over *resident* neighbour rows: triangle queries re-read the rows of
//! high-degree hub vertices over and over (every `tri_vertex v` touches
//! all of `N(v)`, and hubs appear in many neighborhoods), so a small LRU
//! of owned `Arc<[u64]>` copies pins exactly the rows a skewed load
//! hammers. No row a peer holds enters it: in a cluster a far neighbour
//! is intersected on its peer, and a far row a query names is read once.
//! The budget is counted in **bytes** of decoded payload (`--cache
//! 512m`), not rows — one hub row can outweigh thousands of leaves, so a
//! row count would make the resident footprint unpredictable.
//!
//! The cache is striped: keys hash to one of a fixed number of stripes,
//! each behind its own `RwLock`, and the hit path takes only the *shared*
//! lock — recency is tracked by a relaxed atomic stamp per entry, so
//! concurrent batch workers never serialize on hits. Eviction happens on
//! insert (a miss), scanning the stripe for the minimum stamp: stripes
//! are small, and at a high hit rate inserts are rare.
//!
//! [`RoutingStats`] rides along: per-shard row-fetch counters plus cache
//! hit/miss totals, cheap relaxed atomics the engine bumps on every fetch.
//! A skewed load shows up immediately as one shard's counter running away
//! from the rest — the signal a multi-node tier would use to replicate or
//! split that shard.

use kron_stream::mix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independently locked stripes.
const STRIPES: usize = 16;

/// The budget charge for one cached row: its decoded payload, with a
/// floor of one word so empty rows still count against the budget.
#[inline]
fn row_cost(row: &[u64]) -> u64 {
    (row.len().max(1) as u64) * 8
}

struct Entry {
    row: Arc<[u64]>,
    /// Last-touch stamp, updated under the *shared* lock on every hit.
    stamp: AtomicU64,
}

struct Stripe {
    map: HashMap<u64, Entry>,
    /// Maximum resident row **bytes** in this stripe.
    cap: u64,
    /// Resident row bytes (sum of [`row_cost`] over the map).
    bytes: u64,
    /// Monotone touch counter, *per stripe* so concurrent hits on
    /// different stripes never share a contended cache line (relaxed;
    /// exact ordering between racing touches does not matter for an
    /// eviction heuristic, and eviction only compares within a stripe).
    clock: AtomicU64,
}

/// A striped LRU of decoded rows keyed by product vertex, bounded by a
/// **byte** budget: each row charges its decoded payload (`row_cost`),
/// so hub rows with millions of neighbors and empty rows are accounted
/// at what they actually occupy, not one slot each.
pub struct RowCache {
    stripes: Vec<RwLock<Stripe>>,
    capacity: u64,
}

impl std::fmt::Debug for RowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowCache")
            .field("capacity_bytes", &self.capacity)
            .field("bytes", &self.bytes())
            .field("len", &self.len())
            .finish()
    }
}

impl RowCache {
    /// A cache holding **at most** `budget_bytes` of decoded row payload
    /// (treated as the operator's memory budget, so it is a hard bound),
    /// striped over 16 independently locked segments. The per-stripe
    /// quota rounds *down*, trading a few unused bytes for never
    /// exceeding the bound; a single row larger than its stripe's quota
    /// is simply not cached (so a budget below `16 × 8` bytes caches
    /// nothing at all).
    pub fn new(budget_bytes: u64) -> RowCache {
        let per_stripe = budget_bytes / STRIPES as u64;
        RowCache {
            stripes: (0..STRIPES)
                .map(|_| {
                    RwLock::new(Stripe {
                        map: HashMap::new(),
                        cap: per_stripe,
                        bytes: 0,
                        clock: AtomicU64::new(0),
                    })
                })
                .collect(),
            capacity: budget_bytes,
        }
    }

    fn stripe(&self, v: u64) -> &RwLock<Stripe> {
        // SplitMix64 fingerprint so consecutive vertex ids (a shard's
        // contiguous range) spread across stripes instead of clustering.
        &self.stripes[(mix(v) as usize) % self.stripes.len()]
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().unwrap().map.len())
            .sum()
    }

    /// Decoded row bytes currently resident (the sum each row charges
    /// against the budget; never exceeds [`RowCache::capacity`]).
    pub fn bytes(&self) -> u64 {
        self.stripes.iter().map(|s| s.read().unwrap().bytes).sum()
    }

    /// Whether no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch `v`'s cached row, refreshing its LRU position. Hits take
    /// only the stripe's shared lock and touch only stripe-local atomics.
    pub fn get(&self, v: u64) -> Option<Arc<[u64]>> {
        let s = self.stripe(v).read().unwrap();
        let entry = s.map.get(&v)?;
        let stamp = s.clock.fetch_add(1, Ordering::Relaxed);
        entry.stamp.store(stamp, Ordering::Relaxed);
        Some(entry.row.clone())
    }

    /// Insert (or refresh) `v`'s row, evicting least-recently-touched
    /// rows of its stripe until the new row's bytes fit the stripe's
    /// budget. A row too large for the whole stripe is dropped rather
    /// than blowing the bound (any stale copy under the same key is
    /// still removed).
    pub fn insert(&self, v: u64, row: Arc<[u64]>) {
        let cost = row_cost(&row);
        let mut s = self.stripe(v).write().unwrap();
        let stamp = s.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(old) = s.map.remove(&v) {
            s.bytes -= row_cost(&old.row);
        }
        if cost > s.cap {
            return;
        }
        // Evict the stripe's oldest entries until the budget holds. The
        // stripe is small, and inserts only happen on misses, so the
        // linear min-stamp scans are off the hit path entirely.
        while s.bytes + cost > s.cap {
            // A plain loop rather than `min_by_key`: the iterator form ran
            // as fast as LLVM's choice to inline hashbrown's `fold` here,
            // and an unrelated edit elsewhere in the crate flipped that
            // choice (~13% of `tri_batch` throughput on a 2-core x86-64
            // VM).
            let mut oldest = None;
            let mut oldest_stamp = u64::MAX;
            for (&k, e) in &s.map {
                let stamp = e.stamp.load(Ordering::Relaxed);
                if oldest.is_none() || stamp < oldest_stamp {
                    (oldest, oldest_stamp) = (Some(k), stamp);
                }
            }
            let Some(oldest) = oldest else {
                break;
            };
            let evicted = s.map.remove(&oldest).expect("key came from the map");
            s.bytes -= row_cost(&evicted.row);
        }
        s.bytes += cost;
        s.map.insert(
            v,
            Entry {
                row,
                stamp: AtomicU64::new(stamp),
            },
        );
    }
}

/// Per-shard routing and cache counters, updated with relaxed atomics on
/// every row fetch the engine performs.
#[derive(Debug)]
pub struct RoutingStats {
    per_shard: Vec<AtomicU64>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    remote_fetches: AtomicU64,
}

impl RoutingStats {
    /// Counters for `shards` shards, all zero.
    pub fn new(shards: usize) -> RoutingStats {
        RoutingStats {
            per_shard: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            remote_fetches: AtomicU64::new(0),
        }
    }

    /// Record one row fetch routed to `shard`.
    #[inline]
    pub fn record_fetch(&self, shard: usize) {
        self.per_shard[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request sent to a cluster peer to answer a query: a
    /// `/rows` exchange (each of its rows also counted in its shard's
    /// [`RoutingStats::record_fetch`] by the engine) or a `/wedges`
    /// exchange.
    #[inline]
    pub fn record_remote(&self) {
        self.remote_fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one cache hit.
    #[inline]
    pub fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one cache miss.
    #[inline]
    pub fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of all counters.
    pub fn report(&self) -> RoutingReport {
        RoutingReport {
            shard_fetches: self
                .per_shard
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_bytes: 0,
            remote_fetches: self.remote_fetches.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the engine's routing and cache counters
/// (`ServeEngine::routing`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingReport {
    /// Row fetches routed to each shard, by run-wide shard index (in a
    /// cluster this covers non-resident shards too). Cache hits are
    /// *not* included — a hit never reaches a shard.
    pub shard_fetches: Vec<u64>,
    /// Row fetches served from the cache.
    pub cache_hits: u64,
    /// Row fetches that missed the cache (and went to a shard).
    pub cache_misses: u64,
    /// Decoded row bytes resident in the cache when the snapshot was
    /// taken (0 when no cache is configured). Filled in by the engine —
    /// the counters themselves don't know the cache.
    pub cache_bytes: u64,
    /// Requests this node sent a peer to answer a query: one per `/rows`
    /// or `/wedges` exchange (each row a `/rows` moves also in its
    /// shard's `shard_fetches`); 0 on a single node.
    pub remote_fetches: u64,
}

impl RoutingReport {
    /// Total row fetches that reached a shard mapping.
    pub fn total_fetches(&self) -> u64 {
        self.shard_fetches.iter().sum()
    }

    /// Just the per-shard fetch counts, without the cache totals — for
    /// reporting on engines that have no row cache configured.
    pub fn shard_summary(&self) -> String {
        let counts: Vec<String> = self.shard_fetches.iter().map(u64::to_string).collect();
        format!("row fetches per shard: [{}]", counts.join(" "))
    }

    /// Cache hit rate over all cached-path fetches, 0.0 when the cache
    /// was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The report as a JSON object (the shape `/stats` serves).
    pub fn to_json(&self) -> kron_stream::json::Json {
        use kron_stream::json::Json;
        Json::obj(vec![
            (
                "shard_fetches",
                Json::Arr(self.shard_fetches.iter().map(Json::num).collect()),
            ),
            ("cache_hits", Json::num(self.cache_hits)),
            ("cache_misses", Json::num(self.cache_misses)),
            ("cache_hit_rate", Json::num(self.hit_rate())),
            ("cache_bytes", Json::num(self.cache_bytes)),
            ("remote_fetches", Json::num(self.remote_fetches)),
        ])
    }
}

impl std::fmt::Display for RoutingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; cache: {} hits / {} misses ({:.1}% hit rate)",
            self.shard_summary(),
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0
        )?;
        if self.remote_fetches > 0 {
            write!(f, "; peer requests: {}", self.remote_fetches)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[u64]) -> Arc<[u64]> {
        vals.to_vec().into()
    }

    /// Keys guaranteed to land in the same stripe.
    fn same_stripe_keys(n: usize) -> Vec<u64> {
        let probe = |k: u64| (mix(k) as usize) % STRIPES;
        let s0 = probe(0);
        (0..100_000).filter(|&k| probe(k) == s0).take(n).collect()
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let c = RowCache::new(64 * 1024);
        assert!(c.get(7).is_none());
        c.insert(7, row(&[1, 2, 3]));
        assert_eq!(c.get(7).unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 24);
        assert!(!c.is_empty());
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let c = RowCache::new(STRIPES as u64 * 8); // one 1-word row per stripe
        let keys = same_stripe_keys(3);
        let (a, b, cc) = (keys[0], keys[1], keys[2]);
        c.insert(a, row(&[1]));
        c.insert(b, row(&[2]));
        // a was least recently used → evicted by b's insert (8 B/stripe)
        assert!(c.get(a).is_none());
        assert!(c.get(b).is_some());
        // a later insert evicts b in turn
        c.insert(cc, row(&[3]));
        assert!(c.get(cc).is_some());
        assert!(c.get(b).is_none(), "b was older than c's insert");
    }

    #[test]
    fn refresh_on_get_protects_hot_rows() {
        let c = RowCache::new(STRIPES as u64 * 16); // two 1-word rows per stripe
        let keys = same_stripe_keys(3);
        let (a, b, cc) = (keys[0], keys[1], keys[2]);
        c.insert(a, row(&[1]));
        c.insert(b, row(&[2]));
        assert!(c.get(a).is_some()); // refresh a; b is now LRU
        c.insert(cc, row(&[3]));
        assert!(c.get(a).is_some(), "refreshed row must survive");
        assert!(c.get(b).is_none(), "unrefreshed row is evicted");
    }

    #[test]
    fn byte_budget_is_a_hard_bound() {
        // including awkward budgets: tiny (caches nothing), sub-word,
        // and non-multiples of the stripe count — with rows of very
        // different sizes
        for cap in [1u64, 24, 8 * STRIPES as u64, 1000, 64 * 1024] {
            let c = RowCache::new(cap);
            for k in 0..2_000u64 {
                let vals: Vec<u64> = (0..(k % 70)).collect();
                c.insert(k, vals.into());
            }
            assert!(
                c.bytes() <= c.capacity(),
                "bytes {} must never exceed budget {}",
                c.bytes(),
                c.capacity()
            );
        }
    }

    #[test]
    fn one_oversized_row_is_dropped_not_admitted() {
        let c = RowCache::new(STRIPES as u64 * 16); // 16 B per stripe
        let big: Vec<u64> = (0..100).collect();
        c.insert(5, big.into());
        assert!(c.get(5).is_none(), "row larger than its stripe's budget");
        assert_eq!(c.bytes(), 0);
        // replacing a resident row with an oversized one removes the
        // stale copy instead of serving it
        c.insert(9, row(&[1]));
        assert_eq!(c.get(9).unwrap().as_ref(), &[1]);
        let big: Vec<u64> = (0..100).collect();
        c.insert(9, big.into());
        assert!(c.get(9).is_none(), "stale small copy must not survive");
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn empty_rows_still_charge_the_budget() {
        let c = RowCache::new(STRIPES as u64 * 8); // one empty row per stripe
        let keys = same_stripe_keys(2);
        c.insert(keys[0], row(&[]));
        assert_eq!(c.bytes(), 8);
        c.insert(keys[1], row(&[]));
        assert!(c.get(keys[0]).is_none(), "empty rows evict each other");
        assert!(c.get(keys[1]).unwrap().is_empty());
    }

    #[test]
    fn concurrent_hits_and_inserts_stay_consistent() {
        let c = std::sync::Arc::new(RowCache::new(64 * 1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (i * 7 + t) % 128;
                        match c.get(k) {
                            Some(r) => assert_eq!(r.as_ref(), &[k]),
                            None => c.insert(k, row(&[k])),
                        }
                    }
                });
            }
        });
        assert!(c.bytes() <= c.capacity());
    }

    #[test]
    fn routing_stats_accumulate_and_report() {
        let r = RoutingStats::new(3);
        r.record_fetch(0);
        r.record_fetch(2);
        r.record_fetch(2);
        r.record_hit();
        r.record_miss();
        r.record_miss();
        r.record_miss();
        r.record_remote();
        let rep = r.report();
        assert_eq!(rep.shard_fetches, vec![1, 0, 2]);
        assert_eq!(rep.total_fetches(), 3);
        assert_eq!(rep.cache_hits, 1);
        assert_eq!(rep.cache_misses, 3);
        assert_eq!(rep.remote_fetches, 1);
        assert!((rep.hit_rate() - 0.25).abs() < 1e-12);
        let text = rep.to_string();
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("peer requests: 1"), "{text}");
        assert_eq!(
            rep.to_json().req("remote_fetches").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn empty_report_has_zero_hit_rate() {
        let rep = RoutingStats::new(2).report();
        assert_eq!(rep.hit_rate(), 0.0);
        assert_eq!(rep.total_fetches(), 0);
    }
}
