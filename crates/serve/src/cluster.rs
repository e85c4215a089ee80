//! The self-healing shard cluster: consistent-hash routing, replicated
//! per-shard state, and a seeded failure detector.
//!
//! A [`Cluster`] owns N in-process shards. Each shard owns its *own*
//! quarantine map and CRC-sealed [`BaselineCache`]; nothing is global, so
//! a shard dying can only take its own state offline. Two key spaces ride
//! one [`Ring`]:
//!
//! * **execution + quarantine** route by
//!   [`ScenarioQuery::fingerprint`](crate::query::ScenarioQuery::fingerprint),
//! * **baseline cache** routes by
//!   [`ScenarioQuery::baseline_key`](crate::query::ScenarioQuery::baseline_key),
//!
//! and every write (quarantine commit, cache insert) replicates to the
//! key's first [`ClusterConfig::replication`] ring successors. When a
//! shard dies, the next successor already holds the state — failover
//! costs routing (and at worst cache locality), never correctness.
//!
//! ## Failure detector: counted, not clocked
//!
//! Shard health is a consecutive-failure counter, **not** a wall-clock
//! heartbeat, so detector trajectories are as deterministic as the fault
//! injection driving them:
//!
//! ```text
//!            failures ≥ suspect_after      failures ≥ dead_after
//!  Healthy ───────────────────────▶ Suspect ───────────────────▶ Dead
//!     ▲                                │                           │
//!     │ success                        │ success                   │ routed-past
//!     └────────────────────────────────┘                           │ rejoin_after times
//!     ▲                                                            │
//!     └───────────── rejoin (probation as Suspect, state resynced) ┘
//! ```
//!
//! Only shard-attributed failures ([`ServeError::ShardLost`]) feed the
//! detector — a scenario's own panic says nothing about shard health.
//! A dead shard is skipped by routing; each skip ticks its rejoin
//! counter, and at zero the shard rejoins *on probation* (Suspect) after
//! resyncing its owned quarantine keys from the surviving replicas.
//!
//! Detector updates are batch-ordered, like quarantine commits: a batch
//! routes against its batch-start [`Cluster::alive_mask`] plus each
//! query's own avoid set, records every attempt, and
//! [`Cluster::commit_attempts`] applies them in input order after the
//! batch. Which shard a query hits — and so every keyed storm decision —
//! therefore never depends on which concurrent query reached the
//! detector first.
//!
//! ## Exactness under failover
//!
//! The batch engine reads quarantine state through
//! [`Cluster::quarantine_snapshot`], a merge over the shards that are
//! alive at batch start. Because commits go to every alive owner and a
//! rejoining shard resyncs before serving, all alive owners of a key
//! agree — so as long as fewer than `replication` owners of a key are
//! dead at once, the merged view is byte-for-byte the view a single
//! global map would give, which is what lets the storm gate
//! (`tests/storm.rs`) demand bit-identical responses to a single-shard
//! fault-free run. Lose all `replication` owners of a key at once and
//! its quarantine count degrades gracefully to zero (the scenario runs
//! again); answers remain correct either way.

use crate::cache::{BaselineCache, CacheStats, Lookup};
use crate::ring::Ring;
use crate::scenario::Baseline;
use crate::ServeError;
use besst_des::threads::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cluster topology and failure-detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// In-process shard workers. 1 reproduces the classic single-shard
    /// server exactly.
    pub shards: u32,
    /// Owners per key (primary + successors). Writes replicate to all
    /// owners; reads fail over along the owner list. Clamped to
    /// `[1, shards]` at build time.
    pub replication: u32,
    /// Virtual nodes per shard on the ring — more points, smoother key
    /// balance.
    pub vnodes: u32,
    /// Consecutive shard-attributed failures before a shard turns
    /// Suspect.
    pub suspect_after: u32,
    /// Consecutive shard-attributed failures before a shard turns Dead
    /// and routing skips it.
    pub dead_after: u32,
    /// Times routing must skip a dead shard before it rejoins (on
    /// probation, state resynced from replicas).
    pub rejoin_after: u32,
    /// Ring placement seed. Two instances with the same seed route
    /// identically.
    pub seed: u64,
}

impl ClusterConfig {
    /// The single-shard topology: one shard owning everything. This is
    /// [`Default`], so existing single-process deployments are untouched.
    pub fn single() -> Self {
        ClusterConfig {
            shards: 1,
            replication: 1,
            vnodes: 64,
            suspect_after: 2,
            dead_after: 4,
            rejoin_after: 64,
            seed: 0xBE57_C1C5,
        }
    }

    /// A sharded topology with sensible defaults: `shards` shards,
    /// replication 2 (clamped down for a 1-shard "cluster").
    pub fn sharded(shards: u32) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            replication: 2u32.min(shards.max(1)),
            ..ClusterConfig::single()
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::single()
    }
}

/// One shard's health as seen by the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Accumulating consecutive failures (or rejoined on probation);
    /// still routed to.
    Suspect,
    /// Past [`ClusterConfig::dead_after`]; routing skips it until it
    /// rejoins.
    Dead,
}

/// Cluster counters snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Configured shard count.
    pub shards: u32,
    /// Configured replication factor (after clamping).
    pub replication: u32,
    /// Shards currently not Dead.
    pub alive: u32,
    /// Healthy/Suspect → Dead transitions.
    pub deaths: u64,
    /// Dead → Suspect (probation) transitions.
    pub rejoins: u64,
    /// Routing decisions that landed on a non-primary shard.
    pub failovers: u64,
    /// Shard-attributed failures fed to the detector.
    pub shard_failures: u64,
    /// Quarantine keys restored to rejoining shards from replicas.
    pub resynced_keys: u64,
}

/// One shard: its own cache and its own quarantine map.
struct Shard {
    cache: BaselineCache,
    /// fingerprint → consecutive retry-exhausted failures.
    quarantine: Mutex<BTreeMap<u64, u32>>,
}

/// Failure-detector state for one shard.
#[derive(Debug, Clone, Copy)]
struct Slot {
    health: ShardHealth,
    consecutive: u32,
    rejoin_ticks: u32,
}

/// A successful attempt resets the consecutive counter and clears
/// probation. It never resurrects a Dead shard — only the rejoin path
/// does that, after a resync.
fn record_success(slot: &mut Slot) {
    if slot.health != ShardHealth::Dead {
        slot.consecutive = 0;
        slot.health = ShardHealth::Healthy;
    }
}

/// One routed attempt, as a batch's ledger records it for
/// [`Cluster::commit_attempts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The shard the attempt ran on.
    pub shard: u32,
    /// What it says about that shard: `Some(true)` a success,
    /// `Some(false)` a shard-attributed failure ([`ServeError::ShardLost`]),
    /// `None` nothing (the scenario's own panic or error).
    pub healthy: Option<bool>,
}

#[derive(Debug, Default)]
struct Counters {
    deaths: AtomicU64,
    rejoins: AtomicU64,
    failovers: AtomicU64,
    shard_failures: AtomicU64,
    resynced_keys: AtomicU64,
}

/// N in-process shards behind one consistent-hash ring.
pub struct Cluster {
    cfg: ClusterConfig,
    ring: Ring,
    shards: Vec<Shard>,
    /// Lock order: `detector` before any shard's `quarantine` (and the
    /// quarantine locks are leaves, held one at a time) — see `resync`.
    detector: Mutex<Vec<Slot>>,
    counters: Counters,
}

impl Cluster {
    /// Build the cluster. `cache_capacity` is per shard (each shard
    /// seals its own baselines). Fails on a degenerate config.
    pub fn new(cfg: ClusterConfig, cache_capacity: usize) -> Result<Cluster, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::Internal("cluster: shards must be ≥ 1".into()));
        }
        if cfg.suspect_after == 0 || cfg.dead_after < cfg.suspect_after {
            return Err(ServeError::Internal(
                "cluster: need 1 ≤ suspect_after ≤ dead_after".into(),
            ));
        }
        if cfg.rejoin_after == 0 {
            return Err(ServeError::Internal("cluster: rejoin_after must be ≥ 1".into()));
        }
        let cfg = ClusterConfig {
            replication: cfg.replication.clamp(1, cfg.shards),
            vnodes: cfg.vnodes.max(1),
            ..cfg
        };
        let ring = Ring::new(cfg.seed, cfg.shards, cfg.vnodes);
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                cache: BaselineCache::new(cache_capacity),
                quarantine: Mutex::new(BTreeMap::new()),
            })
            .collect();
        let slot = Slot { health: ShardHealth::Healthy, consecutive: 0, rejoin_ticks: 0 };
        Ok(Cluster {
            detector: Mutex::new(vec![slot; cfg.shards as usize]),
            counters: Counters::default(),
            cfg,
            ring,
            shards,
        })
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The placement ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Route `key` against the detector's current view: see
    /// [`Cluster::route_among`].
    pub fn route(&self, key: u64, avoid: &[u32]) -> u32 {
        self.route_among(&self.alive_mask(), key, avoid)
    }

    /// Route `key` to a shard against the health snapshot `alive` (the
    /// batch engine passes its batch-start [`Cluster::alive_mask`]): the
    /// first alive shard in ring-successor order that is not in `avoid`
    /// (the caller's per-query set of shards that already failed this
    /// query). Falls back to the first alive shard, then to the primary
    /// owner — the cluster always answers, even with every shard
    /// storming; total loss of the owner set only costs cache locality.
    ///
    /// Routing changes no detector state, so a query's route depends on
    /// the snapshot and its own attempts only, never on which concurrent
    /// query finished first.
    pub fn route_among(&self, alive: &[bool], key: u64, avoid: &[u32]) -> u32 {
        let order = self.ring.successor_order(key);
        let chosen = order
            .iter()
            .copied()
            .find(|&s| alive[s as usize] && !avoid.contains(&s))
            .or_else(|| order.iter().copied().find(|&s| alive[s as usize]))
            .unwrap_or(order[0]);
        if chosen != order[0] {
            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        }
        chosen
    }

    /// Apply one query's routed attempts to the failure detector, in the
    /// order they ran. The batch engine calls this after the batch, in
    /// input order, so detector trajectories replay from the seed.
    ///
    /// Each attempt first walks `key`'s successor order up to the shard
    /// it ran on and ticks the rejoin counter of every shard on that walk
    /// that is Dead at this point of the commit: the batch routed past
    /// it, or it died after the batch's snapshot and a live view would
    /// have skipped it. At zero a shard resyncs from replicas and rejoins
    /// on probation. Then the attempt's verdict lands on its shard.
    pub fn commit_attempts(&self, key: u64, attempts: &[Attempt]) {
        if attempts.is_empty() {
            return;
        }
        let mut det = lock(&self.detector);
        let mut order: Option<Vec<u32>> = None;
        for a in attempts {
            if det.iter().any(|s| s.health == ShardHealth::Dead) {
                let order = order.get_or_insert_with(|| self.ring.successor_order(key));
                for &s in order.iter() {
                    if det[s as usize].health == ShardHealth::Dead {
                        self.tick_rejoin(&mut det, s);
                    }
                    if s == a.shard {
                        break;
                    }
                }
            }
            match a.healthy {
                Some(true) => record_success(&mut det[a.shard as usize]),
                Some(false) => self.record_failure(&mut det[a.shard as usize]),
                None => {}
            }
        }
    }

    /// A shard-attributed failure ([`ServeError::ShardLost`]) advances
    /// the detector.
    fn record_failure(&self, slot: &mut Slot) {
        self.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
        if slot.health == ShardHealth::Dead {
            return;
        }
        slot.consecutive = slot.consecutive.saturating_add(1);
        if slot.consecutive >= self.cfg.dead_after {
            slot.health = ShardHealth::Dead;
            slot.rejoin_ticks = self.cfg.rejoin_after;
            self.counters.deaths.fetch_add(1, Ordering::Relaxed);
        } else if slot.consecutive >= self.cfg.suspect_after {
            slot.health = ShardHealth::Suspect;
        }
    }

    /// One walk passed dead `shard`; count it toward rejoin.
    fn tick_rejoin(&self, det: &mut [Slot], shard: u32) {
        let slot = &mut det[shard as usize];
        slot.rejoin_ticks = slot.rejoin_ticks.saturating_sub(1);
        if slot.rejoin_ticks == 0 {
            self.resync(det, shard);
            let slot = &mut det[shard as usize];
            slot.health = ShardHealth::Suspect;
            slot.consecutive = 0;
            self.counters.rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rebuild a rejoining shard's quarantine map from the surviving
    /// replicas: adopt the max count per owned key, drop keys no replica
    /// holds (a success elsewhere removed them while this shard was
    /// down). Called with the detector lock held; quarantine locks are
    /// taken one at a time underneath it (lock-order comment on the
    /// field).
    fn resync(&self, det: &[Slot], shard: u32) {
        let mut fresh: BTreeMap<u64, u32> = BTreeMap::new();
        for (p, peer) in self.shards.iter().enumerate() {
            if p == shard as usize || det[p].health == ShardHealth::Dead {
                continue;
            }
            for (&k, &v) in lock(&peer.quarantine).iter() {
                if self.ring.owners(k, self.cfg.replication).contains(&shard) {
                    let e = fresh.entry(k).or_insert(0);
                    *e = (*e).max(v);
                }
            }
        }
        self.counters.resynced_keys.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        *lock(&self.shards[shard as usize].quarantine) = fresh;
    }

    /// Shards currently not Dead, as a mask — the health snapshot a
    /// batch routes against.
    pub fn alive_mask(&self) -> Vec<bool> {
        lock(&self.detector).iter().map(|s| s.health != ShardHealth::Dead).collect()
    }

    /// Each shard's current health, for tests and diagnostics.
    pub fn health(&self) -> Vec<ShardHealth> {
        lock(&self.detector).iter().map(|s| s.health).collect()
    }

    /// Merged quarantine view over the shards alive right now — the view
    /// the batch engine snapshots at batch start. Alive owners agree on
    /// every key (module docs), so the max-merge equals what a single
    /// global map would hold.
    pub fn quarantine_snapshot(&self) -> BTreeMap<u64, u32> {
        let alive = self.alive_mask();
        let mut out = BTreeMap::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if !alive[s] {
                continue;
            }
            for (&k, &v) in lock(&shard.quarantine).iter() {
                let e = out.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        out
    }

    /// Commit one query's post-batch quarantine delta to every alive
    /// owner of its fingerprint: exhausted failures increment, successes
    /// clear.
    pub fn commit_quarantine(&self, fp: u64, exhausted: bool) {
        let alive = self.alive_mask();
        for o in self.ring.owners(fp, self.cfg.replication) {
            if !alive[o as usize] {
                continue;
            }
            let mut g = lock(&self.shards[o as usize].quarantine);
            if exhausted {
                *g.entry(fp).or_insert(0) += 1;
            } else {
                g.remove(&fp);
            }
        }
    }

    /// The shard a cache probe for `key` reads from: its first alive
    /// owner (primary when all owners are dead — a dead shard's cache is
    /// stale at worst, and CRC + recompute make stale entries harmless).
    fn cache_shard(&self, key: u64) -> u32 {
        let alive = self.alive_mask();
        let owners = self.ring.owners(key, self.cfg.replication);
        owners.iter().copied().find(|&o| alive[o as usize]).unwrap_or(owners[0])
    }

    /// Probe the cache for `key` on its first alive owner.
    pub fn cache_lookup(&self, key: u64) -> Lookup {
        self.shards[self.cache_shard(key) as usize].cache.lookup(key)
    }

    /// Insert a sealed baseline under `key` on every alive owner (the
    /// primary as a last resort), so the next successor already holds it
    /// when the primary dies.
    pub fn cache_insert(&self, key: u64, baseline: &Baseline) {
        let alive = self.alive_mask();
        let owners = self.ring.owners(key, self.cfg.replication);
        let mut inserted = false;
        for &o in &owners {
            if alive[o as usize] {
                self.shards[o as usize].cache.insert(key, baseline);
                inserted = true;
            }
        }
        if !inserted {
            self.shards[owners[0] as usize].cache.insert(key, baseline);
        }
    }

    /// Flip one bit of the sealed entry under `key` on the shard a probe
    /// would read from (chaos injection).
    pub fn corrupt_cache(&self, key: u64, bit: u64) {
        self.shards[self.cache_shard(key) as usize].cache.corrupt_entry(key, bit);
    }

    /// Cache counters summed across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.corruptions += s.corruptions;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }

    /// Cluster counters snapshot.
    pub fn stats(&self) -> ClusterStats {
        let alive = self.alive_mask().iter().filter(|&&a| a).count() as u32;
        ClusterStats {
            shards: self.cfg.shards,
            replication: self.cfg.replication,
            alive,
            deaths: self.counters.deaths.load(Ordering::Relaxed),
            rejoins: self.counters.rejoins.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            shard_failures: self.counters.shard_failures.load(Ordering::Relaxed),
            resynced_keys: self.counters.resynced_keys.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(shards: u32, replication: u32) -> Cluster {
        let cfg = ClusterConfig {
            shards,
            replication,
            dead_after: 3,
            rejoin_after: 4,
            ..ClusterConfig::single()
        };
        Cluster::new(cfg, 8).expect("valid config")
    }

    /// A key whose primary owner is `shard`.
    fn key_of(c: &Cluster, shard: u32) -> u64 {
        (0..).find(|&k| c.ring().primary(k) == shard).expect("every shard owns keys")
    }

    fn attempts(shard: u32, healthy: bool, n: u32) -> Vec<Attempt> {
        vec![Attempt { shard, healthy: Some(healthy) }; n as usize]
    }

    fn kill(c: &Cluster, shard: u32) {
        c.commit_attempts(key_of(c, shard), &attempts(shard, false, c.config().dead_after));
        assert_eq!(c.health()[shard as usize], ShardHealth::Dead);
    }

    /// Route `key` against the live view and commit a success there, as
    /// a one-query batch would.
    fn route_and_commit(c: &Cluster, key: u64) -> u32 {
        let s = c.route(key, &[]);
        c.commit_attempts(key, &attempts(s, true, 1));
        s
    }

    #[test]
    fn detector_walks_healthy_suspect_dead_rejoin() {
        let c = cluster(4, 2);
        let key = key_of(&c, 1);
        assert_eq!(c.health(), vec![ShardHealth::Healthy; 4]);
        c.commit_attempts(key, &attempts(1, false, 2));
        assert_eq!(c.health()[1], ShardHealth::Suspect);
        c.commit_attempts(key, &attempts(1, true, 1));
        assert_eq!(c.health()[1], ShardHealth::Healthy, "success clears suspicion");
        kill(&c, 1);
        // An attempt routed to shard 1 from a stale snapshot counts as a
        // walk past it, never as a resurrection.
        c.commit_attempts(key, &attempts(1, true, 1));
        assert_eq!(c.health()[1], ShardHealth::Dead, "success never resurrects");
        // Every committed walk over shard 1 ticks its rejoin counter; the
        // final tick completes the rejoin.
        for _ in 0..c.config().rejoin_after - 2 {
            assert_ne!(route_and_commit(&c, key), 1, "dead shards are skipped before rejoin");
        }
        assert_eq!(c.health()[1], ShardHealth::Dead);
        route_and_commit(&c, key);
        assert_eq!(c.health()[1], ShardHealth::Suspect, "rejoined on probation");
        let s = c.stats();
        assert_eq!((s.deaths, s.rejoins), (1, 1));
        assert!(s.failovers >= u64::from(c.config().rejoin_after) - 1);
    }

    #[test]
    fn route_fails_over_to_successor_and_back() {
        let c = cluster(4, 2);
        let key = 0xFEED_F00D;
        let order = c.ring().successor_order(key);
        assert_eq!(c.route(key, &[]), order[0]);
        kill(&c, order[0]);
        assert_eq!(c.route(key, &[]), order[1], "next successor absorbs the keys");
        // The avoid set steers around shards that already failed a query.
        assert_eq!(c.route(key, &[order[1]]), order[2]);
    }

    #[test]
    fn batch_routes_against_its_snapshot_until_commit() {
        let c = cluster(4, 2);
        let key = 0xFEED_F00D;
        let order = c.ring().successor_order(key);
        let snapshot = c.alive_mask();
        kill(&c, order[0]);
        assert_eq!(c.route_among(&snapshot, key, &[]), order[0], "a batch keeps its view");
        assert_eq!(c.route(key, &[]), order[1], "the next batch sees the death");
    }

    #[test]
    fn quarantine_commits_replicate_and_survive_owner_death() {
        let c = cluster(4, 2);
        let fp = 0xBAD_C0DE;
        c.commit_quarantine(fp, true);
        c.commit_quarantine(fp, true);
        assert_eq!(c.quarantine_snapshot().get(&fp), Some(&2));
        // Kill the primary owner: the replica still answers.
        let owners = c.ring().owners(fp, 2);
        kill(&c, owners[0]);
        assert_eq!(c.quarantine_snapshot().get(&fp), Some(&2));
        // A success clears the key on the alive owners.
        c.commit_quarantine(fp, false);
        assert_eq!(c.quarantine_snapshot().get(&fp), None);
    }

    #[test]
    fn rejoined_shard_resyncs_owned_keys_from_replicas() {
        let c = cluster(4, 2);
        let fp = key_of(&c, 2);
        c.commit_quarantine(fp, true);
        kill(&c, 2);
        // While shard 2 is down its replica takes two more strikes and
        // the dead map goes stale.
        c.commit_quarantine(fp, true);
        c.commit_quarantine(fp, true);
        for _ in 0..c.config().rejoin_after {
            route_and_commit(&c, fp);
        }
        assert_eq!(c.health()[2], ShardHealth::Suspect);
        assert_eq!(
            c.quarantine_snapshot().get(&fp),
            Some(&3),
            "rejoined shard must adopt the replicas' counts, not its stale own"
        );
        assert!(c.stats().resynced_keys >= 1);
    }

    #[test]
    fn single_shard_cluster_is_the_degenerate_case() {
        let c = cluster(1, 1);
        assert_eq!(c.route(42, &[]), 0);
        c.commit_quarantine(7, true);
        assert_eq!(c.quarantine_snapshot().get(&7), Some(&1));
        assert_eq!(c.stats().failovers, 0);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(Cluster::new(ClusterConfig { shards: 0, ..ClusterConfig::single() }, 8).is_err());
        assert!(Cluster::new(
            ClusterConfig { suspect_after: 3, dead_after: 2, ..ClusterConfig::single() },
            8
        )
        .is_err());
        assert!(
            Cluster::new(ClusterConfig { rejoin_after: 0, ..ClusterConfig::single() }, 8).is_err()
        );
        // Over-replication clamps instead of failing.
        let c = Cluster::new(ClusterConfig { shards: 2, replication: 9, ..ClusterConfig::single() }, 8)
            .expect("clamped");
        assert_eq!(c.config().replication, 2);
    }
}
