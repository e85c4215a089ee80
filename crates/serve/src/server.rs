//! The hardened batch engine: admission, isolation, retries, quarantine.
//!
//! [`Server::handle_batch`] upholds the server's core invariant —
//! **exactly one [`Response`] per input query**, whatever happens inside
//! a worker. The four robustness layers from the crate docs live here:
//! bounded admission with load shedding, `catch_unwind` isolation with
//! a deterministic quarantine, soft deadlines with bounded
//! exponential-backoff retries, and (when configured) chaos injection
//! against the server's own workers and cache.
//!
//! Determinism contract (what the chaos harness asserts): quarantine
//! decisions and shard routing are taken against the state *before* the
//! batch, and quarantine deltas and failure-detector outcomes are
//! committed in input order *after* it, so neither responses nor
//! cluster counters depend on worker scheduling; deadlines gate retries
//! and admission-to-run, never a completed answer, so bounded injected
//! delays cannot flip a success into a timeout.

use crate::cache::{CacheStats, Lookup};
use crate::chaos::{Chaos, ChaosStats};
use crate::cluster::{Attempt, Cluster, ClusterConfig, ClusterStats};
use crate::query::ScenarioQuery;
use crate::scenario::{compute_baseline, run_overlay, QueryAnswer};
use crate::ServeError;
use besst_des::threads::{lock, par_map};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server tuning knobs. [`Default`] is sized for tests and the smoke
/// batch; the `besst serve` binary exposes the interesting ones as
/// flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads each batch fans out over (0 = one per core).
    pub workers: usize,
    /// Admission bound: queries per batch beyond this are shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Baselines the cache retains.
    pub cache_capacity: usize,
    /// Default per-query soft deadline, ms (a query may lower or raise
    /// its own via `deadline_ms`).
    pub deadline_ms: u64,
    /// Per-batch budget, ms: queries whose turn comes after it expires
    /// are answered with explicit [`ServeError::Timeout`] markers.
    pub batch_budget_ms: u64,
    /// Retry attempts after a transient (panic) failure.
    pub max_retries: u32,
    /// Base backoff before the first retry, µs; doubles per retry with
    /// deterministic seeded jitter.
    pub backoff_base_us: u64,
    /// Retry-exhausted failures on one fingerprint before it is
    /// quarantined (fast-failed without running).
    pub quarantine_threshold: u32,
    /// Shard topology and failure-detector tuning. The default
    /// ([`ClusterConfig::single`]) is one shard owning everything —
    /// exactly the classic single-process server.
    pub cluster: ClusterConfig,
    /// Self-fault-injection; `None` runs fault-free.
    pub chaos: Option<Chaos>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 4096,
            cache_capacity: 64,
            deadline_ms: 10_000,
            batch_budget_ms: 60_000,
            max_retries: 8,
            backoff_base_us: 50,
            quarantine_threshold: 2,
            cluster: ClusterConfig::single(),
            chaos: None,
        }
    }
}

/// Ceiling for the [`ServeError::Overloaded`] retry-after hint, ms. The
/// hint grows linearly with a query's overflow position so shed clients
/// spread their resubmissions, but a pathological batch must not tell
/// anyone to wait minutes — past this depth every hint saturates here.
pub const RETRY_AFTER_CAP_MS: u64 = 1_000;

/// What happened to one query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The query ran to completion.
    Ok {
        /// The computed numbers.
        answer: QueryAnswer,
        /// Whether the baseline came from the cache.
        cached: bool,
        /// Retries spent (0 on the fault-free path).
        retries: u32,
    },
    /// The query failed; see [`ServeError`] for the taxonomy.
    Err(ServeError),
}

/// Exactly one of these per input query.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The query's caller-chosen id, echoed back.
    pub id: u64,
    /// The outcome.
    pub outcome: Outcome,
}

/// Server-level counters snapshot (cache and chaos counters ride along).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Queries received across all batches.
    pub received: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries answered `ok`.
    pub ok: u64,
    /// Queries answered with an error of any kind.
    pub errors: u64,
    /// Timeout markers issued.
    pub timeouts: u64,
    /// Quarantine fast-fails issued.
    pub quarantined: u64,
    /// Worker panics caught (every attempt, retried or not).
    pub panics_caught: u64,
    /// Retries spent across all queries.
    pub retries: u64,
}

#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    shed: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    quarantined: AtomicU64,
    panics_caught: AtomicU64,
    retries: AtomicU64,
}

/// The scenario server: owns the shard cluster (which in turn owns every
/// cache and quarantine map — one of each per shard; see
/// [`crate::cluster`]) and fans each batch out over
/// [`ServeConfig::workers`] threads.
pub struct Server {
    cfg: ServeConfig,
    cluster: Cluster,
    counters: Counters,
}

/// Post-batch bookkeeping for one query, committed in input order so
/// neither the failure detector nor the quarantine ever depends on
/// worker scheduling.
#[derive(Default)]
struct LedgerEntry {
    /// The query's fingerprint.
    fp: u64,
    /// Every routed attempt, in the order it ran.
    attempts: Vec<Attempt>,
    /// The quarantine verdict of a query that ran to one: exhausted
    /// (permanent) failure or not. `None` (shed, fast-failed, or timed
    /// out) changes nothing.
    exhausted: Option<bool>,
}

impl Server {
    /// Build a server. Fails if the cluster config is degenerate.
    pub fn new(cfg: ServeConfig) -> Result<Server, ServeError> {
        let cluster = Cluster::new(cfg.cluster, cfg.cache_capacity)?;
        Ok(Server { cfg, cluster, counters: Counters::default() })
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Handle one batch, returning responses in input order.
    pub fn handle_batch(&self, queries: &[ScenarioQuery]) -> Vec<Response> {
        let slots: Vec<Mutex<Option<Response>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        self.handle_batch_indexed(queries, &|idx, resp| {
            *lock(&slots[idx]) = Some(resp);
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let resp = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                resp.unwrap_or_else(|| Response {
                    // Unreachable by construction (every index is answered
                    // exactly once); a typed error beats a panic if the
                    // invariant ever regresses.
                    id: queries[i].id,
                    outcome: Outcome::Err(ServeError::Internal(
                        "query produced no response".into(),
                    )),
                })
            })
            .collect()
    }

    /// Handle one batch, streaming each response as it completes
    /// (completion order; the `usize` is the query's input index).
    pub fn handle_batch_indexed(
        &self,
        queries: &[ScenarioQuery],
        sink: &(dyn Fn(usize, Response) + Sync),
    ) {
        let batch_start = Instant::now();
        let budget = Duration::from_millis(self.cfg.batch_budget_ms);
        self.counters.received.fetch_add(queries.len() as u64, Ordering::Relaxed);

        // Quarantine snapshot: decisions for this whole batch are taken
        // against pre-batch state (determinism contract, module docs).
        // The cluster merges the per-shard maps of every currently-alive
        // shard; alive owners agree on every key, so this equals the
        // single-map view (see `crate::cluster` docs).
        let pre_quarantine: BTreeMap<u64, u32> = self.cluster.quarantine_snapshot();
        // Health snapshot: the whole batch routes against it, and the
        // detector learns from the batch only when the ledger commits.
        let alive = self.cluster.alive_mask();
        let ledger: Vec<Mutex<LedgerEntry>> =
            queries.iter().map(|_| Mutex::new(LedgerEntry::default())).collect();

        let admitted = queries.len().min(self.cfg.queue_capacity);
        // Shed the tail beyond the admission bound up front: flat,
        // immediate Overloaded responses instead of queue collapse.
        for (idx, q) in queries.iter().enumerate().skip(admitted) {
            let overflow = (idx - admitted) as u64;
            let retry_after_ms =
                10u64.saturating_add(overflow.saturating_mul(5)).min(RETRY_AFTER_CAP_MS);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            sink(idx, Response {
                id: q.id,
                outcome: Outcome::Err(ServeError::Overloaded { retry_after_ms }),
            });
        }

        par_map(self.cfg.workers, queries[..admitted].iter().enumerate(), |(idx, q)| {
            let (resp, entry) = self.run_one(q, batch_start, budget, &pre_quarantine, &alive);
            *lock(&ledger[idx]) = entry;
            self.count_outcome(&resp.outcome);
            sink(idx, resp);
        });

        // Commit in input order: each query's attempts to the failure
        // detector, then its quarantine delta, replicated to every alive
        // owner of its fingerprint.
        for slot in ledger {
            let entry = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.cluster.commit_attempts(entry.fp, &entry.attempts);
            if let Some(exhausted) = entry.exhausted {
                self.cluster.commit_quarantine(entry.fp, exhausted);
            }
        }
    }

    fn count_outcome(&self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok { retries, .. } => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                self.counters.retries.fetch_add(u64::from(*retries), Ordering::Relaxed);
            }
            Outcome::Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                match e {
                    ServeError::Timeout { .. } => {
                        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    ServeError::Quarantined { .. } => {
                        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Run one admitted query to a verdict, routing against the
    /// batch's health snapshot `alive`.
    fn run_one(
        &self,
        q: &ScenarioQuery,
        batch_start: Instant,
        budget: Duration,
        pre_quarantine: &BTreeMap<u64, u32>,
        alive: &[bool],
    ) -> (Response, LedgerEntry) {
        let fp = q.fingerprint();
        let mut entry = LedgerEntry { fp, ..LedgerEntry::default() };
        if let Some(&failures) = pre_quarantine.get(&fp) {
            if failures >= self.cfg.quarantine_threshold {
                return (
                    Response { id: q.id, outcome: Outcome::Err(ServeError::Quarantined { failures }) },
                    entry,
                );
            }
        }
        let deadline_ms =
            if q.deadline_ms > 0 { q.deadline_ms } else { self.cfg.deadline_ms };
        let deadline = Duration::from_millis(deadline_ms);
        let timeout = ServeError::Timeout { deadline_ms };
        if batch_start.elapsed() > budget {
            // Batch budget already gone: explicit marker, never a stall.
            return (Response { id: q.id, outcome: Outcome::Err(timeout) }, entry);
        }
        let query_start = Instant::now();
        let mut retries = 0u32;
        // Shards that already failed *this query* with ShardLost. A
        // reroute to a fresh shard costs no retry budget — losing a
        // shard must not burn the retries a good query may still need —
        // so storms are bounded by the avoid set instead: once every
        // shard has failed the query once, the set clears and a real
        // retry is spent, so a cluster-wide permanent storm still
        // terminates in max_retries rounds.
        let mut avoided: Vec<u32> = Vec::new();
        loop {
            let shard = self.cluster.route_among(alive, fp, &avoided);
            let attempt_result = self.attempt(q, fp, shard, retries);
            let healthy = match &attempt_result {
                Ok(_) => Some(true),
                Err(ServeError::ShardLost { .. }) => Some(false),
                Err(_) => None,
            };
            entry.attempts.push(Attempt { shard, healthy });
            match attempt_result {
                Ok((answer, cached)) => {
                    entry.exhausted = Some(false);
                    return (
                        Response {
                            id: q.id,
                            outcome: Outcome::Ok { answer, cached, retries },
                        },
                        entry,
                    );
                }
                Err(ServeError::ShardLost { shard: lost }) => {
                    if query_start.elapsed() > deadline || batch_start.elapsed() > budget {
                        return (Response { id: q.id, outcome: Outcome::Err(timeout) }, entry);
                    }
                    let all_failed = avoided.contains(&lost)
                        || avoided.len() as u32 + 1 >= self.cfg.cluster.shards;
                    if !all_failed {
                        avoided.push(lost);
                    } else if retries < self.cfg.max_retries {
                        avoided.clear();
                        std::thread::sleep(self.backoff(fp, retries));
                        retries += 1;
                    } else {
                        entry.exhausted = Some(true);
                        return (
                            Response {
                                id: q.id,
                                outcome: Outcome::Err(ServeError::ShardLost { shard: lost }),
                            },
                            entry,
                        );
                    }
                }
                Err(e) if e.transient() && retries < self.cfg.max_retries => {
                    if query_start.elapsed() > deadline || batch_start.elapsed() > budget {
                        // Out of time mid-retry: degrade to a marker.
                        return (Response { id: q.id, outcome: Outcome::Err(timeout) }, entry);
                    }
                    std::thread::sleep(self.backoff(fp, retries));
                    retries += 1;
                }
                Err(e) => {
                    entry.exhausted = Some(e.transient()); // retries used up
                    return (Response { id: q.id, outcome: Outcome::Err(e) }, entry);
                }
            }
        }
    }

    /// One isolated attempt on `shard`: shard-storm roll, chaos
    /// delay/crash, cache probe, baseline compute, overlay — all under
    /// `catch_unwind`.
    fn attempt(
        &self,
        q: &ScenarioQuery,
        fp: u64,
        shard: u32,
        attempt: u32,
    ) -> Result<(QueryAnswer, bool), ServeError> {
        let result =
            catch_unwind(AssertUnwindSafe(|| self.attempt_inner(q, fp, shard, attempt)));
        match result {
            Ok(r) => r,
            Err(payload) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(ServeError::Panic(msg))
            }
        }
    }

    fn attempt_inner(
        &self,
        q: &ScenarioQuery,
        fp: u64,
        shard: u32,
        attempt: u32,
    ) -> Result<(QueryAnswer, bool), ServeError> {
        if let Some(chaos) = &self.cfg.chaos {
            // A storming shard fails the attempt *as a typed error*, not
            // a panic: the caller must learn which shard to avoid, and
            // the failure detector must only ever see shard-attributed
            // failures.
            if chaos.shard_crashes(shard, fp, attempt) {
                return Err(ServeError::ShardLost { shard });
            }
            if let Some(delay) = chaos.worker_delay(fp, attempt) {
                std::thread::sleep(delay);
            }
            if chaos.worker_crashes(fp, attempt) {
                // lint: allow(panic-path) -- deliberate self-fault-injection:
                // the panic must cross the catch_unwind boundary above to
                // exercise the isolation layer for real.
                panic!("buggify: injected worker crash (fp={fp:#x}, attempt={attempt})");
            }
        }
        let key = q.baseline_key();
        let (baseline, cached) = match self.cluster.cache_lookup(key) {
            Lookup::Hit(b) => (b, true),
            // Corrupt and Miss take the same recompute path: corruption
            // costs latency, never answers.
            Lookup::Corrupt | Lookup::Miss => {
                let b = compute_baseline(q)?;
                self.cluster.cache_insert(key, &b);
                if let Some(chaos) = &self.cfg.chaos {
                    if let Some(bit) = chaos.corrupts_cache(key) {
                        self.cluster.corrupt_cache(key, bit);
                    }
                }
                (b, false)
            }
        };
        let answer = run_overlay(q, &baseline)?;
        Ok((answer, cached))
    }

    /// Deterministic exponential backoff with seeded jitter: attempt `n`
    /// waits `base * 2^n + jitter(fp, n)` µs, capped at 5 ms.
    fn backoff(&self, fp: u64, attempt: u32) -> Duration {
        let base = self.cfg.backoff_base_us.max(1);
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let seed = self.cfg.chaos.as_ref().map_or(0xBE57, |c| c.seed());
        let jitter = crate::query::mix(seed ^ fp, u64::from(attempt)) % base;
        Duration::from_micros((exp + jitter).min(5_000))
    }

    /// Server counters snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            received: self.counters.received.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            panics_caught: self.counters.panics_caught.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
        }
    }

    /// Cache counters snapshot, summed across shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cluster.cache_stats()
    }

    /// Cluster counters snapshot (shard health, deaths, rejoins,
    /// failovers).
    pub fn cluster_stats(&self) -> ClusterStats {
        self.cluster.stats()
    }

    /// The shard cluster, for tests that probe health and routing.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Chaos counters snapshot (zeroes when running fault-free).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.cfg.chaos.as_ref().map(Chaos::stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besst_des::json::parse;

    fn query(text: &str) -> ScenarioQuery {
        ScenarioQuery::from_value(&parse(text).expect("valid JSON")).expect("valid query")
    }

    fn quiet_server(cfg: ServeConfig) -> Server {
        Server::new(cfg).expect("pool starts")
    }

    #[test]
    fn batch_answers_every_query_in_order() {
        let s = quiet_server(ServeConfig::default());
        let qs: Vec<ScenarioQuery> = (0..6)
            .map(|i| query(&format!(r#"{{"id":{i},"steps":10,"seed":{i}}}"#)))
            .collect();
        let resps = s.handle_batch(&qs);
        assert_eq!(resps.len(), 6);
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(matches!(r.outcome, Outcome::Ok { .. }), "{r:?}");
        }
    }

    #[test]
    fn identical_configs_share_one_baseline() {
        let s = quiet_server(ServeConfig::default());
        let qs: Vec<ScenarioQuery> =
            (0..8).map(|i| query(&format!(r#"{{"id":{i},"steps":10,"seed":{i}}}"#))).collect();
        let _ = s.handle_batch(&qs);
        let cs = s.cache_stats();
        // One miss computes the baseline; every other query hits it
        // (modulo races where two workers miss concurrently, which can
        // only *lower* the hit count by re-computing, never corrupt it).
        assert!(cs.hits >= 1, "{cs:?}");
        assert_eq!(cs.corruptions, 0);
    }

    #[test]
    fn poison_is_isolated_then_quarantined() {
        let cfg =
            ServeConfig { max_retries: 2, quarantine_threshold: 1, ..ServeConfig::default() };
        let s = quiet_server(cfg);
        let poison = query(r#"{"id":1,"app":"poison"}"#);
        let good = query(r#"{"id":2,"steps":10}"#);

        let first = s.handle_batch(std::slice::from_ref(&poison));
        assert!(
            matches!(&first[0].outcome, Outcome::Err(ServeError::Panic(m)) if m.contains("poison")),
            "{first:?}"
        );
        // The server survived; the same fingerprint now fast-fails while
        // good queries still run.
        let second = s.handle_batch(&[poison.clone(), good]);
        assert!(
            matches!(second[0].outcome, Outcome::Err(ServeError::Quarantined { .. })),
            "{second:?}"
        );
        assert!(matches!(second[1].outcome, Outcome::Ok { .. }), "{second:?}");
        assert!(s.stats().panics_caught >= 3, "every attempt is caught");
    }

    #[test]
    fn overload_sheds_with_retry_hints() {
        let cfg = ServeConfig { queue_capacity: 3, ..ServeConfig::default() };
        let s = quiet_server(cfg);
        let qs: Vec<ScenarioQuery> =
            (0..7).map(|i| query(&format!(r#"{{"id":{i},"steps":20}}"#))).collect();
        let resps = s.handle_batch(&qs);
        let shed: Vec<&Response> = resps
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Err(ServeError::Overloaded { .. })))
            .collect();
        assert_eq!(shed.len(), 4);
        assert_eq!(s.stats().shed, 4);
        // Later overflow positions get longer retry-after hints.
        if let (
            Outcome::Err(ServeError::Overloaded { retry_after_ms: a }),
            Outcome::Err(ServeError::Overloaded { retry_after_ms: b }),
        ) = (&shed[0].outcome, &shed[3].outcome)
        {
            assert!(b > a);
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_timeout_markers() {
        // Budget gone before the batch starts.
        let cfg = ServeConfig { batch_budget_ms: 0, ..ServeConfig::default() };
        let s = quiet_server(cfg);
        let qs: Vec<ScenarioQuery> =
            (0..3).map(|i| query(&format!(r#"{{"id":{i},"steps":20}}"#))).collect();
        let resps = s.handle_batch(&qs);
        assert!(resps
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Err(ServeError::Timeout { .. }))));
        assert_eq!(s.stats().timeouts, 3);
    }

    #[test]
    fn retry_after_hint_is_capped() {
        // Deep overflow: uncapped, position 300 would ask for
        // 10 + 5*297 = 1495 ms.
        let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
        let s = quiet_server(cfg);
        let qs: Vec<ScenarioQuery> =
            (0..300).map(|i| query(&format!(r#"{{"id":{i},"steps":10}}"#))).collect();
        let resps = s.handle_batch(&qs);
        let hints: Vec<u64> = resps
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Err(ServeError::Overloaded { retry_after_ms }) => Some(retry_after_ms),
                _ => None,
            })
            .collect();
        assert_eq!(hints.len(), 298);
        assert_eq!(hints[0], 10, "first overflow position keeps the small hint");
        assert_eq!(*hints.last().unwrap(), RETRY_AFTER_CAP_MS, "deep overflow saturates");
        assert!(hints.iter().all(|&h| h <= RETRY_AFTER_CAP_MS));
    }

    #[test]
    fn sharded_batch_answers_like_single_shard() {
        // One worker: with concurrent workers, which of two queries sharing
        // a baseline misses first (and so which answer is `cached`) would
        // depend on scheduling.
        let single = quiet_server(ServeConfig { workers: 1, ..ServeConfig::default() });
        let sharded = quiet_server(ServeConfig {
            workers: 1,
            cluster: crate::cluster::ClusterConfig::sharded(4),
            ..ServeConfig::default()
        });
        let qs: Vec<ScenarioQuery> = (0..24)
            .map(|i| query(&format!(r#"{{"id":{i},"steps":10,"seed":{}}}"#, i % 5)))
            .collect();
        let a = single.handle_batch(&qs);
        let b = sharded.handle_batch(&qs);
        assert_eq!(a, b, "shard routing must not change answers");
        assert_eq!(sharded.cluster_stats().alive, 4);
    }

    #[test]
    fn storming_shard_reroutes_without_burning_retries() {
        // Find a storm seed where at least one of 4 shards storms and at
        // least one stays calm, so rerouting always has a target.
        let seed = (0..512u64)
            .find(|&s| {
                let c = Chaos::storm(s);
                let n = (0..4).filter(|&sh| c.shard_storms(sh)).count();
                (1..4).contains(&n)
            })
            .expect("such a seed exists");
        let s = quiet_server(ServeConfig {
            cluster: crate::cluster::ClusterConfig::sharded(4),
            chaos: Some(Chaos::storm(seed)),
            ..ServeConfig::default()
        });
        let qs: Vec<ScenarioQuery> = (0..64)
            .map(|i| query(&format!(r#"{{"id":{i},"steps":10,"seed":{i}}}"#)))
            .collect();
        let resps = s.handle_batch(&qs);
        for r in &resps {
            assert!(
                !matches!(r.outcome, Outcome::Err(ServeError::ShardLost { .. })),
                "shard storms must reroute, not surface: {r:?}"
            );
        }
        let cs = s.cluster_stats();
        assert!(cs.shard_failures > 0, "the storm must actually have fired: {cs:?}");
        assert!(cs.failovers > 0, "failed attempts must have failed over: {cs:?}");
    }

    #[test]
    fn chaos_batch_still_answers_everything() {
        let cfg = ServeConfig { chaos: Some(Chaos::new(0xBE57_0007)), ..ServeConfig::default() };
        let s = quiet_server(cfg);
        let qs: Vec<ScenarioQuery> = (0..32)
            .map(|i| query(&format!(r#"{{"id":{i},"steps":10,"seed":{i}}}"#)))
            .collect();
        let resps = s.handle_batch(&qs);
        assert_eq!(resps.len(), 32);
        for r in &resps {
            assert!(matches!(r.outcome, Outcome::Ok { .. }), "{r:?}");
        }
    }
}
