//! One cache's request logic, with no sockets and no clock: the
//! [`CacheNode`].
//!
//! Every cache in the workspace runs this code — the flat simulator's
//! single cache, each cache of the hierarchy simulator, the failure
//! simulator's partitioned cache, and every shard of the live proxy.
//! The node owns the store, the policy and the counters; a *driver*
//! owns time, the upstream and everything else. A request is a
//! step/commit exchange:
//!
//! 1. [`CacheNode::on_request`] decides and returns the upstream [`Step`]
//!    the request needs: serve locally, forward an uncacheable request,
//!    fetch in full, or validate conditionally.
//! 2. The driver performs the step against its upstream (an
//!    `OriginServer` call, a parent cache, a pooled socket) and prices it
//!    as an [`Exchange`] — message bytes and retrieval delay.
//! 3. [`CacheNode::on_reply`] commits the upstream's [`Reply`]: counters,
//!    policy feedback, insertion and eviction. It answers with a
//!    [`Commit`]: done (with the entries the insert displaced), or — when
//!    a `304` arrives for a copy evicted in the meantime — one more step.
//!
//! Server callbacks arrive through [`CacheNode::on_invalidate`].
//!
//! Under invalidation the driver also keeps the server's subscription
//! ledger in step with residency: it subscribes before committing a
//! [`Step::Get`] whose `subscribe` flag is set, and unsubscribes every
//! entry in a [`Commit::Done`] list. A new copy whose fetch did not
//! subscribe it (possible only when a concurrent eviction raced the
//! exchange) is forwarded instead of stored, so no resident copy is ever
//! unsubscribed.

use std::sync::Arc;

use originserver::{FilePopulation, FileRecord, Version};
use proxycache::{EntryMeta, Evicted, Store};
use simcore::{CacheStats, FileId, SimDuration, SimTime, TrafficMeter};
use wcc_obs::{NoopProbe, ObsEvent, Probe, RequestOutcome};

use crate::policy::{LinkModel, Policy, RequestCtx};

/// What happens when an expired (but resident) entry is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalMode {
    /// Base simulator: refetch the full file unconditionally.
    Eager,
    /// Optimized simulator: issue `If-Modified-Since`; transfer the body
    /// only when the object truly changed.
    Conditional,
}

/// The upstream step a request needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Serve this resident copy; the hit is already counted.
    Serve(EntryMeta),
    /// Uncacheable content: fetch in full and forward, never store.
    Forward,
    /// Fetch the body unconditionally. Under invalidation `subscribe` is
    /// set when the copy will be new: the driver subscribes it before
    /// committing the reply.
    Get {
        /// Subscribe the file before committing the reply.
        subscribe: bool,
    },
    /// Conditional GET: `If-Modified-Since: since`.
    ConditionalGet {
        /// The cached copy's `Last-Modified`.
        since: SimTime,
    },
}

/// The upstream's answer to a [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `304 Not Modified`, with the origin's fresh `Expires`, if any.
    NotModified {
        /// Origin-assigned expiry for the revalidated copy.
        expires: Option<SimTime>,
    },
    /// `200 OK` carrying a body.
    Body {
        /// The body's `Last-Modified`.
        last_modified: SimTime,
        /// Body bytes.
        size: u64,
        /// Origin-assigned expiry, if any.
        expires: Option<SimTime>,
    },
    /// `404`: the origin has no such file; any cached copy is dropped.
    Missing,
}

/// What one upstream exchange cost, priced by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// Control-message bytes (request plus response headers).
    pub message_bytes: u64,
    /// Retrieval delay reported to [`Policy::on_fetch`].
    pub delay: SimDuration,
}

/// The outcome of [`CacheNode::on_reply`].
#[derive(Debug)]
pub enum Commit {
    /// The request is answered. Lists every entry the commit removed
    /// from the store — eviction victims, a rejected oversized insert, a
    /// dropped uncacheable or missing copy — so the driver can drop their
    /// bodies and (under invalidation) their subscriptions.
    Done(Evicted),
    /// The copy a `304` confirmed was evicted while the exchange was in
    /// flight: perform this step too and commit its reply.
    Again(Step),
}

/// One cache: store, policy, and the counters every report reads.
pub struct CacheNode<S: Store, P: Probe = NoopProbe> {
    store: S,
    policy: Box<dyn Policy + Send>,
    probe: P,
    invalidation: bool,
    retrieval: RetrievalMode,
    uncacheable_mask: u32,
    link: Option<LinkModel>,
    oracle: Option<Arc<FilePopulation>>,
    stats: CacheStats,
    traffic: TrafficMeter,
    stale_age_total: SimDuration,
    evictions: u64,
    invalidations: u64,
}

impl<S: Store, P: Probe> CacheNode<S, P> {
    /// A node over `store` deciding with `policy`, recording into
    /// `probe`. Defaults: no invalidation, conditional retrieval, every
    /// class cacheable, zero decide-time delay, no staleness oracle.
    pub fn new(store: S, policy: Box<dyn Policy + Send>, probe: P) -> Self {
        CacheNode {
            store,
            policy,
            probe,
            invalidation: false,
            retrieval: RetrievalMode::Conditional,
            uncacheable_mask: 0,
            link: None,
            oracle: None,
            stats: CacheStats::default(),
            traffic: TrafficMeter::default(),
            stale_age_total: SimDuration::ZERO,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Run the cache side of the invalidation protocol: refetch
    /// invalidated copies and ask the driver to keep subscriptions.
    #[must_use]
    pub fn with_invalidation(mut self, on: bool) -> Self {
        self.invalidation = on;
        self
    }

    /// How expired copies are retrieved.
    #[must_use]
    pub fn with_retrieval(mut self, mode: RetrievalMode) -> Self {
        self.retrieval = mode;
        self
    }

    /// Content classes (bit `c` = class `c`) forwarded uncached.
    #[must_use]
    pub fn with_uncacheable(mut self, mask: u32) -> Self {
        self.uncacheable_mask = mask;
        self
    }

    /// Price the decide-time delay with `link`: the cost of refreshing
    /// the entry now. Without a link the policy sees zero delay.
    #[must_use]
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = Some(link);
        self
    }

    /// Classify local hits fresh or stale against the origin's scripted
    /// history (the omniscient observer). Without an oracle every local
    /// hit counts as fresh.
    #[must_use]
    pub fn with_oracle(mut self, oracle: Arc<FilePopulation>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Whether requests of content class `class` are cached at all.
    pub fn caches(&self, class: usize) -> bool {
        !(class < 32 && self.uncacheable_mask & (1 << class) != 0)
    }

    /// Whether this node runs the invalidation protocol.
    pub fn uses_invalidation(&self) -> bool {
        self.invalidation
    }

    /// Decide a request for `file` (content class `class`) at `now`.
    pub fn on_request(&mut self, file: FileId, class: usize, now: SimTime) -> Step {
        if !self.caches(class) {
            self.record_outcome(now, file, RequestOutcome::Uncacheable);
            return Step::Forward;
        }
        let Some(entry) = self.store.access(file, now).copied() else {
            // Compulsory miss: the cache does not hold this object.
            self.record_outcome(now, file, RequestOutcome::Miss);
            return Step::Get {
                subscribe: self.invalidation,
            };
        };

        // The decision seam: the instant, the content class, and what
        // refreshing this entry would cost over the modeled link.
        let delay = self
            .link
            .map_or(SimDuration::ZERO, |link| link.delay_for(entry.size));
        let ctx = RequestCtx::new(now, class).with_delay(delay);
        let fresh = self.policy.decide(&entry, &ctx).serves_locally();
        self.probe
            .record(now, ObsEvent::PolicyDecision { file, fresh });
        if fresh {
            self.classify_hit(file, &entry, now);
            return Step::Serve(entry);
        }

        // Expired (time-based) or marked invalid (invalidation). An
        // invalidated copy is *known* stale — a conditional round trip
        // would be wasted — so invalidation always refetches, as does
        // eager retrieval.
        if self.invalidation || self.retrieval == RetrievalMode::Eager {
            // Without an oracle, assume an invalidated copy changed.
            let changed = match self.live_version(file, now) {
                Some((_, live)) => live.modified_at != entry.last_modified,
                None => true,
            };
            self.validation(file, class, now, changed);
            self.record_outcome(now, file, RequestOutcome::Miss);
            return Step::Get { subscribe: false };
        }
        Step::ConditionalGet {
            since: entry.last_modified,
        }
    }

    /// Commit the upstream's `reply` to `step` (the step
    /// [`Self::on_request`] or an earlier [`Commit::Again`] returned),
    /// charging `cost`.
    pub fn on_reply(
        &mut self,
        file: FileId,
        class: usize,
        now: SimTime,
        step: Step,
        reply: Reply,
        cost: Exchange,
    ) -> Commit {
        self.traffic.add_message(cost.message_bytes);
        let conditional = matches!(step, Step::ConditionalGet { .. });
        match reply {
            Reply::NotModified { expires } => {
                self.stats.validations_not_modified += 1;
                self.validation(file, class, now, false);
                self.policy.on_fetch(class, cost.delay);
                let Some(entry) = self.store.access(file, now) else {
                    self.record_outcome(now, file, RequestOutcome::Miss);
                    return Commit::Again(Step::Get {
                        subscribe: self.invalidation,
                    });
                };
                entry.revalidate(now);
                entry.expires = expires;
                self.stats.fresh_hits += 1;
                self.record_outcome(now, file, RequestOutcome::ValidatedFresh);
                Commit::Done(Evicted::none())
            }
            Reply::Body {
                last_modified,
                size,
                expires,
            } => {
                self.traffic.add_file_transfer(size);
                self.policy.on_fetch(class, cost.delay);
                self.stats.misses += 1;
                if conditional {
                    self.stats.validations_modified += 1;
                    self.validation(file, class, now, true);
                    self.record_outcome(now, file, RequestOutcome::ValidatedStale);
                }
                if step == Step::Forward {
                    return Commit::Done(self.remove(file));
                }
                let subscribed = matches!(step, Step::Get { subscribe: true });
                let mut entry = match self.store.access(file, now).copied() {
                    Some(entry) => entry,
                    // The copy this exchange refreshes was evicted
                    // mid-flight, and with it its subscription.
                    None if self.invalidation && !subscribed => {
                        return Commit::Done(Evicted::none())
                    }
                    None => EntryMeta::fresh(size, last_modified, now),
                };
                entry.replace_body(size, last_modified, now);
                entry.expires = expires;
                // Reinsert rather than mutate in place: bounded stores
                // track resident bytes at insert time, and the new body
                // may not be the size of the old one.
                Commit::Done(self.insert(file, entry, true))
            }
            Reply::Missing => {
                self.stats.misses += 1;
                if conditional {
                    self.record_outcome(now, file, RequestOutcome::Miss);
                }
                Commit::Done(self.remove(file))
            }
        }
    }

    /// A server callback for `file` arrived at `now`, costing
    /// `message_bytes` (notice plus acknowledgement).
    pub fn on_invalidate(&mut self, file: FileId, now: SimTime, message_bytes: u64) {
        self.traffic.add_message(message_bytes);
        self.invalidations += 1;
        if let Some(entry) = self.store.access(file, now) {
            entry.mark_invalid();
        }
    }

    /// Install `meta` without charging anything (the paper's pre-loaded
    /// cache). Evictions are recorded to the probe but not counted: they
    /// are setup, not workload. Under invalidation the driver subscribes
    /// `file` first and unsubscribes the returned entries.
    pub fn preload(&mut self, file: FileId, meta: EntryMeta) -> Evicted {
        self.insert(file, meta, false)
    }

    /// The store, for inspection.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The store, for scripted manipulation.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// The probe, for events the driver records itself (origin-side
    /// operations, dispatch).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Hit/miss/validation classification.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Bytes and messages exchanged with the upstream.
    pub fn traffic(&self) -> &TrafficMeter {
        &self.traffic
    }

    /// Summed staleness age over stale hits.
    pub fn stale_age_total(&self) -> SimDuration {
        self.stale_age_total
    }

    /// Entries evicted by capacity pressure (preload excluded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Invalidation callbacks received.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    fn record_outcome(&mut self, now: SimTime, file: FileId, outcome: RequestOutcome) {
        self.probe.record(now, ObsEvent::Request { file, outcome });
    }

    /// Policy feedback and the probe event for one validation outcome.
    fn validation(&mut self, file: FileId, class: usize, now: SimTime, modified: bool) {
        self.policy.on_validation(class, modified);
        self.probe
            .record(now, ObsEvent::Validation { file, modified });
    }

    /// The oracle's record of `file` and its version live at `now`.
    fn live_version(&self, file: FileId, now: SimTime) -> Option<(&FileRecord, Version)> {
        let oracle = self.oracle.as_deref()?;
        if file.index() >= oracle.len() {
            return None;
        }
        let rec = oracle.get(file);
        Some((rec, rec.version_at(now)?))
    }

    /// Count a local hit fresh or stale, charging staleness severity:
    /// how long the served copy has been out of date.
    fn classify_hit(&mut self, file: FileId, entry: &EntryMeta, now: SimTime) {
        let stale = match self.live_version(file, now) {
            Some((rec, live)) if live.modified_at != entry.last_modified => {
                Some(rec.first_change_after(entry.last_modified))
            }
            _ => None,
        };
        match stale {
            None => {
                self.stats.fresh_hits += 1;
                self.record_outcome(now, file, RequestOutcome::FreshHit);
            }
            Some(missed) => {
                self.stats.stale_hits += 1;
                let age = missed.map_or(SimDuration::ZERO, |m| now.saturating_since(m.modified_at));
                self.stale_age_total = self.stale_age_total.saturating_add(age);
                self.record_outcome(now, file, RequestOutcome::StaleHit { age });
            }
        }
    }

    fn insert(&mut self, file: FileId, meta: EntryMeta, count: bool) -> Evicted {
        let at = meta.fetched_at;
        let evicted = self.store.insert(file, meta);
        for &(victim, _) in evicted.iter() {
            if victim != file {
                if count {
                    self.evictions += 1;
                }
                self.probe.record(at, ObsEvent::Eviction { file: victim });
            }
        }
        evicted
    }

    fn remove(&mut self, file: FileId) -> Evicted {
        match self.store.remove(file) {
            Some(meta) => Evicted::one(file, meta),
            None => Evicted::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedTtl, NeverExpire};
    use originserver::FileRecord;
    use proxycache::UnboundedStore;

    const F: FileId = FileId(0);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn body(last_modified: u64, size: u64) -> Reply {
        Reply::Body {
            last_modified: t(last_modified),
            size,
            expires: None,
        }
    }

    const COST: Exchange = Exchange {
        message_bytes: 43,
        delay: SimDuration::ZERO,
    };

    fn node(policy: Box<dyn Policy + Send>) -> CacheNode<UnboundedStore> {
        CacheNode::new(UnboundedStore::new(), policy, NoopProbe)
    }

    /// Commit `step` with a 100-byte body last modified at zero.
    fn fill(node: &mut CacheNode<UnboundedStore>, now: u64, step: Step) {
        let Commit::Done(_) = node.on_reply(F, 0, t(now), step, body(0, 100), COST) else {
            panic!("a body always commits");
        };
    }

    #[test]
    fn miss_then_hit_then_validation() {
        let mut n = node(Box::new(FixedTtl::new(SimDuration::from_secs(10))));
        let step = n.on_request(F, 0, t(0));
        assert_eq!(step, Step::Get { subscribe: false });
        fill(&mut n, 0, step);
        assert!(matches!(n.on_request(F, 0, t(5)), Step::Serve(_)));
        let step = n.on_request(F, 0, t(20));
        assert_eq!(step, Step::ConditionalGet { since: t(0) });
        let done = n.on_reply(
            F,
            0,
            t(20),
            step,
            Reply::NotModified { expires: None },
            COST,
        );
        assert!(matches!(done, Commit::Done(ref e) if e.is_empty()));
        let stats = n.stats();
        assert_eq!((stats.misses, stats.fresh_hits), (1, 2));
        assert_eq!(stats.validations_not_modified, 1);
        assert_eq!(n.traffic().messages, 2);
        assert_eq!(n.store().peek(F).unwrap().last_validated, t(20));
    }

    #[test]
    fn a_304_for_an_evicted_copy_asks_for_a_full_fetch() {
        let mut n = node(Box::new(FixedTtl::new(SimDuration::ZERO)));
        let step = n.on_request(F, 0, t(0));
        fill(&mut n, 0, step);
        let step = n.on_request(F, 0, t(1));
        assert_eq!(step, Step::ConditionalGet { since: t(0) });
        // A concurrent insert evicts the copy while the request is out.
        n.store_mut().remove(F);
        let again = n.on_reply(F, 0, t(1), step, Reply::NotModified { expires: None }, COST);
        let Commit::Again(next) = again else {
            panic!("expected a refetch, got {again:?}");
        };
        assert_eq!(next, Step::Get { subscribe: false });
        fill(&mut n, 1, next);
        let stats = n.stats();
        assert_eq!((stats.misses, stats.validations_not_modified), (2, 1));
        assert_eq!(stats.fresh_hits, 0, "the evicted 304 is not a hit");
        assert!(n.store().peek(F).is_some());
    }

    #[test]
    fn an_evicted_copy_refetched_under_invalidation_is_forwarded_not_stored() {
        let mut n = node(Box::new(NeverExpire)).with_invalidation(true);
        let step = n.on_request(F, 0, t(0));
        assert_eq!(step, Step::Get { subscribe: true });
        fill(&mut n, 0, step);
        n.on_invalidate(F, t(1), 43);
        let step = n.on_request(F, 0, t(2));
        assert_eq!(
            step,
            Step::Get { subscribe: false },
            "resident: no new subscription"
        );
        // Evicted (and so unsubscribed) before the refetch lands: storing
        // the body would leave a copy no server callback can reach.
        n.store_mut().remove(F);
        fill(&mut n, 2, step);
        assert!(n.store().peek(F).is_none());
        assert_eq!(n.stats().misses, 2);
        assert_eq!(n.invalidations(), 1);
    }

    #[test]
    fn uncacheable_classes_are_forwarded_and_drop_any_copy() {
        let mut n = node(Box::new(NeverExpire)).with_uncacheable(1 << 3);
        let step = n.on_request(F, 0, t(0));
        fill(&mut n, 0, step);
        let step = n.on_request(F, 3, t(1));
        assert_eq!(step, Step::Forward);
        let Commit::Done(removed) = n.on_reply(F, 3, t(1), step, body(0, 100), COST) else {
            panic!("a forward always commits");
        };
        assert_eq!(removed.len(), 1);
        assert!(n.store().peek(F).is_none());
        assert_eq!(n.stats().misses, 2);
    }

    #[test]
    fn the_oracle_classifies_stale_hits_and_their_age() {
        let mut pop = FilePopulation::new();
        let mut rec = FileRecord::new("/f", t(0), 100);
        rec.push_modification(t(100), 100);
        let f = pop.add(rec);
        assert_eq!(f, F);
        let mut n = node(Box::new(NeverExpire)).with_oracle(Arc::new(pop));
        let step = n.on_request(F, 0, t(50));
        fill(&mut n, 50, step);
        assert!(matches!(n.on_request(F, 0, t(60)), Step::Serve(_)));
        assert!(matches!(n.on_request(F, 0, t(130)), Step::Serve(_)));
        assert_eq!((n.stats().fresh_hits, n.stats().stale_hits), (1, 1));
        assert_eq!(n.stale_age_total(), SimDuration::from_secs(30));
    }
}
