//! The tenant registry: named sessions, a size-capped LRU of resident
//! graphs, per-tenant admission, and the shared rebuild queue.

use cla_cfront::FileProvider;
use cla_obs::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use cla_serve::{ServeOptions, Session, SessionError, SessionSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Hub-wide tuning knobs.
#[derive(Debug, Clone)]
pub struct HubOptions {
    /// Connection limits, shared with the Unix-socket server — TCP
    /// clients get the same idle-timeout/request-size hardening.
    pub serve: ServeOptions,
    /// Maximum sessions resident in memory at once; the least recently
    /// used idle tenant past this is evicted to its snapshot.
    pub capacity: usize,
    /// Per-tenant concurrent-request cap; excess requests get a typed
    /// `session busy` reply immediately.
    pub max_inflight: u64,
    /// Rebuild/rehydration permits shared across all tenants.
    pub rebuild_slots: usize,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            serve: ServeOptions::default(),
            capacity: 8,
            max_inflight: 64,
            rebuild_slots: 2,
        }
    }
}

/// A typed hub-level failure; each variant maps to one wire error reply.
#[derive(Debug)]
pub enum HubError {
    UnknownSession(String),
    DuplicateSession(String),
    InvalidName(String),
    /// The tenant is at its in-flight cap; try again (the reply is
    /// immediate, so a client can back off instead of queueing blindly).
    Busy {
        name: String,
        cap: u64,
    },
    Build(SessionError),
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownSession(n) => write!(f, "unknown session: {n}"),
            HubError::DuplicateSession(n) => write!(f, "session already open: {n}"),
            HubError::InvalidName(n) => write!(
                f,
                "invalid session name {n:?} (use [A-Za-z0-9_.-], at most 128 chars)"
            ),
            HubError::Busy { name, cap } => {
                write!(f, "session busy: {name} (inflight cap {cap})")
            }
            HubError::Build(e) => write!(f, "session build failed: {e}"),
        }
    }
}

impl std::error::Error for HubError {}

/// One tenant: the rebuild recipe plus the (possibly empty) resident slot.
struct Tenant {
    name: String,
    spec: SessionSpec,
    /// The resident session. `None` while evicted. Held locked across a
    /// rebuild, so same-tenant requests queue for the fresh graph while
    /// every other tenant is untouched.
    slot: Mutex<Option<Arc<Session>>>,
    /// Highest epoch this tenant has served (recorded at eviction); a
    /// rebuilt session is seeded past it so `(session, epoch)` stays
    /// monotonic across evict/rehydrate cycles.
    last_epoch: AtomicU64,
    /// Times this tenant's session was built (first build + rehydrations).
    builds: AtomicU64,
    /// LRU clock tick of the most recent request.
    last_used: AtomicU64,
    inflight: AtomicU64,
    ctr_requests: Counter,
    ctr_busy: Counter,
    ctr_evictions: Counter,
    ctr_rehydrations: Counter,
    hist: Histogram,
}

/// One line of the `sessions` listing.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    pub name: String,
    /// `"resident"`, `"evicted"`, or `"rebuilding"` (slot locked by a
    /// rebuild in progress).
    pub state: &'static str,
    /// Current epoch (resident) or the epoch at eviction.
    pub epoch: u64,
    pub inflight: u64,
    pub requests: u64,
    pub busy_rejections: u64,
    pub evictions: u64,
    pub rehydrations: u64,
    /// Resident only: the session's health string.
    pub health: Option<&'static str>,
    /// Resident only: whether the current graph came from a snapshot.
    pub snapshot_loaded: Option<bool>,
    /// Resident, and a `depend` was asked this epoch: `(edge records, heap
    /// bytes)` of the dependence flow index the tenant holds.
    pub flow_index: Option<(usize, usize)>,
}

/// Per-tenant counters snapshot (exposed for tests and the bench harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantCounters {
    pub requests: u64,
    pub busy_rejections: u64,
    pub evictions: u64,
    pub rehydrations: u64,
}

/// Decrements the tenant's in-flight count on drop.
struct Admission<'a>(&'a Tenant);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Relaxed);
    }
}

/// Releases one rebuild slot on drop.
struct RebuildPermit<'a>(&'a Hub);

impl Drop for RebuildPermit<'_> {
    fn drop(&mut self) {
        let mut n = self.0.rebuilds.lock().unwrap();
        *n -= 1;
        drop(n);
        self.0.rebuild_cv.notify_one();
    }
}

/// The session multiplexer: a registry of named tenants and the LRU of
/// resident graphs. All methods take `&self`; the hub is shared across
/// connection threads behind one `Arc`.
pub struct Hub {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    opts: HubOptions,
    /// LRU clock; bumped per request.
    clock: AtomicU64,
    /// Active rebuilds, capped at `opts.rebuild_slots` via `rebuild_cv`.
    rebuilds: Mutex<usize>,
    rebuild_cv: Condvar,
    shutdown: Arc<AtomicBool>,
    gauge_resident: Gauge,
    ctr_evictions: Counter,
    ctr_rehydrations: Counter,
}

impl Hub {
    pub fn new(opts: HubOptions) -> Hub {
        let obs = cla_obs::global();
        Hub {
            tenants: RwLock::new(BTreeMap::new()),
            opts,
            clock: AtomicU64::new(0),
            rebuilds: Mutex::new(0),
            rebuild_cv: Condvar::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            gauge_resident: obs.gauge("cla_hub_resident_sessions"),
            ctr_evictions: obs.counter("cla_hub_evictions_total"),
            ctr_rehydrations: obs.counter("cla_hub_rehydrations_total"),
        }
    }

    pub fn options(&self) -> &HubOptions {
        &self.opts
    }

    /// The hub-level shutdown flag, shared with the accept loop.
    pub fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// The same flag as an owner, for the listener thread.
    pub(crate) fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Registers and eagerly builds a named session, so `open` fails fast
    /// on a bad spec instead of poisoning the first query. Returns the
    /// seeded epoch and whether the graph came from a snapshot.
    pub fn open(&self, name: &str, spec: SessionSpec) -> Result<(u64, bool), HubError> {
        if name.is_empty()
            || name.len() > 128
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        {
            return Err(HubError::InvalidName(name.to_string()));
        }
        let obs = cla_obs::global();
        let labels = &[("session", name)];
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            spec,
            slot: Mutex::new(None),
            last_epoch: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            ctr_requests: obs.counter_with("cla_hub_requests_total", labels),
            ctr_busy: obs.counter_with("cla_hub_busy_total", labels),
            ctr_evictions: obs.counter_with("cla_hub_evictions_total_by_session", labels),
            ctr_rehydrations: obs.counter_with("cla_hub_rehydrations_total_by_session", labels),
            hist: obs.histogram_with("cla_hub_latency_us", labels, LATENCY_BUCKETS_US),
        });
        {
            // Reserve the name first; the build happens outside the write
            // lock so a slow compile never blocks the whole registry.
            let mut tenants = self.tenants.write().unwrap();
            if tenants.contains_key(name) {
                return Err(HubError::DuplicateSession(name.to_string()));
            }
            tenants.insert(name.to_string(), Arc::clone(&tenant));
        }
        match self.resident(&tenant) {
            Ok(session) => {
                let epoch = session.epoch();
                let loaded = session.snapshot_loaded();
                Ok((epoch, loaded))
            }
            Err(e) => {
                self.tenants.write().unwrap().remove(name);
                Err(e)
            }
        }
    }

    /// Removes a tenant. In-flight requests finish against their own
    /// `Arc` of the session; the graph is freed when the last one drops.
    pub fn close(&self, name: &str) -> Result<(), HubError> {
        let removed = self.tenants.write().unwrap().remove(name);
        match removed {
            Some(_) => {
                self.refresh_resident_gauge();
                Ok(())
            }
            None => Err(HubError::UnknownSession(name.to_string())),
        }
    }

    /// Admits one request for `name`, materializing the session if it was
    /// evicted, and runs `f` against it. Records per-tenant latency and
    /// request counters, and touches the LRU clock.
    pub fn with_session<T>(
        &self,
        name: &str,
        f: impl FnOnce(&Session, Option<&(dyn FileProvider + Send + Sync)>) -> T,
    ) -> Result<T, HubError> {
        let tenant = {
            let tenants = self.tenants.read().unwrap();
            Arc::clone(
                tenants
                    .get(name)
                    .ok_or_else(|| HubError::UnknownSession(name.to_string()))?,
            )
        };
        // Admission: a tenant at its in-flight cap gets an immediate typed
        // refusal. The cap is what keeps one chatty tenant from occupying
        // every worker thread the accept loop will ever spawn.
        if tenant.inflight.fetch_add(1, Relaxed) >= self.opts.max_inflight {
            tenant.inflight.fetch_sub(1, Relaxed);
            tenant.ctr_busy.inc();
            return Err(HubError::Busy {
                name: tenant.name.clone(),
                cap: self.opts.max_inflight,
            });
        }
        let gate = Admission(&tenant);
        tenant
            .last_used
            .store(self.clock.fetch_add(1, Relaxed) + 1, Relaxed);
        tenant.ctr_requests.inc();
        let session = self.resident(&tenant)?;
        let t0 = std::time::Instant::now();
        let out = f(&session, tenant.spec.fs().map(Arc::as_ref));
        tenant.hist.observe(t0.elapsed().as_micros() as u64);
        drop(gate);
        Ok(out)
    }

    /// The tenant's resident session, rebuilding it if evicted. Rebuilds
    /// hold the tenant's slot lock (same-tenant requests queue for the
    /// fresh graph) and one of the shared rebuild permits (cross-tenant
    /// fairness: a stampede of cold tenants can't take every thread).
    fn resident(&self, tenant: &Arc<Tenant>) -> Result<Arc<Session>, HubError> {
        let mut slot = tenant.slot.lock().unwrap();
        if let Some(s) = slot.as_ref() {
            return Ok(Arc::clone(s));
        }
        let _permit = self.rebuild_permit();
        let session = Session::open(&tenant.spec).map_err(HubError::Build)?;
        let rebuilt = tenant.builds.fetch_add(1, Relaxed) > 0;
        if rebuilt {
            // Seed past the last served epoch: the rebuilt graph may
            // differ from the evicted one (sources changed on disk), so
            // it must never reuse an epoch already handed to clients.
            let epoch = tenant.last_epoch.load(Relaxed) + 1;
            session.set_epoch(epoch);
            tenant.last_epoch.store(epoch, Relaxed);
            tenant.ctr_rehydrations.inc();
            self.ctr_rehydrations.inc();
        }
        let session = Arc::new(session);
        *slot = Some(Arc::clone(&session));
        drop(slot);
        self.enforce_capacity(&tenant.name);
        self.refresh_resident_gauge();
        Ok(session)
    }

    fn rebuild_permit(&self) -> RebuildPermit<'_> {
        let mut n = self.rebuilds.lock().unwrap();
        while *n >= self.opts.rebuild_slots.max(1) {
            n = self.rebuild_cv.wait(n).unwrap();
        }
        *n += 1;
        RebuildPermit(self)
    }

    /// Evicts least-recently-used idle tenants until at most `capacity`
    /// sessions are resident. `keep` (the tenant that just materialized)
    /// is never a candidate. Tenants with requests in flight or a locked
    /// slot are skipped — dropping their `Arc` would be safe, but evicting
    /// a hot tenant only buys an immediate rebuild.
    fn enforce_capacity(&self, keep: &str) {
        let tenants: Vec<Arc<Tenant>> = {
            let map = self.tenants.read().unwrap();
            map.values().map(Arc::clone).collect()
        };
        let mut resident = 0usize;
        let mut candidates: Vec<(u64, Arc<Tenant>)> = Vec::new();
        for t in &tenants {
            let Ok(slot) = t.slot.try_lock() else {
                // Locked slot: a rebuild is in flight, counts as resident.
                resident += 1;
                continue;
            };
            if slot.is_some() {
                resident += 1;
                if t.name != keep && t.inflight.load(Relaxed) == 0 {
                    candidates.push((t.last_used.load(Relaxed), Arc::clone(t)));
                }
            }
        }
        if resident <= self.opts.capacity.max(1) {
            return;
        }
        candidates.sort_by_key(|(used, _)| *used);
        let mut excess = resident - self.opts.capacity.max(1);
        for (_, t) in candidates {
            if excess == 0 {
                break;
            }
            let Ok(mut slot) = t.slot.try_lock() else {
                continue;
            };
            // Re-check under the lock: a request may have landed since
            // the scan. Skipping it is fine — capacity is a target, not
            // an invariant the next enforcement pass can't restore.
            if t.inflight.load(Relaxed) != 0 {
                continue;
            }
            if let Some(session) = slot.take() {
                let epoch = session.epoch();
                t.last_epoch.store(epoch, Relaxed);
                t.ctr_evictions.inc();
                self.ctr_evictions.inc();
                excess -= 1;
            }
        }
    }

    fn refresh_resident_gauge(&self) {
        let tenants = self.tenants.read().unwrap();
        let resident = tenants
            .values()
            .filter(|t| t.slot.try_lock().map(|s| s.is_some()).unwrap_or(true))
            .count();
        self.gauge_resident.set(resident as u64);
    }

    /// Counters for one tenant (0s if the name is unknown).
    pub fn tenant_counters(&self, name: &str) -> TenantCounters {
        let tenants = self.tenants.read().unwrap();
        tenants
            .get(name)
            .map(|t| TenantCounters {
                requests: t.ctr_requests.get(),
                busy_rejections: t.ctr_busy.get(),
                evictions: t.ctr_evictions.get(),
                rehydrations: t.ctr_rehydrations.get(),
            })
            .unwrap_or_default()
    }

    /// A snapshot of every tenant for the `sessions` command.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        let tenants: Vec<Arc<Tenant>> = {
            let map = self.tenants.read().unwrap();
            map.values().map(Arc::clone).collect()
        };
        tenants
            .iter()
            .map(|t| {
                let (state, epoch, health, snapshot_loaded, flow_index) = match t.slot.try_lock() {
                    Ok(slot) => match slot.as_ref() {
                        Some(s) => (
                            "resident",
                            s.epoch(),
                            Some(s.health().as_str()),
                            Some(s.snapshot_loaded()),
                            s.flow_index_size(),
                        ),
                        None => ("evicted", t.last_epoch.load(Relaxed), None, None, None),
                    },
                    Err(_) => ("rebuilding", t.last_epoch.load(Relaxed), None, None, None),
                };
                SessionInfo {
                    name: t.name.clone(),
                    state,
                    epoch,
                    inflight: t.inflight.load(Relaxed),
                    requests: t.ctr_requests.get(),
                    busy_rejections: t.ctr_busy.get(),
                    evictions: t.ctr_evictions.get(),
                    rehydrations: t.ctr_rehydrations.get(),
                    health,
                    snapshot_loaded,
                    flow_index,
                }
            })
            .collect()
    }

    /// Refreshes the per-tenant latency percentile gauges
    /// (`cla_hub_latency_p{50,90,99}_us{session=…}`) from each tenant's
    /// hub-side latency histogram, so the Prometheus exposition carries
    /// the per-tenant p50/p99 the acceptance gate asserts on. The
    /// histogram covers the whole admission-to-answer path (including
    /// rebuilds on rehydration) and survives eviction, so evicted tenants
    /// keep meaningful figures too.
    pub fn publish_tenant_percentiles(&self) {
        let tenants: Vec<Arc<Tenant>> = {
            let map = self.tenants.read().unwrap();
            map.values().map(Arc::clone).collect()
        };
        let obs = cla_obs::global();
        for t in &tenants {
            let labels = &[("session", t.name.as_str())];
            for (name, p) in [
                ("cla_hub_latency_p50_us", 0.50),
                ("cla_hub_latency_p90_us", 0.90),
                ("cla_hub_latency_p99_us", 0.99),
            ] {
                obs.gauge_with(name, labels).set(t.hist.percentile(p));
            }
            let epoch = match t.slot.try_lock() {
                Ok(slot) => match slot.as_ref() {
                    Some(s) => s.epoch(),
                    None => t.last_epoch.load(Relaxed),
                },
                Err(_) => t.last_epoch.load(Relaxed),
            };
            obs.gauge_with("cla_hub_epoch", labels).set(epoch);
        }
    }

    /// Number of registered tenants (resident or not).
    pub fn tenant_count(&self) -> usize {
        self.tenants.read().unwrap().len()
    }
}
