//! Versioned response cache for anonymous read-only pages.
//!
//! The portal's hottest pages — the home page, the `/stars` catalog,
//! `/star/<ident>` detail pages, and the `/api/suggest` answers the catalog
//! search asks for on every keystroke — are pure functions of a handful of
//! database tables. Each cache entry is stamped with the modification
//! counters of exactly the tables the page reads
//! ([`Connection::table_versions`](amp_simdb::Connection::table_versions));
//! any committed write to one of those tables changes its counter and
//! invalidates dependent entries on the next lookup, so a cache hit is
//! always byte-identical to a fresh render (property-tested in
//! `tests/portal_serving.rs`).
//!
//! Stamps are read *before* rendering: a write racing the render can only
//! make the stored entry look stale (harmless over-invalidation), never
//! let a stale body match a fresh stamp. The stamp itself cannot tear:
//! `table_versions` is one pin of the database's published version
//! (DESIGN §8.3), and a commit is one publish, so a multi-table transaction
//! is in the stamp entirely or not at all. It takes no lock, so no writer
//! waits on it.
//!
//! A hit is answered on the event-loop thread, which must never wait: its
//! lookup takes the lock with `try_read`, and the one long thing a writer
//! does — freeing a full cache's entries — happens after the lock is let go.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::http::{Method, Request, Response};

/// The tables an eligible path reads, or `None` if the path is not
/// cacheable (mutating handlers, per-user pages, everything else).
pub fn dependencies(path: &str) -> Option<&'static [&'static str]> {
    if path == "/" {
        // counts + recent-5 list join simulations to star identifiers
        return Some(&["star", "simulation"]);
    }
    if path == "/stars" || path == "/api/suggest" {
        return Some(&["star"]);
    }
    if let Some(rest) = path.strip_prefix("/star/") {
        // the detail page itself, not nested routes like …/observations
        if !rest.is_empty() && !rest.contains('/') {
            return Some(&["star", "observation", "simulation"]);
        }
    }
    None
}

struct CacheEntry {
    stamp: Vec<u64>,
    response: Response,
}

type Entries = HashMap<String, CacheEntry>;

/// The cache proper: `(path, query) → stamped response`.
pub struct ResponseCache {
    entries: RwLock<Entries>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            entries: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether `req` may be served from (and stored into) the cache, and
    /// if so which tables its response depends on. Only anonymous GETs of
    /// the known read-only routes qualify — any `amp_session` cookie
    /// bypasses the cache entirely, valid or not.
    pub fn cacheable(req: &Request) -> Option<&'static [&'static str]> {
        if req.method != Method::Get || req.cookies.contains_key("amp_session") {
            return None;
        }
        dependencies(&req.path)
    }

    /// Canonical cache key. `Request::query` is a `BTreeMap`, so two URLs
    /// naming the same parameters in different order share one entry.
    pub fn key(req: &Request) -> String {
        let mut key = req.path.clone();
        for (k, v) in &req.query {
            key.push('\u{0}');
            key.push_str(k);
            key.push('\u{1}');
            key.push_str(v);
        }
        key
    }

    /// Look up `key`; hits require the stored stamp to equal `stamp`
    /// (the *current* versions of the dependency tables).
    pub fn get(&self, key: &str, stamp: &[u64]) -> Option<Response> {
        self.lookup(key, stamp, true)
    }

    /// [`Self::get`] when `wait` is on. Off, it is the lookup of a caller
    /// that must not wait (the event loop): a lock that is not free at once
    /// reads as "not a hit", and no miss is counted — the worker the
    /// request goes to next looks again.
    pub(crate) fn lookup(&self, key: &str, stamp: &[u64], wait: bool) -> Option<Response> {
        let entries = if wait {
            self.entries.read()
        } else {
            self.entries.try_read()?
        };
        match entries.get(key) {
            Some(e) if e.stamp == stamp => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.response.clone())
            }
            _ => {
                if wait {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Store a rendered response under `key` with the pre-render `stamp`.
    /// Responses carrying `Set-Cookie` are never stored — replaying a
    /// cookie to another client would leak state.
    pub fn put(&self, key: String, stamp: Vec<u64>, response: &Response) {
        if response
            .headers
            .iter()
            .any(|(k, _)| k.eq_ignore_ascii_case("set-cookie"))
        {
            return;
        }
        // A full cache's entries — thousands of responses — are freed here,
        // after `store` has let go of the lock every reader needs.
        drop(self.store(key, stamp, response.clone()));
    }

    /// Insert under the write lock and hand back what was evicted.
    fn store(&self, key: String, stamp: Vec<u64>, response: Response) -> Entries {
        let mut entries = self.entries.write();
        let evicted = if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // Wholesale eviction: stale-stamped entries dominate a full
            // cache, and the working set refills in one pass of traffic.
            std::mem::take(&mut *entries)
        } else {
            Entries::new()
        };
        entries.insert(key, CacheEntry { stamp, response });
        evicted
    }

    /// The write lock, for tests of what a lookup does while it is taken.
    #[cfg(test)]
    pub(crate) fn write_locked(&self) -> impl Drop + '_ {
        self.entries.write()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_dependencies() {
        assert_eq!(dependencies("/"), Some(["star", "simulation"].as_slice()));
        assert_eq!(dependencies("/stars"), Some(["star"].as_slice()));
        assert_eq!(dependencies("/api/suggest"), Some(["star"].as_slice()));
        assert!(dependencies("/star/HD%2052265").is_some());
        assert_eq!(dependencies("/star/HD1/observations"), None);
        assert_eq!(dependencies("/star/"), None);
        assert_eq!(dependencies("/stars/search"), None);
        assert_eq!(dependencies("/accounts/login"), None);
        assert_eq!(dependencies("/simulations"), None);
    }

    #[test]
    fn cacheability_rules() {
        assert!(ResponseCache::cacheable(&Request::get("/stars")).is_some());
        // sessions bypass the cache
        let with_session = Request::get("/stars").with_cookie("amp_session", "x");
        assert!(ResponseCache::cacheable(&with_session).is_none());
        // non-session cookies don't
        let with_other = Request::get("/stars").with_cookie("theme", "dark");
        assert!(ResponseCache::cacheable(&with_other).is_some());
        // POSTs never cache
        assert!(ResponseCache::cacheable(&Request::post("/stars", &[])).is_none());
    }

    #[test]
    fn key_is_order_canonical() {
        let a = Request::get("/stars?page=2&sort=id");
        let b = Request::get("/stars?sort=id&page=2");
        assert_eq!(ResponseCache::key(&a), ResponseCache::key(&b));
        let c = Request::get("/stars?page=3");
        assert_ne!(ResponseCache::key(&a), ResponseCache::key(&c));
    }

    #[test]
    fn stamped_get_put_and_invalidation() {
        let cache = ResponseCache::new(8);
        let resp = Response::html("v1");
        cache.put("k".into(), vec![1, 7], &resp);
        assert_eq!(cache.get("k", &[1, 7]).unwrap().body, resp.body);
        // any dependency bump misses
        assert!(cache.get("k", &[2, 7]).is_none());
        assert!(cache.get("k", &[1, 8]).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn set_cookie_responses_never_stored() {
        let cache = ResponseCache::new(8);
        let resp = Response::html("x").set_cookie("amp_session", "tok");
        cache.put("k".into(), vec![1], &resp);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bound_holds() {
        let cache = ResponseCache::new(4);
        for i in 0..20 {
            cache.put(format!("k{i}"), vec![1], &Response::html("x"));
            assert!(cache.len() <= 4);
        }
    }

    /// Eviction frees the old entries after the write lock is released:
    /// with the evicted map still alive, a loop-style lookup gets the lock.
    #[test]
    fn eviction_hands_the_old_entries_out_of_the_lock() {
        let cache = ResponseCache::new(4);
        for i in 0..4 {
            cache.put(format!("k{i}"), vec![1], &Response::html("x"));
        }
        let evicted = cache.store("k4".into(), vec![1], Response::html("y"));
        assert_eq!(evicted.len(), 4, "the full map left the lock undropped");
        assert_eq!(cache.lookup("k4", &[1], false).unwrap().body, b"y");
        assert!(cache.lookup("k0", &[1], false).is_none());
        assert_eq!((cache.len(), cache.misses()), (1, 0));
        // ... and a held write lock reads as "not a hit", never a wait.
        let _writer = cache.write_locked();
        assert!(cache.lookup("k4", &[1], false).is_none());
    }
}
