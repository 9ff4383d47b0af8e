//! Versioned response cache for read-only answers, one entry per URL
//! whoever asks.
//!
//! The portal's hottest pages — the home page, the `/stars` catalog,
//! `/star/<ident>` detail pages and a simulation's results page
//! `/simulation/<id>` — and its two JSON endpoints — the `/api/suggest`
//! answers the catalog search asks for on every keystroke and a results
//! page's `/simulation/<id>/plots.json` — are pure functions of a handful
//! of database tables. A page also names the requester in its layout, in
//! one place: the user slot (`Response::user_slot`). An entry holds no
//! user: a page is stored with its slot cut out, and a hit fills the slot
//! for whoever asks — the log-in links without a session, the session's
//! user otherwise, read as a fresh render reads it. So every requester,
//! with a session, with a bogus one or without, shares one entry per URL.
//! Each entry is stamped with the modification counters of exactly the
//! tables the answer reads
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
//! lookup takes the lock with `try_read` and holds it only to clone the
//! entry's `Arc`, and the one long thing a writer does — freeing a full
//! cache's entries — happens after the lock is let go. The loop never
//! resolves a session (that takes the session store's lock), so a page
//! asked with an `amp_session` cookie is answered from the same entry on
//! a worker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::http::{Method, Request, Response};

/// What a cacheable path's answer depends on.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// The tables it reads.
    pub tables: &'static [&'static str],
    /// Whether it is a page in the site layout, whose user slot names the
    /// requester (the JSON endpoints read no session).
    pub page: bool,
}

/// The route of an eligible path, or `None` if the path is not cacheable
/// (mutating handlers, per-user pages, everything else).
fn route(path: &str) -> Option<Route> {
    // one non-empty path segment: the resource itself, not nested routes
    // like …/observations
    let segment = |s: &str| !s.is_empty() && !s.contains('/');
    let simulation = path.strip_prefix("/simulation/");
    let (tables, page): (&'static [&'static str], bool) = match path {
        // counts + recent-5 list join simulations to star identifiers
        "/" => (&["star", "simulation"], true),
        "/stars" => (&["star"], true),
        "/api/suggest" => (&["star"], false),
        _ if path.strip_prefix("/star/").is_some_and(segment) => {
            (&["star", "observation", "simulation"], true)
        }
        _ if simulation
            .and_then(|rest| rest.strip_suffix("/plots.json"))
            .is_some_and(segment) =>
        {
            (&["simulation"], false)
        }
        // the simulation and its job table (installed applications are
        // built in: no table)
        _ if simulation.is_some_and(segment) => (&["simulation", "grid_job"], true),
        _ => return None,
    };
    Some(Route { tables, page })
}

/// A stored answer and the stamp it was stored under. A page's body is
/// kept without its user slot: the bytes before the slot, then the bytes
/// after it, split at `slot`.
pub(crate) struct Entry {
    stamp: Vec<u64>,
    response: Response,
    slot: Option<usize>,
}

impl Entry {
    /// The answer for one requester: the stored response, a page's user
    /// slot filled with what `fill` returns (called only for a page): one
    /// copy of the body.
    pub(crate) fn answer<S: AsRef<str>>(&self, fill: impl FnOnce() -> S) -> Response {
        let Some(at) = self.slot else {
            return self.response.clone();
        };
        let (before, after) = self.response.body.split_at(at);
        let links = fill();
        let links = links.as_ref().as_bytes();
        let mut body = Vec::with_capacity(before.len() + links.len() + after.len());
        body.extend_from_slice(before);
        body.extend_from_slice(links);
        body.extend_from_slice(after);
        Response {
            status: self.response.status,
            headers: self.response.headers.clone(),
            body,
            user_slot: Some(at..at + links.len()),
        }
    }
}

type Entries = HashMap<String, Arc<Entry>>;

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
    /// if so which tables its response depends on and whether it is a page.
    /// Only GETs of the known read-only routes qualify, whoever asks: an
    /// entry holds no user, so a cookie changes nothing here.
    pub fn cacheable(req: &Request) -> Option<Route> {
        if req.method != Method::Get {
            return None;
        }
        route(&req.path)
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
    /// (the *current* versions of the dependency tables). With `wait` off
    /// it is the lookup of a caller that must not wait (the event loop):
    /// a lock that is not free at once reads as "not a hit", and no miss
    /// is counted — the worker the request goes to next looks again.
    pub(crate) fn lookup(&self, key: &str, stamp: &[u64], wait: bool) -> Option<Arc<Entry>> {
        let entries = if wait {
            self.entries.read()
        } else {
            self.entries.try_read()?
        };
        match entries.get(key) {
            Some(e) if e.stamp == stamp => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.clone())
            }
            _ => {
                if wait {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Store a rendered response under `key` with the pre-render `stamp`;
    /// a page is stored without its user slot. Responses carrying
    /// `Set-Cookie` are never stored — replaying a cookie to another
    /// client would leak state.
    pub fn put(&self, key: String, stamp: Vec<u64>, response: &Response) {
        if response
            .headers
            .iter()
            .any(|(k, _)| k.eq_ignore_ascii_case("set-cookie"))
        {
            return;
        }
        let (body, slot) = match &response.user_slot {
            Some(slot) => {
                let mut body = Vec::with_capacity(response.body.len() - slot.len());
                body.extend_from_slice(&response.body[..slot.start]);
                body.extend_from_slice(&response.body[slot.end..]);
                (body, Some(slot.start))
            }
            None => (response.body.clone(), None),
        };
        let entry = Entry {
            stamp,
            response: Response {
                status: response.status,
                headers: response.headers.clone(),
                body,
                user_slot: None,
            },
            slot,
        };
        // A full cache's entries — thousands of responses — are freed here,
        // after `store` has let go of the lock every reader needs.
        drop(self.store(key, entry));
    }

    /// Insert under the write lock and hand back what was evicted.
    fn store(&self, key: String, entry: Entry) -> Entries {
        let mut entries = self.entries.write();
        let evicted = if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // Wholesale eviction: stale-stamped entries dominate a full
            // cache, and the working set refills in one pass of traffic.
            std::mem::take(&mut *entries)
        } else {
            Entries::new()
        };
        entries.insert(key, Arc::new(entry));
        evicted
    }

    /// Every stored body, for tests of what an entry holds.
    #[cfg(test)]
    pub(crate) fn stored_bodies(&self) -> Vec<Vec<u8>> {
        let entries = self.entries.read();
        entries.values().map(|e| e.response.body.clone()).collect()
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

    fn dependencies(path: &str) -> Option<&'static [&'static str]> {
        route(path).map(|r| r.tables)
    }

    fn hit(cache: &ResponseCache, key: &str, stamp: &[u64]) -> Option<Vec<u8>> {
        let entry = cache.lookup(key, stamp, true)?;
        Some(entry.answer(|| "<me>").body)
    }

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
        // the list's rows depend on who asks
        assert_eq!(dependencies("/simulations"), None);
        assert_eq!(
            dependencies("/simulation/7/plots.json"),
            Some(["simulation"].as_slice())
        );
        assert_eq!(dependencies("/simulation/7/plots.json/x"), None);
        assert_eq!(dependencies("/simulation//plots.json"), None);
        assert_eq!(
            dependencies("/simulation/7"),
            Some(["simulation", "grid_job"].as_slice())
        );
        assert_eq!(dependencies("/simulation/"), None);
        assert_eq!(dependencies("/simulation/7/jobs"), None);
    }

    #[test]
    fn cacheability_rules() {
        let page = |req: &Request| ResponseCache::cacheable(req).map(|r| r.page);
        assert_eq!(page(&Request::get("/stars")), Some(true));
        // an entry holds no user: a session, valid or not, changes nothing,
        // for the pages as for the JSON endpoints
        for path in ["/", "/stars", "/star/HD%201", "/simulation/7"] {
            let with_session = Request::get(path).with_cookie("amp_session", "x");
            assert_eq!(page(&with_session), Some(true), "{path}");
        }
        for json in ["/simulation/7/plots.json", "/api/suggest?q=HD"] {
            let with_session = Request::get(json).with_cookie("amp_session", "x");
            assert_eq!(page(&with_session), Some(false), "{json}");
        }
        let with_other = Request::get("/stars").with_cookie("theme", "dark");
        assert_eq!(page(&with_other), Some(true));
        // per-user pages and POSTs never cache
        let mine = Request::get("/simulations").with_cookie("amp_session", "x");
        assert!(ResponseCache::cacheable(&mine).is_none());
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
    fn stamped_lookup_put_and_invalidation() {
        let cache = ResponseCache::new(8);
        let resp = Response::html("v1");
        cache.put("k".into(), vec![1, 7], &resp);
        assert_eq!(hit(&cache, "k", &[1, 7]).unwrap(), resp.body);
        // any dependency bump misses
        assert!(hit(&cache, "k", &[2, 7]).is_none());
        assert!(hit(&cache, "k", &[1, 8]).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    /// A page is stored with its user slot cut out and answered with the
    /// slot filled per request; an answer without a slot is served as
    /// stored and its fill is never called.
    #[test]
    fn a_page_is_stored_without_its_user_slot() {
        let cache = ResponseCache::new(8);
        let mut page = Response::html("<nav>astro</nav><main>x</main>");
        page.user_slot = Some(5..10);
        cache.put("page".into(), vec![1], &page);
        assert_eq!(
            cache.stored_bodies(),
            [b"<nav></nav><main>x</main>".to_vec()]
        );
        let filled = cache
            .lookup("page", &[1], true)
            .unwrap()
            .answer(|| "someone else");
        assert_eq!(filled.body, b"<nav>someone else</nav><main>x</main>");
        assert_eq!(filled.user_slot, Some(5..17));
        assert_eq!(filled.headers, page.headers);

        cache.put("bare".into(), vec![1], &Response::not_found());
        let bare = cache.lookup("bare", &[1], true).unwrap();
        let unfilled = bare.answer(|| -> &str { panic!("no slot to fill") });
        assert_eq!(unfilled.body, b"404 not found");
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
        let entry = Entry {
            stamp: vec![1],
            response: Response::html("y"),
            slot: None,
        };
        let evicted = cache.store("k4".into(), entry);
        assert_eq!(evicted.len(), 4, "the full map left the lock undropped");
        let found = cache.lookup("k4", &[1], false).unwrap();
        assert_eq!(found.answer(|| "").body, b"y");
        assert!(cache.lookup("k0", &[1], false).is_none());
        assert_eq!((cache.len(), cache.misses()), (1, 0));
        // ... and a held write lock reads as "not a hit", never a wait.
        let _writer = cache.write_locked();
        assert!(cache.lookup("k4", &[1], false).is_none());
    }
}
