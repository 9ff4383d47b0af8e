//! The portal application object: configuration, shared services, and the
//! URL map wiring the Django-style apps together.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use amp_core::models::AmpUser;
use amp_core::roles::{ROLE_ADMIN, ROLE_WEB};
use amp_simdb::orm::Manager;
use amp_simdb::{Connection, Db, DbError};

use crate::auth::{Session, SessionStore};
use crate::cache::ResponseCache;
use crate::captcha::Captcha;
use crate::http::{html_escape, Request, Response};
use crate::router::Router;
use crate::simbad::Simbad;

/// Site title shown in the layout's `<title>` and header. It goes into the
/// page as it is, so it holds nothing `html_escape` would change.
const SITE_TITLE: &str = "Asteroseismic Modeling Portal";

/// Portal configuration.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// §4.1: the admin interface is only reachable on non-public deploys
    /// ("the administrative functionality is not even possible from any
    /// publicly accessible web servers"). When false, /admin/* routes 404
    /// and the portal never even holds an admin DB connection.
    pub admin_enabled: bool,
    /// Synthetic-SIMBAD size and seed.
    pub simbad_stars: usize,
    pub simbad_seed: u64,
    /// Serve anonymous read-only pages from the versioned response cache
    /// (see [`crate::cache`]). Disable to force every request through a
    /// fresh render — the cache property test diffs the two.
    pub cache_enabled: bool,
}

/// Maximum cached responses before wholesale eviction.
const CACHE_CAPACITY: usize = 4096;

impl Default for PortalConfig {
    fn default() -> Self {
        PortalConfig {
            admin_enabled: false,
            simbad_stars: 200,
            simbad_seed: 2009,
            cache_enabled: true,
        }
    }
}

/// The web gateway.
pub struct Portal {
    conn: Connection,
    admin_conn: Option<Connection>,
    pub sessions: SessionStore,
    pub captcha: Captcha,
    pub simbad: Simbad,
    pub config: PortalConfig,
    clock: AtomicI64,
    register_nonce: AtomicU64,
    router: Router,
    cache: ResponseCache,
}

impl Portal {
    /// Connect to the central database. The portal always uses the `web`
    /// role; the admin connection exists only on admin-enabled deploys.
    pub fn new(db: &Db, config: PortalConfig) -> Result<Portal, DbError> {
        let conn = db.connect(ROLE_WEB)?;
        let admin_conn = if config.admin_enabled {
            Some(db.connect(ROLE_ADMIN)?)
        } else {
            None
        };
        let cache = ResponseCache::new(CACHE_CAPACITY);
        let mut portal = Portal {
            conn,
            admin_conn,
            sessions: SessionStore::new(),
            captcha: Captcha::astronomy(),
            simbad: Simbad::new(config.simbad_stars, config.simbad_seed),
            config,
            clock: AtomicI64::new(0),
            register_nonce: AtomicU64::new(0),
            router: Router::new(),
            cache,
        };
        portal.router = crate::apps::build_router(portal.config.admin_enabled);
        Ok(portal)
    }

    /// The portal's clock is fed from the simulation (all of AMP runs on
    /// simulated time in this reproduction).
    pub fn set_now(&self, now: i64) {
        self.clock.store(now, Ordering::SeqCst);
    }

    pub fn now(&self) -> i64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// The routing table, for an embedding that serves pages of its own
    /// beside AMP's: a route added here is matched after the built-in ones.
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// The web-role connection (what every public view uses).
    pub fn conn(&self) -> &Connection {
        &self.conn
    }

    /// The admin connection — present only on admin-enabled deploys.
    pub fn admin_conn(&self) -> Option<&Connection> {
        self.admin_conn.as_ref()
    }

    pub(crate) fn next_register_nonce(&self) -> u64 {
        self.register_nonce.fetch_add(1, Ordering::SeqCst)
    }

    /// Handle one request end-to-end: answer from the versioned response
    /// cache, else render and store. Every request is recorded in the
    /// global metrics registry (per-route count, status, latency; cache
    /// hit/miss). A view that panics fails its own request, not its caller:
    /// the request is answered, and recorded, as a 500.
    pub fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let slot = match self.answer_cached(req, start, true) {
            Ok(hit) => return hit,
            Err(slot) => slot,
        };
        let dispatched = panic::catch_unwind(AssertUnwindSafe(|| self.router.dispatch(self, req)));
        let Ok(response) = dispatched else {
            let response = Response::server_error("500 handler failed");
            self.record(req, start, &response);
            return response;
        };
        if let Some((key, stamp)) = slot {
            self.cache.put(key, stamp, &response);
        }
        self.record(req, start, &response);
        response
    }

    /// The first half of [`Self::handle`]: a cache hit, fully accounted, or
    /// the `(key, stamp)` to store the render under (`None`: not cacheable).
    /// The event loop calls this with `wait` off before it hands a request
    /// to the pool: the lookup then never waits for the cache lock, and
    /// counts no miss — `handle` looks again on the worker.
    pub(crate) fn answer_cached(
        &self,
        req: &Request,
        start: Instant,
        wait: bool,
    ) -> Result<Response, Option<(String, Vec<u64>)>> {
        static CACHE_HITS: OnceLock<amp_obs::Counter> = OnceLock::new();
        static CACHE_MISSES: OnceLock<amp_obs::Counter> = OnceLock::new();
        let Some(deps) = ResponseCache::cacheable(req).filter(|_| self.config.cache_enabled) else {
            return Err(None);
        };
        let key = ResponseCache::key(req);
        // Stamp before rendering: a commit-clock-validated pin of each
        // dependency table's published version — a handful of atomic
        // loads, no lock, no writer blocked. The cut is coherent, so the
        // stamp can never mix a pre-transaction version of one table with
        // a post-transaction version of another. A write racing the render
        // itself can only make the stored entry look stale, never fresh.
        // (Not-yet-migrated tables stamp as version 0.)
        let stamp = self.conn.table_versions(deps);
        match self.cache.lookup(&key, &stamp, wait) {
            Some(response) => {
                CACHE_HITS
                    .get_or_init(|| amp_obs::counter("portal_cache_hits_total"))
                    .inc();
                self.record(req, start, &response);
                Ok(response)
            }
            None => {
                if wait {
                    CACHE_MISSES
                        .get_or_init(|| amp_obs::counter("portal_cache_misses_total"))
                        .inc();
                }
                Err(Some((key, stamp)))
            }
        }
    }

    fn record(&self, req: &Request, start: Instant, response: &Response) {
        let route = self.router.label(req).unwrap_or("unmatched");
        let registry = amp_obs::registry();
        registry
            .counter(&amp_obs::labeled(
                "portal_requests_total",
                &[("route", route), ("status", &response.status.to_string())],
            ))
            .inc();
        registry
            .histogram(
                &amp_obs::labeled("portal_request_seconds", &[("route", route)]),
                amp_obs::Unit::Seconds,
            )
            .observe_duration(start.elapsed());
    }

    /// The response cache (hit/miss counters for tests and benches).
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// Resolve the request's session cookie.
    pub fn session(&self, req: &Request) -> Option<Session> {
        let token = req.cookies.get("amp_session")?;
        self.sessions.get(token, self.now())
    }

    /// Resolve the logged-in user (session + fresh DB row).
    pub fn current_user(&self, req: &Request) -> Option<AmpUser> {
        let session = self.session(req)?;
        Manager::<AmpUser>::new(self.conn.clone())
            .get(session.user_id)
            .ok()
    }

    /// Render a page in the site layout. `title` is text and is escaped;
    /// `body` is the view's HTML and goes in as it is.
    pub fn page(&self, title: &str, user: Option<&AmpUser>, body: &str) -> Response {
        // The layout's own bytes are ~450, plus the title and the username.
        let mut html = String::with_capacity(body.len() + 640);
        html.push_str("<!doctype html>\n<html><head><title>");
        html.push_str(&html_escape(title));
        html.push_str(" — ");
        html.push_str(SITE_TITLE);
        html.push_str("</title></head>\n<body>\n<header><h1><a href=\"/\">");
        html.push_str(SITE_TITLE);
        html.push_str(
            "</a></h1><nav><a href=\"/stars\">stars</a> | \
             <a href=\"/simulations\">simulations</a> | ",
        );
        match user {
            Some(u) => {
                html.push_str("<a href=\"/accounts/profile\">");
                html.push_str(&html_escape(&u.username));
                html.push_str("</a> | <a href=\"/accounts/logout\">log out</a>");
            }
            None => html.push_str(
                "<a href=\"/accounts/login\">log in</a> | \
                 <a href=\"/accounts/register\">register</a>",
            ),
        }
        html.push_str("</nav></header>\n<main>\n");
        html.push_str(body);
        html.push_str(
            "\n</main>\n<footer>AMP — simulations, computational jobs, \
             allocations and supercomputers.</footer>\n</body></html>",
        );
        Response::html(html)
    }

    /// A 404 rendered in the site layout — used when a route exists but
    /// its subject doesn't (e.g. an unknown science application id), so
    /// users get navigation back out instead of a bare error line.
    pub fn page_not_found(&self, user: Option<&AmpUser>, msg: &str) -> Response {
        let body = format!(
            "<h2>Not found</h2><p>{}</p>\
             <p><a href=\"/apps\">Browse the installed science applications</a></p>",
            html_escape(msg)
        );
        let mut resp = self.page("Not found", user, &body);
        resp.status = 404;
        resp
    }
}
