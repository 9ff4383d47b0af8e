//! The portal application object: configuration, shared services, and the
//! URL map wiring the Django-style apps together.

use std::borrow::Cow;
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
    /// Serve read-only answers from the versioned response cache (see
    /// [`crate::cache`]). Disable to force every request through a
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
    /// counts no miss — `handle` looks again on the worker. The loop never
    /// resolves a session either: a page asked with an `amp_session`
    /// cookie is not its to answer, and `handle` fills the hit's user slot
    /// on the worker.
    pub(crate) fn answer_cached(
        &self,
        req: &Request,
        start: Instant,
        wait: bool,
    ) -> Result<Response, Option<(String, Vec<u64>)>> {
        static CACHE_HITS: OnceLock<amp_obs::Counter> = OnceLock::new();
        static CACHE_MISSES: OnceLock<amp_obs::Counter> = OnceLock::new();
        let Some(route) = ResponseCache::cacheable(req).filter(|_| self.config.cache_enabled)
        else {
            return Err(None);
        };
        if !wait && route.page && req.cookies.contains_key("amp_session") {
            return Err(None);
        }
        let key = ResponseCache::key(req);
        // Stamp before rendering: the dependency tables' counters, read
        // from one pin of the published version — a couple of atomic
        // operations, no lock, no writer blocked. The cut is coherent, so
        // the stamp can never mix a pre-transaction version of one table
        // with a post-transaction version of another. A write racing the render
        // itself can only make the stored entry look stale, never fresh.
        // (Not-yet-migrated tables stamp as version 0.)
        let stamp = self.conn.table_versions(route.tables);
        match self.cache.lookup(&key, &stamp, wait) {
            Some(entry) => {
                // the requester, read as a fresh render reads it
                let response = entry.answer(|| user_links(self.current_user(req).as_ref()));
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
    /// `body` is the view's HTML and goes in as it is. The links naming
    /// the requester are the response's user slot (see `crate::cache`).
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
        let slot = html.len();
        html.push_str(&user_links(user));
        let user_slot = slot..html.len();
        html.push_str("</nav></header>\n<main>\n");
        html.push_str(body);
        html.push_str(
            "\n</main>\n<footer>AMP — simulations, computational jobs, \
             allocations and supercomputers.</footer>\n</body></html>",
        );
        let mut page = Response::html(html);
        page.user_slot = Some(user_slot);
        page
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

/// The layout's user slot: the requester's profile and log-out links, or
/// the log-in and register links. [`Portal::page`] writes it in a fresh
/// render, and a cache hit writes it into the stored page.
fn user_links(user: Option<&AmpUser>) -> Cow<'static, str> {
    match user {
        Some(u) => Cow::Owned(format!(
            "<a href=\"/accounts/profile\">{}</a> | <a href=\"/accounts/logout\">log out</a>",
            html_escape(&u.username)
        )),
        None => Cow::Borrowed(
            "<a href=\"/accounts/login\">log in</a> | \
             <a href=\"/accounts/register\">register</a>",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::models::Star;

    /// A database holding one star and `usernames` as users; the star's
    /// detail path and the users' ids.
    fn database(usernames: &[&str]) -> (Db, String, Vec<i64>) {
        let db = Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let admin = db.connect(ROLE_ADMIN).unwrap();
        let mut star = Star::from_catalog(&amp_stellar::famous_stars()[0], "local");
        Manager::<Star>::new(admin.clone())
            .create(&mut star)
            .unwrap();
        let star_path = format!("/star/{}", crate::http::urlencode_path(&star.identifier));
        let users = Manager::<AmpUser>::new(admin);
        let ids = (0..)
            .zip(usernames)
            .map(|(i, name)| {
                let mut user = AmpUser::new(name, &format!("u{i}@x.edu"), "h", 0);
                users.create(&mut user).unwrap()
            })
            .collect();
        (db, star_path, ids)
    }

    /// A portal, cached or rendering every request fresh, and a live
    /// session on it for each of `users`.
    fn portal(db: &Db, cache_enabled: bool, users: &[i64]) -> (Portal, Vec<String>) {
        let config = PortalConfig {
            cache_enabled,
            ..PortalConfig::default()
        };
        let portal = Portal::new(db, config).unwrap();
        let sessions = users
            .iter()
            .map(|&id| portal.sessions.create(id, "", false, portal.now()))
            .collect();
        (portal, sessions)
    }

    /// Usernames that could break out of the slot or pass for the layout's
    /// own bytes are escaped and filled exactly: a hit is the fresh render,
    /// for each user and for no cookie, and no stored entry holds a
    /// username, escaped or not.
    #[test]
    fn the_user_slot_is_filled_per_request_and_never_stored() {
        let names = [
            "</nav><main>evil",
            "log out",
            "log in | register",
            "a&b \"q\" 'r' <x>",
            "Zoë ☉ 星",
        ];
        let (db, star_path, ids) = database(&names);
        let (cached, sessions) = portal(&db, true, &ids);
        let (fresh, fresh_sessions) = portal(&db, false, &ids);
        let paths = ["/", "/stars", star_path.as_str(), "/simulation/999"];
        for round in 0..2 {
            for path in paths {
                let anonymous = Request::get(path);
                let want = fresh.handle(&anonymous);
                assert_eq!(cached.handle(&anonymous).body, want.body, "{path}");
                for (i, name) in names.iter().enumerate() {
                    let mine =
                        |session: &str| Request::get(path).with_cookie("amp_session", session);
                    let got = cached.handle(&mine(&sessions[i]));
                    let want = fresh.handle(&mine(&fresh_sessions[i]));
                    assert_eq!((got.status, &got.headers), (want.status, &want.headers));
                    assert_eq!(
                        String::from_utf8(got.body).unwrap(),
                        String::from_utf8(want.body).unwrap(),
                        "{path} for {name:?}, round {round}"
                    );
                }
            }
        }
        let cache = cached.cache();
        assert_eq!(cache.len(), paths.len());
        assert_eq!(cache.misses(), paths.len() as u64);
        for body in cache.stored_bodies() {
            let body = String::from_utf8(body).unwrap();
            for name in names {
                assert!(!body.contains(name), "{name:?} stored in {body}");
                assert!(
                    !body.contains(&html_escape(name)),
                    "{name:?} stored in {body}"
                );
            }
        }
        // the slot is the only place a page names its requester
        let page = cached.handle(&Request::get("/").with_cookie("amp_session", &sessions[0]));
        let slot = page.user_slot.clone().unwrap();
        assert_eq!(
            std::str::from_utf8(&page.body[slot]).unwrap(),
            "<a href=\"/accounts/profile\">&lt;/nav&gt;&lt;main&gt;evil</a> | \
             <a href=\"/accounts/logout\">log out</a>"
        );
    }

    /// The bare 404 of an unknown simulation is no layout page: it is
    /// stored and served as it is, to a session as to no cookie.
    #[test]
    fn a_bare_answer_on_a_page_route_is_served_as_stored() {
        let (db, _, ids) = database(&["astro"]);
        let (portal, sessions) = portal(&db, true, &ids);
        let anonymous = portal.handle(&Request::get("/simulation/7"));
        assert_eq!((anonymous.status, anonymous.user_slot.clone()), (404, None));
        let mine =
            portal.handle(&Request::get("/simulation/7").with_cookie("amp_session", &sessions[0]));
        assert_eq!((portal.cache().misses(), portal.cache().hits()), (1, 1));
        assert_eq!(
            (mine.status, &mine.headers, &mine.body),
            (404, &anonymous.headers, &anonymous.body)
        );
        assert_eq!(portal.cache().stored_bodies(), [b"404 not found".to_vec()]);
    }
}
