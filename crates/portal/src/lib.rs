//! # amp-portal — the AMP web gateway
//!
//! The public face of the AMP reproduction (Woitaszek et al., GCE 2009):
//! a database-driven web application with *no grid connectivity and no
//! credentials* (Figure 2 / §3). It talks only to the central database,
//! with the `web` role's grants; the GridAMP daemon picks submissions up
//! asynchronously from there.
//!
//! * [`http`] / [`server`] — hand-rolled HTTP/1.1 (no web framework on the
//!   offline crate list);
//! * [`router`] — URL patterns → view functions, each of which writes its
//!   HTML directly, escaping text with [`http::html_escape`];
//!   [`Portal::page`] wraps it in the site layout;
//! * [`auth`] — from-scratch SHA-256, salted iterated password hashing,
//!   session store;
//! * [`captcha`] — the §4.2 accessibility CAPTCHA ("What is the HD number
//!   for Alpha Centauri?");
//! * [`simbad`] — the synthetic external catalog for search fall-through;
//! * [`apps`] — the Django-style applications: accounts, catalog, results,
//!   submission, admin (non-public deploys only), RSS feeds.

#![deny(unsafe_code)]

pub mod apps;
pub mod auth;
pub mod cache;
pub mod captcha;
#[allow(unsafe_code)]
pub(crate) mod event_loop;
pub mod http;
pub mod portal;
pub mod router;
pub mod server;
pub mod simbad;

pub use auth::{hash_password, sha256, verify_password, SessionStore};
pub use cache::ResponseCache;
pub use captcha::Captcha;
pub use http::{Method, Request, RequestParser, Response};
pub use portal::{Portal, PortalConfig};
pub use router::{Params, Router};
pub use server::{Server, ServerConfig};
pub use simbad::{Simbad, SimbadError};

#[cfg(test)]
mod portal_tests {
    use super::*;
    use amp_core::models::{Allocation, AmpUser, Simulation, Star, SystemAuthorization};
    use amp_core::SimStatus;
    use amp_simdb::orm::Manager;
    use amp_simdb::{Db, Query};

    /// Bootstrap a DB + portal (admin-enabled unless stated otherwise).
    fn setup(admin_enabled: bool) -> (Db, Portal) {
        let db = Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let portal = Portal::new(
            &db,
            PortalConfig {
                admin_enabled,
                simbad_stars: 30,
                simbad_seed: 7,
                ..PortalConfig::default()
            },
        )
        .unwrap();
        portal.set_now(1_000);
        (db, portal)
    }

    /// Register + approve + log in; returns the session cookie value.
    fn make_user(db: &Db, portal: &Portal, username: &str, admin: bool) -> (i64, String) {
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let users = Manager::<AmpUser>::new(conn);
        let mut u = AmpUser::new(
            username,
            &format!("{username}@example.edu"),
            &hash_password("orbitals88", "s"),
            0,
        );
        u.approved = true;
        u.is_admin = admin;
        let id = users.create(&mut u).unwrap();
        let resp = portal.handle(&Request::post(
            "/accounts/login",
            &[("username", username), ("password", "orbitals88")],
        ));
        assert_eq!(resp.status, 302, "{}", resp.body_str());
        let cookie = resp
            .headers
            .iter()
            .find(|(k, _)| k == "Set-Cookie")
            .map(|(_, v)| {
                v.split(';')
                    .next()
                    .unwrap()
                    .split('=')
                    .nth(1)
                    .unwrap()
                    .to_string()
            })
            .expect("session cookie");
        (id, cookie)
    }

    fn seed_star(db: &Db) -> (i64, String) {
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(conn);
        let famous = amp_stellar::famous_stars();
        let mut s = Star::from_catalog(&famous[3], "local"); // Tau Ceti
        stars.create(&mut s).unwrap();
        (s.id.unwrap(), s.identifier)
    }

    fn seed_allocation(db: &Db, user_id: i64) -> i64 {
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let allocs = Manager::<Allocation>::new(conn.clone());
        let mut a = Allocation::new("kraken", "TG-AST090030", 100_000.0);
        allocs.create(&mut a).unwrap();
        let auths = Manager::<SystemAuthorization>::new(conn);
        auths
            .create(&mut SystemAuthorization::new(user_id, a.id.unwrap(), 0))
            .unwrap();
        a.id.unwrap()
    }

    #[test]
    fn home_page_hides_grid_jargon() {
        let (_db, portal) = setup(false);
        let resp = portal.handle(&Request::get("/"));
        assert_eq!(resp.status, 200);
        let body = resp.body_str().to_lowercase();
        // §5: "the word 'certificate' is not even mentioned anywhere"
        assert!(!body.contains("certificate"));
        assert!(!body.contains("globus"));
        assert!(!body.contains("gram"));
        // but HPC-familiar vocabulary stays
        assert!(body.contains("simulations"));
    }

    #[test]
    fn registration_requires_correct_captcha() {
        let (db, portal) = setup(false);
        // fetch the form to learn the challenge id
        let form = portal.handle(&Request::get("/accounts/register"));
        let body = form.body_str();
        let id_pos = body.find("name=\"captcha_id\" value=\"").unwrap();
        let id: usize = body[id_pos + 25..]
            .split('"')
            .next()
            .unwrap()
            .parse()
            .unwrap();

        // wrong answer blocked
        let resp = portal.handle(&Request::post(
            "/accounts/register",
            &[
                ("username", "supermodel"),
                ("email", "fab@example.com"),
                ("password", "longenough"),
                ("captcha_id", &id.to_string()),
                ("captcha_answer", "i love stars"),
            ],
        ));
        assert_eq!(resp.status, 403);

        // correct answer accepted (look the answer up like an astronomer)
        let q_pos = body.find("Are you an astronomer?").unwrap();
        let question = &body[q_pos..(q_pos + 400).min(body.len())];
        let star = amp_stellar::famous_stars()
            .into_iter()
            .find(|s| question.contains(s.name.as_deref().unwrap_or("")))
            .expect("question names a famous star");
        let resp = portal.handle(&Request::post(
            "/accounts/register",
            &[
                ("username", "astro2"),
                ("email", "astro2@example.edu"),
                ("password", "longenough"),
                ("captcha_id", &id.to_string()),
                ("captcha_answer", &star.hd_number.unwrap().to_string()),
            ],
        ));
        assert_eq!(resp.status, 302, "{}", resp.body_str());

        // account exists but is unapproved; login is refused
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let users = Manager::<AmpUser>::new(conn);
        let u = users
            .first(&Query::new().eq("username", "astro2"))
            .unwrap()
            .unwrap();
        assert!(!u.approved);
        assert!(u.provenance.contains("captcha"));
        let resp = portal.handle(&Request::post(
            "/accounts/login",
            &[("username", "astro2"), ("password", "longenough")],
        ));
        assert_eq!(resp.status, 403);
    }

    #[test]
    fn registration_validation() {
        let (_db, portal) = setup(false);
        for (u, e, pw) in [
            ("ab", "a@b.c", "longenough"),      // username too short
            ("user!", "a@b.c", "longenough"),   // bad chars
            ("gooduser", "nope", "longenough"), // bad email
            ("gooduser", "a@b.c", "short"),     // short password
        ] {
            let resp = portal.handle(&Request::post(
                "/accounts/register",
                &[
                    ("username", u),
                    ("email", e),
                    ("password", pw),
                    ("captcha_id", "0"),
                    ("captcha_answer", "128620"),
                ],
            ));
            assert_eq!(resp.status, 400, "{u}/{e}/{pw}");
        }
    }

    #[test]
    fn login_logout_session_lifecycle() {
        let (db, portal) = setup(false);
        let (_uid, cookie) = make_user(&db, &portal, "astro1", false);
        let resp =
            portal.handle(&Request::get("/accounts/profile").with_cookie("amp_session", &cookie));
        assert_eq!(resp.status, 200);
        assert!(resp.body_str().contains("astro1"));

        // wrong password
        let resp = portal.handle(&Request::post(
            "/accounts/login",
            &[("username", "astro1"), ("password", "wrong")],
        ));
        assert_eq!(resp.status, 403);

        // logout invalidates
        portal.handle(&Request::get("/accounts/logout").with_cookie("amp_session", &cookie));
        let resp =
            portal.handle(&Request::get("/accounts/profile").with_cookie("amp_session", &cookie));
        assert_eq!(resp.status, 302);
    }

    #[test]
    fn search_falls_through_to_simbad_and_imports() {
        let (db, portal) = setup(false);
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(conn);
        assert_eq!(stars.count(&Query::new()).unwrap(), 0);

        let resp = portal.handle(&Request::get("/stars/search?q=HD+128620"));
        assert_eq!(resp.status, 200);
        assert!(resp.body_str().contains("added to the AMP catalog"));
        assert_eq!(stars.count(&Query::new()).unwrap(), 1);
        assert_eq!(portal.simbad.query_count(), 1);

        // second search hits the local catalog, not SIMBAD
        let resp = portal.handle(&Request::get("/stars/search?q=HD+128620"));
        assert!(resp.body_str().contains("HD 128620"));
        assert_eq!(portal.simbad.query_count(), 1, "no second external query");

        // unknown target: graceful miss
        let resp = portal.handle(&Request::get("/stars/search?q=HD+424242424"));
        assert!(resp.body_str().contains("No matching targets"));
    }

    #[test]
    fn suggest_ranks_results_and_kepler_first() {
        let (db, portal) = setup(false);
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(conn);
        for (ident, name, has_results, kepler) in [
            ("HD 300001", Some("Névé"), false, false),
            // matches by identifier and by name: listed once
            ("HD 300002", Some("HD 3000 b"), true, false),
            ("HD 300003", None, false, true),
        ] {
            let mut s = Star {
                id: None,
                identifier: ident.into(),
                name: name.map(String::from),
                hd_number: None,
                kic_number: None,
                ra: 0.0,
                dec: 0.0,
                vmag: 8.0,
                in_kepler_field: kepler,
                source: "local".into(),
                has_results,
            };
            stars.create(&mut s).unwrap();
        }
        let resp = portal.handle(&Request::get("/api/suggest?q=HD+3000"));
        let items: Vec<serde_json::Value> = serde_json::from_str(&resp.body_str()).unwrap();
        assert_eq!(items.len(), 3);
        // interesting stars first
        assert_eq!(items[0]["identifier"], "HD 300002");
        assert_eq!(items[1]["identifier"], "HD 300003");
        assert_eq!(items[2]["identifier"], "HD 300001");
        // too-short query returns empty, counted in characters: one
        // two-byte "é" is too short too, though a name contains it
        let resp = portal.handle(&Request::get("/api/suggest?q=H"));
        assert_eq!(resp.body_str(), "[]");
        let resp = portal.handle(&Request::get("/api/suggest?q=%C3%A9"));
        assert_eq!(resp.body_str(), "[]");
    }

    /// Suggest is answered from the response cache, and a write to `star`
    /// by another view (a search's SIMBAD import) makes the next one fresh.
    #[test]
    fn suggest_is_cached_until_a_search_imports_a_star() {
        let (_db, portal) = setup(false);
        let suggest = Request::get("/api/suggest?q=HD+1286");
        assert_eq!(portal.handle(&suggest).body_str(), "[]");
        let hits = portal.cache().hits();
        assert_eq!(portal.handle(&suggest).body_str(), "[]");
        assert_eq!(portal.cache().hits(), hits + 1, "the repeat is a hit");

        let resp = portal.handle(&Request::get("/stars/search?q=HD+128620"));
        assert!(resp.body_str().contains("added to the AMP catalog"));
        let (hits, misses) = (portal.cache().hits(), portal.cache().misses());
        let items: Vec<serde_json::Value> =
            serde_json::from_str(&portal.handle(&suggest).body_str()).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0]["identifier"], "HD 128620");
        assert_eq!(portal.cache().hits(), hits, "the import invalidated it");
        assert_eq!(portal.cache().misses(), misses + 1);
    }

    /// The search page's bytes for an exact identifier, an identifier
    /// fragment (its hits in id order, not identifier order) and a name
    /// matched by no identifier.
    #[test]
    fn search_pages_list_identifiers() {
        let (db, portal) = setup(false);
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(conn);
        for (ident, name) in [
            ("HD 7002", None),
            ("HD 7001", Some("Alpha Trianguli")),
            ("HD 70003", None),
            ("KIC 8006161", Some("Kepler-21")),
        ] {
            let mut s = Star::from_catalog(&amp_stellar::famous_stars()[0], "local");
            s.identifier = ident.into();
            s.name = name.map(String::from);
            stars.create(&mut s).unwrap();
        }
        let search = |q: &str| portal.handle(&Request::get(&format!("/stars/search?q={q}")));
        let page = |body: &str| portal.page("Search", None, body);
        for (q, body) in [
            (
                "HD+7001",
                "<h2>Search results for “HD 7001”</h2>\
                 <ul><li><a href=\"/star/HD%207001\">HD 7001</a></li></ul>",
            ),
            (
                "hd+700",
                "<h2>Search results for “hd 700”</h2><ul>\
                 <li><a href=\"/star/HD%207002\">HD 7002</a></li>\
                 <li><a href=\"/star/HD%207001\">HD 7001</a></li>\
                 <li><a href=\"/star/HD%2070003\">HD 70003</a></li></ul>",
            ),
            (
                "kepler",
                "<h2>Search results for “kepler”</h2>\
                 <ul><li><a href=\"/star/KIC%208006161\">KIC 8006161</a></li></ul>",
            ),
        ] {
            let resp = search(q);
            let want = page(body);
            assert_eq!(resp.status, 200, "{q}");
            assert_eq!(resp.headers, want.headers, "{q}");
            assert_eq!(resp.body_str(), want.body_str(), "{q}");
        }
        assert_eq!(portal.simbad.query_count(), 0, "every query hit locally");
    }

    #[test]
    fn observation_upload_validates_strictly() {
        let (db, portal) = setup(false);
        let (_uid, cookie) = make_user(&db, &portal, "astro1", false);
        let (star_id, ident) = seed_star(&db);
        let path = format!("/star/{}/observations", crate::http::urlencode_path(&ident));

        // anonymous -> login redirect
        let resp = portal.handle(&Request::post(&path, &[("modes", "0 20 2000.0 0.1")]));
        assert_eq!(resp.status, 302);

        // garbage lines rejected with the line number
        let resp = portal.handle(
            &Request::post(&path, &[("modes", "0 20 2000.0 0.1\nnot a mode line")])
                .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 400);
        assert!(resp.body_str().contains("line 2"));

        // too few modes rejected
        let resp = portal.handle(
            &Request::post(&path, &[("modes", "0 20 2000.0 0.1")])
                .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 400);

        // valid upload lands as a typed observation row
        let modes = "0 20 2000.0 0.1\n0 21 2134.0 0.1\n1 20 2067.0 0.12";
        let resp = portal.handle(
            &Request::post(
                &path,
                &[("modes", modes), ("teff", "5800"), ("teff_sigma", "70")],
            )
            .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 302, "{}", resp.body_str());
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let obs = Manager::<amp_core::models::Observation>::new(conn)
            .filter(&Query::new().eq("star_id", star_id))
            .unwrap();
        assert_eq!(obs.len(), 1);
        let decoded = obs[0].observed().unwrap();
        assert_eq!(decoded.modes.len(), 3);
        assert_eq!(decoded.teff.unwrap().value, 5800.0);
    }

    #[test]
    fn direct_submission_flow() {
        let (db, portal) = setup(false);
        let (uid, cookie) = make_user(&db, &portal, "astro1", false);
        let (star_id, _) = seed_star(&db);
        let alloc = seed_allocation(&db, uid);

        let path = format!("/submit/stellar/direct/{star_id}");
        let good = [
            ("mass", "1.1"),
            ("metallicity", "0.02"),
            ("helium", "0.27"),
            ("alpha", "1.9"),
            ("age", "4.0"),
            ("allocation", &alloc.to_string()),
        ];
        // anonymous redirected
        assert_eq!(portal.handle(&Request::post(&path, &good)).status, 302);
        let resp = portal.handle(&Request::post(&path, &good).with_cookie("amp_session", &cookie));
        assert_eq!(resp.status, 302, "{}", resp.body_str());

        // out-of-domain rejected
        let mut bad = good;
        bad[0] = ("mass", "9.0");
        let resp = portal.handle(&Request::post(&path, &bad).with_cookie("amp_session", &cookie));
        assert_eq!(resp.status, 400);

        // non-numeric rejected
        let mut nan = good;
        nan[4] = ("age", "four");
        let resp = portal.handle(&Request::post(&path, &nan).with_cookie("amp_session", &cookie));
        assert_eq!(resp.status, 400);

        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sims = Manager::<Simulation>::new(conn);
        let all = sims.all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].status, SimStatus::Queued);
        assert_eq!(all[0].system, "kraken");
    }

    #[test]
    fn submission_requires_machine_authorization() {
        let (db, portal) = setup(false);
        let (_uid, cookie) = make_user(&db, &portal, "astro1", false);
        let (star_id, _) = seed_star(&db);
        // allocation exists but astro1 is NOT authorized for it
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let allocs = Manager::<Allocation>::new(conn);
        let mut a = Allocation::new("kraken", "TG-X", 1000.0);
        allocs.create(&mut a).unwrap();

        let resp = portal.handle(
            &Request::post(
                &format!("/submit/stellar/direct/{star_id}"),
                &[
                    ("mass", "1.0"),
                    ("metallicity", "0.02"),
                    ("helium", "0.27"),
                    ("alpha", "1.9"),
                    ("age", "4.0"),
                    ("allocation", &a.id.unwrap().to_string()),
                ],
            )
            .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 403);
    }

    #[test]
    fn admin_interface_gated_three_ways() {
        // 1. public deploy: routes do not exist
        let (_db, public) = setup(false);
        assert_eq!(public.handle(&Request::get("/admin")).status, 404);
        assert!(public.admin_conn().is_none());

        // 2. internal deploy, anonymous: redirected to login
        let (db, internal) = setup(true);
        assert_eq!(internal.handle(&Request::get("/admin")).status, 302);

        // 3. internal deploy, non-admin user: forbidden
        let (_uid, cookie) = make_user(&db, &internal, "pleb", false);
        assert_eq!(
            internal
                .handle(&Request::get("/admin").with_cookie("amp_session", &cookie))
                .status,
            403
        );

        // admin user sees the dashboard
        let (_aid, admin_cookie) = make_user(&db, &internal, "boss", true);
        let resp =
            internal.handle(&Request::get("/admin").with_cookie("amp_session", &admin_cookie));
        assert_eq!(resp.status, 200);
        assert!(resp.body_str().contains("amp_user"));
    }

    #[test]
    fn admin_approves_users_and_authorizes_machines() {
        let (db, portal) = setup(true);
        let (_aid, admin_cookie) = make_user(&db, &portal, "boss", true);

        // a pending registrant
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let users = Manager::<AmpUser>::new(conn.clone());
        let mut pending = AmpUser::new("newbie", "n@x.edu", &hash_password("pw", "s"), 0);
        let pid = users.create(&mut pending).unwrap();

        let resp = portal.handle(
            &Request::post(&format!("/admin/users/{pid}/approve"), &[])
                .with_cookie("amp_session", &admin_cookie),
        );
        assert_eq!(resp.status, 302);
        assert!(users.get(pid).unwrap().approved);

        // grant machine authorization via the admin form
        let allocs = Manager::<Allocation>::new(conn.clone());
        let mut a = Allocation::new("kraken", "TG-Y", 1000.0);
        allocs.create(&mut a).unwrap();
        let resp = portal.handle(
            &Request::post(
                "/admin/authorize",
                &[
                    ("user_id", &pid.to_string()),
                    ("allocation_id", &a.id.unwrap().to_string()),
                ],
            )
            .with_cookie("amp_session", &admin_cookie),
        );
        assert_eq!(resp.status, 302);
        let auths = Manager::<SystemAuthorization>::new(conn);
        assert!(SystemAuthorization::is_authorized(&auths, pid, a.id.unwrap()).unwrap());
    }

    #[test]
    fn admin_generic_table_editor() {
        let (db, portal) = setup(true);
        let (_aid, cookie) = make_user(&db, &portal, "boss", true);
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let allocs = Manager::<Allocation>::new(conn.clone());
        let mut a = Allocation::new("kraken", "TG-Z", 1000.0);
        allocs.create(&mut a).unwrap();

        // browse
        let resp = portal
            .handle(&Request::get("/admin/table/allocation").with_cookie("amp_session", &cookie));
        assert!(resp.body_str().contains("TG-Z"));

        // edit a field (adjusting back-end parameters, §4.1)
        let resp = portal.handle(
            &Request::post(
                &format!("/admin/table/allocation/{}/set", a.id.unwrap()),
                &[("column", "su_granted"), ("value", "55000")],
            )
            .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 302, "{}", resp.body_str());
        assert_eq!(allocs.get(a.id.unwrap()).unwrap().su_granted, 55_000.0);

        // type-violating edit rejected
        let resp = portal.handle(
            &Request::post(
                &format!("/admin/table/allocation/{}/set", a.id.unwrap()),
                &[("column", "su_granted"), ("value", "lots")],
            )
            .with_cookie("amp_session", &cookie),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn rss_feed_renders() {
        let (db, portal) = setup(false);
        let (uid, _cookie) = make_user(&db, &portal, "astro1", false);
        let (star_id, _) = seed_star(&db);
        let alloc = seed_allocation(&db, uid);
        let conn = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sims = Manager::<Simulation>::new(conn);
        let mut sim = Simulation::new_direct(
            star_id,
            uid,
            amp_stellar::StellarParams::benchmark(),
            "kraken",
            alloc,
            500,
        );
        sims.create(&mut sim).unwrap();

        let resp = portal.handle(&Request::get(&format!("/feeds/star/{star_id}.rss")));
        assert_eq!(resp.status, 200);
        let xml = resp.body_str();
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("<rss version=\"2.0\">"));
        assert!(xml.contains("direct simulation"));
        assert!(xml.contains("QUEUED"));
    }

    #[test]
    fn unknown_routes_404() {
        let (_db, portal) = setup(false);
        assert_eq!(portal.handle(&Request::get("/nope")).status, 404);
        assert_eq!(portal.handle(&Request::get("/star/999999")).status, 404);
        assert_eq!(
            portal.handle(&Request::get("/simulation/12345")).status,
            404
        );
    }

    #[test]
    fn tcp_server_round_trip() {
        let (db, portal) = setup(false);
        seed_star(&db);
        let portal = std::sync::Arc::new(portal);
        let server = Server::spawn(portal, 0).unwrap();
        let raw = "GET /stars HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".to_string();
        let response = server::fetch(server.addr(), &raw).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Star catalog"));
        server.stop();
    }
}
