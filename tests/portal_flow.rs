//! C4 + full-stack integration: the complete user journey through the
//! portal's request handler — registration with the astronomy CAPTCHA,
//! administrator approval, star search with SIMBAD import, observation
//! upload, optimization submission, daemon execution, results and feeds.

use amp::portal::{Portal, PortalConfig, Request};
use amp::prelude::*;
use std::sync::Arc;

struct Rig {
    dep: amp::gridamp::Deployment,
    portal: Arc<Portal>,
}

fn rig() -> Rig {
    let dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: 6.0,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    let portal = Arc::new(
        Portal::new(
            &dep.db,
            PortalConfig {
                admin_enabled: true,
                ..PortalConfig::default()
            },
        )
        .unwrap(),
    );
    Rig { dep, portal }
}

fn captcha_answer(form_html: &str) -> (usize, String) {
    let id: usize = form_html
        .split("name=\"captcha_id\" value=\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let star = amp::stellar::famous_stars()
        .into_iter()
        .find(|s| form_html.contains(s.name.as_deref().unwrap_or("?")))
        .expect("captcha question names a famous star");
    (id, star.hd_number.unwrap().to_string())
}

fn cookie_of(resp: &amp::portal::Response) -> String {
    resp.headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .map(|(_, v)| {
            v.split(';')
                .next()
                .unwrap()
                .trim_start_matches("amp_session=")
                .to_string()
        })
        .expect("session cookie")
}

#[test]
fn full_user_journey() {
    let mut r = rig();

    // fixtures the portal itself can't create: allocation + admin account
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut alloc = Allocation::new("kraken", "TG-AST090030", 500_000.0);
    Manager::<Allocation>::new(admin.clone())
        .create(&mut alloc)
        .unwrap();
    let mut boss = AmpUser::new(
        "boss",
        "b@x.edu",
        &amp::portal::hash_password("sup3rs3cret", "s"),
        0,
    );
    boss.approved = true;
    boss.is_admin = true;
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut boss)
        .unwrap();

    // 1. register with the CAPTCHA
    let form = r
        .portal
        .handle(&Request::get("/accounts/register"))
        .body_str();
    let (cid, answer) = captcha_answer(&form);
    let resp = r.portal.handle(&Request::post(
        "/accounts/register",
        &[
            ("username", "astro1"),
            ("email", "astro1@obs.edu"),
            ("password", "pulsations"),
            ("captcha_id", &cid.to_string()),
            ("captcha_answer", &answer),
        ],
    ));
    assert_eq!(resp.status, 302, "{}", resp.body_str());

    // 2. admin approves + authorizes via the admin app
    let boss_login = r.portal.handle(&Request::post(
        "/accounts/login",
        &[("username", "boss"), ("password", "sup3rs3cret")],
    ));
    let boss_cookie = cookie_of(&boss_login);
    let astro = Manager::<AmpUser>::new(admin.clone())
        .first(&Query::new().eq("username", "astro1"))
        .unwrap()
        .unwrap();
    r.portal.handle(
        &Request::post(&format!("/admin/users/{}/approve", astro.id.unwrap()), &[])
            .with_cookie("amp_session", &boss_cookie),
    );
    r.portal.handle(
        &Request::post(
            "/admin/authorize",
            &[
                ("user_id", &astro.id.unwrap().to_string()),
                ("allocation_id", &alloc.id.unwrap().to_string()),
            ],
        )
        .with_cookie("amp_session", &boss_cookie),
    );

    // 3. astronomer logs in, finds a target (SIMBAD import), uploads data
    let login = r.portal.handle(&Request::post(
        "/accounts/login",
        &[("username", "astro1"), ("password", "pulsations")],
    ));
    assert_eq!(login.status, 302, "{}", login.body_str());
    let cookie = cookie_of(&login);

    let page = r
        .portal
        .handle(&Request::get("/stars/search?q=HD+10700").with_cookie("amp_session", &cookie));
    assert!(page.body_str().contains("added to the AMP catalog"));

    let truth = StellarParams {
        mass: 0.92,
        metallicity: 0.016,
        helium: 0.26,
        alpha: 1.8,
        age: 5.5,
    };
    let observed =
        amp::stellar::synthesize("HD 10700", &truth, &Domain::default(), 0.12, 8).unwrap();
    let mut modes = String::new();
    for m in &observed.modes {
        modes.push_str(&format!(
            "{} {} {:.4} {:.4}\n",
            m.l, m.n, m.frequency, m.sigma
        ));
    }
    let resp = r.portal.handle(
        &Request::post(
            "/star/HD%2010700/observations",
            &[
                ("modes", modes.as_str()),
                ("teff", "5350"),
                ("teff_sigma", "80"),
            ],
        )
        .with_cookie("amp_session", &cookie),
    );
    assert_eq!(resp.status, 302, "{}", resp.body_str());

    // 4. submit the optimization through the form
    let star = Manager::<Star>::new(admin.clone())
        .first(&Query::new().eq("identifier", "HD 10700"))
        .unwrap()
        .unwrap();
    let obs = Manager::<Observation>::new(admin.clone())
        .first(&Query::new().eq("star_id", star.id.unwrap()))
        .unwrap()
        .unwrap();
    // Every local link on the star page is a route that exists; its two
    // submit links lead to forms, and the optimization one takes the post.
    let star_page = r
        .portal
        .handle(&Request::get("/star/HD%2010700").with_cookie("amp_session", &cookie))
        .body_str();
    let links: Vec<&str> = star_page
        .split("href=\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .filter(|href| href.starts_with('/') && *href != "/accounts/logout")
        .collect();
    for href in &links {
        let resp = r
            .portal
            .handle(&Request::get(href).with_cookie("amp_session", &cookie));
        assert_ne!(resp.status, 404, "star page links to {href}");
    }
    let submit_link = |text: &str| {
        let link = links
            .iter()
            .find(|href| star_page.contains(&format!("<a href=\"{href}\">{text}</a>")))
            .unwrap_or_else(|| panic!("no {text:?} link on the star page"));
        assert_eq!(r.portal.handle(&Request::get(link)).status, 200, "{link}");
        link.to_string()
    };
    submit_link("Submit direct model run");
    let optimization_path = submit_link("Submit optimization run");
    // the pre-application paths are gone, not aliased
    for old in ["direct", "optimization"] {
        let path = format!("/submit/{old}/{}", star.id.unwrap());
        assert_eq!(r.portal.handle(&Request::get(&path)).status, 404, "{path}");
    }
    let resp = r.portal.handle(
        &Request::post(
            &optimization_path,
            &[
                ("observation", &obs.id.unwrap().to_string()),
                ("ga_runs", "2"),
                ("generations", "30"),
                ("allocation", &alloc.id.unwrap().to_string()),
            ],
        )
        .with_cookie("amp_session", &cookie),
    );
    assert_eq!(resp.status, 302, "{}", resp.body_str());
    let sim_path = resp
        .headers
        .iter()
        .find(|(k, _)| k == "Location")
        .unwrap()
        .1
        .clone();

    // 5. the daemon runs it; the portal's status page follows along
    let mut saw_running = false;
    for _ in 0..3000 {
        r.dep.daemon.tick(&r.dep.grid);
        r.portal.set_now(r.dep.grid.now().as_secs() as i64);
        let page = r
            .portal
            .handle(&Request::get(&sim_path).with_cookie("amp_session", &cookie))
            .body_str();
        if page.contains("<b>RUNNING</b>") {
            saw_running = true;
        }
        if page.contains("<b>DONE</b>") {
            break;
        }
        r.dep.grid.advance(SimDuration::from_secs(900));
    }
    assert!(saw_running, "never observed RUNNING on the status page");
    let page = r
        .portal
        .handle(&Request::get(&sim_path).with_cookie("amp_session", &cookie))
        .body_str();
    assert!(page.contains("<b>DONE</b>"), "{page}");
    assert!(page.contains("Optimal model"));

    // 6. plot data + RSS + suggest now list the star with results
    let plots = r
        .portal
        .handle(&Request::get(&format!("{sim_path}/plots.json")));
    let v: serde_json::Value = serde_json::from_str(&plots.body_str()).unwrap();
    assert!(v["hr_track"].as_array().unwrap().len() >= 10);
    assert!(v["echelle"].as_array().unwrap().len() >= 30);

    let rss = r.portal.handle(&Request::get(&format!(
        "/feeds/star/{}.rss",
        star.id.unwrap()
    )));
    assert!(rss.body_str().contains("DONE"));

    let suggest = r.portal.handle(&Request::get("/api/suggest?q=HD+107"));
    let items: Vec<serde_json::Value> = serde_json::from_str(&suggest.body_str()).unwrap();
    assert!(items
        .iter()
        .any(|i| i["identifier"] == "HD 10700" && i["has_results"] == true));
}

#[test]
fn wrong_captcha_keeps_supermodels_out() {
    let r = rig();
    let form = r
        .portal
        .handle(&Request::get("/accounts/register"))
        .body_str();
    let (cid, _) = captcha_answer(&form);
    let resp = r.portal.handle(&Request::post(
        "/accounts/register",
        &[
            ("username", "fabulous"),
            ("email", "runway@example.com"),
            ("password", "modelmodel"),
            ("captcha_id", &cid.to_string()),
            ("captcha_answer", "gorgeous"),
        ],
    ));
    assert_eq!(resp.status, 403);
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    assert!(Manager::<AmpUser>::new(admin)
        .first(&Query::new().eq("username", "fabulous"))
        .unwrap()
        .is_none());
}

#[test]
fn unapproved_users_cannot_submit() {
    let r = rig();
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut u = AmpUser::new(
        "newbie",
        "n@x.edu",
        &amp::portal::hash_password("password1", "s"),
        0,
    );
    u.approved = true; // can log in
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut u)
        .unwrap();
    let mut star = Star::from_catalog(&amp::stellar::famous_stars()[0], "local");
    Manager::<Star>::new(admin.clone())
        .create(&mut star)
        .unwrap();
    let mut alloc = Allocation::new("kraken", "TG-Q", 1000.0);
    Manager::<Allocation>::new(admin.clone())
        .create(&mut alloc)
        .unwrap();

    let login = r.portal.handle(&Request::post(
        "/accounts/login",
        &[("username", "newbie"), ("password", "password1")],
    ));
    let cookie = cookie_of(&login);
    // logged in but NOT machine-authorized -> 403
    let resp = r.portal.handle(
        &Request::post(
            &format!("/submit/stellar/direct/{}", star.id.unwrap()),
            &[
                ("mass", "1.0"),
                ("metallicity", "0.02"),
                ("helium", "0.27"),
                ("alpha", "1.9"),
                ("age", "4.0"),
                ("allocation", &alloc.id.unwrap().to_string()),
            ],
        )
        .with_cookie("amp_session", &cookie),
    );
    assert_eq!(resp.status, 403);
}

/// Sessions live in the portal process, not in the database: a restarted
/// portal (a second `Portal::new` on the same `Db`) reads the old cookie as
/// anonymous and sends it from a protected page to the login form. A fresh
/// login gets a new cookie that reaches the page; the old one stays dead.
#[test]
fn a_restarted_portal_forgets_sessions_and_a_fresh_login_reaches_the_page() {
    let r = rig();
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let hash = amp::portal::hash_password("pulsations", "s");
    let mut user = AmpUser::new("astro2", "a2@obs.edu", &hash, 0);
    user.approved = true;
    Manager::<AmpUser>::new(admin).create(&mut user).unwrap();
    let login = |portal: &Portal| {
        let form = [("username", "astro2"), ("password", "pulsations")];
        let resp = portal.handle(&Request::post("/accounts/login", &form));
        assert_eq!(resp.status, 302, "{}", resp.body_str());
        cookie_of(&resp)
    };
    let profile = |portal: &Portal, cookie: &str| {
        let req = Request::get("/accounts/profile").with_cookie("amp_session", cookie);
        portal.handle(&req)
    };
    let to_login = |resp: amp::portal::Response| {
        let location = resp.headers.iter().find(|(k, _)| k == "Location");
        (resp.status, location.map(|(_, v)| v.clone()))
    };
    let old = login(&r.portal);
    assert_eq!(profile(&r.portal, &old).status, 200);

    let restarted = Portal::new(&r.dep.db, PortalConfig::default()).unwrap();
    let signed_out = (302, Some("/accounts/login".to_string()));
    assert_eq!(to_login(profile(&restarted, &old)), signed_out);
    let fresh = login(&restarted);
    assert_ne!(fresh, old, "the restarted portal re-issued the old token");
    let page = profile(&restarted, &fresh);
    assert!(
        page.body_str().contains("<h2>Profile: astro2</h2>"),
        "{}",
        page.body_str()
    );
    assert_eq!(to_login(profile(&restarted, &old)), signed_out);
}

#[test]
fn app_browser_lists_installed_applications() {
    let r = rig();
    let resp = r.portal.handle(&Request::get("/apps"));
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(body.contains("Asteroseismic Modeling"), "{body}");
    assert!(body.contains("/apps/curvefit"), "{body}");

    // The detail page renders the schema straight from the registry.
    let detail = r.portal.handle(&Request::get("/apps/curvefit"));
    assert_eq!(detail.status, 200);
    let body = detail.body_str();
    assert!(body.contains("Angular frequency"), "{body}");
    assert!(body.contains("/submit/curvefit/direct/"), "{body}");
}

// Page bytes. Every page is the site layout around a view's body: text
// from the database or the user is escaped (`&`, `<`, `>`, `"`, `'`) and
// a view's HTML goes in as it is. These pin the layout and the home page
// byte for byte.

const ANONYMOUS_NAV: &str =
    "<a href=\"/accounts/login\">log in</a> | <a href=\"/accounts/register\">register</a>";

const LOGIN_BODY: &str = "<h2>Log in</h2>\
     <form method=\"post\" action=\"/accounts/login\">\
     <label>Username <input name=\"username\"></label><br>\
     <label>Password <input type=\"password\" name=\"password\"></label><br>\
     <button>Log in</button></form>";

/// The site layout as served: `title` already escaped, `nav` and `body` HTML.
fn layout(title: &str, nav: &str, body: &str) -> String {
    format!(
        "<!doctype html>\n\
         <html><head><title>{title} — Asteroseismic Modeling Portal</title></head>\n\
         <body>\n\
         <header><h1><a href=\"/\">Asteroseismic Modeling Portal</a></h1>\
         <nav><a href=\"/stars\">stars</a> | <a href=\"/simulations\">simulations</a> | {nav}</nav></header>\n\
         <main>\n{body}\n</main>\n\
         <footer>AMP — simulations, computational jobs, allocations and supercomputers.</footer>\n\
         </body></html>"
    )
}

/// The home page's body down to its "View simulations" line.
fn home_counts(stars: usize, with_results: usize, done: usize) -> String {
    format!(
        "<p>Derive the properties of Sun-like stars from observations of their \
         pulsation frequencies.</p>\
         <ul><li><a href=\"/stars\">Browse the star catalog</a> ({stars} stars, \
         {with_results} with results)</li>\
         <li><a href=\"/stars/search\">Search for a target</a></li>\
         <li><a href=\"/simulations\">View simulations</a> ({done} completed)</li></ul>"
    )
}

/// A star whose identifier needs every escape, plus an owner and an
/// allocation for simulations of it.
fn awkward_star(r: &Rig) -> (i64, i64, i64) {
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut star = Star::from_catalog(&amp::stellar::famous_stars()[0], "local");
    star.identifier = "HD <&\"'> 1".into();
    star.has_results = true;
    Manager::<Star>::new(admin.clone())
        .create(&mut star)
        .unwrap();
    let mut user = AmpUser::new("owner", "o@x.edu", "h", 0);
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut user)
        .unwrap();
    let mut alloc = Allocation::new("kraken", "TG-PIN", 1000.0);
    Manager::<Allocation>::new(admin)
        .create(&mut alloc)
        .unwrap();
    (star.id.unwrap(), user.id.unwrap(), alloc.id.unwrap())
}

#[test]
fn home_page_bytes_on_an_empty_catalogue() {
    let r = rig();
    let resp = r.portal.handle(&Request::get("/"));
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body_str(),
        layout("Home", ANONYMOUS_NAV, &home_counts(0, 0, 0))
    );
}

#[test]
fn home_page_bytes_list_five_recent_simulations_escaped() {
    let r = rig();
    let (star_id, owner_id, alloc_id) = awkward_star(&r);
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sims = Manager::<Simulation>::new(admin);
    for i in 0..7 {
        let mut sim = Simulation::new_direct(
            star_id,
            owner_id,
            StellarParams::benchmark(),
            "kraken",
            alloc_id,
            0,
        );
        if i % 2 == 1 {
            sim.kind = SimKind::Optimization;
        }
        // six DONE, then one still queued
        if i < 6 {
            sim.status = SimStatus::Done;
        }
        sims.create(&mut sim).unwrap();
    }
    let resp = r.portal.handle(&Request::get("/"));
    assert_eq!(resp.status, 200);
    let recent = "<h3>Recently completed</h3><ul>\
         <li><a href=\"/simulation/6\">#6 optimization of HD &lt;&amp;&quot;&#x27;&gt; 1</a></li>\
         <li><a href=\"/simulation/5\">#5 direct of HD &lt;&amp;&quot;&#x27;&gt; 1</a></li>\
         <li><a href=\"/simulation/4\">#4 optimization of HD &lt;&amp;&quot;&#x27;&gt; 1</a></li>\
         <li><a href=\"/simulation/3\">#3 direct of HD &lt;&amp;&quot;&#x27;&gt; 1</a></li>\
         <li><a href=\"/simulation/2\">#2 optimization of HD &lt;&amp;&quot;&#x27;&gt; 1</a></li>\
         </ul>";
    assert_eq!(
        resp.body_str(),
        layout("Home", ANONYMOUS_NAV, &(home_counts(1, 1, 6) + recent))
    );
}

#[test]
fn layout_bytes_for_an_anonymous_user() {
    let r = rig();
    let resp = r.portal.handle(&Request::get("/accounts/login"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), layout("Log in", ANONYMOUS_NAV, LOGIN_BODY));
}

#[test]
fn layout_bytes_escape_a_logged_in_username() {
    let r = rig();
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut user = AmpUser::new(
        "o'<b>&\"x",
        "x@x.edu",
        &amp::portal::hash_password("password1", "s"),
        0,
    );
    user.approved = true;
    Manager::<AmpUser>::new(admin).create(&mut user).unwrap();
    let login = r.portal.handle(&Request::post(
        "/accounts/login",
        &[("username", "o'<b>&\"x"), ("password", "password1")],
    ));
    assert_eq!(login.status, 302, "{}", login.body_str());
    let resp = r
        .portal
        .handle(&Request::get("/accounts/login").with_cookie("amp_session", &cookie_of(&login)));
    let nav = "<a href=\"/accounts/profile\">o&#x27;&lt;b&gt;&amp;&quot;x</a> | \
               <a href=\"/accounts/logout\">log out</a>";
    assert_eq!(resp.body_str(), layout("Log in", nav, LOGIN_BODY));
}

#[test]
fn layout_bytes_escape_the_title() {
    let r = rig();
    let (star_id, _, _) = awkward_star(&r);
    let resp = r.portal.handle(&Request::get(&format!("/star/{star_id}")));
    assert_eq!(resp.status, 200);
    let page = resp.body_str();
    let body = page
        .split_once("<main>\n")
        .and_then(|(_, rest)| rest.rsplit_once("\n</main>"))
        .map(|(body, _)| body)
        .expect("a layout page");
    assert!(
        body.starts_with("<h2>HD &lt;&amp;&quot;&#x27;&gt; 1</h2>"),
        "{body}"
    );
    assert_eq!(
        page,
        layout("HD &lt;&amp;&quot;&#x27;&gt; 1", ANONYMOUS_NAV, body)
    );
}

#[test]
fn unknown_app_ids_get_a_clean_404_page() {
    let r = rig();
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut star = Star::from_catalog(&amp::stellar::famous_stars()[0], "local");
    Manager::<Star>::new(admin.clone())
        .create(&mut star)
        .unwrap();
    let star_id = star.id.unwrap();

    for path in [
        format!("/submit/warpdrive/direct/{star_id}"),
        format!("/submit/warpdrive/optimization/{star_id}"),
        "/apps/warpdrive".to_string(),
    ] {
        let resp = r.portal.handle(&Request::get(&path));
        assert_eq!(resp.status, 404, "{path}");
        let body = resp.body_str();
        // A layout page with navigation, not a bare "404 not found" line.
        assert!(body.contains("<html>"), "bare 404 for {path}: {body}");
        assert!(body.contains("warpdrive"), "{path}: {body}");
        assert!(body.contains("/apps"), "{path}: {body}");
    }
    // Submitting to an unknown application 404s before any form handling.
    let resp = r.portal.handle(&Request::post(
        &format!("/submit/warpdrive/direct/{star_id}"),
        &[("allocation", "1")],
    ));
    assert_eq!(resp.status, 404);

    // A simulation row whose application is no longer installed renders a
    // 404 page on its results route rather than a broken summary.
    let mut user = AmpUser::new("orphan", "o@x.edu", "h", 0);
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut user)
        .unwrap();
    let mut alloc = Allocation::new("kraken", "TG-X", 1000.0);
    Manager::<Allocation>::new(admin.clone())
        .create(&mut alloc)
        .unwrap();
    let mut sim = Simulation::direct_for(
        "warpdrive",
        star_id,
        user.id.unwrap(),
        serde_json::json!({"dial": 11.0}),
        "kraken",
        alloc.id.unwrap(),
        0,
    );
    let sim_id = Manager::<Simulation>::new(admin).create(&mut sim).unwrap();
    let resp = r
        .portal
        .handle(&Request::get(&format!("/simulation/{sim_id}")));
    assert_eq!(resp.status, 404);
    assert!(resp.body_str().contains("warpdrive"));
}

/// Page numbers come straight from the URL: `?page=0` and the largest
/// `usize` answer a page, on the public catalog and the admin table
/// browser, instead of overflowing the offset arithmetic; the huge page
/// lists no star.
#[test]
fn page_numbers_at_the_ends_of_usize_answer_a_page() {
    let r = rig();
    let admin = r.dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut star = Star::from_catalog(&amp::stellar::famous_stars()[0], "local");
    Manager::<Star>::new(admin.clone())
        .create(&mut star)
        .unwrap();
    let link = format!(
        "href=\"/star/{}\"",
        amp::portal::http::urlencode_path(&star.identifier)
    );
    let mut boss = AmpUser::new(
        "boss",
        "b@x.edu",
        &amp::portal::hash_password("sup3rs3cret", "s"),
        0,
    );
    boss.approved = true;
    boss.is_admin = true;
    Manager::<AmpUser>::new(admin).create(&mut boss).unwrap();

    let first = r.portal.handle(&Request::get("/stars?page=0"));
    assert_eq!(first.status, 200);
    assert!(first.body_str().contains(&link), "{}", first.body_str());
    let huge = r
        .portal
        .handle(&Request::get("/stars?page=18446744073709551615"));
    assert_eq!(huge.status, 200);
    assert!(!huge.body_str().contains(&link), "{}", huge.body_str());

    let login = r.portal.handle(&Request::post(
        "/accounts/login",
        &[("username", "boss"), ("password", "sup3rs3cret")],
    ));
    let table = r.portal.handle(
        &Request::get("/admin/table/star?page=0").with_cookie("amp_session", &cookie_of(&login)),
    );
    assert_eq!(table.status, 200, "{}", table.body_str());
    assert!(table.body_str().contains(&star.identifier));
}
