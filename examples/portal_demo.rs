//! The full three-tier gateway, driven over real HTTP: a TCP portal
//! server in front of the central database, the GridAMP daemon behind it,
//! and a simulated Kraken at the back. An "astronomer" registers (solving
//! the astronomy CAPTCHA), is approved by an administrator, searches for a
//! star (SIMBAD fall-through import), uploads pulsation frequencies,
//! submits an optimization run, and polls the status page until results
//! appear.
//!
//! Run: `cargo run --release --example portal_demo`

use amp::portal::{server::fetch, Portal, PortalConfig, Server};
use amp::prelude::*;
use std::sync::Arc;

fn main() {
    // --- deploy all three tiers ---
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: 6.0,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    // admin-enabled portal instance (the internal deploy of §4.1)
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
    let server = Server::spawn(portal.clone(), 0).unwrap();
    println!("portal listening on http://{}", server.addr());

    // allocation + admin account via the admin role
    let adminc = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut alloc = Allocation::new("kraken", "TG-AST090030", 1_000_000.0);
    Manager::<Allocation>::new(adminc.clone())
        .create(&mut alloc)
        .unwrap();
    let mut boss = AmpUser::new(
        "boss",
        "boss@ucar.edu",
        &amp::portal::hash_password("letmein99", "s"),
        0,
    );
    boss.approved = true;
    boss.is_admin = true;
    Manager::<AmpUser>::new(adminc.clone())
        .create(&mut boss)
        .unwrap();

    // --- the astronomer registers over HTTP ---
    let form = http_get(&server, "/accounts/register", "");
    let cid: usize = form
        .split("name=\"captcha_id\" value=\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    // answer the CAPTCHA like an astronomer would
    let question_star = amp::stellar::famous_stars()
        .into_iter()
        .find(|s| form.contains(s.name.as_deref().unwrap_or("?")))
        .expect("captcha names a famous star");
    println!(
        "captcha: \"What is the HD number for {}?\" -> {}",
        question_star.name.as_deref().unwrap(),
        question_star.hd_number.unwrap()
    );
    let resp = http_post(
        &server,
        "/accounts/register",
        &format!(
            "username=astro1&email=astro1%40obs.edu&password=pulsations&captcha_id={cid}&captcha_answer={}",
            question_star.hd_number.unwrap()
        ),
        "",
    );
    assert!(resp.starts_with("HTTP/1.1 302"), "{resp}");
    println!("registered astro1 (pending approval)");

    // --- the administrator approves and authorizes over HTTP ---
    let boss_cookie = login(&server, "boss", "letmein99");
    let astro_id = Manager::<AmpUser>::new(adminc.clone())
        .first(&Query::new().eq("username", "astro1"))
        .unwrap()
        .unwrap()
        .id
        .unwrap();
    http_post(
        &server,
        &format!("/admin/users/{astro_id}/approve"),
        "",
        &boss_cookie,
    );
    http_post(
        &server,
        "/admin/authorize",
        &format!("user_id={astro_id}&allocation_id={}", alloc.id.unwrap()),
        &boss_cookie,
    );
    println!("admin approved astro1 and authorized kraken/TG-AST090030");

    // --- search for a target: SIMBAD fall-through import ---
    let cookie = login(&server, "astro1", "pulsations");
    let page = http_get(&server, "/stars/search?q=HD+10700", &cookie);
    assert!(page.contains("added to the AMP catalog"));
    println!("searched HD 10700 (Tau Ceti): imported from SIMBAD");

    // --- upload observations (synthesized from a hidden truth) ---
    let truth = StellarParams {
        mass: 0.92,
        metallicity: 0.014,
        helium: 0.26,
        alpha: 1.8,
        age: 5.8,
    };
    let observed =
        amp::stellar::synthesize("HD 10700", &truth, &Domain::default(), 0.12, 4).unwrap();
    let mut modes_field = String::new();
    for m in &observed.modes {
        modes_field.push_str(&format!(
            "{} {} {:.4} {:.4}\n",
            m.l, m.n, m.frequency, m.sigma
        ));
    }
    let body = format!(
        "modes={}&teff={:.0}&teff_sigma=70&lum=&lum_sigma=",
        urlencode(&modes_field),
        observed.teff.unwrap().value
    );
    let resp = http_post(&server, "/star/HD%2010700/observations", &body, &cookie);
    assert!(resp.starts_with("HTTP/1.1 302"), "{resp}");
    println!("uploaded {} pulsation frequencies", observed.modes.len());

    // --- submit the optimization through the form ---
    let star_id = Manager::<Star>::new(adminc.clone())
        .first(&Query::new().eq("identifier", "HD 10700"))
        .unwrap()
        .unwrap()
        .id
        .unwrap();
    let obs_id = Manager::<Observation>::new(adminc.clone())
        .first(&Query::new().eq("star_id", star_id))
        .unwrap()
        .unwrap()
        .id
        .unwrap();
    let resp = http_post(
        &server,
        &format!("/submit/stellar/optimization/{star_id}"),
        &format!(
            "observation={obs_id}&ga_runs=2&generations=40&allocation={}",
            alloc.id.unwrap()
        ),
        &cookie,
    );
    assert!(resp.starts_with("HTTP/1.1 302"), "{resp}");
    let sim_path = resp
        .lines()
        .find(|l| l.starts_with("Location:"))
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .to_string();
    println!("submitted optimization -> {sim_path}");

    // --- the daemon works while the astronomer polls the status page ---
    let mut polls = 0;
    loop {
        dep.daemon.tick(&dep.grid);
        portal.set_now(dep.grid.now().as_secs() as i64);
        dep.grid.advance(SimDuration::from_secs(900));
        polls += 1;
        let page = http_get(&server, &sim_path, &cookie);
        if page.contains("<b>DONE</b>") {
            println!(
                "simulation DONE after {polls} polls ({} simulated)",
                dep.grid.now()
            );
            break;
        }
        if page.contains("<b>HOLD</b>") {
            panic!("simulation held: {page}");
        }
        assert!(polls < 5000, "no convergence");
    }

    // --- results: status page, plot data, RSS ---
    let page = http_get(&server, &sim_path, &cookie);
    assert!(page.contains("Optimal model"));
    println!("\nstatus page shows the optimal model (mass/age table rendered)");
    let plots = http_get(&server, &format!("{sim_path}/plots.json"), &cookie);
    let plots_json: serde_json::Value =
        serde_json::from_str(plots.split("\r\n\r\n").nth(1).unwrap()).unwrap();
    println!(
        "plots.json: {} HR-track points, {} echelle points, delta_nu {:.1} uHz",
        plots_json["hr_track"].as_array().unwrap().len(),
        plots_json["echelle"].as_array().unwrap().len(),
        plots_json["delta_nu"].as_f64().unwrap()
    );
    let rss = http_get(&server, &format!("/feeds/star/{star_id}.rss"), "");
    assert!(rss.contains("<rss version=\"2.0\">"));
    println!("RSS feed for HD 10700 live ({} bytes)", rss.len());

    server.stop();
    println!("\ndemo complete.");
}

// -- tiny HTTP helpers over the blocking client --

fn http_get(server: &Server, path: &str, cookie: &str) -> String {
    let cookie_line = if cookie.is_empty() {
        String::new()
    } else {
        format!("Cookie: amp_session={cookie}\r\n")
    };
    fetch(
        server.addr(),
        &format!("GET {path} HTTP/1.1\r\nHost: amp\r\n{cookie_line}Connection: close\r\n\r\n"),
    )
    .unwrap()
}

fn http_post(server: &Server, path: &str, body: &str, cookie: &str) -> String {
    let cookie_line = if cookie.is_empty() {
        String::new()
    } else {
        format!("Cookie: amp_session={cookie}\r\n")
    };
    fetch(
        server.addr(),
        &format!(
            "POST {path} HTTP/1.1\r\nHost: amp\r\nContent-Type: application/x-www-form-urlencoded\r\n{cookie_line}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
    .unwrap()
}

fn login(server: &Server, user: &str, password: &str) -> String {
    let resp = http_post(
        server,
        "/accounts/login",
        &format!("username={user}&password={password}"),
        "",
    );
    resp.lines()
        .find(|l| l.starts_with("Set-Cookie: amp_session="))
        .unwrap_or_else(|| panic!("login failed: {resp}"))
        .trim_start_matches("Set-Cookie: amp_session=")
        .split(';')
        .next()
        .unwrap()
        .to_string()
}

fn urlencode(s: &str) -> String {
    amp::portal::http::urlencode(s)
}
