//! Pre/post-refactor equivalence for the `ScienceApp` extraction.
//!
//! The stellar pipeline was re-implemented behind the `ScienceApp` trait;
//! this suite proves a stellar-only campaign still produces *identical*
//! final simdb states. The golden fixture under `tests/golden/` was
//! captured from the pre-refactor hardwired pipeline (run with
//! `UPDATE_GOLDEN=1` to regenerate), so any drift in payload handling,
//! GA seeding, artifact serialization, accounting, or job bookkeeping
//! through the new indirection fails the byte-for-byte comparison.

mod common;

use amp::prelude::*;
use amp_core::models::{Allocation, Observation};
use amp_core::roles;
use serde_json::json;

const GOLDEN: &str = "tests/golden/stellar_campaign.json";

fn fast_config() -> DaemonConfig {
    DaemonConfig {
        work_walltime_hours: 6.0,
        ..DaemonConfig::default()
    }
}

/// Serialize the campaign-relevant final database state. `result_json` is
/// included verbatim (byte-identical results are the acceptance bar);
/// payloads are parsed so the comparison is about content, and every job
/// row's full bookkeeping rides along.
fn state_digest(db: &Db) -> serde_json::Value {
    let admin = db.connect(roles::ROLE_ADMIN).expect("admin");
    let sims = Manager::<Simulation>::new(admin.clone());
    let jobs = Manager::<GridJobRecord>::new(admin.clone());
    let allocs = Manager::<Allocation>::new(admin.clone());
    let stars = Manager::<Star>::new(admin);

    let mut sim_rows = Vec::new();
    for sim in sims.all().expect("sims") {
        let payload: serde_json::Value =
            serde_json::from_str(&sim.payload_json).expect("payload parses");
        let result: serde_json::Value = match &sim.result_json {
            // Verbatim: any re-serialization drift must surface, so keep
            // the raw string, not a parsed tree.
            Some(r) => json!({ "raw": r }),
            None => serde_json::Value::Null,
        };
        sim_rows.push(json!({
            "id": sim.id,
            "kind": sim.kind.as_str(),
            "status": sim.status.as_str(),
            "status_message": sim.status_message,
            "progress": sim.progress,
            "created_at": sim.created_at,
            "started_at": sim.started_at,
            "completed_at": sim.completed_at,
            "held_from": sim.held_from,
            "payload": payload,
            "result": result,
        }));
    }

    let mut job_rows = Vec::new();
    for j in jobs.all().expect("jobs") {
        job_rows.push(json!({
            "simulation_id": j.simulation_id,
            "purpose": j.purpose.as_str(),
            "ga_run": j.ga_run,
            "continuation": j.continuation,
            "gram_handle": j.gram_handle,
            "site": j.site,
            "status": j.status.as_str(),
            "cores": j.cores,
            "submitted_at": j.submitted_at,
            "started_at": j.started_at,
            "ended_at": j.ended_at,
            "detail": j.detail,
        }));
    }

    let alloc_rows: Vec<serde_json::Value> = allocs
        .all()
        .expect("allocs")
        .into_iter()
        .map(|a| json!({ "account": a.account, "su_used": a.su_used }))
        .collect();
    let star_rows: Vec<serde_json::Value> = stars
        .all()
        .expect("stars")
        .into_iter()
        .map(|s| json!({ "identifier": s.identifier, "has_results": s.has_results }))
        .collect();

    json!({
        "simulations": sim_rows,
        "jobs": job_rows,
        "allocations": alloc_rows,
        "stars": star_rows,
    })
}

/// The canonical stellar campaign: one direct run plus one small
/// optimization ensemble, driven to completion by a single daemon.
fn run_stellar_campaign() -> serde_json::Value {
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), fast_config(), None).expect("deploy");
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &common::truth(), 1).expect("fixtures");

    let web = dep.db.connect(roles::ROLE_WEB).expect("web");
    let sims = Manager::<Simulation>::new(web);
    let mut direct =
        Simulation::new_direct(star, user, StellarParams::benchmark(), "kraken", alloc, 0);
    sims.create(&mut direct).expect("direct sim");
    let mut optimization = Simulation::new_optimization(
        star,
        user,
        amp::gridamp::small_spec(5),
        obs,
        "kraken",
        alloc,
        0,
    );
    sims.create(&mut optimization).expect("optimization sim");

    dep.daemon.run_until_settled(&dep.grid, 24.0 * 14.0);

    let admin = dep.db.connect(roles::ROLE_ADMIN).expect("admin");
    for sim in Manager::<Simulation>::new(admin).all().expect("sims") {
        assert_eq!(
            sim.status,
            SimStatus::Done,
            "sim {:?} ended {} ({})",
            sim.id,
            sim.status,
            sim.status_message
        );
    }
    state_digest(&dep.db)
}

#[test]
fn stellar_campaign_matches_prerefactor_golden() {
    let digest = run_stellar_campaign();
    let rendered = serde_json::to_string_pretty(&digest).expect("digest renders");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("golden dir");
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to capture");
    assert_eq!(
        rendered, golden,
        "final simdb state drifted from the pre-refactor stellar campaign"
    );
}

/// The campaign is deterministic run-to-run in the same build — the
/// precondition for the golden comparison to mean anything.
#[test]
fn stellar_campaign_is_deterministic() {
    let a = run_stellar_campaign();
    let b = run_stellar_campaign();
    assert_eq!(a, b);
}

/// Observation payloads round-trip exactly through the database: the GA's
/// staged input file must regenerate from `data_json` without drift.
#[test]
fn observation_regenerates_identical_input_file() {
    let dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), fast_config(), None).expect("deploy");
    let (_, _, _, obs_id) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &common::truth(), 1).expect("fixtures");
    let admin = dep.db.connect(roles::ROLE_ADMIN).expect("admin");
    let obs = Manager::<Observation>::new(admin).get(obs_id).expect("obs");
    let decoded = obs.observed().expect("decodes");
    let text_a = amp_core::marshal::generate_observation_file(&decoded);
    let text_b = amp_core::marshal::generate_observation_file(&obs.observed().expect("decodes"));
    assert_eq!(text_a, text_b);
    assert!(text_a.contains(&decoded.identifier));
}
