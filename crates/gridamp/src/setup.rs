//! Test/example rig: wire a database, a simulated TeraGrid, and the
//! daemon together the way Figure 2 deploys them.

use amp_core::models::{Allocation, AmpUser, Observation, Star};
use amp_core::OptimizationSpec;
use amp_grid::systems::SystemProfile;
use amp_grid::Grid;
use amp_simdb::orm::Manager;
use amp_simdb::{Db, DbError};
use amp_stellar::{synthesize, Domain, StellarParams};

use crate::daemon::GridAmp;
use crate::workflow::DaemonConfig;

/// A fully wired AMP deployment against one simulated system.
pub struct Deployment {
    pub db: Db,
    pub grid: Grid,
    pub daemon: GridAmp,
}

/// Build a deployment of one daemon against one simulated system: an
/// in-memory database with the schema and roles, the site registered (with
/// or without background load) and carrying the AMP software stack, and the
/// daemon's community credential authorized there (the §4.3 "deployed as
/// soon as the community account has been authorized" property — nothing
/// else is needed).
pub fn deploy(
    profile: SystemProfile,
    config: DaemonConfig,
    background_seed: Option<u64>,
) -> Result<Deployment, DbError> {
    let db = Db::in_memory();
    amp_core::setup::initialize(&db)?;
    let daemon = GridAmp::new(&db, config)?;
    let (mut grid, site) = (Grid::new(), profile.name.clone());
    match background_seed {
        Some(seed) => grid.add_site_with_background(profile, seed),
        None => grid.add_site(profile),
    }
    crate::apps::install_amp_stack(&mut grid, &site);
    grid.authorize(&site, daemon.credential());
    Ok(Deployment { db, grid, daemon })
}

/// Seed a user (approved), a star, an allocation, and an observation set
/// synthesized from `truth`. Returns (user id, star id, allocation id,
/// observation id).
pub fn seed_fixtures(
    db: &Db,
    system: &str,
    truth: &StellarParams,
    seed: u64,
) -> Result<(i64, i64, i64, i64), DbError> {
    let admin = db.connect(amp_core::roles::ROLE_ADMIN)?;
    let users = Manager::<AmpUser>::new(admin.clone());
    let mut user = AmpUser::new("astro1", "astro1@example.edu", "hash", 0);
    user.approved = true;
    users.create(&mut user)?;

    let stars = Manager::<Star>::new(admin.clone());
    let sky = amp_stellar::synthetic_sky(1, seed);
    let mut star = Star::from_catalog(&sky[0], "local");
    stars.create(&mut star)?;

    let allocs = Manager::<Allocation>::new(admin.clone());
    let mut alloc = Allocation::new(system, "TG-AST090030", 10_000_000.0);
    allocs.create(&mut alloc)?;

    let observed = synthesize(&star.identifier, truth, &Domain::default(), 0.1, seed)
        .map_err(|e| DbError::Schema(e.to_string()))?;
    let observations = Manager::<Observation>::new(admin);
    let mut obs = Observation::new(star.id.unwrap(), user.id.unwrap(), &observed, 0);
    observations.create(&mut obs)?;

    Ok((
        user.id.unwrap(),
        star.id.unwrap(),
        alloc.id.unwrap(),
        obs.id.unwrap(),
    ))
}

/// Seed curve-fit fixtures for an already-seeded deployment: a fresh
/// target "star" (the catalog row doubles as the generic observation
/// target) plus a synthesized damped-sinusoid observation set owned by
/// `user_id`. Returns (star id, observation id).
pub fn seed_curvefit_fixtures(
    db: &Db,
    user_id: i64,
    truth: &amp_core::app::curvefit::CurveParams,
    seed: u64,
) -> Result<(i64, i64), DbError> {
    let admin = db.connect(amp_core::roles::ROLE_ADMIN)?;
    let stars = Manager::<Star>::new(admin.clone());
    let sky = amp_stellar::synthetic_sky(1, seed.wrapping_add(7000));
    let mut star = Star::from_catalog(&sky[0], "curvefit");
    star.identifier = format!("CF {seed}");
    stars.create(&mut star)?;

    let curve = amp_core::app::curvefit::synthesize_curve(&star.identifier, truth, 60, 0.02, seed);
    let observations = Manager::<Observation>::new(admin);
    let mut obs = Observation::from_data_json(
        star.id.unwrap(),
        user_id,
        serde_json::to_string(&curve).expect("curve observation serializes"),
        0,
    );
    observations.create(&mut obs)?;
    Ok((star.id.unwrap(), obs.id.unwrap()))
}

/// A quick optimization spec scaled down for tests (seconds instead of
/// hours of simulated compute, but the same workflow shape).
pub fn small_spec(seed: u64) -> OptimizationSpec {
    OptimizationSpec {
        ga_runs: 2,
        population: 20,
        generations: 30,
        cores_per_run: 128,
        seed,
    }
}
