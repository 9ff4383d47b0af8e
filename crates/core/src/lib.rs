//! # amp-core — the shared AMP application models
//!
//! The "core application" of the AMP gateway reproduction (Woitaszek et
//! al., GCE 2009, §4.1): the single set of ORM models shared between the
//! public web portal and the GridAMP workflow daemon, plus the strict
//! input-file marshaling and the canonical database roles that implement
//! Figure 2's isolation.
//!
//! * [`models`] — users, stars, observations, simulations, grid jobs,
//!   allocations, authorizations, notifications;
//! * [`status`] — the Listing-1 workflow state vocabulary;
//! * [`app`] — the `ScienceApp` trait and built-in application registry;
//! * [`marshal`] — rigid input/parameter file generation and parsing;
//! * [`roles`] — the `web` / `daemon` / `admin` permission matrix;
//! * [`setup`] — database bootstrap (migrate all models, define roles).

#![forbid(unsafe_code)]

pub mod app;
pub mod marshal;
pub mod models;
pub mod roles;
pub mod status;

pub use app::{FitnessFn, ModelFailure, ModelRun, ParamSpec, ResourceTemplate, ScienceApp};
pub use marshal::{
    generate_observation_file, generate_params_file, parse_observation_file, parse_params_file,
    MarshalError,
};
pub use models::simulation::{OptimizationSpec, SimPayload};
pub use models::{
    Allocation, AmpUser, GridJobRecord, Lease, Notification, NotifyMode, Observation, SimKind,
    Simulation, Star, SystemAuthorization,
};
pub use status::{JobPurpose, JobStatus, SimStatus};

use amp_simdb::orm::Registry;
use amp_simdb::{Db, DbError};

/// Database bootstrap.
pub mod setup {
    use super::*;

    /// The full model registry, in FK-dependency order.
    pub fn registry() -> Registry {
        Registry::new()
            .register::<models::AmpUser>()
            .register::<models::Star>()
            .register::<models::Observation>()
            .register::<models::Allocation>()
            .register::<models::Simulation>()
            .register::<models::GridJobRecord>()
            .register::<models::Lease>()
            .register::<models::SystemAuthorization>()
            .register::<models::Notification>()
    }

    /// Define the three canonical roles and migrate every core model.
    /// Returns the names of the tables created (empty on re-run).
    pub fn initialize(db: &Db) -> Result<Vec<String>, DbError> {
        db.define_role(roles::admin_role());
        db.define_role(roles::web_role());
        db.define_role(roles::daemon_role());
        let admin = db.connect(roles::ROLE_ADMIN)?;
        registry().migrate(&admin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_simdb::orm::Manager;
    use amp_simdb::Query;
    use amp_stellar::StellarParams;

    #[test]
    fn initialize_creates_all_tables_idempotently() {
        let db = Db::in_memory();
        let created = setup::initialize(&db).unwrap();
        assert_eq!(created.len(), 9);
        let again = setup::initialize(&db).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn full_submission_flow_respects_roles() {
        let db = Db::in_memory();
        setup::initialize(&db).unwrap();

        // admin seeds an allocation
        let admin = db.connect(roles::ROLE_ADMIN).unwrap();
        let alloc_mgr = Manager::<Allocation>::new(admin.clone());
        let mut alloc = Allocation::new("kraken", "TG-AST090030", 500_000.0);
        alloc_mgr.create(&mut alloc).unwrap();

        // web registers a user, imports a star, submits a simulation
        let web = db.connect(roles::ROLE_WEB).unwrap();
        let users = Manager::<AmpUser>::new(web.clone());
        let mut u = AmpUser::new("astro1", "a@x.edu", "hash", 0);
        users.create(&mut u).unwrap();

        let stars = Manager::<Star>::new(web.clone());
        let famous = amp_stellar::famous_stars();
        let mut s = Star::from_catalog(&famous[0], "simbad");
        stars.create(&mut s).unwrap();

        let sims = Manager::<Simulation>::new(web.clone());
        let mut sim = Simulation::new_direct(
            s.id.unwrap(),
            u.id.unwrap(),
            StellarParams::benchmark(),
            "kraken",
            alloc.id.unwrap(),
            100,
        );
        sims.create(&mut sim).unwrap();

        // web cannot advance the workflow...
        sim.status = SimStatus::Running;
        assert!(sims.save(&sim).is_err());

        // ...but the daemon can
        let daemon = db.connect(roles::ROLE_DAEMON).unwrap();
        let dsims = Manager::<Simulation>::new(daemon.clone());
        let mut picked = dsims
            .first(&Query::new().eq("status", SimStatus::Queued.as_str()))
            .unwrap()
            .unwrap();
        picked.status = SimStatus::PreJob;
        dsims.save(&picked).unwrap();

        // daemon records a grid job
        let jobs = Manager::<GridJobRecord>::new(daemon.clone());
        let mut j = GridJobRecord::new(
            picked.id.unwrap(),
            -1,
            JobPurpose::PreJob,
            0,
            "kraken",
            0,
            "stellar",
        );
        jobs.create(&mut j).unwrap();

        // the portal can read job progress but not write it
        let wjobs = Manager::<GridJobRecord>::new(web);
        assert_eq!(wjobs.all().unwrap().len(), 1);
        let mut stolen = wjobs.get(j.id.unwrap()).unwrap();
        stolen.status = JobStatus::Done;
        assert!(wjobs.save(&stolen).is_err());
    }

    #[test]
    fn fk_integrity_across_models() {
        let db = Db::in_memory();
        setup::initialize(&db).unwrap();
        let admin = db.connect(roles::ROLE_ADMIN).unwrap();
        let sims = Manager::<Simulation>::new(admin);
        let mut sim = Simulation::new_direct(
            999, // no such star
            1,
            StellarParams::benchmark(),
            "kraken",
            1,
            0,
        );
        assert!(sims.create(&mut sim).is_err());
    }
}
