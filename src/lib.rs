//! # AMP — a science-driven web-based application for the (simulated) TeraGrid
//!
//! Full-system Rust reproduction of *AMP: A Science-driven Web-based
//! Application for the TeraGrid* (Woitaszek, Metcalfe & Shorrock, GCE 2009,
//! arXiv:1011.6332). This facade crate re-exports the seven sub-systems;
//! see `DESIGN.md` for the inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record.
//!
//! | crate | role |
//! |---|---|
//! | [`simdb`] | embedded typed relational DB + Django-style ORM (the central database) |
//! | [`stellar`] | ASTEC-like forward stellar model + observations + cost model |
//! | [`ga`] | MPIKAIA-style genetic algorithm with restart files |
//! | [`grid`] | discrete-event TeraGrid: schedulers, GRAM, GridFTP, credentials |
//! | [`core`] | shared AMP data models, marshaling, role matrix |
//! | [`gridamp`] | the workflow daemon (Listing 1, failure taxonomy, Gantt tool) |
//! | [`portal`] | the web gateway (HTTP, auth + CAPTCHA, catalog, admin, RSS) |
//! | [`obs`] | lock-free metrics registry, Prometheus rendering |
//!
//! ## Quickstart
//!
//! ```
//! use amp::prelude::*;
//!
//! // Deploy: database + simulated Kraken + installed AMP stack + daemon.
//! let mut dep = amp::gridamp::deploy(
//!     amp::grid::systems::kraken(),
//!     DaemonConfig::default(),
//!     None,
//! ).unwrap();
//!
//! // Seed a user/star/allocation/observation and submit a direct run.
//! let (user, star, alloc, _obs) =
//!     amp::gridamp::seed_fixtures(&dep.db, "kraken", &StellarParams::benchmark(), 1).unwrap();
//! let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
//! let mut sim = Simulation::new_direct(star, user, StellarParams::benchmark(), "kraken", alloc, 0);
//! let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();
//!
//! // Let the daemon drive it across the simulated grid.
//! dep.daemon.run_until_settled(&mut dep.grid, 48.0);
//! let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
//! let done = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
//! assert_eq!(done.status, SimStatus::Done);
//! ```

pub use amp_core as core;
pub use amp_ga as ga;
pub use amp_grid as grid;
pub use amp_gridamp as gridamp;
pub use amp_obs as obs;
pub use amp_portal as portal;
pub use amp_simdb as simdb;
pub use amp_stellar as stellar;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use amp_core::models::{
        Allocation, AmpUser, GridJobRecord, Lease, Notification, Observation, Simulation, Star,
        SystemAuthorization,
    };
    pub use amp_core::{JobPurpose, JobStatus, OptimizationSpec, SimKind, SimStatus};
    pub use amp_ga::{Ga, GaConfig, Problem};
    pub use amp_grid::prelude::*;
    pub use amp_gridamp::{
        ClaimOutcome, DaemonConfig, DaemonMonitor, Deployment, GridAmp, LeaseHealth,
    };
    pub use amp_portal::{Portal, PortalConfig};
    pub use amp_simdb::orm::{Manager, Model};
    pub use amp_simdb::{Db, Query};
    pub use amp_stellar::{Domain, ModelOutput, ObservedStar, StellarParams};
}
