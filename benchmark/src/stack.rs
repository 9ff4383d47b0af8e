//! Builds the deployment a workload runs against from the crates' public
//! items: a durable database with fsync on, the core schema, the
//! simulated grid with the AMP stack installed, daemons, and the seeded
//! catalog (allocation, users, stars, observation sets).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use amp_core::app::curvefit::{synthesize_curve, CurveParams};
use amp_core::models::{Allocation, AmpUser, Observation, Star, SystemAuthorization};
use amp_core::roles::ROLE_ADMIN;
use amp_grid::Grid;
use amp_gridamp::{DaemonConfig, GridAmp};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Db, DbError};
use amp_stellar::{synthesize, Domain, StellarParams};

use crate::rng::Rng;

pub const SITE: &str = "kraken";
pub const PASSWORD: &str = "orbitals88";
/// Simulated seconds the grid advances per daemon round.
pub const ROUND_SECS: u64 = 300;

/// A fresh directory for one deployment's database files, removed when
/// dropped. tmpfs when `/dev/shm` takes it: on the sandbox disk the flush
/// cost swung by 2x within minutes (README, "Storage"), while the flush
/// stays a real `fdatasync` call either way.
pub struct Storage {
    dir: PathBuf,
    pub tmpfs: bool,
}

impl Storage {
    pub fn fresh() -> Storage {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let name = format!("amp-benchmark-{}-{}", std::process::id(), SERIAL.fetch_add(1, Ordering::Relaxed));
        let shm = Path::new("/dev/shm").join(&name);
        if std::fs::create_dir(&shm).is_ok() {
            return Storage { dir: shm, tmpfs: true };
        }
        // No tmpfs to write to: stay inside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name);
        std::fs::create_dir_all(&dir).expect("create a data directory under benchmark/out");
        Storage { dir, tmpfs: false }
    }

    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    pub fn wal(&self) -> PathBuf {
        self.dir.join("wal.jsonl")
    }

    pub fn wal_len(&self) -> u64 {
        std::fs::metadata(self.wal()).map_or(0, |m| m.len())
    }

    pub fn snapshot_len(&self) -> u64 {
        std::fs::metadata(self.snapshot()).map_or(0, |m| m.len())
    }

    /// Open (or recover) the database here, durable, with the core roles
    /// and schema in place.
    pub fn open_db(&self) -> Result<Db, DbError> {
        let db = Db::open(self.snapshot(), self.wal())?;
        db.set_fsync(true);
        amp_core::setup::initialize(&db)?;
        Ok(db)
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct User {
    pub id: i64,
    pub name: String,
}

pub struct CatalogStar {
    pub id: i64,
    pub identifier: String,
}

/// A star that carries one observation set per application, so an
/// optimization of either application can be submitted against it.
pub struct Target {
    pub star: i64,
    pub stellar_obs: i64,
    pub curvefit_obs: i64,
}

pub struct Catalog {
    pub allocation: i64,
    pub users: Vec<User>,
    pub stars: Vec<CatalogStar>,
    pub targets: Vec<Target>,
}

/// The catalogue every workload is seeded with: users, stars, and the
/// stars among them that carry observation sets.
pub const USERS: usize = 50;
pub const STARS: usize = 2_000;
pub const TARGETS: usize = 8;

/// `path` as it goes on the request line (identifiers hold a space).
pub fn star_path(identifier: &str) -> String {
    format!("/star/{}", identifier.replace(' ', "%20"))
}

fn bulk<M: Model>(db: &Db, rows: &mut [M]) -> Result<(), DbError> {
    let admin = db.connect(ROLE_ADMIN)?;
    let ids = admin.transaction(&[M::TABLE], |tx| {
        rows.iter().map(|r| tx.insert(M::TABLE, &r.to_values())).collect::<Result<Vec<i64>, _>>()
    })?;
    for (row, id) in rows.iter_mut().zip(ids) {
        row.set_id(id);
    }
    Ok(())
}

/// Seed the catalog. Identifiers, coordinates and observation noise all
/// come from `rng`; the program sees rows, not the generator.
pub fn seed_catalog(db: &Db, rng: &mut Rng) -> Result<Catalog, DbError> {
    let admin = db.connect(ROLE_ADMIN)?;
    let mut alloc = Allocation::new(SITE, "TG-AST090030", 1e12);
    let allocation = Manager::<Allocation>::new(admin.clone()).create(&mut alloc)?;

    let hash = amp_portal::hash_password(PASSWORD, "bench");
    let mut users: Vec<AmpUser> = (0..USERS)
        .map(|i| {
            let name = format!("astro{i:03}");
            let mut u = AmpUser::new(&name, &format!("{name}@example.edu"), &hash, 0);
            u.approved = true;
            u
        })
        .collect();
    bulk(db, &mut users)?;
    let mut grants: Vec<SystemAuthorization> =
        users.iter().map(|u| SystemAuthorization::new(u.id.expect("saved"), allocation, 0)).collect();
    bulk(db, &mut grants)?;

    // Distinct HD numbers in seeded order.
    let mut numbers: Vec<i64> = (0..STARS as i64).map(|i| 100_000 + 37 * i + rng.below(37) as i64).collect();
    rng.shuffle(&mut numbers);
    let mut stars: Vec<Star> = numbers
        .iter()
        .map(|&hd| {
            let kepler = rng.unit() < 0.4;
            Star {
                id: None,
                identifier: format!("HD {hd}"),
                name: (rng.unit() < 0.25).then(|| format!("Bench {}", rng.below(100_000))),
                hd_number: Some(hd),
                kic_number: kepler.then(|| 8_000_000 + hd),
                ra: rng.range(0.0, 360.0),
                dec: rng.range(-90.0, 90.0),
                vmag: rng.range(5.0, 12.0),
                in_kepler_field: kepler,
                source: "local".into(),
                has_results: false,
            }
        })
        .collect();
    bulk(db, &mut stars)?;

    let owner = users[0].id.expect("saved");
    let observations = Manager::<Observation>::new(admin);
    let mut targets = Vec::with_capacity(TARGETS);
    for star in stars.iter().take(TARGETS) {
        let sid = star.id.expect("saved");
        let truth = StellarParams {
            mass: rng.range(0.95, 1.15),
            metallicity: rng.range(0.015, 0.025),
            helium: rng.range(0.26, 0.28),
            alpha: rng.range(1.8, 2.2),
            age: rng.range(3.0, 6.0),
        };
        let observed = synthesize(&star.identifier, &truth, &Domain::default(), 0.1, rng.next_u64())
            .map_err(|e| DbError::Schema(format!("synthesize {}: {e}", star.identifier)))?;
        let stellar_obs = observations.create(&mut Observation::new(sid, owner, &observed, 0))?;
        let curve = CurveParams {
            amplitude: rng.range(1.0, 2.0),
            decay: rng.range(0.2, 0.4),
            omega: rng.range(3.0, 6.0),
            phase: rng.range(0.3, 1.0),
            offset: rng.range(-0.5, 0.5),
        };
        let samples = synthesize_curve(&star.identifier, &curve, 60, 0.02, rng.next_u64());
        let data = serde_json::to_string(&samples).expect("curve observation serializes");
        let curvefit_obs = observations.create(&mut Observation::from_data_json(sid, owner, data, 0))?;
        targets.push(Target { star: sid, stellar_obs, curvefit_obs });
    }

    Ok(Catalog {
        allocation,
        users: users.into_iter().map(|u| User { id: u.id.expect("saved"), name: u.username }).collect(),
        stars: stars.into_iter().map(|s| CatalogStar { id: s.id.expect("saved"), identifier: s.identifier }).collect(),
        targets,
    })
}

/// The simulated TeraGrid site with the AMP stack installed, and `n`
/// daemons authorized on it. `DaemonConfig::default()` except identity
/// and the 6 h work walltime the paper's production runs used.
pub fn grid_and_daemons(db: &Db, n: usize) -> Result<(Grid, Vec<GridAmp>), DbError> {
    let mut grid = Grid::new();
    grid.add_site(amp_grid::systems::kraken());
    amp_gridamp::apps::install_amp_stack(&mut grid, SITE);
    let mut daemons = Vec::with_capacity(n);
    for i in 0..n {
        let config =
            DaemonConfig { daemon_id: format!("gridamp-{i}"), work_walltime_hours: 6.0, ..DaemonConfig::default() };
        let daemon = GridAmp::new(db, config)?;
        grid.authorize(SITE, daemon.credential());
        daemons.push(daemon);
    }
    Ok((grid, daemons))
}
