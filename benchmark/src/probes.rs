//! Direct probes: repeated calls into one public function of one layer,
//! on the state a run left behind, each call under its own span. They
//! give the per-layer unit costs that the end-to-end numbers are made of.

use std::time::Instant;

use amp_core::models::{GridJobRecord, Lease, Notification, Observation, Simulation, Star};
use amp_core::roles::ROLE_ADMIN;
use amp_ga::{Ga, GaConfig, Problem};
use amp_portal::{Portal, PortalConfig, Request, RequestParser};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Db, Op, Query, Value};
use amp_stellar::{evolve, Domain, StellarParams};

use crate::http;
use crate::metrics::{insert, Values};
use crate::stack::{star_path, Catalog, Storage, PASSWORD};
use crate::stats::median;
use crate::trace::{SpanBuf, NO_PARENT};

const CALLS: usize = 2_000;
/// For probes whose one call costs a millisecond or writes many rows.
const FEW: usize = 200;

/// Median microseconds of `calls` calls of `f`.
pub fn probe<T>(spans: &mut SpanBuf, name: &'static str, calls: usize, mut f: impl FnMut(usize) -> T) -> Option<f64> {
    let mut us = Vec::with_capacity(calls);
    for i in 0..calls {
        let start = Instant::now();
        std::hint::black_box(f(std::hint::black_box(i)));
        let end = Instant::now();
        spans.leaf(name, i as u64, NO_PARENT, start, end);
        us.push((end - start).as_secs_f64() * 1e6);
    }
    median(&us)
}

struct Fitness(amp_core::FitnessFn, usize);

impl Problem for Fitness {
    fn n_genes(&self) -> usize {
        self.1
    }
    fn fitness(&self, phenotype: &[f64]) -> f64 {
        (self.0)(phenotype)
    }
    fn app_label(&self) -> &'static str {
        "curvefit"
    }
}

fn with_session(path: &str, token: &str) -> Request {
    Request::get(path).with_cookie("amp_session", token)
}

pub fn run(
    values: &mut Values,
    spans: &mut SpanBuf,
    db: &Db,
    storage: &Storage,
    catalog: &Catalog,
) -> Result<(), String> {
    let err = |e: amp_simdb::DbError| format!("probe: {e}");
    let admin = db.connect(ROLE_ADMIN).map_err(err)?;
    let sims = Manager::<Simulation>::new(admin.clone());
    let sim = match sims.first(&Query::new().eq("status", "DONE").eq("app", "stellar")).map_err(err)? {
        Some(s) => s,
        None => sims.first(&Query::new()).map_err(err)?.ok_or("probe: no simulation stored")?,
    };
    let sim_id = sim.id.expect("saved");
    let star = &catalog.stars[catalog.stars.len() / 2];

    // portal: the handler alone, no socket.
    let portal = Portal::new(db, PortalConfig::default()).map_err(err)?;
    portal.set_now(0);
    let user = &catalog.users[0];
    let login = portal.handle(&Request::post("/accounts/login", &[("username", &user.name), ("password", PASSWORD)]));
    let token = login
        .headers
        .iter()
        .find_map(|(k, v)| (k == "Set-Cookie").then(|| v.strip_prefix("amp_session="))?)
        .and_then(|v| v.split(';').next())
        .ok_or_else(|| format!("probe: login answered {} without a session", login.status))?
        .to_string();
    let expect_ok = |what: &str, status: u16| {
        if status == 200 || status == 302 {
            Ok(())
        } else {
            Err(format!("probe {what}: status {status}"))
        }
    };
    let star_page = Request::get(&star_path(&star.identifier));
    expect_ok("star page", portal.handle(&star_page).status)?;
    insert(
        values,
        "portal.handle_cached_us",
        probe(spans, "probe.portal.handle_cached", CALLS, |_| portal.handle(&star_page)),
    );
    let star_page_user = with_session(&star_page.path, &token);
    insert(
        values,
        "portal.handle_render_us",
        probe(spans, "probe.portal.handle_render", CALLS, |_| portal.handle(&star_page_user)),
    );
    let results = with_session(&format!("/simulation/{sim_id}"), &token);
    expect_ok("results page", portal.handle(&results).status)?;
    insert(
        values,
        "portal.handle_results_us",
        probe(spans, "probe.portal.handle_results", CALLS, |_| portal.handle(&results)),
    );
    let wire = http::get(&star_path(&star.identifier), Some(&token));
    insert(
        values,
        "portal.parse_us",
        probe(spans, "probe.portal.parse", CALLS, |_| {
            let mut parser = RequestParser::new();
            parser.extend(&wire);
            parser.next_request().map(|r| r.is_some())
        }),
    );

    // simdb: the portal's read shapes, then the daemon's write shapes.
    let web = portal.conn();
    let n_sims = sims.count(&Query::new()).map_err(err)?.max(1) as i64;
    insert(
        values,
        "simdb.get_us",
        probe(spans, "probe.simdb.get", CALLS, |i| web.get(Simulation::TABLE, 1 + (i as i64 * 7) % n_sims)),
    );
    let by_status = Query::new().eq("status", sim.status.as_str()).limit(50);
    insert(
        values,
        "simdb.index_select_us",
        probe(spans, "probe.simdb.index_select", CALLS, |_| web.select(Simulation::TABLE, &by_status)),
    );
    let pages = (catalog.stars.len() / 25).max(1);
    insert(
        values,
        "simdb.page_scan_us",
        probe(spans, "probe.simdb.page_scan", CALLS, |i| {
            web.select(Star::TABLE, &Query::new().order_by("identifier").offset(i % pages * 25).limit(25))
        }),
    );
    let needle = &star.identifier[3..7];
    let search = Query::new().filter("identifier", Op::IContains, needle).limit(25);
    insert(
        values,
        "simdb.search_scan_us",
        probe(spans, "probe.simdb.search_scan", CALLS, |_| web.select(Star::TABLE, &search)),
    );
    let done = Query::new().eq("status", "DONE");
    insert(values, "simdb.count_us", probe(spans, "probe.simdb.count", CALLS, |_| web.count(Simulation::TABLE, &done)));

    let notes = Manager::<Notification>::new(admin.clone());
    insert(
        values,
        "simdb.insert_commit_us",
        probe(spans, "probe.simdb.insert_commit", CALLS, |i| {
            notes.create(&mut Notification::to_user(user.id, Some(sim_id), "probe", &format!("probe {i}"), 0))
        }),
    );
    let job_ids: Vec<i64> =
        Manager::<GridJobRecord>::new(admin.clone()).ids(&Query::new().order_by("id").limit(64)).map_err(err)?;
    if !job_ids.is_empty() {
        insert(
            values,
            "simdb.txn64_commit_us",
            probe(spans, "probe.simdb.txn64_commit", FEW, |i| {
                admin.transaction(&[GridJobRecord::TABLE], |tx| {
                    job_ids.iter().try_for_each(|&id| {
                        tx.update(GridJobRecord::TABLE, id, &[("detail", Value::from(format!("probe {i}")))])
                    })
                })
            }),
        );
    }
    let leases = Manager::<Lease>::new(admin.clone());
    let lease_id = match leases.first(&Query::new().eq("simulation_id", sim_id)).map_err(err)? {
        Some(l) => l.id.expect("saved"),
        None => leases.create(&mut Lease::new(sim_id, "probe", &sim.app, 0, 0)).map_err(err)?,
    };
    let epoch0 = leases.get(lease_id).map_err(err)?.epoch;
    let mut swapped = 0usize;
    insert(
        values,
        "simdb.cas_us",
        probe(spans, "probe.simdb.cas", CALLS, |i| {
            let epoch = epoch0 + i as i64;
            let won = admin.compare_and_swap(
                Lease::TABLE,
                lease_id,
                &[("epoch", Value::from(epoch))],
                &[("epoch", Value::from(epoch + 1))],
            );
            swapped += usize::from(matches!(won, Ok(true)));
        }),
    );
    if swapped != CALLS {
        return Err(format!("probe simdb.cas: {swapped} of {CALLS} uncontended swaps won"));
    }

    // ga, stellar, core
    let curvefit = amp_core::app::lookup("curvefit").ok_or("probe: curvefit is not installed")?;
    let observation = Manager::<Observation>::new(admin).get(catalog.targets[0].curvefit_obs).map_err(err)?;
    let staged = curvefit.observation_input(&observation.data_json)?;
    let problem = Fitness(curvefit.fitness_fn(&staged)?, curvefit.n_genes());
    let config = GaConfig { population: 24, generations: 40, ..GaConfig::default() };
    insert(
        values,
        "ga.run_ms",
        probe(spans, "probe.ga.run", 20, |i| Ga::new(&problem, config.clone(), i as u64).run(40)).map(|us| us / 1e3),
    );
    let sun = StellarParams { mass: 1.05, metallicity: 0.02, helium: 0.27, alpha: 2.0, age: 4.0 };
    let domain = Domain::default();
    insert(
        values,
        "stellar.evolve_us",
        probe(spans, "probe.stellar.evolve", CALLS, |i| {
            evolve(&StellarParams { age: sun.age + (i % 100) as f64 * 0.01, ..sun }, &domain).is_ok()
        }),
    );
    let params: serde_json::Value =
        serde_json::Value::Object(curvefit.params().iter().fold(serde_json::Map::new(), |mut m, s| {
            m.insert(s.name.to_string(), serde_json::json!((s.lo + s.hi) / 2.0));
            m
        }));
    insert(
        values,
        "core.validate_us",
        probe(spans, "probe.core.validate", CALLS, |_| curvefit.validate_params(&params).is_ok()),
    );

    // obs
    insert(values, "obs.render_us", probe(spans, "probe.obs.render", FEW, |_| amp_obs::render_prometheus().len()));
    insert(values, "obs.series", Some(amp_obs::registry().len() as f64));

    // Last, because it queues simulations: the submit handler, durable commit included.
    let form = [("amplitude", "1.4"), ("decay", "0.25"), ("omega", "4.0"), ("phase", "0.6"), ("offset", "0.3")];
    let allocation = catalog.allocation.to_string();
    let mut fields: Vec<(&str, &str)> = form.to_vec();
    fields.push(("allocation", &allocation));
    let submit =
        Request::post(&format!("/submit/curvefit/direct/{}", star.id), &fields).with_cookie("amp_session", &token);
    expect_ok("submit", portal.handle(&submit).status)?;
    insert(
        values,
        "portal.handle_submit_us",
        probe(spans, "probe.portal.handle_submit", FEW, |_| portal.handle(&submit)),
    );

    // The store after a checkpoint: what the log cost against what it left.
    let compact_start = Instant::now();
    db.compact().map_err(err)?;
    if !values.contains_key("simdb.compact_ms") {
        insert(values, "simdb.compact_ms", Some(compact_start.elapsed().as_secs_f64() * 1e3));
    }
    insert(values, "simdb.snapshot_bytes", Some(storage.snapshot_len() as f64));
    Ok(())
}
