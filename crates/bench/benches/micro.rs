//! Micro-benchmarks of the substrates: forward-model evaluation, GA
//! generation step, database operations, scheduler throughput, template
//! rendering and portal request handling.

use amp_ga::{Ga, GaConfig, Sphere};
use amp_simdb::{Column, Db, PermSet, Query, Role, TableSchema, Value, ValueType};
use amp_stellar::{evolve, fitness, synthesize, Domain, StellarParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_stellar(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/stellar");
    let domain = Domain::default();
    let p = StellarParams::sun();
    g.bench_function("evolve", |b| {
        b.iter(|| evolve(black_box(&p), &domain).unwrap())
    });
    let obs = synthesize("B", &p, &domain, 0.1, 1).unwrap();
    g.bench_function("fitness", |b| {
        b.iter(|| fitness(black_box(&obs), &p, &domain))
    });
    g.finish();
}

fn bench_ga(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/ga");
    let problem = Sphere {
        target: vec![0.3, 0.7, 0.5, 0.2, 0.9],
    };
    g.bench_function("generation_step_pop126", |b| {
        let mut ga = Ga::new(
            &problem,
            GaConfig {
                population: 126,
                generations: u32::MAX,
                ..GaConfig::default()
            },
            1,
        );
        b.iter(|| ga.step())
    });
    g.finish();
}

fn bench_simdb(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/simdb");
    let setup = || {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        db.define_role(Role::new("web").grant("t", PermSet::ALL));
        let admin = db.connect("admin").unwrap();
        admin
            .create_table(TableSchema::new(
                "t",
                vec![
                    Column::new("name", ValueType::Text).not_null().indexed(),
                    Column::new("v", ValueType::Float),
                ],
            ))
            .unwrap();
        db
    };
    g.bench_function("insert", |b| {
        let db = setup();
        let conn = db.connect("web").unwrap();
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            conn.insert(
                "t",
                &[("name", format!("row{i}").into()), ("v", Value::Float(1.0))],
            )
            .unwrap()
        })
    });
    g.bench_function("indexed_query_10k_rows", |b| {
        let db = setup();
        let conn = db.connect("web").unwrap();
        for i in 0..10_000 {
            conn.insert(
                "t",
                &[
                    ("name", format!("row{}", i % 100).into()),
                    ("v", Value::Float(i as f64)),
                ],
            )
            .unwrap();
        }
        b.iter(|| {
            conn.select("t", &Query::new().eq("name", "row42"))
                .unwrap()
                .len()
        })
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    use amp_grid::app::SleepApp;
    use amp_grid::prelude::*;
    use std::sync::Arc;
    let mut g = c.benchmark_group("micro/grid");
    g.bench_function("submit_and_run_100_jobs", |b| {
        b.iter(|| {
            let mut grid = Grid::new();
            grid.add_site(amp_grid::systems::kraken());
            grid.install_app("kraken", "sleep", Arc::new(SleepApp));
            let cred = CommunityCredential::new("/CN=amp");
            grid.authorize("kraken", &cred);
            let proxy = cred.issue_proxy("u", grid.now(), SimDuration::from_hours(1000.0));
            for i in 0..100 {
                grid.gram_submit(
                    "kraken",
                    &proxy,
                    GramJobSpec {
                        service: GramService::Batch,
                        executable: "sleep".into(),
                        args: vec!["10".into()],
                        workdir: format!("w{i}"),
                        cores: 512,
                        walltime: SimDuration::from_minutes(30.0),
                        depends_on: vec![],
                        name: format!("j{i}"),
                        submission_id: None,
                    },
                )
                .unwrap();
            }
            grid.advance(SimDuration::from_hours(24.0));
            grid.now()
        })
    });
    g.finish();
}

fn bench_portal(c: &mut Criterion) {
    use amp_portal::{Portal, PortalConfig, Request};
    let mut g = c.benchmark_group("micro/portal");
    let db = Db::in_memory();
    amp_core::setup::initialize(&db).unwrap();
    let portal = Portal::new(&db, PortalConfig::default()).unwrap();
    g.bench_function("request_home", |b| {
        let req = Request::get("/");
        b.iter(|| portal.handle(&req).status)
    });
    g.bench_function("request_suggest", |b| {
        let req = Request::get("/api/suggest?q=HD");
        b.iter(|| portal.handle(&req).status)
    });
    g.bench_function("template_render", |b| {
        let t = amp_portal::Template::parse(
            "{% for s in stars %}<li>{{ s.name }}{% if s.ok %}!{% endif %}</li>{% endfor %}",
        )
        .unwrap();
        let ctx = serde_json::json!({"stars": (0..50).map(|i| serde_json::json!({"name": format!("HD {i}"), "ok": i % 2 == 0})).collect::<Vec<_>>()});
        b.iter(|| t.render(&ctx).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stellar,
    bench_ga,
    bench_simdb,
    bench_scheduler,
    bench_portal
);
criterion_main!(benches);
