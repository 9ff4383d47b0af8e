//! Figure 2 / S1 — the three-tier isolation architecture, demonstrated:
//! the public portal holds no grid credentials and a web-role database
//! connection cannot touch workflow state; all grid requests are
//! SAML-attributed to gateway users; only rigidly formatted input files
//! ever reach a TeraGrid system.
//!
//! Usage: `cargo run --release -p amp-bench --bin report_architecture`

#![forbid(unsafe_code)]

use amp_bench::{load_sim, quiet_deployment, target_star};
use amp_core::models::Simulation;
use amp_core::SimStatus;
use amp_gridamp::seed_fixtures;
use amp_simdb::orm::Model;
use amp_simdb::Action;
use amp_stellar::StellarParams;

fn check(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "ok" } else { "FAIL" });
    assert!(ok, "{label}");
}

fn main() {
    println!("== Figure 2: architecture isolation properties ==\n");
    let mut dep = quiet_deployment(amp_grid::systems::kraken(), 24.0);
    let (user, star, alloc, _obs) =
        seed_fixtures(&dep.db, "kraken", &target_star(), 2).expect("fixtures");

    println!("web tier (public portal):");
    let web = dep.db.connect(amp_core::roles::ROLE_WEB).expect("web");
    check(
        "web role may submit simulation requests",
        web.insert(
            "simulation",
            &Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0)
                .to_values(),
        )
        .is_ok(),
    );
    check(
        "web role may NOT update workflow state",
        web.update("simulation", 1, &[("status", "RUNNING".into())])
            .is_err(),
    );
    check(
        "web role may NOT write grid-job records",
        web.insert("grid_job", &[]).is_err(),
    );
    check(
        "web role may NOT touch allocations",
        web.update("allocation", alloc, &[("su_used", 0.0.into())])
            .is_err(),
    );

    println!("\ndaemon tier (GridAMP):");
    let daemon_conn = dep
        .db
        .connect(amp_core::roles::ROLE_DAEMON)
        .expect("daemon");
    check(
        "daemon role drives workflow state",
        daemon_conn
            .update("simulation", 1, &[("status", "PREJOB".into())])
            .is_ok(),
    );
    check(
        "daemon role may NOT create user accounts",
        daemon_conn.insert("amp_user", &[]).is_err(),
    );
    // put the sim back so the daemon can run it for real
    daemon_conn
        .update("simulation", 1, &[("status", "QUEUED".into())])
        .expect("reset");

    println!("\ngrid tier (remote systems):");
    dep.daemon.run_until_settled(&dep.grid, 48.0);
    check(
        "simulation completed through the full stack",
        load_sim(&dep, 1).status == SimStatus::Done,
    );
    let audit = dep.grid.audit();
    check(
        "every grid request carries a SAML user",
        audit.fully_attributed(),
    );
    check(
        "requests attributable to the submitting astronomer",
        audit.by_user("astro1").count() >= 4,
    );
    drop(audit);
    check(
        "execution environment removed after completion",
        dep.grid
            .site("kraken")
            .unwrap()
            .fs
            .list_tree("amp/sim1")
            .is_empty(),
    );

    println!("\npermission matrix (role x table):");
    let tables = [
        "amp_user",
        "star",
        "observation",
        "simulation",
        "grid_job",
        "allocation",
        "notification",
    ];
    println!("  {:<22} {:>14} {:>14}", "table", "web", "daemon");
    for t in tables {
        let fmt = |role: &amp_simdb::Role| {
            ["S", "I", "U", "D"]
                .iter()
                .zip([
                    Action::Select,
                    Action::Insert,
                    Action::Update,
                    Action::Delete,
                ])
                .map(|(c, a)| if role.check(t, a).is_ok() { *c } else { "-" })
                .collect::<String>()
        };
        println!(
            "  {t:<22} {:>14} {:>14}",
            fmt(&amp_core::roles::web_role()),
            fmt(&amp_core::roles::daemon_role()),
        );
    }
    println!("\nall isolation properties hold.");
}
