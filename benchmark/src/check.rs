//! Output checks. They are part of every run: a violated check makes the
//! run fail with the offending operation named, and no result is printed.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use amp_core::models::{GridJobRecord, Simulation};
use amp_core::roles::ROLE_ADMIN;
use amp_grid::Grid;
use amp_simdb::orm::Manager;
use amp_simdb::{Db, Query};

use crate::http::Reply;

pub struct SimFacts {
    pub id: i64,
    pub status: String,
    pub result_json: Option<String>,
}

/// `(app, simulation, purpose, ga_run, continuation)`: the key under
/// which the daemon submits a job to GRAM at most once.
pub type JobKey = (String, i64, String, i64, i64);

pub struct CampaignFacts {
    pub sims: Vec<SimFacts>,
    /// Job-state key of every job row that holds a GRAM handle.
    pub submitted_jobs: Vec<JobKey>,
    /// GRAM submissions the grid's audit log recorded.
    pub audit_submits: usize,
}

pub fn campaign_facts(db: &Db, grid: &Grid) -> Result<CampaignFacts, String> {
    let admin = db.connect(ROLE_ADMIN).map_err(|e| e.to_string())?;
    let sims = Manager::<Simulation>::new(admin.clone()).all().map_err(|e| e.to_string())?;
    let jobs = Manager::<GridJobRecord>::new(admin).all().map_err(|e| e.to_string())?;
    Ok(CampaignFacts {
        sims: sims
            .into_iter()
            .map(|s| SimFacts { id: s.id.expect("saved"), status: s.status.to_string(), result_json: s.result_json })
            .collect(),
        submitted_jobs: jobs
            .into_iter()
            .filter(|j| j.gram_handle.is_some())
            .map(|j| (j.app, j.simulation_id, j.purpose.as_str().to_string(), j.ga_run, j.continuation))
            .collect(),
        audit_submits: grid.audit().records().iter().filter(|r| r.action == "submit").count(),
    })
}

/// Every simulation DONE with a result that parses, none on HOLD, and no
/// job submitted to GRAM twice (by key, and by count against the audit
/// log, which also sees submissions that left no row behind).
pub fn verify_campaign(facts: &CampaignFacts, expected_sims: usize) -> Result<(), String> {
    if facts.sims.len() != expected_sims {
        return Err(format!("{} simulations stored, {expected_sims} submitted", facts.sims.len()));
    }
    for s in &facts.sims {
        if s.status != "DONE" {
            return Err(format!("simulation {} ended {}, not DONE", s.id, s.status));
        }
        let parsed = s.result_json.as_deref().map(serde_json::from_str::<serde_json::Value>);
        if !matches!(parsed, Some(Ok(_))) {
            return Err(format!("simulation {} is DONE without a result_json that parses", s.id));
        }
    }
    let mut seen = BTreeSet::new();
    for key in &facts.submitted_jobs {
        if !seen.insert(key) {
            return Err(format!("duplicate GRAM submission for job key {key:?}"));
        }
    }
    if facts.audit_submits != facts.submitted_jobs.len() {
        return Err(format!(
            "audit log holds {} GRAM submits for {} submitted job rows",
            facts.audit_submits,
            facts.submitted_jobs.len()
        ));
    }
    Ok(())
}

/// A page is 200 and carries the marker that shows it is the page asked for.
pub fn verify_page(what: &str, reply: &Reply, marker: &str) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("{what}: status {}", reply.status));
    }
    if !reply.body_has(marker) {
        return Err(format!("{what}: body lacks {marker:?}"));
    }
    Ok(())
}

/// Row count and content hash per table.
pub type Fingerprint = BTreeMap<String, (usize, u64)>;

/// Row count and content hash of every table, to compare a recovered
/// database with the one that was dropped.
pub fn fingerprint(db: &Db) -> Result<Fingerprint, String> {
    let admin = db.connect(ROLE_ADMIN).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for table in db.table_names() {
        let rows = admin.select(&table, &Query::new().order_by("id")).map_err(|e| e.to_string())?;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (id, row) in &rows {
            id.hash(&mut hasher);
            format!("{row:?}").hash(&mut hasher);
        }
        out.insert(table, (rows.len(), hasher.finish()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(id: i64) -> SimFacts {
        SimFacts { id, status: "DONE".into(), result_json: Some("{\"chi2\": 1.5}".into()) }
    }

    fn key(sim: i64, continuation: i64) -> JobKey {
        ("curvefit".into(), sim, "work".into(), -1, continuation)
    }

    fn clean() -> CampaignFacts {
        CampaignFacts { sims: vec![done(1), done(2)], submitted_jobs: vec![key(1, 0), key(2, 0)], audit_submits: 2 }
    }

    #[test]
    fn a_clean_campaign_passes() {
        assert_eq!(verify_campaign(&clean(), 2), Ok(()));
    }

    #[test]
    fn a_hold_simulation_fails_the_run() {
        let mut facts = clean();
        facts.sims[1].status = "HOLD".into();
        let err = verify_campaign(&facts, 2).unwrap_err();
        assert!(err.contains("simulation 2 ended HOLD"), "{err}");
    }

    #[test]
    fn a_duplicate_gram_key_fails_the_run() {
        let mut facts = clean();
        facts.submitted_jobs.push(key(2, 0));
        facts.audit_submits = 3;
        let err = verify_campaign(&facts, 2).unwrap_err();
        assert!(err.contains("duplicate GRAM submission"), "{err}");
    }

    #[test]
    fn a_submission_the_job_table_never_saw_fails_the_run() {
        let mut facts = clean();
        facts.audit_submits = 3;
        assert!(verify_campaign(&facts, 2).unwrap_err().contains("audit log holds 3"));
    }

    #[test]
    fn an_unparseable_or_missing_result_fails_the_run() {
        let mut facts = clean();
        facts.sims[0].result_json = Some("{not json".into());
        assert!(verify_campaign(&facts, 2).unwrap_err().contains("simulation 1 is DONE without"));
        facts.sims[0].result_json = None;
        assert!(verify_campaign(&facts, 2).is_err());
        assert!(verify_campaign(&clean(), 3).unwrap_err().contains("2 simulations stored, 3 submitted"));
    }
}
