//! GRAM/GridFTP audit log.
//!
//! TeraGrid requires gateways to attribute every grid request to a specific
//! gateway user (§3; the acknowledgments thank Stu Martin for "Globus GRAM
//! auditing"). Every client call the simulator accepts is recorded here
//! with the community subject *and* the SAML user attribute, so resource
//! providers can "disambiguate the real users acting behind community
//! credentials".

use crate::time::SimTime;

/// One audited grid operation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    pub time: SimTime,
    pub site: String,
    /// "GRAM" or "GridFTP".
    pub service: String,
    /// Community credential subject.
    pub subject: String,
    /// Gateway user from the GridShib SAML attribute.
    pub saml_user: String,
    /// e.g. "submit", "cancel", "put", "get".
    pub action: String,
    pub detail: String,
}

/// Append-only audit log.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
}

impl AuditLog {
    pub fn record(&mut self, rec: AuditRecord) {
        self.records.push(rec);
    }

    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// All records attributable to a gateway user.
    pub fn by_user<'a>(&'a self, user: &'a str) -> impl Iterator<Item = &'a AuditRecord> {
        self.records.iter().filter(move |r| r.saml_user == user)
    }

    /// Every record must carry a non-empty SAML user — the end-to-end
    /// accounting invariant tests assert.
    pub fn fully_attributed(&self) -> bool {
        self.records.iter().all(|r| !r.saml_user.is_empty())
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, action: &str) -> AuditRecord {
        AuditRecord {
            time: SimTime(1),
            site: "kraken".into(),
            service: "GRAM".into(),
            subject: "/CN=amp".into(),
            saml_user: user.into(),
            action: action.into(),
            detail: String::new(),
        }
    }

    #[test]
    fn filter_by_user() {
        let mut log = AuditLog::default();
        log.record(rec("alice", "submit"));
        log.record(rec("bob", "submit"));
        log.record(rec("alice", "cancel"));
        assert_eq!(log.by_user("alice").count(), 2);
        assert_eq!(log.by_user("carol").count(), 0);
        assert_eq!(log.len(), 3);
        assert!(log.fully_attributed());
    }

    #[test]
    fn attribution_invariant_detects_gaps() {
        let mut log = AuditLog::default();
        log.record(rec("", "submit"));
        assert!(!log.fully_attributed());
    }
}
