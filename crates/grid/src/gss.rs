//! Grid security: community credentials and GridShib-style proxies.
//!
//! TeraGrid science gateways submit with a *community credential* but must
//! attribute every request to an individual gateway user; the GridShib
//! SAML extensions embed that attribution in the proxy certificate (§3).
//! This module models exactly that surface: a long-lived community
//! credential held only by the GridAMP server, from which short-lived
//! proxies carrying the acting user's identity are derived.

use crate::time::{SimDuration, SimTime};

/// The long-lived community credential (never leaves the daemon host —
/// the portal has no type-level access to this at all).
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityCredential {
    /// Distinguished name, e.g. "/C=US/O=NCAR/CN=amp community".
    pub subject: String,
    /// Opaque private-key stand-in; proxies embed a signature derived from
    /// it so sites can verify descent.
    key_fingerprint: u64,
}

impl CommunityCredential {
    pub fn new(subject: &str) -> Self {
        // Deterministic fingerprint from the subject (FNV-1a).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in subject.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        CommunityCredential {
            subject: subject.to_string(),
            key_fingerprint: h,
        }
    }

    /// Derive a short-lived proxy carrying the acting gateway user's
    /// identity as a SAML attribute (GridShib, §3).
    pub fn issue_proxy(
        &self,
        gateway_user: &str,
        issued_at: SimTime,
        lifetime: SimDuration,
    ) -> ProxyCertificate {
        ProxyCertificate {
            subject: format!("{}/CN=proxy", self.subject),
            issuer: self.subject.clone(),
            saml_user: gateway_user.to_string(),
            issued_at,
            expires_at: issued_at + lifetime,
            signature: self
                .key_fingerprint
                .wrapping_add(fingerprint(gateway_user))
                .wrapping_add(issued_at.as_secs()),
        }
    }

    /// Verify a proxy descends from this credential.
    pub fn verify(&self, proxy: &ProxyCertificate) -> bool {
        proxy.issuer == self.subject
            && proxy.signature
                == self
                    .key_fingerprint
                    .wrapping_add(fingerprint(&proxy.saml_user))
                    .wrapping_add(proxy.issued_at.as_secs())
    }
}

fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A derived proxy certificate with SAML user attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyCertificate {
    pub subject: String,
    pub issuer: String,
    /// The gateway user on whose behalf this request acts — TeraGrid's
    /// end-to-end accounting requirement (§3).
    pub saml_user: String,
    pub issued_at: SimTime,
    pub expires_at: SimTime,
    signature: u64,
}

impl ProxyCertificate {
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now >= self.issued_at && now < self.expires_at
    }

    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.expires_at - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_carries_user_and_expires() {
        let cred = CommunityCredential::new("/C=US/O=NCAR/CN=amp");
        let p = cred.issue_proxy("astro1", SimTime(100), SimDuration::from_hours(12.0));
        assert_eq!(p.saml_user, "astro1");
        assert!(p.is_valid_at(SimTime(100)));
        assert!(p.is_valid_at(SimTime(100 + 11 * 3600)));
        assert!(!p.is_valid_at(SimTime(100 + 13 * 3600)));
        assert!(!p.is_valid_at(SimTime(50)));
    }

    #[test]
    fn verification_detects_forgery() {
        let cred = CommunityCredential::new("/CN=amp");
        let other = CommunityCredential::new("/CN=mallory");
        let good = cred.issue_proxy("astro1", SimTime(0), SimDuration::from_hours(1.0));
        assert!(cred.verify(&good));
        assert!(!other.verify(&good));

        // tampering with the SAML user breaks the signature
        let mut tampered = good.clone();
        tampered.saml_user = "astro2".into();
        assert!(!cred.verify(&tampered));

        // a proxy issued by a different credential with a matching issuer
        // string still fails (different key fingerprint)
        let mut forged = other.issue_proxy("astro1", SimTime(0), SimDuration::from_hours(1.0));
        forged.issuer = cred.subject.clone();
        assert!(!cred.verify(&forged));
    }

    #[test]
    fn distinct_users_distinct_signatures() {
        let cred = CommunityCredential::new("/CN=amp");
        let a = cred.issue_proxy("u1", SimTime(0), SimDuration::from_hours(1.0));
        let b = cred.issue_proxy("u2", SimTime(0), SimDuration::from_hours(1.0));
        assert_ne!(a, b);
        assert!(cred.verify(&a) && cred.verify(&b));
    }

    #[test]
    fn remaining_lifetime() {
        let cred = CommunityCredential::new("/CN=amp");
        let p = cred.issue_proxy("u", SimTime(0), SimDuration::from_secs(100));
        assert_eq!(p.remaining(SimTime(40)).as_secs(), 60);
        assert_eq!(p.remaining(SimTime(200)).as_secs(), 0);
    }
}
