//! Authentication: password hashing and session management.
//!
//! The analogue of Django's auth framework that AMP adopted (§4.1) plus
//! the "SSL authentication and session management support" of §4.2.
//! SHA-256 is implemented from scratch (FIPS 180-4) because no crypto
//! crate is on the offline dependency list; passwords are stored as
//! `pbkdf-lite$<iterations>$<salt>$<hex digest>` with iterated salted
//! hashing.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

/// SHA-256 (FIPS 180-4). Straightforward, test-vector-verified.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padding.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const SCHEME: &str = "pbkdf-lite";
const DEFAULT_ITERATIONS: u32 = 600;

/// Hash a password with a salt (iterated salted SHA-256).
pub fn hash_password(password: &str, salt: &str) -> String {
    hash_password_iter(password, salt, DEFAULT_ITERATIONS)
}

fn hash_password_iter(password: &str, salt: &str, iterations: u32) -> String {
    let mut digest = sha256(format!("{salt}:{password}").as_bytes());
    for _ in 1..iterations {
        let mut input = Vec::with_capacity(64);
        input.extend_from_slice(&digest);
        input.extend_from_slice(salt.as_bytes());
        digest = sha256(&input);
    }
    format!("{SCHEME}${iterations}${salt}${}", hex(&digest))
}

/// Verify a candidate password against a stored hash string.
pub fn verify_password(password: &str, stored: &str) -> bool {
    let parts: Vec<&str> = stored.split('$').collect();
    if parts.len() != 4 || parts[0] != SCHEME {
        return false;
    }
    let Ok(iterations) = parts[1].parse::<u32>() else {
        return false;
    };
    let recomputed = hash_password_iter(password, parts[2], iterations);
    // constant-time-ish comparison
    recomputed.len() == stored.len()
        && recomputed
            .bytes()
            .zip(stored.bytes())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
}

/// Active login session data.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    pub user_id: i64,
    pub username: String,
    pub is_admin: bool,
    pub created_at: i64,
    pub expires_at: i64,
}

/// In-memory session store keyed by cookie token. (AMP used Django's DB
/// sessions; in-memory with expiry gives the same observable behaviour
/// for a single portal process.) Sessions vanish when the process does:
/// after a restart every cookie reads as anonymous until its user logs in
/// again.
pub struct SessionStore {
    inner: Mutex<SessionInner>,
    /// Random per store, so that a restarted portal, whose counter starts
    /// over, never issues a token the one before it issued.
    salt: u64,
}

impl Default for SessionStore {
    fn default() -> Self {
        let salt = RandomState::new().hash_one("amp_session");
        SessionStore {
            inner: Mutex::default(),
            salt,
        }
    }
}

#[derive(Default)]
struct SessionInner {
    sessions: HashMap<String, Session>,
    counter: u64,
}

/// Session lifetime in (simulated) seconds.
pub const SESSION_TTL_SECS: i64 = 12 * 3600;

impl SessionStore {
    pub fn new() -> Self {
        SessionStore::default()
    }

    /// Create a session; returns the cookie token.
    pub fn create(&self, user_id: i64, username: &str, is_admin: bool, now: i64) -> String {
        let mut inner = self.inner.lock();
        inner.counter += 1;
        let token = hex(&sha256(
            format!("session:{}:{}:{username}:{now}", self.salt, inner.counter).as_bytes(),
        ));
        inner.sessions.insert(
            token.clone(),
            Session {
                user_id,
                username: username.to_string(),
                is_admin,
                created_at: now,
                expires_at: now + SESSION_TTL_SECS,
            },
        );
        token
    }

    /// Resolve a token, honouring expiry.
    pub fn get(&self, token: &str, now: i64) -> Option<Session> {
        let mut inner = self.inner.lock();
        match inner.sessions.get(token) {
            Some(s) if s.expires_at > now => Some(s.clone()),
            Some(_) => {
                inner.sessions.remove(token);
                None
            }
            None => None,
        }
    }

    pub fn destroy(&self, token: &str) {
        self.inner.lock().sessions.remove(token);
    }

    pub fn len(&self) -> usize {
        self.inner.lock().sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // multi-block with length near padding boundary
        let long = vec![b'a'; 1_000];
        assert_eq!(
            hex(&sha256(&long)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn password_roundtrip_and_rejection() {
        let stored = hash_password("correct horse", "salt123");
        assert!(verify_password("correct horse", &stored));
        assert!(!verify_password("wrong horse", &stored));
        assert!(!verify_password("correct horse", "garbage"));
        assert!(!verify_password(
            "correct horse",
            "pbkdf-lite$notanum$salt$00"
        ));
    }

    #[test]
    fn distinct_salts_distinct_hashes() {
        let a = hash_password("pw", "salt-a");
        let b = hash_password("pw", "salt-b");
        assert_ne!(a, b);
        assert!(verify_password("pw", &a));
        assert!(verify_password("pw", &b));
    }

    #[test]
    fn hash_never_contains_password() {
        let stored = hash_password("hunter2", "s");
        assert!(!stored.contains("hunter2"));
    }

    #[test]
    fn sessions_create_resolve_expire() {
        let store = SessionStore::new();
        let token = store.create(7, "astro1", false, 100);
        let s = store.get(&token, 200).unwrap();
        assert_eq!(s.user_id, 7);
        assert_eq!(s.username, "astro1");
        // expiry
        assert!(store.get(&token, 100 + SESSION_TTL_SECS + 1).is_none());
        // expired session was purged
        assert!(store.is_empty());
    }

    #[test]
    fn sessions_unique_and_destroyable() {
        let store = SessionStore::new();
        let a = store.create(1, "a", false, 0);
        let b = store.create(1, "a", false, 0);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        store.destroy(&a);
        assert!(store.get(&a, 1).is_none());
        assert!(store.get(&b, 1).is_some());
    }

    #[test]
    fn bogus_token_rejected() {
        let store = SessionStore::new();
        assert!(store.get("nonsense", 0).is_none());
    }
}
