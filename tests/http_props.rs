//! Property tests for the hand-rolled HTTP layer: the parser is total
//! (never panics on arbitrary bytes), encode/decode round-trips, and
//! serialized responses contain consistent framing.
//!
//! The malformed-request pass fuzzes the framing layer specifically:
//! bad / duplicate / huge `Content-Length` values, truncated percent
//! escapes, and request heads split across arbitrary chunk boundaries.
//! The invariant is that a byte stream either yields valid requests or
//! a fatal parse error — never a desynchronized stream where body bytes
//! are reinterpreted as a pipelined request (request smuggling).

use amp::portal::http::{
    parse_urlencoded, urldecode, urldecode_query, urlencode, urlencode_path, HttpError, Method,
    Request, RequestParser, Response,
};
use proptest::prelude::*;

/// What a stream parsed to: each request's method, path, body and
/// keep-alive decision, then the error that stopped the parser, if one did.
type Parsed = (Vec<(Method, String, Vec<u8>, bool)>, Option<HttpError>);

/// Feed `bytes` to a fresh parser in chunks ending at `cuts` (offsets in
/// any order, taken modulo the length), draining it after each chunk as
/// the server does.
fn feed(bytes: &[u8], cuts: &[usize]) -> Parsed {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % bytes.len().max(1)).collect();
    ends.sort_unstable();
    ends.push(bytes.len());
    let (mut parser, mut requests, mut at) = (RequestParser::new(), Vec::new(), 0);
    ends.dedup();
    for end in ends.into_iter().filter(|&end| end > 0) {
        parser.extend(&bytes[at..end]);
        at = end;
        loop {
            match parser.next_request() {
                Ok(Some((req, keep))) => requests.push((req.method, req.path, req.body, keep)),
                Ok(None) => break,
                Err(e) => return (requests, Some(e)),
            }
        }
    }
    (requests, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes in arbitrary chunks never panic the parser, and
    /// parse to what the same bytes fed whole do.
    #[test]
    fn request_parser_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        prop_assert_eq!(feed(&bytes, &cuts), feed(&bytes, &[]));
    }

    /// `urlencode` produces form/query encoding (space -> `+`), so it
    /// pairs with `urldecode_query`; `urlencode_path` produces path
    /// encoding (space -> `%20`, literal `+` escaped), pairing with the
    /// plain path decoder `urldecode`.
    #[test]
    fn urlencode_roundtrip(s in "\\PC{0,100}") {
        prop_assert_eq!(urldecode_query(&urlencode(&s)), s.clone());
        prop_assert_eq!(urldecode(&urlencode_path(&s)), s);
    }

    /// Path decoding must not apply the form rule: a literal `+` in a
    /// path segment is just a plus sign.
    #[test]
    fn path_decode_preserves_literal_plus(a in "[a-zA-Z0-9]{0,10}", b in "[a-zA-Z0-9]{0,10}") {
        let s = format!("{a}+{b}");
        prop_assert_eq!(urldecode(&s), s.clone());
        prop_assert_eq!(urldecode_query(&s), format!("{a} {b}"));
    }

    #[test]
    fn urldecode_is_total(s in "[ -~]{0,120}") {
        let _ = urldecode(&s);
        let _ = urldecode_query(&s);
        let _ = parse_urlencoded(&s);
    }

    /// Truncated or malformed percent escapes never panic and never eat
    /// trailing bytes: output is always valid UTF-8 derived from input.
    #[test]
    fn truncated_percent_escapes_are_total(prefix in "[a-z]{0,8}", hex in "[0-9a-fA-F]{0,1}") {
        let s = format!("{prefix}%{hex}");
        let _ = urldecode(&s);
        let _ = urldecode_query(&s);
        let _ = parse_urlencoded(&format!("k={s}"));
    }

    #[test]
    fn form_roundtrip(pairs in proptest::collection::vec(("[a-z_]{1,12}", "\\PC{0,40}"), 0..8)) {
        // deduplicate keys (maps collapse duplicates)
        let mut seen = std::collections::BTreeMap::new();
        for (k, v) in &pairs {
            seen.insert(k.clone(), v.clone());
        }
        let form: Vec<(&str, &str)> =
            seen.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let req = Request::post("/x", &form);
        let parsed = req.form();
        prop_assert_eq!(parsed.len(), seen.len());
        for (k, v) in &seen {
            prop_assert_eq!(parsed.get(k.as_str()), Some(v));
        }
    }

    #[test]
    fn parsed_request_roundtrips_through_raw(path in "[a-z/]{1,30}", q in "[a-z0-9=&]{0,30}") {
        let target = if q.is_empty() {
            path.clone()
        } else {
            format!("{path}?{q}")
        };
        let raw = format!("GET {target} HTTP/1.1\r\nHost: amp\r\n\r\n");
        let mut parser = RequestParser::new();
        parser.extend(raw.as_bytes());
        let (req, keep_alive) = parser.next_request().unwrap().unwrap();
        prop_assert_eq!(&req.path, &path);
        prop_assert!(keep_alive);
        prop_assert_eq!(parser.buffered(), 0);
    }

    /// A request with an unparseable Content-Length followed by a
    /// pipelined request must produce a fatal error, and the smuggled
    /// follow-up must never surface as a parsed request.
    #[test]
    fn malformed_content_length_never_desyncs(
        cl in prop_oneof![
            Just("oops".to_string()),
            Just("-1".to_string()),
            Just("1e3".to_string()),
            Just("18446744073709551616".to_string()),
            Just("4294967296".to_string()),
            Just("+5".to_string()),
            Just("5 5".to_string()),
            "[a-z]{1,8}",
        ],
        body in "[a-z]{0,16}",
    ) {
        let raw = format!(
            "POST /submit HTTP/1.1\r\nHost: amp\r\nContent-Length: {cl}\r\n\r\n\
             {body}GET /admin HTTP/1.1\r\nHost: amp\r\n\r\n"
        );
        let mut parser = RequestParser::new();
        parser.extend(raw.as_bytes());
        loop {
            match parser.next_request() {
                Err(e) => {
                    prop_assert_eq!(e, HttpError::BadContentLength);
                    break;
                }
                Ok(Some((req, _))) => {
                    // Never the smuggled request.
                    prop_assert_ne!(&req.path, "/admin");
                }
                Ok(None) => {
                    prop_assert!(false, "malformed Content-Length was silently accepted");
                }
            }
        }
    }

    /// Duplicate Content-Length headers (the classic two-frontends
    /// smuggling vector) are always fatal, whatever the values.
    #[test]
    fn duplicate_content_length_is_fatal(a in 0u32..100, b in 0u32..100) {
        let raw = format!(
            "POST /x HTTP/1.1\r\nHost: amp\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n"
        );
        let mut parser = RequestParser::new();
        parser.extend(raw.as_bytes());
        prop_assert_eq!(parser.next_request().err(), Some(HttpError::BadContentLength));
    }

    /// Feeding a valid pipelined stream in arbitrary chunk sizes yields
    /// exactly the same request sequence as one whole-buffer feed —
    /// chunk boundaries inside heads, bodies, or the `\r\n\r\n`
    /// terminator never change what is parsed.
    #[test]
    fn chunked_feed_matches_whole_buffer(
        body in "[a-z]{0,24}",
        path in "[a-z]{1,12}",
        cuts in proptest::collection::vec(1usize..200, 0..6),
    ) {
        let raw = format!(
            "POST /{path} HTTP/1.1\r\nHost: amp\r\nContent-Length: {}\r\n\r\n{body}\
             GET /{path}/second HTTP/1.1\r\nHost: amp\r\n\r\n",
            body.len()
        );
        let expected = feed(raw.as_bytes(), &[]);
        prop_assert_eq!(expected.0.len(), 2);
        prop_assert_eq!(expected.1, None);
        prop_assert_eq!(feed(raw.as_bytes(), &cuts), expected);
    }

    #[test]
    fn response_framing_consistent(status in prop_oneof![Just(200u16), Just(302), Just(400), Just(403), Just(404), Just(500)],
                                   body in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut r = Response::html("");
        r.status = status;
        r.body = body.clone();
        let mut raw = Vec::new();
        r.write_into(&mut raw, false);
        let text = String::from_utf8_lossy(&raw);
        let start = format!("HTTP/1.1 {status} ");
        prop_assert!(text.starts_with(&start));
        let cl_line = format!("Content-Length: {}\r\n", body.len());
        prop_assert!(text.contains(&cl_line));
        // body is exactly the declared suffix
        prop_assert_eq!(&raw[raw.len() - body.len()..], &body[..]);
    }
}
