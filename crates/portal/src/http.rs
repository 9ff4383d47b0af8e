//! Minimal HTTP/1.1 message types and parsing.
//!
//! AMP's portal was Django behind Apache; with no web framework on the
//! offline crate list the reproduction hand-rolls the HTTP layer. Only the
//! subset a database-driven portal needs: GET/POST, headers, cookies,
//! query strings, form bodies.

use std::collections::BTreeMap;
use std::fmt;

/// Request method (the portal only serves GET and POST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
}

impl Method {
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Path with the query string stripped.
    pub path: String,
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub cookies: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Build a GET request programmatically (tests, internal calls).
    pub fn get(path_and_query: &str) -> Request {
        let (path, query) = split_query(path_and_query);
        Request {
            method: Method::Get,
            path,
            query,
            headers: BTreeMap::new(),
            cookies: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// Build a form POST programmatically.
    pub fn post(path_and_query: &str, form: &[(&str, &str)]) -> Request {
        let (path, query) = split_query(path_and_query);
        let body = form
            .iter()
            .map(|(k, v)| format!("{}={}", urlencode(k), urlencode(v)))
            .collect::<Vec<_>>()
            .join("&")
            .into_bytes();
        let mut headers = BTreeMap::new();
        headers.insert(
            "content-type".to_string(),
            "application/x-www-form-urlencoded".to_string(),
        );
        Request {
            method: Method::Post,
            path,
            query,
            headers,
            cookies: BTreeMap::new(),
            body,
        }
    }

    pub fn with_cookie(mut self, name: &str, value: &str) -> Request {
        self.cookies.insert(name.to_string(), value.to_string());
        self
    }

    /// Decode an `application/x-www-form-urlencoded` body.
    pub fn form(&self) -> BTreeMap<String, String> {
        parse_urlencoded(&String::from_utf8_lossy(&self.body))
    }

    /// Query parameter accessor.
    pub fn q(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(|s| s.as_str())
    }
}

/// Parse failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    BadEncoding,
    BadStartLine,
    BadHeader,
    /// Malformed, duplicated, or absurdly large `Content-Length`. Fatal
    /// for the connection: with an untrusted length the body/next-request
    /// boundary is unknowable, so the server must 400 and close rather
    /// than risk reparsing body bytes as a pipelined request (request
    /// smuggling / desync).
    BadContentLength,
    UnsupportedMethod,
}

/// Upper bound on a declared `Content-Length`. Anything larger is
/// rejected at parse time ([`HttpError::BadContentLength`]) — the portal
/// serves forms and API calls, not uploads, and an attacker-controlled
/// length otherwise feeds unchecked arithmetic in the framing layer.
pub const MAX_CONTENT_LENGTH: usize = 1 << 30;

/// A fully parsed request head (everything before the body).
struct Head {
    request: Request,
    content_length: usize,
    keep_alive: bool,
}

/// Parse start line + headers (the bytes before `\r\n\r\n`).
fn parse_head(raw: &[u8]) -> Result<Head, HttpError> {
    let head = std::str::from_utf8(raw).map_err(|_| HttpError::BadEncoding)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(HttpError::BadStartLine)?;
    let mut parts = start.split_whitespace();
    let method = Method::parse(parts.next().ok_or(HttpError::BadStartLine)?)
        .ok_or(HttpError::UnsupportedMethod)?;
    let target = parts.next().ok_or(HttpError::BadStartLine)?;
    let version = parts.next().ok_or(HttpError::BadStartLine)?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadStartLine);
    }
    let (path, query) = split_query(target);

    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        let name = name.trim().to_ascii_lowercase();
        // Duplicate Content-Length headers are a classic smuggling vector
        // (two frontends picking different values); reject outright.
        if headers
            .insert(name.clone(), value.trim().to_string())
            .is_some()
            && name == "content-length"
        {
            return Err(HttpError::BadContentLength);
        }
    }
    let cookies = headers
        .get("cookie")
        .map(|c| parse_cookies(c))
        .unwrap_or_default();
    // A Content-Length that doesn't parse (or overflows) must NOT default
    // to 0: the unread body bytes would be reparsed as the next pipelined
    // request. Reject so the server answers 400 and closes.
    let content_length: usize = match headers.get("content-length") {
        Some(v) => {
            // RFC 7230: Content-Length is 1*DIGIT. `u64::parse` alone is
            // too lenient (it accepts a leading `+`), and lenient length
            // parsing is exactly how frontends disagree about framing.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadContentLength);
            }
            let n = v.parse::<u64>().map_err(|_| HttpError::BadContentLength)?;
            if n > MAX_CONTENT_LENGTH as u64 {
                return Err(HttpError::BadContentLength);
            }
            n as usize
        }
        None => 0,
    };
    // HTTP/1.1 defaults to persistent connections; 1.0 to close. An
    // explicit Connection header overrides either way.
    let keep_alive = match headers.get("connection").map(|v| v.to_ascii_lowercase()) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version != "HTTP/1.0",
    };

    Ok(Head {
        request: Request {
            method,
            path,
            query,
            headers,
            cookies,
            body: Vec::new(),
        },
        content_length,
        keep_alive,
    })
}

/// Incremental HTTP/1.x request parser for persistent connections.
///
/// Feed raw bytes with [`extend`](RequestParser::extend) as they arrive and
/// drain complete requests with [`next_request`](RequestParser::next_request).
/// It never rescans: the `\r\n\r\n` search resumes from a saved offset, the
/// head is parsed exactly once, and after that only the body-completeness
/// check runs per chunk.
/// Bytes following a complete request stay buffered, so pipelined requests
/// parse back-to-back without another read.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Resume offset for the header-terminator search.
    scanned: usize,
    /// Parsed head of the in-flight request, once found.
    head: Option<Head>,
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (guards oversized requests).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Total size the in-flight request has *declared* (head bytes plus
    /// its `Content-Length`), once the head has been parsed. Lets a
    /// server reject an oversized request as soon as the headers arrive
    /// instead of buffering the whole body first.
    pub fn pending_request_bytes(&self) -> Option<usize> {
        self.head.as_ref().map(|h| self.scanned + h.content_length)
    }

    /// Try to extract the next complete request. Returns the request plus
    /// its keep-alive decision, `Ok(None)` when more bytes are needed.
    pub fn next_request(&mut self) -> Result<Option<(Request, bool)>, HttpError> {
        if self.head.is_none() {
            // Resume the terminator scan three bytes back, in case a chunk
            // boundary split the "\r\n\r\n".
            let from = self.scanned.saturating_sub(3);
            match self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                Some(rel) => {
                    let header_end = from + rel;
                    self.head = Some(parse_head(&self.buf[..header_end])?);
                    self.scanned = header_end + 4;
                }
                None => {
                    self.scanned = self.buf.len();
                    return Ok(None);
                }
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        let total = self.scanned + head.content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let mut request = head.request;
        request.body = self.buf[self.scanned..total].to_vec();
        self.buf.drain(..total);
        self.scanned = 0;
        Ok(Some((request, head.keep_alive)))
    }
}

fn split_query(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_urlencoded(q)),
        None => (target.to_string(), BTreeMap::new()),
    }
}

fn parse_cookies(header: &str) -> BTreeMap<String, String> {
    header
        .split(';')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// Decode `k=v&k2=v2` with percent-escapes and `+` as space (the
/// `application/x-www-form-urlencoded` rules — query strings and form
/// bodies only, never paths).
pub fn parse_urlencoded(s: &str) -> BTreeMap<String, String> {
    s.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (urldecode_query(k), urldecode_query(v)),
            None => (urldecode_query(pair), String::new()),
        })
        .collect()
}

/// Percent-decode a path segment (lossy on malformed escapes). `+` stays
/// a literal plus: the space-as-`+` convention belongs to form/query
/// encoding only, and star identifiers like `/star/HD+52265` carry
/// meaningful pluses.
pub fn urldecode(s: &str) -> String {
    percent_decode(s, false)
}

/// Percent-decode query-string / form data: like [`urldecode`] but with
/// `+` decoded as space.
pub fn urldecode_query(s: &str) -> String {
    percent_decode(s, true)
}

fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode for form bodies and query strings (space becomes `+`;
/// invert with [`urldecode_query`]).
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Percent-encode a path segment (space becomes `%20`, `+` becomes `%2B`;
/// invert with [`urldecode`]).
pub fn urlencode_path(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "text/html; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    pub fn json(value: &serde_json::Value) -> Response {
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: serde_json::to_vec(value).expect("json serializes"),
        }
    }

    pub fn xml(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/xml".into())],
            body: body.into().into_bytes(),
        }
    }

    pub fn redirect(location: &str) -> Response {
        Response {
            status: 302,
            headers: vec![("Location".into(), location.into())],
            body: Vec::new(),
        }
    }

    pub fn not_found() -> Response {
        Response {
            status: 404,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: b"404 not found".to_vec(),
        }
    }

    pub fn forbidden(msg: &str) -> Response {
        Response {
            status: 403,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: msg.as_bytes().to_vec(),
        }
    }

    pub fn bad_request(msg: &str) -> Response {
        Response {
            status: 400,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: msg.as_bytes().to_vec(),
        }
    }

    /// The over-size rejection: a request exceeding the server's byte
    /// budget gets the status the RFC assigns it (413), not a generic
    /// 400, so clients can distinguish "too big" from "malformed".
    pub fn payload_too_large() -> Response {
        Response {
            status: 413,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: b"413 payload too large".to_vec(),
        }
    }

    pub fn server_error(msg: &str) -> Response {
        Response {
            status: 500,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: msg.as_bytes().to_vec(),
        }
    }

    pub fn set_cookie(mut self, name: &str, value: &str) -> Response {
        self.headers.push((
            "Set-Cookie".into(),
            format!("{name}={value}; Path=/; HttpOnly"),
        ));
        self
    }

    pub fn clear_cookie(mut self, name: &str) -> Response {
        self.headers
            .push(("Set-Cookie".into(), format!("{name}=; Path=/; Max-Age=0")));
        self
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serialize into a reusable buffer. `keep_alive` selects the
    /// `Connection:` header; the body is always Content-Length framed, so a
    /// keep-alive client knows exactly where the response ends.
    pub fn write_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        use std::io::Write;
        let reason = match self.status {
            200 => "OK",
            302 => "Found",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        };
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason);
        for (k, v) in &self.headers {
            let _ = write!(out, "{k}: {v}\r\n");
        }
        let _ = write!(out, "Content-Length: {}\r\n", self.body.len());
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"Connection: close\r\n\r\n".as_slice()
        });
        out.extend_from_slice(&self.body);
    }
}

/// HTML-escape text for a page: every view and the site layout pass the
/// database's and the user's strings through here.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#x27;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first request in `raw`, parsed as the server parses it: `None`
    /// while the bytes are not a whole request yet.
    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.extend(raw);
        Ok(parser.next_request()?.map(|(request, _)| request))
    }

    /// `r` on the wire to a client that asked to close.
    fn closing(r: &Response) -> String {
        let mut out = Vec::new();
        r.write_into(&mut out, false);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parse_get_with_query_and_cookies() {
        let raw = b"GET /star/search?q=HD+52265&page=2 HTTP/1.1\r\nHost: amp.ucar.edu\r\nCookie: sid=abc123; theme=dark\r\n\r\n";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/star/search");
        assert_eq!(req.q("q"), Some("HD 52265"));
        assert_eq!(req.q("page"), Some("2"));
        assert_eq!(req.cookies["sid"], "abc123");
        assert_eq!(req.cookies["theme"], "dark");
    }

    #[test]
    fn parse_post_form() {
        let body = "username=astro1&password=p%40ss+word";
        let raw = format!(
            "POST /accounts/login HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(raw.as_bytes()).unwrap().unwrap();
        let form = req.form();
        assert_eq!(form["username"], "astro1");
        assert_eq!(form["password"], "p@ss word");
    }

    #[test]
    fn parse_rejects_garbage() {
        // No head terminator yet, and a declared body longer than provided:
        // both wait for more bytes.
        assert_eq!(parse(b"HELLO"), Ok(None));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Ok(None)
        );
        assert_eq!(
            parse(b"DELETE / HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod)
        );
        assert_eq!(parse(b"GET /\r\n\r\n"), Err(HttpError::BadStartLine));
    }

    impl PartialEq for Request {
        fn eq(&self, other: &Self) -> bool {
            self.method == other.method && self.path == other.path
        }
    }

    #[test]
    fn urlencode_roundtrip() {
        for s in ["hello world", "a&b=c", "HD 52265", "100% sure?", "αβγ"] {
            assert_eq!(urldecode_query(&urlencode(s)), s, "query: {s}");
            assert_eq!(urldecode(&urlencode_path(s)), s, "path: {s}");
        }
    }

    #[test]
    fn path_decode_keeps_literal_plus() {
        // Path segments are not form-encoded: '+' must survive.
        assert_eq!(urldecode("HD+52265"), "HD+52265");
        assert_eq!(urldecode("HD%2052265"), "HD 52265");
        assert_eq!(urldecode("HD%2B52265"), "HD+52265");
        // Query strings keep the form rules.
        assert_eq!(urldecode_query("HD+52265"), "HD 52265");
    }

    #[test]
    fn rejects_malformed_content_length() {
        for cl in [
            "oops",
            "-1",
            "+5",
            "1e3",
            "18446744073709551616",
            "4294967296",
            "",
        ] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n");
            assert_eq!(
                parse(raw.as_bytes()),
                Err(HttpError::BadContentLength),
                "Content-Length: {cl}"
            );
        }
        // Duplicate Content-Length is rejected even when values agree.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse(raw), Err(HttpError::BadContentLength));
    }

    #[test]
    fn malformed_content_length_never_desyncs_pipelined_stream() {
        // Pre-fix, "Content-Length: oops" decayed to 0 and the body bytes
        // were reparsed as the next pipelined request — here an injected
        // GET /admin. The parser must fail the connection instead.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: oops\r\n\r\nGET /admin HTTP/1.1\r\n\r\n";
        let mut p = RequestParser::new();
        p.extend(raw);
        assert_eq!(p.next_request(), Err(HttpError::BadContentLength));
    }

    #[test]
    fn incremental_parser_handles_split_chunks() {
        let raw = b"POST /accounts/login HTTP/1.1\r\nContent-Length: 7\r\n\r\nusr=abcGET /next HTTP/1.1\r\n\r\n";
        // feed one byte at a time: the parser must find both pipelined
        // requests without ever rescanning from offset 0
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for b in raw.iter() {
            parser.extend(std::slice::from_ref(b));
            while let Some((req, ka)) = parser.next_request().unwrap() {
                got.push((req, ka));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.method, Method::Post);
        assert_eq!(got[0].0.body, b"usr=abc");
        assert!(got[0].1, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(got[1].0.path, "/next");
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn keep_alive_negotiation() {
        let ka = |raw: &[u8]| {
            let mut p = RequestParser::new();
            p.extend(raw);
            p.next_request().unwrap().unwrap().1
        };
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn response_keep_alive_framing() {
        let r = Response::html("<p>hi</p>");
        let mut out = Vec::new();
        r.write_into(&mut out, true);
        let raw = String::from_utf8(out).unwrap();
        assert!(raw.contains("Connection: keep-alive\r\n"));
        assert!(raw.contains("Content-Length: 9\r\n"));
        assert!(closing(&r).contains("Connection: close\r\n"));
    }

    #[test]
    fn response_serialization() {
        let r = Response::html("<p>hi</p>").set_cookie("sid", "x1");
        let raw = closing(&r);
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Set-Cookie: sid=x1; Path=/; HttpOnly\r\n"));
        assert!(raw.contains("Content-Length: 9\r\n"));
        assert!(raw.ends_with("<p>hi</p>"));
    }

    #[test]
    fn response_helpers() {
        assert_eq!(Response::not_found().status, 404);
        assert_eq!(Response::redirect("/x").status, 302);
        assert_eq!(Response::forbidden("no").status, 403);
        assert_eq!(Response::bad_request("bad").status, 400);
        let j = Response::json(&serde_json::json!({"a": 1}));
        assert_eq!(j.body_str(), "{\"a\":1}");
    }

    #[test]
    fn html_escaping() {
        assert_eq!(
            html_escape("<script>alert('x&y')</script>"),
            "&lt;script&gt;alert(&#x27;x&amp;y&#x27;)&lt;/script&gt;"
        );
    }

    #[test]
    fn programmatic_builders() {
        let g = Request::get("/a/b?x=1");
        assert_eq!(g.path, "/a/b");
        assert_eq!(g.q("x"), Some("1"));
        let p = Request::post("/f", &[("k", "v v"), ("e", "a&b")]);
        assert_eq!(p.form()["k"], "v v");
        assert_eq!(p.form()["e"], "a&b");
    }
}
