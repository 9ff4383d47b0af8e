//! The benchmark's own blocking HTTP/1.1 client: keep-alive, responses
//! framed by Content-Length, requests written back to back when the
//! caller pipelines. It shares no code with the server it measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    head: String,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    pub fn body_has(&self, needle: &str) -> bool {
        let n = needle.as_bytes();
        self.body.windows(n.len()).any(|w| w == n)
    }

    /// Bytes the reply took on the wire.
    pub fn wire_len(&self) -> usize {
        self.head.len() + 4 + self.body.len()
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Client { stream, buf: Vec::with_capacity(16 << 10) })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the next framed response.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 16 << 10];
        let mut scanned = 0;
        let head_end = loop {
            if let Some(p) = self.buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + p;
            }
            scanned = self.buf.len().saturating_sub(3);
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("no status in {:?}", head.lines().next())))?;
        let mut reply = Reply { status, head, body: Vec::new() };
        let len: usize = match reply.header("content-length") {
            Some(v) => v.parse().map_err(|_| bad(format!("Content-Length {v:?}")))?,
            None => 0,
        };
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        reply.body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(reply)
    }

    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.recv()
    }
}

fn cookie_line(session: Option<&str>) -> String {
    session.map_or(String::new(), |t| format!("Cookie: amp_session={t}\r\n"))
}

pub fn get(path: &str, session: Option<&str>) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: amp\r\n{}\r\n", cookie_line(session)).into_bytes()
}

pub fn post_form(path: &str, session: Option<&str>, form: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: amp\r\n{}Content-Type: application/x-www-form-urlencoded\r\n\
         Content-Length: {}\r\n\r\n{form}",
        cookie_line(session),
        form.len()
    )
    .into_bytes()
}
