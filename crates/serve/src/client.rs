//! A minimal blocking HTTP/1.1 client with keep-alive.
//!
//! Counterpart of [`crate::http`]: just enough client to drive the daemon
//! from the load generator, the integration tests, and the check harness's
//! server-vs-direct oracle — `Content-Length` framing, persistent
//! connections, one reconnect on a broken keep-alive socket.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
}

impl HttpResponse {
    /// The first header with `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// A client for `addr` (connects lazily).
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient { addr, timeout: Duration::from_secs(120), stream: None }
    }

    /// Overrides the per-request read timeout (default two minutes, sized
    /// for ILS simulations).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&mut self) -> Result<&mut BufReader<TcpStream>, String> {
        if self.stream.is_none() {
            let stream =
                TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream.set_read_timeout(Some(self.timeout)).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, String> {
        let reader = self.connect()?;
        let payload = body.unwrap_or("");
        // Head and body in one write: on a `TCP_NODELAY` socket two writes
        // are two segments, and the server would wake for the head only to
        // block again for the body.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: ptsim\r\ncontent-length: {}\r\n\r\n",
            payload.len()
        );
        request.push_str(payload);
        let stream = reader.get_mut();
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        read_response(reader)
    }

    /// Issues one request, reconnecting once if a kept-alive socket died.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses, as text.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, String> {
        let had_conn = self.stream.is_some();
        match self.try_request(method, path, body) {
            Ok(resp) => {
                if !matches!(resp.header("connection"), Some(v) if v.eq_ignore_ascii_case("keep-alive"))
                {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) if had_conn => {
                // The server may have closed the idle keep-alive socket
                // between requests; retry once on a fresh connection.
                self.stream = None;
                self.try_request(method, path, body).map_err(|_| e)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn get(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.request("GET", path, None)
    }

    /// `POST path` with a body.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn post(&mut self, path: &str, body: &str) -> Result<HttpResponse, String> {
        self.request("POST", path, Some(body))
    }
}

fn read_line(r: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

fn read_response(r: &mut impl BufRead) -> Result<HttpResponse, String> {
    let status_line = read_line(r)?;
    let mut parts = status_line.split_whitespace();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(format!("bad status line {status_line:?}")),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 response body".to_string())?;
    Ok(HttpResponse { status, headers, body })
}

/// One-shot `GET`, on a throwaway connection.
///
/// # Errors
///
/// See [`HttpClient::request`].
pub fn get(addr: SocketAddr, path: &str) -> Result<HttpResponse, String> {
    HttpClient::new(addr).get(path)
}

/// One-shot `POST`, on a throwaway connection.
///
/// # Errors
///
/// See [`HttpClient::request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<HttpResponse, String> {
    HttpClient::new(addr).post(path, body)
}
