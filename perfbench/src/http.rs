//! The benchmark's side of the socket: a keep-alive HTTP/1.1 client, the
//! `predsim serve` child process, and `/metrics` scraping.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One keep-alive client connection. Requests go out as one write with
/// `TCP_NODELAY` set, so any delay between request and answer is the
/// server's.
pub struct Client {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        Ok(self.conn.as_mut().expect("connection was just opened"))
    }

    /// Send the request as one write (the benchmark's `client.write`
    /// span), then wait for and read the whole response. Returns the
    /// status and body. Any I/O failure drops the connection, so the
    /// next call reconnects.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        mut after_write: impl FnMut(),
    ) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let result = (|| {
            let (stream, reader) = self.connect()?;
            stream.write_all(request.as_bytes())?;
            after_write();
            read_response(reader)
        })();
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the status line"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("body is not UTF-8"))
}

/// An integer field of a flat JSON response (`"total_ps":123`).
pub fn int_field(body: &str, name: &str) -> Option<i64> {
    let key = format!("\"{name}\":");
    let rest = &body[body.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A string field of a flat JSON response (`"tier":"full"`).
pub fn str_field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let rest = &body[body.find(&key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

/// A running `predsim serve` child with its default configuration on a
/// free loopback port. Dropping it drains the server and waits for it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Wall time from spawn until the server announced it was listening.
    pub ready: Duration,
}

impl Server {
    pub fn spawn(predsim: &str) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(predsim)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {predsim} serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready = start.elapsed();
        let addr = line
            .trim()
            .strip_prefix("predsim-serve listening on http://")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                ready,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("predsim serve did not start: {line:?}"))
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Scrape `/metrics` into `series → value`.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let (status, text) = Client::new(&self.addr)
            .call("GET", "/metrics", "", || {})
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(Metrics::parse(&text))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let drained = Client::new(&self.addr).call("POST", "/admin/drain", "", || {});
        let deadline = Instant::now() + Duration::from_secs(10);
        while drained.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    let text = std::fs::read_to_string(status_path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One Prometheus text scrape: series (name plus labels) to value.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn parse(text: &str) -> Metrics {
        Metrics(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum of every series of metric `name` (all label sets).
    pub fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                series
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .fold(0.0, |a, b| a + b)
    }

    /// Value of one exact series, e.g. `serve_tier_total{tier="full"}`.
    pub fn series(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after - before`, series by series.
    pub fn delta(&self, before: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }
}
