//! The Prometheus *pull* endpoint: a minimal, dependency-free blocking
//! HTTP loop that serves [`crate::export::prometheus_text`] of one
//! [`MetricsRegistry`] — the registry of the run being watched.
//!
//! Long-running processes (the fleet scheduler, `profile_report
//! --serve`) are exactly what a scrape target is for: Prometheus polls
//! `GET /metrics` on its own schedule while the process works. The
//! server is one background thread with one short-lived connection at a
//! time — a scrape is a few kilobytes of text once every scrape
//! interval, so an accept loop with blocking I/O is the whole protocol
//! stack this needs. No keep-alive, no TLS, no routing beyond
//! `/metrics` (and `/`, for humans poking with a browser).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::MetricsRegistry;

/// A running scrape endpoint. Dropping the handle (or calling
/// [`ScrapeServer::shutdown`]) stops the accept loop and joins the
/// serving thread.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// The address the listener actually bound — with port 0 in the
    /// request this is where the kernel placed us.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of requests served so far.
    pub fn scrapes_served(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; one throwaway
        // connection wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `addr` (use port 0 to let the kernel pick) and serves
/// `GET /metrics` from a background thread until the returned handle is
/// shut down or dropped. Every response is a fresh snapshot of
/// `registry` in Prometheus text exposition format.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: Arc<MetricsRegistry>,
) -> std::io::Result<ScrapeServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let (stop2, scrapes2) = (Arc::clone(&stop), Arc::clone(&scrapes));
    let thread =
        std::thread::Builder::new().name("pim-metrics-scrape".into()).spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = handle(stream, &registry, &scrapes2);
                }
            }
        })?;
    Ok(ScrapeServer { addr, stop, scrapes, thread: Some(thread) })
}

/// Serves one connection: reads the request head, answers `/metrics`
/// (or `/`) with the text exposition, anything else with 404. The
/// scrape counter increments *before* the response bytes go out, so a
/// client that has read the response always observes its own scrape
/// counted.
fn handle(
    stream: TcpStream,
    registry: &MetricsRegistry,
    scrapes: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let mut request_line = String::new();
    if reader.read_line(&mut request_line)? == 0 {
        // No request at all — the shutdown wake-up connection. Not a
        // scrape; don't count or answer it.
        return Ok(());
    }
    // Drain the header block; the response does not depend on it.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }

    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = if path == "/metrics" || path == "/" {
        let text = crate::export::prometheus_text(&registry.snapshot());
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", text)
    } else {
        ("404 Not Found", "text/plain; charset=utf-8", "not found; scrape /metrics\n".to_string())
    };

    scrapes.fetch_add(1, Ordering::Relaxed);
    let mut out = stream;
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// One full scrape over a real socket — the "curl one scrape" smoke
    /// test: bind an ephemeral port, GET /metrics, check the exposition.
    #[test]
    fn serves_one_scrape_over_tcp() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("scrape_smoke_total", &[("src", "test")]).add(3);

        let server = serve("127.0.0.1:0", registry).expect("bind ephemeral port");
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();

        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "bad status: {response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("# TYPE scrape_smoke_total counter"));
        assert!(response.contains("scrape_smoke_total{src=\"test\"} 3"));
        assert!(server.scrapes_served() >= 1);
        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_a_404() {
        let server = serve("127.0.0.1:0", Arc::default()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "bad status: {response}");
        server.shutdown();
    }
}
