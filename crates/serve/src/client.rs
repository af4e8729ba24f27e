//! Blocking client for the `gmh-serve` protocol.
//!
//! One TCP connection, synchronous request/reply: submit a job and the call
//! returns when the daemon sends the terminal line (`OK`/`BUSY`/`ERR`/
//! `TIMEOUT`). Used by the `gmh-client` binary, the integration tests, and
//! `gmh-benchmark`'s `serve` workload.

use crate::protocol::{job_line, tune_line, Reply};
use gmh_exp::tune::search::AREA_NOT_FINITE;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Sends one raw request line and reads one reply line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including a server-side close).
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.read_line()
    }

    fn request_reply(&mut self, line: &str) -> io::Result<Reply> {
        let raw = self.request_line(line)?;
        Reply::parse(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Submits a job, blocking until its terminal reply.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; protocol-level refusals come back as
    /// [`Reply`] variants, not errors.
    pub fn submit(
        &mut self,
        workload: &str,
        label: Option<&str>,
        seed: Option<u64>,
        overrides: &[(String, u64)],
    ) -> io::Result<Reply> {
        self.request_reply(&job_line(workload, label, seed, overrides, false))
    }

    /// Submits a traced job: the `OK` payload is Chrome-trace JSON of the
    /// sampled per-fetch lifecycle (load it in Perfetto), not the report.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; protocol-level refusals come back as
    /// [`Reply`] variants, not errors.
    pub fn submit_traced(
        &mut self,
        workload: &str,
        label: Option<&str>,
        seed: Option<u64>,
        overrides: &[(String, u64)],
    ) -> io::Result<Reply> {
        self.request_reply(&job_line(workload, label, seed, overrides, true))
    }

    /// Submits a design-space search, blocking until its terminal reply.
    /// The `OK` payload is the tuner's frontier JSON. A non-finite
    /// `max_area_pct`, which JSON cannot carry, draws the daemon's `ERR`
    /// here, without a request.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; protocol-level refusals come back as
    /// [`Reply`] variants, not errors.
    pub fn tune(
        &mut self,
        preset: Option<&str>,
        workloads: &[String],
        max_area_pct: Option<f64>,
        ints: &[(String, u64)],
    ) -> io::Result<Reply> {
        if max_area_pct.is_some_and(|a| !a.is_finite()) {
            return Ok(Reply::Err(AREA_NOT_FINITE.to_string()));
        }
        self.request_reply(&tune_line(preset, workloads, max_area_pct, ints))
    }

    /// Sends a raw (possibly invalid) job line; for robustness tests.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn submit_raw(&mut self, line: &str) -> io::Result<Reply> {
        self.request_reply(line)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.request_reply("PING")
    }

    /// Fetches the metrics exposition text.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed framing.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.send_line("METRICS")?;
        let head = self.read_line()?;
        if head != "METRICS" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected METRICS header, got {head:?}"),
            ));
        }
        let mut text = String::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(text);
            }
            text.push_str(&line);
            text.push('\n');
        }
    }

    /// Requests graceful shutdown; returns once the daemon has drained.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(&mut self) -> io::Result<Reply> {
        self.request_reply("SHUTDOWN")
    }
}
