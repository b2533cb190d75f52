//! Building and driving the real `utcq serve` binary as a child
//! process.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::loadgen::Depth1;

/// How long any single blocking exchange with the server may take.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The cargo target directory: `CARGO_TARGET_DIR` when set, else
/// `.bench_build` under the repository root.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) if !d.is_empty() => root.join(d),
        _ => root.join(".bench_build"),
    }
}

/// Builds the repository's `utcq` binary (release profile) and returns
/// its path. Cargo's own output goes to stderr.
pub fn build_utcq(root: &Path) -> Result<PathBuf, String> {
    let target = target_dir(root);
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "utcq",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building utcq failed ({status})"));
    }
    let bin = target.join("release").join("utcq");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no {}", bin.display()))
    }
}

/// A running `utcq serve` child. Dropping it kills and reaps the
/// process, so no server outlives the benchmark.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    /// The address the server bound.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
    stdout: Option<JoinHandle<()>>,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `bin serve --addr 127.0.0.1:0 <args>` and waits for its
    /// `listening on` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().map(|mut err| {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = err.read_to_string(&mut text);
                text
            })
        });
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr,
            stdout: None,
            spawned,
        };
        let stdout = server
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("server stdout missing")?;
        let mut first = String::new();
        let mut reader = BufReader::new(stdout);
        reader
            .read_line(&mut first)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        // Keep draining stdout so a later print never meets a closed pipe.
        server.stdout = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                let err = server.stop_and_collect();
                format!("server did not start: {first:?} {err}")
            })?;
        server.addr = addr;
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// One request on a fresh depth-1 connection.
    pub fn request(&self, line: &str) -> Result<String, String> {
        let mut c = Depth1::connect(self.addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        c.round_trip(line)
            .map(|(r, _)| r)
            .map_err(|e| e.to_string())
    }

    /// Asks the server to shut down, waits for it to exit, and returns
    /// its stderr.
    pub fn shutdown(mut self) -> Result<String, String> {
        let ack = self.request(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut status = None;
        if let Some(child) = self.child.as_mut() {
            while Instant::now() < deadline {
                match child.try_wait() {
                    Ok(Some(s)) => {
                        status = Some(s);
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }
        let err = self.stop_and_collect();
        match (ack, status) {
            (Ok(_), Some(s)) if s.success() => Ok(err),
            (ack, s) => Err(format!(
                "server shutdown failed: ack {ack:?}, exit {s:?}; stderr: {err}"
            )),
        }
    }

    /// `kill -9`: the process dies with no chance to flush anything.
    pub fn kill9(mut self) -> String {
        self.stop_and_collect()
    }

    /// Kills (if still running) and reaps the child, then joins the
    /// stderr reader.
    fn stop_and_collect(&mut self) -> String {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_collect();
    }
}
