//! The server under test: `solve serve --tcp 127.0.0.1:0` in its own process,
//! with its default configuration.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The stderr line `solve serve` prints once it listens.
const LISTENING: &str = "serving JSON lines on tcp://";

/// A running `solve serve` process. Dropping it kills and reaps the process;
/// [`Server::stop`] shuts it down the documented way.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until it reports its listening address.
    pub fn spawn(binary: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut server = Server {
            child,
            stdin,
            stderr,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stderr.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server exited before listening",
                ));
            }
            if let Some(addr) = line.trim().strip_prefix(LISTENING) {
                server.addr = addr
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, line.clone()))?;
                return Ok(server);
            }
        }
    }

    /// Opens the load connection: `TCP_NODELAY`, so every request line
    /// leaves in the write that carries it.
    pub fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// The server's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes the server's stdin (its stop signal), waits for it to drain
    /// and exit, and returns what it wrote to stderr after listening.
    pub fn stop(mut self) -> io::Result<String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(rest)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op after `stop`; otherwise the process must not outlive us.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Spawns a server, connects, and sends `probe`: the returned duration runs
/// from the spawn call until the probe's response line arrived.
pub fn start_and_probe(
    binary: &Path,
    probe: &[u8],
) -> io::Result<(Server, TcpStream, Duration, Vec<u8>)> {
    let start = Instant::now();
    let server = Server::spawn(binary)?;
    let mut stream = server.connect()?;
    stream.write_all(probe)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut answer = Vec::new();
    reader.read_until(b'\n', &mut answer)?;
    let elapsed = start.elapsed();
    if reader.buffer().is_empty() && answer.ends_with(b"\n") {
        Ok((server, stream, elapsed, answer))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "probe answer was not exactly one line",
        ))
    }
}
