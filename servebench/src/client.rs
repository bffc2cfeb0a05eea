//! The load client: one connection, a sender thread and a receiver thread.
//!
//! Request lines are serialized before a phase starts and each goes out in
//! one `write_all` on the `TCP_NODELAY` socket. The receiver only stores
//! bytes and the arrival time of every newline; responses are parsed after
//! the phase, so parsing never delays the clock reading of a later line.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the receiver waits for outstanding responses after the last
/// byte arrived before it declares them missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll interval of the receiver's blocking reads.
const READ_POLL: Duration = Duration::from_millis(20);

/// Raw result of one phase.
pub struct Phase {
    /// When the phase started (the origin of the send schedule).
    pub start: Instant,
    /// Actual send time of each request line that was sent, in send order.
    pub sent_at: Vec<Instant>,
    /// Every received byte.
    pub received: Vec<u8>,
    /// For each response line: the byte range end of its newline in
    /// `received`, and when the read that delivered it returned.
    pub line_ends: Vec<(usize, Instant)>,
}

impl Phase {
    /// The response lines, each with its arrival time.
    pub fn lines(&self) -> impl Iterator<Item = (&[u8], Instant)> {
        let mut begin = 0;
        self.line_ends.iter().map(move |&(end, at)| {
            let line = &self.received[begin..end];
            begin = end + 1;
            (line, at)
        })
    }

    /// Time from the phase start until the last response arrived.
    pub fn wall(&self) -> Duration {
        self.line_ends
            .last()
            .map_or(Duration::ZERO, |&(_, at)| at - self.start)
    }

    /// Responses per second from the phase start until the last send: the
    /// closed loop's steady state, without the drain of the last requests
    /// in flight.
    pub fn steady_rate(&self) -> f64 {
        let Some(&stop) = self.sent_at.last() else {
            return 0.0;
        };
        let answered = self.line_ends.iter().filter(|&&(_, at)| at <= stop).count();
        answered as f64 / (stop - self.start).as_secs_f64()
    }
}

/// Every received byte, and the end offset and arrival time of each line.
type Received = (Vec<u8>, Vec<(usize, Instant)>);

/// Receives response lines until `expected` (published by the sender once
/// it is done) have arrived, or until no byte came for [`DRAIN_TIMEOUT`].
/// Each line posts one credit to `credits`, if given.
fn receive(
    mut stream: TcpStream,
    expected: &AtomicUsize,
    credits: Option<mpsc::Sender<()>>,
) -> io::Result<Received> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut received = Vec::with_capacity(1 << 20);
    let mut line_ends = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_byte = Instant::now();
    while line_ends.len() < expected.load(Ordering::Acquire) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                last_byte = at;
                let offset = received.len();
                received.extend_from_slice(&chunk[..n]);
                for (i, _) in chunk[..n].iter().enumerate().filter(|(_, &b)| b == b'\n') {
                    line_ends.push((offset + i, at));
                    if let Some(credits) = &credits {
                        // The sender may already be done and gone.
                        let _ = credits.send(());
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if expected.load(Ordering::Acquire) != usize::MAX
                    && last_byte.elapsed() >= DRAIN_TIMEOUT
                {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok((received, line_ends))
}

/// Runs one phase: `send` drives the sender on this thread while a receiver
/// thread collects the responses.
fn run_phase(
    stream: &TcpStream,
    credits: bool,
    send: impl FnOnce(&mut TcpStream, Instant, Option<mpsc::Receiver<()>>) -> io::Result<Vec<Instant>>,
) -> io::Result<Phase> {
    let expected = AtomicUsize::new(usize::MAX);
    let (credit_tx, credit_rx) = if credits {
        let (tx, rx) = mpsc::channel();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let read_half = stream.try_clone()?;
    let mut write_half = stream.try_clone()?;
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(read_half, &expected, credit_tx));
        let start = Instant::now();
        let sent = send(&mut write_half, start, credit_rx);
        // Publish the final count even on a send error, so the receiver ends.
        expected.store(sent.as_ref().map_or(0, Vec::len), Ordering::Release);
        let (received, line_ends) = receiver.join().expect("receiver thread panicked")?;
        Ok(Phase {
            start,
            sent_at: sent?,
            received,
            line_ends,
        })
    })
}

/// Open loop: line `i` is due at `start + arrivals[i]`, whatever the
/// server is doing.
pub fn open_loop(
    stream: &TcpStream,
    lines: &[Vec<u8>],
    arrivals: &[Duration],
) -> io::Result<Phase> {
    run_phase(stream, false, |stream, start, _| {
        let mut sent_at = Vec::with_capacity(lines.len());
        for (line, &offset) in lines.iter().zip(arrivals) {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_at.push(Instant::now());
            stream.write_all(line)?;
        }
        Ok(sent_at)
    })
}

/// Closed loop: `window` requests in flight; each response releases the
/// next line until `duration` has passed or the lines run out.
pub fn closed_loop(
    stream: &TcpStream,
    lines: &[Vec<u8>],
    window: usize,
    duration: Duration,
) -> io::Result<Phase> {
    run_phase(stream, true, |stream, start, credits| {
        let credits = credits.expect("closed loop runs with credits");
        let mut sent_at = Vec::with_capacity(lines.len());
        let mut next = lines.iter();
        for line in next.by_ref().take(window) {
            sent_at.push(Instant::now());
            stream.write_all(line)?;
        }
        while start.elapsed() < duration && credits.recv().is_ok() {
            let Some(line) = next.next() else { break };
            sent_at.push(Instant::now());
            stream.write_all(line)?;
        }
        Ok(sent_at)
    })
}
