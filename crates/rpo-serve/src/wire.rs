//! Wire frontends: newline-delimited JSON over any `BufRead`/`Write` pair
//! (stdin/stdout) and over TCP.
//!
//! A connection is a reader and a writer thread around one outbox. The
//! reader parses request lines and submits them; whoever settles a request
//! (a worker, or the reader itself for a rejection) encodes the response
//! line into the outbox and never touches the output. The writer owns the
//! output and sends everything queued in one `write_all`, so under load
//! many responses share one write, and a peer that stops reading stalls
//! only its own connection.

use crate::proto::{ResponseStatus, ServeRequest, ServeResponse};
use crate::service::SolverService;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line accepted, newline excluded: about ten times the
/// largest request seen in practice. A longer line is answered `invalid`
/// (id 0) and skipped without being buffered.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Encoded responses one connection may hold for its writer (over ten
/// thousand typical responses). A response that would pass it abandons the
/// connection: reading stops, a TCP socket is shut down, and this and every
/// later response to it are dropped and counted in `serve.responses_dropped`.
pub const MAX_OUTBOX_BYTES: usize = 8 << 20;

/// Connections a [`TcpServer`] serves at once (each is two threads). One
/// more gets a single `overloaded` line and is closed.
pub const MAX_CONNECTIONS: usize = 256;

/// The send timeout of accepted sockets: a write to a peer that does not
/// read fails after this long without progress, and the writer abandons the
/// connection. A write that first sent part of its batch returns that part
/// when the time is up, so giving up can take up to twice this.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Serves one JSON-lines connection: reads a request per line from
/// `reader` and writes one response line per request to `writer`, on a
/// writer thread of its own. Responses are correlated by `id`, not by order:
/// a cache hit overtakes an earlier queued solve.
///
/// Returns once the reader has hit EOF and every response to this
/// connection's requests has been written, or dropped if the connection
/// was abandoned (its outbox passed [`MAX_OUTBOX_BYTES`] or a write
/// failed). The responses come from the service's workers, so with a
/// `workers: 0` service another thread must process the queue meanwhile.
///
/// Each bad line gets one [`ResponseStatus::Invalid`] response with id 0,
/// and reading carries on: a line that is not UTF-8, does not parse (nesting
/// deeper than [`serde_json::MAX_DEPTH`] included) or is longer than
/// [`MAX_LINE_BYTES`]. Blank lines are ignored.
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    service: &SolverService,
    reader: R,
    writer: W,
) -> io::Result<()> {
    serve_connection(service, reader, writer, Box::new(|| {}))
}

/// [`serve_lines`], with `hang_up` called once if the connection is
/// abandoned (a TCP connection shuts its socket down, which also unblocks
/// its reader and writer).
fn serve_connection<R: BufRead, W: Write + Send + 'static>(
    service: &SolverService,
    mut reader: R,
    writer: W,
    hang_up: Box<dyn Fn() + Send + Sync>,
) -> io::Result<()> {
    let outbox = Arc::new(Outbox {
        queued: AtomicUsize::new(0),
        abandoned: AtomicBool::new(false),
        hang_up,
    });
    let (lines, outgoing) = mpsc::channel();
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || outbox.run_writer(writer, &outgoing))
    };
    // The channel closes once the reader and every responder holding one of
    // its senders are done, which ends the writer.
    let read = read_requests(service, &mut reader, &outbox, lines);
    writer
        .join()
        .map_err(|_| io::Error::other("the response writer panicked"))?;
    read
}

/// Reads request lines until EOF (or abandonment) and submits each, with a
/// responder that pushes into `outbox` through its own clone of `lines`.
fn read_requests<R: BufRead>(
    service: &SolverService,
    reader: &mut R,
    outbox: &Arc<Outbox>,
    lines: mpsc::Sender<Vec<u8>>,
) -> io::Result<()> {
    let mut line = Vec::new();
    while !outbox.is_abandoned() {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if reader.take(limit).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let request = if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Err(_) => Err("request line is not valid UTF-8".to_string()),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => serde_json::from_str::<ServeRequest>(text)
                    .map_err(|error| format!("unparseable request: {error}")),
            }
        };
        match request {
            Ok(request) => {
                let (outbox, lines) = (Arc::clone(outbox), lines.clone());
                service.submit_with(
                    request,
                    Box::new(move |response| outbox.push(&lines, &response)),
                );
            }
            Err(error) => outbox.push(
                &lines,
                &ServeResponse::rejection(0, ResponseStatus::Invalid, error),
            ),
        }
    }
    Ok(())
}

/// What a connection's reader, writer and responders share. The encoded
/// lines themselves travel over a channel to the writer.
struct Outbox {
    /// Bytes sent to the writer and not yet taken by it (meaningless once
    /// the connection is abandoned).
    queued: AtomicUsize,
    /// Set once; nothing is written after it (Release on store, Acquire on
    /// load).
    abandoned: AtomicBool,
    hang_up: Box<dyn Fn() + Send + Sync>,
}

impl Outbox {
    fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    fn abandon(&self) {
        if !self.abandoned.swap(true, Ordering::AcqRel) {
            (self.hang_up)();
        }
    }

    /// Encodes `response` as one line and queues it for the writer, or drops
    /// it if the connection is abandoned or the line would pass
    /// [`MAX_OUTBOX_BYTES`] (which abandons it).
    fn push(&self, lines: &mpsc::Sender<Vec<u8>>, response: &ServeResponse) {
        let line = encode(response);
        let queued = self.queued.fetch_add(line.len(), Ordering::Relaxed) + line.len();
        if queued > MAX_OUTBOX_BYTES {
            self.abandon();
        }
        // The writer holds the receiver until every sender is gone, so a
        // send only fails if the writer died.
        if self.is_abandoned() || lines.send(line).is_err() {
            rpo_obs::counter!("serve.responses_dropped").inc();
        }
    }

    /// The writer thread: sends everything queued in one write until the
    /// channel closes. A failed write abandons the connection; from then on
    /// lines are only counted as dropped.
    fn run_writer<W: Write>(&self, mut writer: W, lines: &mpsc::Receiver<Vec<u8>>) {
        while let Ok(mut batch) = lines.recv() {
            let mut count = 1;
            for line in lines.try_iter() {
                batch.extend_from_slice(&line);
                count += 1;
            }
            self.queued.fetch_sub(batch.len(), Ordering::Relaxed);
            let written = !self.is_abandoned()
                && writer
                    .write_all(&batch)
                    .and_then(|()| writer.flush())
                    .is_ok();
            if !written {
                self.abandon();
                rpo_obs::counter!("serve.responses_dropped").add(count);
            }
        }
    }
}

/// A TCP frontend: accepts connections and serves each like
/// [`serve_lines`], on `TCP_NODELAY` sockets with a [`WRITE_TIMEOUT`],
/// against one shared [`SolverService`]; at most [`MAX_CONNECTIONS`] at once.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting. The service must outlive the server; it is shared via
    /// `Arc` so connection threads can submit after `spawn` returns.
    pub fn spawn(service: Arc<SolverService>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_loop = std::thread::spawn(move || accept(&listener, &service, &accept_stop));
        Ok(TcpServer {
            addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and drains the connections: shuts down the read half
    /// of each live connection, then waits until each has written the
    /// response to every request it admitted (dropped, if the connection was
    /// abandoned) and closed.
    /// The service's workers answer those requests meanwhile, so call this
    /// before [`SolverService::shutdown`], which then drains the service.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept_loop) = self.accept_loop.take() {
            let _ = accept_loop.join();
        }
    }
}

/// One live TCP connection: its socket, for the drain, and its thread.
struct Connection {
    socket: Arc<TcpStream>,
    thread: JoinHandle<()>,
}

/// The accept loop: serves connections until `stop` is set, then drains
/// the live ones.
fn accept(listener: &TcpListener, service: &Arc<SolverService>, stop: &AtomicBool) {
    let mut live: Vec<Connection> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        for finished in live.extract_if(.., |connection| connection.thread.is_finished()) {
            let _ = finished.thread.join();
        }
        if live.len() >= MAX_CONNECTIONS {
            refuse(stream);
        } else if let Ok(connection) = open(service, stream) {
            live.push(connection);
        }
    }
    for connection in &live {
        let _ = connection.socket.shutdown(Shutdown::Read);
    }
    for connection in live {
        let _ = connection.thread.join();
    }
}

/// Starts serving an accepted socket on its own thread.
fn open(service: &Arc<SolverService>, stream: TcpStream) -> io::Result<Connection> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer = stream.try_clone()?;
    let socket = Arc::new(stream);
    let (service, served) = (Arc::clone(service), Arc::clone(&socket));
    let thread = std::thread::spawn(move || {
        let hang_up = Arc::clone(&served);
        let _ = serve_connection(
            &service,
            BufReader::new(&*served),
            writer,
            Box::new(move || {
                let _ = hang_up.shutdown(Shutdown::Both);
            }),
        );
        // Every response is out: close now, though the accept loop still
        // holds a handle until it reaps this thread.
        let _ = served.shutdown(Shutdown::Both);
    });
    Ok(Connection { socket, thread })
}

/// Answers a connection past [`MAX_CONNECTIONS`] with one `overloaded` line
/// and closes it. The line fits the fresh socket's send buffer, so the
/// write does not block.
fn refuse(mut stream: TcpStream) {
    let response = ServeResponse::rejection(
        0,
        ResponseStatus::Overloaded,
        format!("connection limit reached ({MAX_CONNECTIONS} open)"),
    );
    let _ = stream.write_all(&encode(&response));
    let _ = stream.shutdown(Shutdown::Both);
}

/// One response as a JSON line, newline included.
fn encode(response: &ServeResponse) -> Vec<u8> {
    let mut line = serde_json::to_string(response)
        .expect("responses contain no non-finite floats and always serialize")
        .into_bytes();
    line.push(b'\n');
    line
}
