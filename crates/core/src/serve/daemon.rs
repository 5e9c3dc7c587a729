//! The `redspot serve` TCP daemon: std-lib threads only, no async
//! runtime.
//!
//! One accept loop hands each connection to a reader thread, which
//! starts the connection's writer thread. The writer owns the write half,
//! sets `TCP_NODELAY`, and drains the client's outbound queue: it takes
//! every line queued so far, each already ending in `\n`, and sends them
//! with one `write_all`. A reply therefore leaves in one segment instead
//! of a line and a newline that Nagle's algorithm holds apart until the
//! client's delayed ACK, and a sentinel push never interleaves bytes with
//! a reply.
//!
//! The queue is bounded in bytes ([`QUEUE_BYTES`]), because replies echo
//! client text such as market names, so a line count would not bound
//! memory. Who waits for room:
//!
//! - a client's own reader waits for its own queue to drain. That is
//!   back-pressure on that connection alone, so a pipelining client is
//!   slowed, never dropped;
//! - every other producer (the sentinel, or another client's reader
//!   routing a notice) never waits. If its line does not fit, that
//!   client is disconnected: its socket is shut down, its slot removed
//!   and its subscriptions forgotten.
//!
//! Lookups in the client table hold its lock only to find the slot, so a
//! client that stops reading stalls nobody else.
//!
//! Both transports read requests through one bounded line reader: a line
//! longer than [`MAX_LINE`] bytes, or one that is not UTF-8, gets one
//! `ok:false` reply and sets the sticky error flag, the rest of the line
//! is discarded, and the session goes on. At most [`MAX_CLIENTS`]
//! connections are served at once; finished ones are reaped at each
//! accept, and a connection beyond the cap gets one `ok:false` line and
//! is closed.
//!
//! A dedicated sentinel thread polls every market's control plane on a
//! fixed cadence and routes notices to subscribers; ingests additionally
//! classify synchronously (see [`super::Server`]), so the thread is a
//! safety net for quiet connections, not the primary delivery path.
//!
//! Shutdown: a `shutdown` request leaves the client table, flips the stop
//! flag and pokes the listener with a loopback connect so `accept`
//! returns. Every other client's socket is then shut down, which ends its
//! reader and its writer, even a writer blocked on a client that never
//! reads; the requester's writer still sends its `shutdown` reply.
//! [`Daemon::run`] returns after every writer has flushed, with whether
//! any request line failed, which the CLI turns into a nonzero exit.

use super::proto;
use super::server::{Outcome, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often the sentinel thread sweeps every market, wall-clock.
const SENTINEL_PERIOD: Duration = Duration::from_millis(200);

/// Longest request line either transport accepts, newline excluded.
const MAX_LINE: usize = 1 << 20;

/// Most TCP connections served at once.
const MAX_CLIENTS: usize = 64;

/// Bytes a client's outbound queue holds before producers must wait (its
/// own reader) or disconnect it (anyone else). An empty queue takes one
/// line of any size, so a reply longer than the bound still goes out.
const QUEUE_BYTES: usize = 1 << 20;

/// A bound-but-not-yet-running serve daemon.
pub struct Daemon {
    listener: TcpListener,
    server: Arc<Server>,
}

/// Connected clients by id.
type Slots = Mutex<HashMap<u64, Arc<Slot>>>;

/// One client's outbound side: its queue and a handle on its socket.
struct Slot {
    queue: Mutex<Queue>,
    /// Signalled when the queue gains lines or closes; the writer waits.
    ready: Condvar,
    /// Signalled when the writer takes the queue or it closes; the
    /// client's own reader waits.
    room: Condvar,
    /// Shuts the socket down from any thread.
    socket: TcpStream,
}

struct Queue {
    /// Lines waiting for the writer, each ending in `\n`.
    bytes: Vec<u8>,
    /// No more lines will be taken; the writer ends once `bytes` is empty.
    closed: bool,
}

impl Slot {
    fn new(socket: TcpStream) -> Slot {
        Slot {
            queue: Mutex::new(Queue {
                bytes: Vec::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            socket,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("queue lock poisoned by a panicked serve thread")
    }

    /// Queue `line` and its newline. With `wait`, block until the line
    /// fits; without, return `false` if it does not. A closed queue drops
    /// the line: the client is gone.
    fn push(&self, line: &str, wait: bool) -> bool {
        let mut q = self.lock();
        while !q.closed && !q.bytes.is_empty() && q.bytes.len() + line.len() >= QUEUE_BYTES {
            if !wait {
                return false;
            }
            q = self
                .room
                .wait(q)
                .expect("queue lock poisoned by a panicked serve thread");
        }
        if q.closed {
            return true;
        }
        if q.bytes.is_empty() {
            self.ready.notify_one();
        }
        q.bytes.extend_from_slice(line.as_bytes());
        q.bytes.push(b'\n');
        true
    }

    /// Take no more lines; with `discard`, drop the queued ones too.
    fn close(&self, discard: bool) {
        let mut q = self.lock();
        q.closed = true;
        if discard {
            q.bytes = Vec::new();
        }
        self.ready.notify_one();
        self.room.notify_all();
    }

    /// The writer thread: send every queued line in one write until the
    /// queue is closed and empty, or the peer is gone.
    fn write_out(&self, mut out: TcpStream) {
        let _ = out.set_nodelay(true);
        let mut batch = Vec::new();
        loop {
            {
                let mut q = self.lock();
                while q.bytes.is_empty() && !q.closed {
                    q = self
                        .ready
                        .wait(q)
                        .expect("queue lock poisoned by a panicked serve thread");
                }
                if q.bytes.is_empty() {
                    return;
                }
                std::mem::swap(&mut q.bytes, &mut batch);
            }
            self.room.notify_all();
            if out.write_all(&batch).is_err() {
                self.close(true);
                return;
            }
            batch.clear();
        }
    }
}

fn lock_slots(slots: &Slots) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Slot>>> {
    slots
        .lock()
        .expect("client table poisoned by a panicked serve thread")
}

/// Queue `line` for `client`, dropping it if the client is gone. `own`
/// marks the client's own reader, which waits for room; any other
/// producer disconnects a client whose queue has no room for the line.
fn deliver(slots: &Slots, server: &Server, client: u64, line: &str, own: bool) {
    let Some(slot) = lock_slots(slots).get(&client).cloned() else {
        return;
    };
    if !slot.push(line, own) {
        lock_slots(slots).remove(&client);
        let _ = slot.socket.shutdown(Shutdown::Both);
        slot.close(true);
        server.forget_client(client);
    }
}

impl Daemon {
    /// Bind `addr` (e.g. `127.0.0.1:7071`, or port 0 for an ephemeral
    /// port — tests read the chosen one back via
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: &str) -> std::io::Result<Daemon> {
        Ok(Daemon {
            listener: TcpListener::bind(addr)?,
            server: Arc::new(Server::new()),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared router (tests, embedding).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Serve until a client sends `shutdown`. Returns `true` if every
    /// request line succeeded, `false` if any failed (the CLI maps that
    /// to a nonzero exit).
    pub fn run(self) -> bool {
        let stop = Arc::new(AtomicBool::new(false));
        let slots: Arc<Slots> = Arc::default();

        // Sentinel: periodic sweep over every market, pushing notices to
        // subscribers even when no ingest is in flight. Between sweeps it
        // waits on a channel nothing sends on; dropping the sender below
        // ends the wait at once, so `run` never waits out a period.
        let (stop_sentinel, period) = mpsc::channel::<()>();
        let sentinel = {
            let server = Arc::clone(&self.server);
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || loop {
                for p in server.route_notices(&server.registry().poll_all()) {
                    deliver(&slots, &server, p.client, &p.line, false);
                }
                if period.recv_timeout(SENTINEL_PERIOD) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            })
        };

        let addr = self.listener.local_addr().ok();
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for (client, conn) in (1u64..).zip(self.listener.incoming()) {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let (done, live): (Vec<_>, Vec<_>) = readers.into_iter().partition(|r| r.is_finished());
            readers = live;
            for r in done {
                let _ = r.join();
            }
            if readers.len() >= MAX_CLIENTS {
                let refusal =
                    proto::error_line(&format!("too many connections (at most {MAX_CLIENTS})"));
                let _ = (&stream).write_all(format!("{refusal}\n").as_bytes());
                let _ = stream.shutdown(Shutdown::Write);
                continue;
            }
            let (Ok(socket), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
                continue;
            };
            let slot = Arc::new(Slot::new(socket));
            lock_slots(&slots).insert(client, Arc::clone(&slot));
            let server = Arc::clone(&self.server);
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let writer = {
                    let slot = Arc::clone(&slot);
                    std::thread::spawn(move || slot.write_out(write_half))
                };
                let mut shutdown = false;
                let input = BufReader::new(stream);
                let _ = serve_lines(&server, client, input, &stop, |out| {
                    if !out.reply.is_empty() {
                        deliver(&slots, &server, client, &out.reply, true);
                    }
                    for p in out.pushes {
                        deliver(&slots, &server, p.client, &p.line, p.client == client);
                    }
                    shutdown = out.shutdown;
                    Ok(!shutdown)
                });
                slot.close(false);
                if shutdown {
                    // Leave the table first, so the shutdown sweep below
                    // spares this client's reply.
                    lock_slots(&slots).remove(&client);
                    stop.store(true, Ordering::SeqCst);
                    // Poke the accept loop awake so it observes the flag.
                    if let Some(addr) = addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
                // Any other client stays in the table until its writer
                // has drained, so the sweep can still end a writer blocked
                // on a peer that stopped reading.
                let _ = writer.join();
                lock_slots(&slots).remove(&client);
                server.forget_client(client);
            }));
        }

        stop.store(true, Ordering::SeqCst);
        drop(stop_sentinel);
        for slot in lock_slots(&slots).values() {
            let _ = slot.socket.shutdown(Shutdown::Both);
        }
        for r in readers {
            let _ = r.join();
        }
        let _ = sentinel.join();
        !self.server.had_errors()
    }
}

/// Read request lines from `input` until EOF, until `stop` is set or until
/// `answer` returns `false`, handing each line's outcome to `answer`. A
/// line longer than [`MAX_LINE`] or not UTF-8 is answered with a protocol
/// error.
fn serve_lines(
    server: &Server,
    client: u64,
    mut input: impl BufRead,
    stop: &AtomicBool,
    mut answer: impl FnMut(Outcome) -> std::io::Result<bool>,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf)? {
        // The shutdown sweep may have cut this line short.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let outcome = match line {
            Ok(text) => server.handle_line(client, text),
            Err(why) => server.fail(&why),
        };
        if !answer(outcome)? {
            break;
        }
    }
    Ok(())
}

/// Read one line into `buf`, without its `\n`. `None` at end of input;
/// `Some(Err(why))` for a line longer than [`MAX_LINE`], whose bytes past
/// the cap are consumed but not kept, or one that is not UTF-8.
fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let (mut seen, mut too_long) = (false, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !seen {
                return Ok(None);
            }
            break;
        }
        seen = true;
        let (body, used, ended) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (&chunk[..i], i + 1, true),
            None => (chunk, chunk.len(), false),
        };
        if !too_long && buf.len() + body.len() > MAX_LINE {
            too_long = true;
            *buf = Vec::new();
        }
        if !too_long {
            buf.extend_from_slice(body);
        }
        input.consume(used);
        if ended {
            break;
        }
    }
    Ok(Some(if too_long {
        Err(format!("request line is longer than {MAX_LINE} bytes"))
    } else {
        std::str::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".to_string())
    }))
}

/// Run the serve protocol over stdio: one client (id 0), pushes inline
/// on stdout after the reply that caused them. Returns `true` when every
/// line succeeded. Used by `redspot serve --stdio` and the CI smoke job.
pub fn serve_stdio(input: impl std::io::BufRead, output: impl Write) -> std::io::Result<bool> {
    serve_stdio_with(&Server::new(), input, output)
}

/// [`serve_stdio`] against a caller-provided [`Server`] — the CLI uses
/// this to preload markets (`serve --trace FILE --stdio`) before the
/// first client line arrives.
pub fn serve_stdio_with(
    server: &Server,
    input: impl std::io::BufRead,
    mut output: impl Write,
) -> std::io::Result<bool> {
    serve_lines(server, 0, input, &AtomicBool::new(false), |out| {
        if !out.reply.is_empty() {
            writeln!(output, "{}", out.reply)?;
        }
        for p in out.pushes {
            // Single-client transport: only client 0 can be subscribed.
            writeln!(output, "{}", p.line)?;
        }
        output.flush()?;
        Ok(!out.shutdown)
    })?;
    Ok(!server.had_errors())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdio_session_round_trips_and_flags_errors() {
        let script = concat!(
            r#"{"req":"open","market":"m","zones":1,"bid":810}"#,
            "\n",
            r#"{"req":"subscribe","market":"m"}"#,
            "\n",
            r#"{"req":"ingest","market":"m","at":0,"prices":[270]}"#,
            "\n",
            r#"{"req":"ingest","market":"m","at":300,"prices":[2000]}"#,
            "\n",
            r#"{"req":"shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let clean = serve_stdio(script.as_bytes(), &mut out).unwrap();
        assert!(clean);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // open, subscribe, ingest, ingest + pushed notice, shutdown.
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[4].contains("\"event\":\"interruption\""), "{text}");
        assert!(lines[4].contains("\"class\":\"out-of-bid\""), "{text}");
        assert!(lines[5].contains("\"req\":\"shutdown\""), "{text}");

        // A malformed line flips the exit to dirty but the session
        // continues to serve.
        let script = concat!(
            r#"{"req":"open","market":"m","zones":1}"#,
            "\n",
            "this is not json\n",
            r#"{"req":"stats","market":"m"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let clean = serve_stdio(script.as_bytes(), &mut out).unwrap();
        assert!(!clean);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("\"rows\":0"), "{text}");
    }

    #[test]
    fn stdio_session_sees_a_preloaded_market() {
        use redspot_trace::Price;

        let traces = redspot_trace::gen::GenConfig::low_volatility(3).generate();
        let server = Server::new();
        let rows = server
            .registry()
            .preload(
                "preload",
                &traces,
                redspot_market::Era::Classic,
                Price::from_millis(810),
                3,
            )
            .unwrap();
        assert!(rows > 0);
        // A client connecting to the preloaded server can query the
        // market without opening or ingesting anything itself.
        let script = concat!(r#"{"req":"stats","market":"preload"}"#, "\n");
        let mut out = Vec::new();
        let clean = serve_stdio_with(&server, script.as_bytes(), &mut out).unwrap();
        assert!(clean);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("\"rows\":{rows}")), "{text}");
    }

    #[test]
    fn line_reader_caps_length_and_checks_utf8_then_goes_on() {
        let mut input = Vec::new();
        input.extend_from_slice(b"first\r\n");
        input.extend(std::iter::repeat_n(b'x', MAX_LINE));
        input.push(b'\n');
        input.extend(std::iter::repeat_n(b'y', MAX_LINE + 1));
        input.extend_from_slice(b"\n\xff\xfe\nlast");
        // A small buffer makes every line span many reads.
        let mut input = BufReader::with_capacity(7, input.as_slice());
        let mut buf = Vec::new();
        let mut next = || {
            read_line(&mut input, &mut buf)
                .unwrap()
                .map(|l| l.map(str::len))
        };
        assert_eq!(next(), Some(Ok(6)), "the \\r is left to the router's trim");
        assert_eq!(next(), Some(Ok(MAX_LINE)), "a line at the cap is kept");
        let long = format!("request line is longer than {MAX_LINE} bytes");
        assert_eq!(next(), Some(Err(long)));
        assert_eq!(next(), Some(Err("request line is not valid UTF-8".into())));
        assert_eq!(next(), Some(Ok(4)), "a last line without a newline");
        assert_eq!(next(), None);
    }

    #[test]
    fn connections_past_the_cap_are_refused_and_finished_ones_reaped() {
        let daemon = Daemon::bind("127.0.0.1:0").unwrap();
        let addr = daemon.local_addr().unwrap();
        let (tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(daemon.run());
        });
        let connect = || {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            BufReader::new(s)
        };
        let first_line = |conn: &mut BufReader<TcpStream>, request: &str| {
            let mut line = String::new();
            conn.get_mut().write_all(request.as_bytes())?;
            conn.read_line(&mut line).map(|_| line)
        };
        let stats = "{\"req\":\"stats\",\"market\":\"m\"}\n";
        let mut held: Vec<_> = (0..MAX_CLIENTS).map(|_| connect()).collect();
        let opened = first_line(
            &mut held[0],
            "{\"req\":\"open\",\"market\":\"m\",\"zones\":1}\n",
        );
        assert!(opened.unwrap().contains("\"ok\":true"));

        // One past the cap: one error line, then the end of the stream.
        let mut refused = connect();
        let mut line = String::new();
        refused.read_line(&mut line).unwrap();
        assert!(line.contains("too many connections"), "{line}");
        line.clear();
        assert_eq!(refused.read_line(&mut line).unwrap(), 0);

        // Once a client leaves, its slot is reaped and a newcomer served;
        // until then a newcomer is refused (or reset, if its request
        // arrives before the refusal closes the socket).
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let newcomer = loop {
            assert!(std::time::Instant::now() < deadline, "never reaped");
            let mut conn = connect();
            if first_line(&mut conn, stats).is_ok_and(|l| l.contains("\"ok\":true")) {
                break conn;
            }
        };
        held.push(newcomer);
        let bye = first_line(&mut held[MAX_CLIENTS - 1], "{\"req\":\"shutdown\"}\n").unwrap();
        assert!(bye.contains("\"req\":\"shutdown\""), "{bye}");
        let clean = done.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(clean, "a refused connection is no failed request line");
        handle.join().unwrap();
    }

    #[test]
    fn tcp_daemon_serves_and_shuts_down() {
        let daemon = Daemon::bind("127.0.0.1:0").unwrap();
        let addr = daemon.local_addr().unwrap();
        let handle = std::thread::spawn(move || daemon.run());

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"req\":\"open\",\"market\":\"m\",\"zones\":1}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        conn.write_all(b"{\"req\":\"shutdown\"}\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"req\":\"shutdown\""), "{reply}");
        assert!(handle.join().unwrap(), "clean session exits clean");
    }
}
