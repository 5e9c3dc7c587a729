//! The serve daemon under slow, idle, pipelining and hostile clients,
//! through its public API only: a client that never reads stalls nobody
//! else, `shutdown` ends the daemon at once, even while other clients
//! stay connected, a pipelining client is slowed but never dropped, a
//! round trip costs microseconds rather than a delayed ACK, an over-long
//! or non-UTF-8 line gets one error reply on both transports while the
//! session goes on, and so does a line asking for more than the daemon
//! can hold.
//!
//! Every wait is bounded, so a daemon that blocks fails the test instead
//! of hanging it.

use redspot_core::serve::{serve_stdio, Daemon};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest any single read may block before the test fails.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A daemon serving on an ephemeral loopback port.
struct Running {
    addr: SocketAddr,
    done: mpsc::Receiver<bool>,
    thread: JoinHandle<()>,
}

impl Running {
    fn start() -> Running {
        let daemon = Daemon::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = daemon.local_addr().expect("bound address");
        let (tx, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(daemon.run());
        });
        Running { addr, done, thread }
    }

    /// `run`'s result, which must arrive within `limit`.
    fn finished_within(self, limit: Duration) -> bool {
        let clean = self
            .done
            .recv_timeout(limit)
            .unwrap_or_else(|e| panic!("daemon still running {limit:?} after shutdown: {e}"));
        self.thread.join().expect("daemon thread");
        clean
    }
}

/// One line-JSON client; every read gives up after [`READ_TIMEOUT`].
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Send raw bytes as they are.
    fn send_raw(&mut self, bytes: &[u8]) {
        self.reader.get_mut().write_all(bytes).expect("send");
    }

    /// Send one request line in one write.
    fn send(&mut self, request: &str) {
        self.send_raw(format!("{request}\n").as_bytes());
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("no reply within {READ_TIMEOUT:?}: {e}"));
        assert!(n > 0, "daemon closed the connection");
        reply
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.send(request);
        self.recv()
    }
}

fn open(market: &str) -> String {
    format!(r#"{{"req":"open","market":"{market}","zones":1,"bid":810}}"#)
}

fn stats(market: &str) -> String {
    format!(r#"{{"req":"stats","market":"{market}"}}"#)
}

const SHUTDOWN: &str = r#"{"req":"shutdown"}"#;

/// The hostile lines both transports must survive: 2 MiB with no newline
/// until its end, and two bytes that are not UTF-8.
fn hostile_lines() -> [Vec<u8>; 2] {
    let mut long = vec![b'x'; 2 << 20];
    long.push(b'\n');
    [long, b"\xff\xfe\n".to_vec()]
}

/// A subscriber that never reads is fed 64 KiB notices by another
/// client's ingests. Each of that client's round trips still returns at
/// once; the subscriber is disconnected once its queue is full, so it
/// reads a prefix of its notices and then the end of the stream.
#[test]
fn a_client_that_never_reads_stalls_nobody_else() {
    const SPIKES: usize = 200;
    let daemon = Running::start();
    // Notices echo the market name, so each is a 64 KiB line.
    let market = "x".repeat(64 << 10);
    let mut feeder = Client::connect(daemon.addr);
    assert!(feeder.roundtrip(&open(&market)).contains("\"ok\":true"));
    let mut sink = Client::connect(daemon.addr);
    let subscribed = sink.roundtrip(&format!(r#"{{"req":"subscribe","market":"{market}"}}"#));
    assert!(subscribed.contains("\"ok\":true"));

    // Alternate a price above the bid and one under it, so every other
    // row is a fresh crossing and one notice for the sink.
    let mut slowest = Duration::ZERO;
    for row in 0..2 * SPIKES as u64 {
        let price = if row % 2 == 0 { 5_000 } else { 270 };
        let ingest = format!(
            r#"{{"req":"ingest","market":"{market}","at":{},"prices":[{price}]}}"#,
            row * 300
        );
        let t = Instant::now();
        assert!(feeder.roundtrip(&ingest).contains("\"ok\":true"));
        slowest = slowest.max(t.elapsed());
    }
    assert!(
        slowest < Duration::from_secs(1),
        "an ingest round trip took {slowest:?}"
    );
    let t = Instant::now();
    assert!(feeder.roundtrip(&stats(&market)).contains("\"ok\":true"));
    assert!(
        t.elapsed() < Duration::from_millis(100),
        "{:?}",
        t.elapsed()
    );

    // The sink gets fewer notices than were raised, then the stream ends.
    let mut received = 0usize;
    let mut chunk = vec![0; 1 << 16];
    loop {
        match sink.reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => received += n,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the sink was never disconnected: {e}"),
        }
    }
    let raised = SPIKES * market.len();
    assert!(
        received < raised,
        "{received} bytes of {raised} reached the sink"
    );

    assert!(feeder.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(daemon.finished_within(READ_TIMEOUT));
}

/// `shutdown` ends the daemon while an idle client and a client that
/// sends without ever reading are still connected.
#[test]
fn shutdown_ends_the_daemon_with_other_clients_connected() {
    let daemon = Running::start();
    let mut idle = Client::connect(daemon.addr);
    assert!(idle.roundtrip(&open("m")).contains("\"ok\":true"));

    // This client pipelines requests for 64 KiB replies and never reads
    // them. About 4 MiB of replies fill the loopback socket buffers, after
    // which the daemon's writer for it blocks in `write` and, once the
    // queue is full too, its reader waits for room.
    let market = "y".repeat(64 << 10);
    let mut deaf = Client::connect(daemon.addr);
    assert!(deaf.roundtrip(&open(&market)).contains("\"ok\":true"));
    let mut deaf_out = deaf.reader.get_ref().try_clone().expect("clone");
    let (sent, sent_enough) = mpsc::channel();
    let sender = std::thread::spawn(move || {
        let request = format!("{}\n", stats(&market));
        for i in 0.. {
            if i == 64 {
                let _ = sent.send(());
            }
            if deaf_out.write_all(request.as_bytes()).is_err() {
                break;
            }
        }
    });
    sent_enough
        .recv_timeout(READ_TIMEOUT)
        .expect("the daemon reads pipelined requests");

    let mut requester = Client::connect(daemon.addr);
    assert!(requester
        .roundtrip(SHUTDOWN)
        .contains("\"req\":\"shutdown\""));
    assert!(daemon.finished_within(READ_TIMEOUT), "no request failed");
    let mut rest = String::new();
    assert_eq!(
        idle.reader
            .read_line(&mut rest)
            .expect("idle client sees EOF"),
        0
    );
    // The sender may still be blocked in `write`: end it from this side.
    let _ = deaf.reader.get_ref().shutdown(std::net::Shutdown::Both);
    sender.join().expect("deaf sender");
}

/// A client that pipelines 5,000 requests from one thread and reads on
/// another gets every reply, in order, and stays connected.
#[test]
fn a_pipelining_client_gets_every_reply_in_order() {
    const MARKETS: usize = 100;
    const REQUESTS: usize = 5_000;
    let daemon = Running::start();
    let mut client = Client::connect(daemon.addr);
    for m in 0..MARKETS {
        assert!(client
            .roundtrip(&open(&format!("m{m}")))
            .contains("\"ok\":true"));
    }
    let mut out = client.reader.get_ref().try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        for i in 0..REQUESTS {
            let line = format!("{}\n", stats(&format!("m{}", i % MARKETS)));
            out.write_all(line.as_bytes()).expect("pipelined send");
        }
    });
    for i in 0..REQUESTS {
        let reply = client.recv();
        let want = format!("\"market\":\"m{}\"", i % MARKETS);
        assert!(reply.contains(&want), "reply {i} out of order: {reply}");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    writer.join().expect("pipelining writer");
    assert!(client.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(daemon.finished_within(READ_TIMEOUT));
}

/// Fifty sequential round trips on one connection take well under a
/// second: no reply waits for the client's delayed ACK (about 40 ms each).
#[test]
fn sequential_round_trips_pay_no_delayed_ack() {
    let daemon = Running::start();
    let mut client = Client::connect(daemon.addr);
    assert!(client.roundtrip(&open("m")).contains("\"ok\":true"));
    let t = Instant::now();
    for _ in 0..50 {
        assert!(client.roundtrip(&stats("m")).contains("\"ok\":true"));
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "50 round trips took {took:?}"
    );
    assert!(client.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(daemon.finished_within(READ_TIMEOUT));
}

/// Over TCP, each hostile line gets one `ok:false` reply and the next
/// request on the same connection is answered; the daemon then exits
/// dirty.
#[test]
fn tcp_answers_hostile_lines_and_goes_on() {
    let daemon = Running::start();
    let mut client = Client::connect(daemon.addr);
    for (i, hostile) in hostile_lines().iter().enumerate() {
        client.send_raw(hostile);
        assert!(client.recv().contains("\"ok\":false"));
        let reply = client.roundtrip(&open(&format!("m{i}")));
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    assert!(client.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(
        !daemon.finished_within(READ_TIMEOUT),
        "failed lines set the error flag"
    );
}

/// Lines that ask the daemon to hold more than it can: a trillion-zone
/// market, whose zone list alone would be an 8 TB allocation that aborts
/// the process, and markets whose start or step carries the watermark
/// past the horizon, where it would overflow. Each gets one `ok:false`
/// while another client is connected, whose next round trip still
/// succeeds. An abort would take the test binary with it, so this cannot
/// pass by accident.
#[test]
fn lines_asking_for_too_much_are_refused_and_serving_goes_on() {
    let daemon = Running::start();
    let mut bystander = Client::connect(daemon.addr);
    assert!(bystander.roundtrip(&open("calm")).contains("\"ok\":true"));
    let mut hostile = Client::connect(daemon.addr);
    for line in [
        r#"{"req":"open","market":"m","zones":1000000000000}"#,
        r#"{"req":"open","market":"s","zones":1,"start":18446744073709551615}"#,
        r#"{"req":"open","market":"t","zones":1,"step":18446744073709551615}"#,
    ] {
        let reply = hostile.roundtrip(line);
        assert!(reply.contains("\"ok\":false"), "{line} -> {reply}");
    }
    let reply = bystander.roundtrip(&stats("calm"));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(hostile.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(
        !daemon.finished_within(READ_TIMEOUT),
        "refused lines set the error flag"
    );
}

/// `run` returns as soon as `shutdown` is answered: it does not wait out
/// the rest of the sentinel's 200 ms sweep period.
#[test]
fn shutdown_right_after_start_returns_at_once() {
    let daemon = Running::start();
    let mut client = Client::connect(daemon.addr);
    assert!(client.roundtrip(SHUTDOWN).contains("\"req\":\"shutdown\""));
    assert!(daemon.finished_within(Duration::from_millis(100)));
}

/// Over stdio, the same lines each get one `ok:false` reply, the session
/// goes on, and it ends dirty instead of with an I/O error.
#[test]
fn stdio_answers_hostile_lines_and_goes_on() {
    for (i, hostile) in hostile_lines().iter().enumerate() {
        let mut script = hostile.clone();
        script.extend_from_slice(format!("{}\n", open(&format!("m{i}"))).as_bytes());
        let mut out = Vec::new();
        let clean = serve_stdio(script.as_slice(), &mut out).expect("the session runs");
        assert!(!clean, "a failed line ends the session dirty");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 2, "{text}");
        assert!(replies[0].contains("\"ok\":false"), "{text}");
        assert!(replies[1].contains("\"ok\":true"), "{text}");
    }
}
