//! The benchmark's own HTTP/1.0 client and open-loop load generator.
//!
//! Framing is done here, not through the stack's `HttpConn`, so the
//! client checks the bytes the proxy actually sent: the status line, and
//! that every `200` carries a `Content-Length` that both frames its body
//! and equals a size the origin published for that file.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wwwcache::httpsim::header_section_end;
use wwwcache::liveserve::LiveStack;
use wwwcache::originserver::FilePopulation;
use wwwcache::simcore::{FileId, SimTime};

use crate::host;
use crate::stats::{stack_cost, Counters};

/// A response read off the wire.
#[derive(Debug)]
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// `Content-Length`, when present.
    pub content_length: Option<u64>,
    /// The `Last-Modified` header value, verbatim.
    pub last_modified: Option<String>,
    /// Round-trip time: request write to last body byte.
    pub rtt: Duration,
    /// The response's wire bytes, when capturing.
    pub wire: Option<Vec<u8>>,
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// How long a response may take before the exchange counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(2);

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connect with Nagle off and a response timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Send `request` (complete wire bytes) and read one response.
    pub fn exchange(&mut self, request: &[u8], capture: bool) -> io::Result<Exchange> {
        let started = Instant::now();
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(end) = header_section_end(&self.buf) {
                break end;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8".into()))?;
        let status = head
            .strip_prefix("HTTP/1.0 ")
            .and_then(|s| s.get(..3))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line in {head:?}")))?;
        let content_length = match header(head, "Content-Length") {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| invalid(format!("bad length {v}")))?,
            ),
            None => None,
        };
        let last_modified = header(head, "Last-Modified").map(str::to_string);
        let body = usize::try_from(content_length.unwrap_or(0))
            .map_err(|_| invalid("Content-Length overflows".into()))?;
        let total = head_end + body;
        while self.buf.len() < total {
            self.fill()?;
        }
        let rtt = started.elapsed();
        let wire = capture.then(|| self.buf[..total].to_vec());
        self.buf.drain(..total);
        Ok(Exchange {
            status,
            content_length,
            last_modified,
            rtt,
            wire,
        })
    }
}

/// `GET path` wire bytes.
pub fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes()
}

/// Whether a `200` for `file` is well framed: it has a `Content-Length`
/// and that length is a size the origin published for the file.
pub fn length_ok(ex: &Exchange, population: &FilePopulation, file: FileId) -> bool {
    ex.status != 200
        || ex.content_length.is_some_and(|len| {
            population
                .get(file)
                .versions()
                .iter()
                .any(|v| v.size == len)
        })
}

/// One scheduled request of an open-loop trial.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// When it is due, from the trial's start.
    pub due: Duration,
    /// Its virtual instant (the stack's clock is advanced to it first).
    pub at: SimTime,
    /// The requested file.
    pub file: FileId,
}

/// What one open-loop trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    /// Requests scheduled.
    pub offered: u64,
    /// Requests answered `200`.
    pub completed: u64,
    /// Transport errors, timeouts, non-`200` answers and requests shed
    /// because the generator fell too far behind.
    pub failed: u64,
    /// `200`s whose framing did not match the origin's sizes.
    pub bad_length: u64,
    /// `(due, sojourn)` per completed request: sojourn runs from the due
    /// time to the last body byte.
    pub sojourn: Vec<(Duration, Duration)>,
    /// How late each request was sent after its due time.
    pub late: Vec<Duration>,
    /// The stack's threads over the trial (all threads minus the
    /// benchmark's own).
    pub stack: Counters,
    /// The client threads over the trial.
    pub clients: Counters,
    /// Allocations on the stack's threads (when counting).
    pub stack_allocs: u64,
}

/// A generator behind its schedule by more than this sheds the rest of
/// its shots: the trial has already failed, and waiting it out would
/// only stretch the run.
const MAX_LAG: Duration = Duration::from_millis(500);

/// Wait for `due` by yielding the processor, never sleeping. A sleeping
/// client wakes about 60 µs late, and on a VM an idle virtual CPU must be
/// woken by the host before any thread runs on it; both were the largest
/// and least repeatable parts of a request's latency. A yielding client
/// keeps its CPU awake and gives it to any stack thread that is ready.
fn wait_until(t0: Instant, due: Duration) {
    while t0.elapsed() < due {
        thread::yield_now();
    }
}

#[derive(Default)]
struct ClientOut {
    completed: u64,
    failed: u64,
    bad_length: u64,
    sojourn: Vec<(Duration, Duration)>,
    late: Vec<Duration>,
}

fn client(
    stack: &LiveStack,
    population: &FilePopulation,
    requests: &[Vec<u8>],
    shots: impl Iterator<Item = Shot>,
    mut conn: Conn,
    t0: Instant,
) -> ClientOut {
    let addr = stack.proxy_addr();
    let mut out = ClientOut::default();
    let mut shed = false;
    for shot in shots {
        if shed {
            out.failed += 1;
            continue;
        }
        wait_until(t0, shot.due);
        let sent = t0.elapsed();
        if sent > shot.due + MAX_LAG {
            shed = true;
            out.failed += 1;
            continue;
        }
        out.late.push(sent - shot.due);
        stack.advance_to(shot.at);
        match conn.exchange(&requests[shot.file.index()], false) {
            Ok(ex) if ex.status == 200 => {
                if !length_ok(&ex, population, shot.file) {
                    out.bad_length += 1;
                }
                out.completed += 1;
                out.sojourn.push((shot.due, t0.elapsed() - shot.due));
            }
            Ok(_) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                // The connection's framing is lost; start over.
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => shed = true,
                }
            }
        }
    }
    out
}

/// Every thread of the process, and the benchmark's own threads (the
/// clients, through the `/proc` directories they resolved from
/// `/proc/thread-self`, and the calling thread).
fn sample(client_dirs: &[PathBuf]) -> (Counters, Vec<Counters>) {
    let all = host::all_threads().unwrap_or_default();
    let mut own: Vec<Counters> = client_dirs.iter().map(|d| host::read_thread(d)).collect();
    own.push(host::this_thread());
    (all, own)
}

fn cost(a: &(Counters, Vec<Counters>), b: &(Counters, Vec<Counters>)) -> Counters {
    let own: Vec<Counters> = b.1.iter().zip(&a.1).map(|(e, s)| e.minus(*s)).collect();
    stack_cost(a.0, b.0, &own)
}

/// Drive `shots` open-loop against `stack` from `clients` threads, each
/// with one connection; shot `i` goes to client `i % clients`. Each
/// client advances the virtual clock to its shot's instant before
/// sending it. `requests[f]` is the wire request for file `f`. With
/// `count_allocs`, the stack's allocations are counted.
pub fn open_loop(
    stack: &LiveStack,
    population: &FilePopulation,
    requests: &[Vec<u8>],
    shots: &[Shot],
    clients: usize,
    count_allocs: bool,
) -> io::Result<Trial> {
    let clients = clients.max(1);
    let conns = (0..clients)
        .map(|_| Conn::connect(stack.proxy_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let dirs: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    // The trial's edges: every client and the main thread meet here to
    // start, to end, and once more so no client exits before the end
    // counters of all threads are read.
    let edge = Barrier::new(clients + 1);
    let mut trial = Trial {
        offered: shots.len() as u64,
        ..Trial::default()
    };
    let mut outs: Vec<ClientOut> = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(k, conn)| {
                let (edge, dirs) = (&edge, &dirs);
                s.spawn(move || {
                    crate::alloc::mark_own_thread();
                    dirs.lock()
                        .expect("no thread panics holding it")
                        .push(host::this_thread_dir());
                    edge.wait();
                    let mine = shots.iter().skip(k).step_by(clients).copied();
                    let out = client(stack, population, requests, mine, conn, Instant::now());
                    edge.wait();
                    // Stay alive until the main thread has read every
                    // thread's end counters.
                    edge.wait();
                    out
                })
            })
            .collect();
        edge.wait();
        let dirs = dirs.lock().expect("no thread panics holding it").clone();
        let first = sample(&dirs);
        if count_allocs {
            crate::alloc::start();
        }
        edge.wait();
        if count_allocs {
            trial.stack_allocs = crate::alloc::stop().others();
        }
        let last = sample(&dirs);
        trial.stack = cost(&first, &last);
        trial.clients = last.1[..clients]
            .iter()
            .zip(&first.1)
            .fold(Counters::default(), |acc, (e, s)| acc.plus(e.minus(*s)));
        edge.wait();
        outs = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
    });
    for o in outs {
        trial.completed += o.completed;
        trial.failed += o.failed;
        trial.bad_length += o.bad_length;
        trial.sojourn.extend(o.sojourn);
        trial.late.extend(o.late);
    }
    Ok(trial)
}
