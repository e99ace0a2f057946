//! The load generator: drives a running server over TCP, one thread per
//! connection, and records every request it sends.
//!
//! Frames are rendered and parsed with the serving crate's own JSON codec,
//! so the client-side cost matches what `fqbert_serve::Client` pays. The
//! generator has its own line reader because it pipelines: it writes
//! several frames before it reads their answers.

use crate::trace::{Span, Tracer};
use crate::workload::{TextSource, Workload};
use fqbert_serve::json::{self, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A line-framed TCP connection to the server.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Writes one frame (and its newline) in a single write, as
    /// `fqbert_serve::Client` does.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut written = 0;
        while written < frame.len() {
            match self.stream.write(&frame[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn buffered_line(&mut self) -> std::io::Result<Option<String>> {
        let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line: Vec<u8> = self.buf.drain(..=pos).collect();
        String::from_utf8(line)
            .map(|s| Some(s.trim_end().to_string()))
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            // The receive timeout expired; the caller checks its deadline.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The next response line, blocking until `deadline` at most.
    /// `Ok(None)` means the deadline passed first.
    pub fn recv(&mut self, deadline: Instant) -> std::io::Result<Option<String>> {
        loop {
            if let Some(line) = self.buffered_line()? {
                return Ok(Some(line));
            }
            match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => self.stream.set_read_timeout(Some(left))?,
                _ => return Ok(None),
            }
            self.fill()?;
        }
    }

    /// Sends one frame and waits for its response.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv(Instant::now() + DRAIN_GRACE)?
            .ok_or_else(|| std::io::Error::new(ErrorKind::TimedOut, "no response"))
    }
}

/// Renders one classification request frame.
pub fn request_frame(id: &str, model: &str, texts: &[String]) -> String {
    Json::obj([
        ("id", Json::str(id)),
        ("model", Json::str(model)),
        (
            "texts",
            Json::Arr(texts.iter().map(|t| Json::str(t.as_str())).collect()),
        ),
    ])
    .render()
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// An error frame (kind), e.g. `server_overloaded`.
    Refused(String),
    /// Answered, but the id, model, result count or logits were wrong.
    Mismatch(String),
    /// Never answered before the generator gave up.
    Unanswered,
}

/// One request as the generator saw it. Times are offsets from the run's
/// epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    pub request: u64,
    pub texts: usize,
    /// When the generator started encoding the request.
    pub start: Duration,
    /// When the server could first read the request: its `start`, or, on a
    /// pipelined connection, the arrival of the answer before it (the
    /// server reads a connection's next frame only after answering the
    /// previous one).
    pub ready: Duration,
    pub recv: Option<Duration>,
    /// End of response decoding and checking.
    pub decoded: Option<Duration>,
    pub outcome: Outcome,
    /// `latency_ms` of the response frame (server receipt → framing).
    pub server_ms: f64,
    pub wait_ms: f64,
    pub flushed: usize,
    pub cached: bool,
    /// Whether an identical `(model, texts)` request was sent earlier in
    /// the run.
    pub repeat: bool,
}

impl Sample {
    /// Client-observed latency from the start of encoding, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv
            .map(|r| r.saturating_sub(self.start).as_secs_f64() * 1e3)
    }
}

/// Reference logits (as `f32` bit patterns) by `(model index, text)`.
pub type References = HashMap<(usize, String), Vec<u32>>;

/// Everything one phase of traffic needs.
pub struct Phase<'a> {
    pub workload: &'a Workload,
    pub addr: SocketAddr,
    pub source: &'a TextSource,
    pub references: &'a References,
    /// Added to request numbers so each phase draws its own texts.
    pub index_base: u64,
    pub duration: Duration,
    pub epoch: Instant,
    pub tracing: bool,
    /// `(model, texts)` keys sent so far in the run, for `repeat_share`.
    pub history: &'a Mutex<std::collections::HashSet<(usize, Vec<String>)>>,
}

/// A phase's requests, its window and its spans.
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub start: Duration,
    pub end: Duration,
    pub spans: Vec<Span>,
    /// Rendered request frames (a bounded sample) for the parse replay.
    pub frames: Vec<String>,
    /// The texts of those frames' requests.
    pub texts: Vec<Vec<String>>,
}

/// How long the generator waits for answers after the window closes.
const DRAIN_GRACE: Duration = Duration::from_secs(20);
/// Time between spawning the connection threads and the window's start.
const THREAD_LEAD: Duration = Duration::from_millis(2);
/// Frames kept for the codec replay.
const KEPT_FRAMES: usize = 256;

struct Planned {
    request: u64,
    model: usize,
    texts: Vec<String>,
}

impl Phase<'_> {
    fn plan(&self, request: u64) -> Planned {
        let w = self.workload;
        let per = w.texts_per_request as u64;
        let texts = (0..per)
            .map(|j| self.source.text(self.index_base + request * per + j))
            .collect();
        Planned {
            request,
            model: (request % w.models.len() as u64) as usize,
            texts,
        }
    }

    /// Runs the phase: a closed loop on each of the workload's connections.
    pub fn run(&self) -> std::io::Result<PhaseResult> {
        // Connect (and see each connection accepted) before the clock
        // starts, so connection set-up is not charged to the first requests.
        let mut conns = Vec::with_capacity(self.workload.connections);
        for _ in 0..self.workload.connections {
            let mut conn = Conn::connect(self.addr)?;
            conn.roundtrip("{\"cmd\":\"ping\"}")?;
            conns.push(conn);
        }
        let start = Instant::now() + THREAD_LEAD;
        let end = start + self.duration;
        let counter = AtomicU64::new(0);
        let outcomes: Vec<std::io::Result<ConnResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .map(|mut conn| {
                    let counter = &counter;
                    scope.spawn(move || {
                        sleep_until(start);
                        self.closed_loop(&mut conn, counter, end)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator thread panicked"))
                .collect()
        });
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        let mut frames = Vec::new();
        let mut texts = Vec::new();
        for outcome in outcomes {
            let r = outcome?;
            samples.extend(r.samples);
            spans.push(r.tracer.into_spans());
            frames.extend(r.frames);
            texts.extend(r.texts);
        }
        let spans = crate::trace::assign_ids(spans);
        samples.sort_by_key(|s| s.request);
        let history = &mut *self.history.lock().expect("history lock poisoned");
        for s in &mut samples {
            let planned = self.plan(s.request);
            s.repeat = !history.insert((planned.model, planned.texts));
        }
        Ok(PhaseResult {
            samples,
            start: start - self.epoch,
            end: end - self.epoch,
            spans,
            frames,
            texts,
        })
    }

    /// Keeps the workload's number of requests in flight on `conn` until
    /// `end`, then collects the outstanding answers.
    fn closed_loop(
        &self,
        conn: &mut Conn,
        counter: &AtomicU64,
        end: Instant,
    ) -> std::io::Result<ConnResult> {
        let mut out = ConnResult::new(self.tracing);
        let give_up = end + DRAIN_GRACE;
        loop {
            while out.inflight.len() < self.workload.in_flight && Instant::now() < end {
                let planned = self.plan(counter.fetch_add(1, Ordering::Relaxed));
                let sent = out.send(self, conn, &planned)?;
                out.inflight.push_back((planned, sent));
            }
            if out.inflight.is_empty() {
                break;
            }
            match conn.recv(give_up)? {
                Some(line) => out.receive(self, &line)?,
                None => {
                    out.abandon(self);
                    break;
                }
            }
        }
        Ok(out)
    }

    fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }
}

fn sleep_until(t: Instant) {
    if let Some(left) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

struct ConnResult {
    samples: Vec<Sample>,
    inflight: VecDeque<(Planned, Sent)>,
    /// Arrival of the connection's latest answer.
    last_recv: Option<Instant>,
    tracer: Tracer,
    frames: Vec<String>,
    texts: Vec<Vec<String>>,
}

struct Sent {
    encode_start: Instant,
    sent: Instant,
}

impl ConnResult {
    fn new(tracing: bool) -> Self {
        Self {
            samples: Vec::new(),
            inflight: VecDeque::new(),
            last_recv: None,
            tracer: Tracer::new(tracing),
            frames: Vec::new(),
            texts: Vec::new(),
        }
    }

    fn send(
        &mut self,
        phase: &Phase<'_>,
        conn: &mut Conn,
        planned: &Planned,
    ) -> std::io::Result<Sent> {
        let encode_start = Instant::now();
        let model = phase.workload.models[planned.model].name;
        let line = request_frame(&format!("r{}", planned.request), model, &planned.texts);
        conn.send(&line)?;
        let sent = Instant::now();
        if self.frames.len() < KEPT_FRAMES {
            self.frames.push(line);
            self.texts.push(planned.texts.clone());
        }
        Ok(Sent { encode_start, sent })
    }

    /// Decodes and checks the response to the oldest in-flight request.
    fn receive(&mut self, phase: &Phase<'_>, line: &str) -> std::io::Result<()> {
        let recv = Instant::now();
        let Some((planned, sent)) = self.inflight.pop_front() else {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "response without a request",
            ));
        };
        let ready = self
            .last_recv
            .map_or(sent.encode_start, |last| last.max(sent.encode_start));
        self.last_recv = Some(recv);
        let mut sample = Sample {
            request: planned.request,
            texts: planned.texts.len(),
            start: phase.at(sent.encode_start),
            ready: phase.at(ready),
            recv: Some(phase.at(recv)),
            decoded: None,
            outcome: Outcome::Ok,
            server_ms: 0.0,
            wait_ms: 0.0,
            flushed: 0,
            cached: false,
            repeat: false,
        };
        sample.outcome = check_response(phase, &planned, line, &mut sample);
        let decoded = Instant::now();
        sample.decoded = Some(phase.at(decoded));
        if self.tracer.enabled() {
            let root = self.tracer.span(
                planned.request,
                None,
                "client.request",
                phase.at(sent.encode_start),
                phase.at(decoded),
            );
            self.tracer.span(
                planned.request,
                Some(root),
                "client.encode_send",
                phase.at(sent.encode_start),
                phase.at(sent.sent),
            );
            self.tracer.span(
                planned.request,
                Some(root),
                "client.await",
                phase.at(sent.sent),
                phase.at(recv),
            );
            self.tracer.span(
                planned.request,
                Some(root),
                "client.decode_check",
                phase.at(recv),
                phase.at(decoded),
            );
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Records every still-unanswered request as a failure.
    fn abandon(&mut self, phase: &Phase<'_>) {
        while let Some((planned, sent)) = self.inflight.pop_front() {
            self.samples.push(Sample {
                request: planned.request,
                texts: planned.texts.len(),
                start: phase.at(sent.encode_start),
                ready: phase.at(sent.encode_start),
                recv: None,
                decoded: None,
                outcome: Outcome::Unanswered,
                server_ms: 0.0,
                wait_ms: 0.0,
                flushed: 0,
                cached: false,
                repeat: false,
            });
        }
    }
}

/// Checks id, model and result count of every response, and the logits of
/// every text in the reference sample bit for bit.
fn check_response(
    phase: &Phase<'_>,
    planned: &Planned,
    line: &str,
    sample: &mut Sample,
) -> Outcome {
    let value = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return Outcome::Mismatch(format!("unparsable response: {e}")),
    };
    if let Some(error) = value.get("error") {
        let kind = error
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        return Outcome::Refused(kind.to_string());
    }
    let id = format!("r{}", planned.request);
    let model = phase.workload.models[planned.model].name;
    if value.get("id").and_then(Json::as_str) != Some(id.as_str()) {
        return Outcome::Mismatch(format!("response id is not {id}"));
    }
    if value.get("model").and_then(Json::as_str) != Some(model) {
        return Outcome::Mismatch(format!("response to {id} names another model than {model}"));
    }
    let results = value.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    if results.len() != planned.texts.len() {
        return Outcome::Mismatch(format!(
            "{id}: {} results for {} texts",
            results.len(),
            planned.texts.len()
        ));
    }
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    sample.server_ms = num(&value, "latency_ms");
    if let Some(batch) = value.get("batch") {
        sample.wait_ms = num(batch, "wait_ms");
        sample.flushed = num(batch, "flushed") as usize;
    }
    sample.cached = matches!(value.get("cached"), Some(Json::Bool(true)));
    for (text, result) in planned.texts.iter().zip(results) {
        let Some(expected) = phase.references.get(&(planned.model, text.clone())) else {
            continue;
        };
        let served: Vec<u32> = result
            .get("logits")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|x| (x.as_f64().unwrap_or(f64::NAN) as f32).to_bits())
            .collect();
        if &served != expected {
            return Outcome::Mismatch(format!("{id}: logits differ from the direct engine call"));
        }
    }
    Outcome::Ok
}
