//! Transport frontends: JSONL batches over any `Read`/`Write` pair
//! (stdin/stdout in the binary) and over a plain [`TcpListener`].
//!
//! Framing: one JSON object per line (LF or CRLF terminated — a
//! trailing `\r` is stripped); a blank line (or EOF) closes the current
//! batch, the server answers it — one response line per query, then a
//! blank line — and the next batch may begin on the same connection. A
//! batch may open with a v2 header line selecting the response order
//! (see [`crate::protocol`]): `ordered` (default) buffers and emits
//! responses strictly in input order; `stream` flushes them in
//! completion order, each tagged with the `idx` of the query line it
//! answers. Input reads are *bounded* ([`MAX_LINE_BYTES`],
//! [`MAX_BATCH_LINES`]): a client that streams an endless line or batch
//! gets a typed error, not an unbounded buffer (enforced by besst-lint
//! rule D6 for this crate). The byte cap applies to the raw line before
//! `\r` stripping.
//!
//! Write path: every response is rendered with its `\n` into one buffer
//! and written whole by one writer (`LineWriter`) shared by the batch's
//! workers: a stream line is one write, an ordered batch — terminator
//! included — is one write. TCP connections run with `TCP_NODELAY`, so
//! no line waits on the client's ACK.
//!
//! When the server runs with chaos, the connection layer injects its
//! share of the `serve` preset: query lines may be duplicated on read
//! (the duplicate is a real submission, answered identically) and
//! response lines may be dropped on write (the client sees a missing
//! line and resubmits). Both are counted in
//! [`crate::chaos::ChaosStats`].

use crate::chaos::Chaos;
use crate::protocol::{parse_header, parse_request, render_response_idx, BatchMode};
use crate::query::ScenarioQuery;
use crate::server::{Outcome, Response, Server};
use crate::ServeError;
use besst_des::threads::lock;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Longest request line accepted, bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;
/// Most lines accepted in one batch. Beyond this the batch is closed
/// and answered; admission control then sheds the overflow explicitly.
pub const MAX_BATCH_LINES: usize = 65_536;

/// Read one `\n`-terminated line without unbounded buffering: at most
/// `cap` bytes are accumulated, the rest of an oversized line is
/// discarded and reported.
///
/// Returns `Ok(None)` at EOF, `Ok(Some((line, truncated)))` otherwise.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> std::io::Result<Option<(String, bool)>> {
    // CRLF clients get the same framing as LF clients: strip one
    // trailing carriage return after the newline split.
    fn finish(buf: &[u8], truncated: bool) -> (String, bool) {
        let buf = buf.strip_suffix(b"\r").unwrap_or(buf);
        (String::from_utf8_lossy(buf).into_owned(), truncated)
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut truncated = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            return Ok(if saw_any { Some(finish(&buf, truncated)) } else { None });
        }
        saw_any = true;
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !truncated {
                let take = pos.min(cap.saturating_sub(buf.len()));
                buf.extend_from_slice(&chunk[..take]);
                truncated = take < pos;
            }
            reader.consume(pos + 1);
            return Ok(Some(finish(&buf, truncated)));
        }
        if !truncated {
            let take = chunk.len().min(cap.saturating_sub(buf.len()));
            buf.extend_from_slice(&chunk[..take]);
            truncated = take < chunk.len();
        }
        let len = chunk.len();
        reader.consume(len);
    }
}

/// Where one response line came from: the 0-based query-line position it
/// answers (the batch header does not count) and which copy it is —
/// `copy` is 1 for the second answer of a chaos-duplicated submission,
/// else 0. Drop-chaos decisions key on `(pos, copy)` so they stay pure
/// functions of the seed regardless of completion order.
#[derive(Debug, Clone, Copy)]
struct Origin {
    pos: u64,
    copy: u64,
}

impl Origin {
    /// Stable sequence key for connection-level chaos decisions.
    fn seq(self) -> u64 {
        // MAX_BATCH_LINES < 2^32, so pos and copy never collide.
        self.pos | (self.copy << 32)
    }
}

/// One parsed batch: the response mode, queries to run, and pre-built
/// responses for malformed lines, each remembering its origin so output
/// can interleave in input order (ordered mode) or be tagged with `idx`
/// (stream mode).
struct Batch {
    mode: BatchMode,
    /// The rejection for a malformed header line, emitted before any
    /// other response (the batch itself falls back to ordered mode).
    header_reject: Option<Response>,
    /// Whether a header line (valid or not) was consumed — a header-only
    /// batch is not EOF.
    saw_header: bool,
    queries: Vec<(Origin, ScenarioQuery)>,
    rejects: Vec<(Origin, Response)>,
    /// Query lines consumed (valid + malformed, excluding the header),
    /// to notice an empty batch.
    lines: usize,
}

/// Read one batch (until blank line or EOF). `conn` keys connection-level
/// chaos decisions.
fn read_batch<R: BufRead>(
    reader: &mut R,
    server: &Server,
    conn: u64,
) -> std::io::Result<Batch> {
    let mut batch = Batch {
        mode: BatchMode::Ordered,
        header_reject: None,
        saw_header: false,
        queries: Vec::new(),
        rejects: Vec::new(),
        lines: 0,
    };
    let chaos = server.config().chaos.clone();
    while batch.lines < MAX_BATCH_LINES {
        let Some((line, truncated)) = read_bounded_line(reader, MAX_LINE_BYTES)? else {
            break; // EOF
        };
        if line.trim().is_empty() {
            if batch.lines == 0 && !batch.saw_header {
                continue; // leading blank lines are framing noise
            }
            break; // batch delimiter
        }
        // Only the first line of a batch may be a header; later
        // header-shaped lines fall through to parse_request and are
        // rejected like any other id-less object.
        if batch.lines == 0 && !batch.saw_header && !truncated {
            match parse_header(&line) {
                Some(Ok(mode)) => {
                    batch.mode = mode;
                    batch.saw_header = true;
                    continue;
                }
                Some(Err(resp)) => {
                    batch.header_reject = Some(resp);
                    batch.saw_header = true;
                    continue;
                }
                None => {}
            }
        }
        let pos = batch.lines as u64;
        batch.lines += 1;
        if truncated {
            batch.rejects.push((
                Origin { pos, copy: 0 },
                Response {
                    id: 0,
                    outcome: Outcome::Err(ServeError::BadRequest(format!(
                        "line exceeds {MAX_LINE_BYTES} bytes"
                    ))),
                },
            ));
            continue;
        }
        match parse_request(&line) {
            Ok(q) => {
                let dup = chaos.as_ref().is_some_and(|c| c.duplicates_query(conn, pos));
                batch.queries.push((Origin { pos, copy: 0 }, q.clone()));
                if dup {
                    // A duplicated submission is a real second query; the
                    // server answers both, identically. It shares the
                    // original's idx — it answers the same query line.
                    batch.queries.push((Origin { pos, copy: 1 }, q));
                }
            }
            Err(resp) => batch.rejects.push((Origin { pos, copy: 0 }, resp)),
        }
    }
    Ok(batch)
}

/// Serve batches from `reader` to `writer` until EOF. Returns the number
/// of batches served.
pub fn serve_lines<R: Read, W: Write + Send>(
    server: &Server,
    reader: R,
    writer: W,
    conn: u64,
) -> std::io::Result<u64> {
    let mut reader = BufReader::new(reader);
    let mut writer = LineWriter::new(writer);
    let chaos = server.config().chaos.clone();
    let chaos = chaos.as_ref();
    let mut batches = 0u64;
    loop {
        let batch = read_batch(&mut reader, server, conn)?;
        if batch.lines == 0 && !batch.saw_header {
            break; // EOF with nothing pending
        }
        batches += 1;
        let (origins, queries): (Vec<Origin>, Vec<ScenarioQuery>) =
            batch.queries.into_iter().unzip();
        match batch.mode {
            BatchMode::Stream => {
                let send = |origin: Origin, resp: &Response| {
                    // After an I/O error the connection is gone: drop
                    // the line without rendering it.
                    if writer.failed() {
                        return;
                    }
                    if let Some(line) = framed(resp, Some(origin.pos), chaos, conn, origin.seq()) {
                        writer.send(line.as_bytes());
                    }
                };
                // Rejections are known before the batch runs; stream
                // them out first, idx-tagged like everything else.
                for (origin, resp) in &batch.rejects {
                    send(*origin, resp);
                }
                server.handle_batch_indexed(&queries, &|idx, resp| send(origins[idx], &resp));
                writer.send(b"\n");
            }
            BatchMode::Ordered => {
                // Buffer completion-order results, then emit strictly in
                // input order (rejections interleaved at their line
                // positions, a duplicate right after its original).
                let slots: Vec<Mutex<Option<Response>>> =
                    queries.iter().map(|_| Mutex::new(None)).collect();
                server.handle_batch_indexed(&queries, &|idx, resp| {
                    *lock(&slots[idx]) = Some(resp);
                });
                let mut out: Vec<(Origin, Response)> = batch.rejects;
                for (slot, origin) in slots.into_iter().zip(&origins) {
                    let resp = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                    if let Some(resp) = resp {
                        out.push((*origin, resp));
                    }
                }
                out.sort_by_key(|(origin, _)| (origin.pos, origin.copy));
                // A malformed header's rejection leads the batch and
                // never carries an idx (the batch fell back to ordered
                // mode, so only this branch can see one).
                let mut text = String::new();
                if let Some(resp) = &batch.header_reject {
                    text.extend(framed(resp, None, chaos, conn, 1 << 48));
                }
                for (origin, resp) in &out {
                    text.extend(framed(resp, None, chaos, conn, origin.seq()));
                }
                text.push('\n');
                writer.send(text.as_bytes());
            }
        }
        writer.end_batch()?;
    }
    Ok(batches)
}

/// The line answering `resp`, framed with its `'\n'`, or `None` when
/// connection chaos drops it: the line is lost on the wire, and the
/// client-side contract (resubmit on missing id) is exercised by the
/// chaos harness.
fn framed(
    resp: &Response,
    idx: Option<u64>,
    chaos: Option<&Chaos>,
    conn: u64,
    seq: u64,
) -> Option<String> {
    if chaos.is_some_and(|c| c.drops_response(conn, seq)) {
        return None;
    }
    let mut line = render_response_idx(resp, idx);
    line.push('\n');
    Some(line)
}

/// The one path from rendered responses to the sink: each
/// [`LineWriter::send`] is one `write_all` of whole framed lines under
/// the sink's lock, so no write splits a line. After the first I/O error
/// every later send is dropped; [`LineWriter::end_batch`] reports it.
struct LineWriter<W> {
    sink: Mutex<W>,
    /// The batch's first I/O error, set under the sink's lock.
    error: OnceLock<std::io::Error>,
}

impl<W: Write> LineWriter<W> {
    fn new(sink: W) -> Self {
        LineWriter { sink: Mutex::new(sink), error: OnceLock::new() }
    }

    /// Whether a write has failed; later sends are dropped.
    fn failed(&self) -> bool {
        self.error.get().is_some()
    }

    /// Write `framed` (whole lines) in one `write_all`, unless a write
    /// has already failed.
    fn send(&self, framed: &[u8]) {
        let mut sink = lock(&self.sink);
        if !self.failed() {
            if let Err(e) = sink.write_all(framed) {
                self.error.get_or_init(|| e);
            }
        }
    }

    /// Close a batch: its first I/O error, else flush the sink.
    fn end_batch(&mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => lock(&self.sink).flush(),
        }
    }
}

/// Summary of one TCP serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Batches served across all connections.
    pub batches: u64,
}

/// Accept and serve connections until `max_conns` have been handled
/// (`None` = forever). Connections are served one at a time — the
/// parallelism budget belongs to the batch fan-out, and a single
/// accept loop keeps connection-level chaos decisions deterministic.
pub fn serve_tcp(
    server: &Server,
    listener: &TcpListener,
    max_conns: Option<u64>,
) -> std::io::Result<TcpSummary> {
    let mut summary = TcpSummary::default();
    while max_conns.is_none_or(|m| summary.connections < m) {
        let (stream, _addr) = listener.accept()?;
        summary.connections += 1;
        match serve_connection(server, &stream, summary.connections) {
            Ok(batches) => summary.batches += batches,
            // A broken connection is that client's problem, not the
            // server's: log to stderr and keep accepting.
            Err(e) => eprintln!("besst-serve: connection {}: {e}", summary.connections),
        }
    }
    Ok(summary)
}

fn serve_connection(server: &Server, stream: &TcpStream, conn: u64) -> std::io::Result<u64> {
    // Each response is written as soon as it completes, in whole lines;
    // without NODELAY, Nagle's algorithm would hold every write after the
    // first until the client's ACK, which a client waiting on its answer
    // sends only with its next request or after its delayed-ACK timer.
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    serve_lines(server, reader, stream, conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;

    fn server() -> Server {
        Server::new(ServeConfig::default()).expect("pool starts")
    }

    /// A sink that records the bytes of each `write` call.
    #[derive(Default)]
    struct Recorder(Vec<Vec<u8>>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn field(v: &besst_des::json::Value, key: &str) -> u64 {
        v.as_obj().and_then(|o| o.get(key)).and_then(|f| f.as_u64()).expect("integer field")
    }

    /// `n` query lines with ids and seeds `0..n`.
    fn query_lines(n: u64) -> String {
        (0..n).map(|i| format!("{{\"id\":{i},\"steps\":10,\"seed\":{i}}}\n")).collect()
    }

    #[test]
    fn first_write_error_ends_the_batch_after_one_attempt() {
        struct Broken(usize);
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = format!("{{\"mode\":\"stream\",\"v\":2}}\nnot json\n{}\n", query_lines(16));
        let mut sink = Broken(0);
        let err = serve_lines(&server(), input.as_bytes(), &mut sink, 1).expect_err("sink fails");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(sink.0, 1, "no write after the first failure");
    }

    #[test]
    fn ordered_batch_is_one_write_with_its_terminator() {
        // A plain ordered batch, then one whose malformed header falls
        // back to ordered mode with the rejection leading.
        let input = format!(
            "{}not json\n\n{{\"mode\":\"stream\",\"v\":1}}\n{{\"id\":9,\"steps\":20}}\n\n",
            query_lines(6)
        );
        let mut sink = Recorder::default();
        assert_eq!(serve_lines(&server(), input.as_bytes(), &mut sink, 1).expect("serves"), 2);
        assert_eq!(sink.0.len(), 2, "one write per ordered batch");
        let first = String::from_utf8(sink.0[0].clone()).expect("utf8");
        let second = String::from_utf8(sink.0[1].clone()).expect("utf8");
        assert!(first.ends_with("\n\n") && second.ends_with("\n\n"), "terminator rides along");
        let lines: Vec<&str> = first.trim_end().lines().collect();
        assert_eq!(lines.len(), 7, "{first}");
        for (i, line) in lines[..6].iter().enumerate() {
            assert!(line.contains(&format!("\"id\":{i},")), "input order: {first}");
        }
        assert!(lines[6].contains("bad_request"), "{first}");
        let lines: Vec<&str> = second.trim_end().lines().collect();
        assert_eq!(lines.len(), 2, "{second}");
        assert!(lines[0].contains("version") && lines[1].contains("\"id\":9"), "{second}");
    }

    #[test]
    fn stream_writes_carry_whole_lines() {
        const N: usize = 48;
        let input = format!("{{\"mode\":\"stream\",\"v\":2}}\n{}\n", query_lines(N as u64));
        let mut sink = Recorder::default();
        serve_lines(&server(), input.as_bytes(), &mut sink, 1).expect("serves");
        assert!(sink.0.len() <= N + 1, "{} writes for {N} lines", sink.0.len());
        for w in &sink.0 {
            assert!(w.ends_with(b"\n"), "a write split a line: {:?}", String::from_utf8_lossy(w));
        }
        let text = String::from_utf8(sink.0.concat()).expect("utf8");
        assert!(text.ends_with("\n\n"), "{text}");
        let mut idx: Vec<u64> = text
            .trim_end()
            .lines()
            .map(|l| {
                let v = besst_des::json::parse(l).expect("every line is whole JSON");
                field(&v, "idx")
            })
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..N as u64).collect::<Vec<_>>(), "exactly once per query");
    }

    #[test]
    fn chaos_drops_exactly_the_keyed_lines() {
        const N: u64 = 96;
        const CONN: u64 = 7;
        let seed = 0x5EED;
        let oracle = Chaos::new(seed);
        // Lines per query position: each submitted copy survives unless
        // its (conn, pos, copy) draw drops it.
        let copies: Vec<u64> =
            (0..N).map(|pos| if oracle.duplicates_query(CONN, pos) { 2 } else { 1 }).collect();
        let expected: Vec<usize> = (0..N)
            .map(|pos| {
                (0..copies[pos as usize])
                    .filter(|&copy| !oracle.drops_response(CONN, Origin { pos, copy }.seq()))
                    .count()
            })
            .collect();
        let submitted: u64 = copies.iter().sum();
        assert!(submitted > N, "the seed must duplicate some lines");
        assert!(expected.iter().sum::<usize>() < submitted as usize, "and drop some");
        for header in ["", "{\"mode\":\"stream\",\"v\":2}\n"] {
            let chaotic = Server::new(ServeConfig {
                chaos: Some(Chaos::new(seed)),
                ..ServeConfig::default()
            })
            .expect("pool starts");
            let input = format!("{header}{}\n", query_lines(N));
            let mut out: Vec<u8> = Vec::new();
            serve_lines(&chaotic, input.as_bytes(), &mut out, CONN).expect("serves");
            let mut got = vec![0usize; N as usize];
            for line in String::from_utf8(out).expect("utf8").trim_end().lines() {
                let v = besst_des::json::parse(line).expect("whole JSON line");
                got[field(&v, "id") as usize] += 1;
            }
            assert_eq!(got, expected, "header {header:?}");
        }
    }

    #[test]
    fn bounded_line_reader_caps_and_recovers() {
        let input = format!("{}\nshort\n", "x".repeat(MAX_LINE_BYTES + 100));
        let mut r = BufReader::new(input.as_bytes());
        let (line, truncated) =
            read_bounded_line(&mut r, MAX_LINE_BYTES).expect("reads").expect("a line");
        assert!(truncated);
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let (line, truncated) =
            read_bounded_line(&mut r, MAX_LINE_BYTES).expect("reads").expect("a line");
        assert!(!truncated);
        assert_eq!(line, "short");
        assert!(read_bounded_line(&mut r, MAX_LINE_BYTES).expect("reads").is_none());
    }

    #[test]
    fn stdio_batch_roundtrip() {
        let s = server();
        let input = "{\"id\":1,\"steps\":20}\nnot json\n{\"id\":3,\"steps\":20,\"mode\":\"baseline\"}\n\n";
        let mut out: Vec<u8> = Vec::new();
        let batches = serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        assert_eq!(batches, 1);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        // Exactly one response per line: ids 1 and 3 answered, the bad
        // line rejected with a typed error.
        assert!(lines.iter().any(|l| l.contains("\"id\":1") && l.contains("\"status\":\"ok\"")));
        assert!(lines.iter().any(|l| l.contains("\"id\":3") && l.contains("\"status\":\"ok\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"bad_request\"") && l.contains("\"status\":\"error\"")));
    }

    #[test]
    fn multiple_batches_on_one_stream() {
        let s = server();
        let input = "{\"id\":1,\"steps\":20}\n\n{\"id\":2,\"steps\":20}\n\n";
        let mut out: Vec<u8> = Vec::new();
        let batches = serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        assert_eq!(batches, 2);
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches("\"status\":\"ok\"").count(), 2);
    }

    #[test]
    fn ordered_mode_emits_strict_input_order() {
        let s = server();
        // Mix valid queries with a malformed line in the middle; the
        // rejection must come back *at its line position*.
        let input = "{\"id\":7,\"steps\":20}\nnot json\n{\"id\":9,\"steps\":20}\n\n";
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"id\":7"), "{text}");
        assert!(lines[1].contains("\"kind\":\"bad_request\""), "{text}");
        assert!(lines[2].contains("\"id\":9"), "{text}");
        assert!(!text.contains("\"idx\""), "ordered mode carries no idx");
    }

    #[test]
    fn crlf_lines_parse_like_lf_lines() {
        let s = server();
        let input = "{\"id\":1,\"steps\":20}\r\n{\"id\":2,\"steps\":20}\r\n\r\n";
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches("\"status\":\"ok\"").count(), 2, "{text}");
        assert!(!text.contains("bad_request"), "CRLF must not poison parsing: {text}");
    }

    #[test]
    fn line_exactly_at_cap_is_accepted() {
        // Pad a valid query with trailing spaces to exactly MAX_LINE_BYTES
        // (JSON whitespace, still parseable); one byte more is rejected.
        let q = "{\"id\":5,\"steps\":20}";
        let exact = format!("{q}{}\n\n", " ".repeat(MAX_LINE_BYTES - q.len()));
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&server(), exact.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"id\":5") && text.contains("\"status\":\"ok\""), "{text}");

        let over = format!("{q}{}\n\n", " ".repeat(MAX_LINE_BYTES - q.len() + 1));
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&server(), over.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("bad_request") && text.contains("exceeds"), "{text}");
    }

    #[test]
    fn split_reads_reassemble_lines() {
        // A 1-byte BufReader forces every line through the multi-chunk
        // path of read_bounded_line.
        let input = "{\"id\":1,\"steps\":20}\r\n{\"id\":2,\"steps\":20}\n\n";
        let mut r = BufReader::with_capacity(1, input.as_bytes());
        let (line, truncated) =
            read_bounded_line(&mut r, MAX_LINE_BYTES).expect("reads").expect("a line");
        assert!(!truncated);
        assert_eq!(line, "{\"id\":1,\"steps\":20}", "split CRLF line reassembles");
        let (line, _) =
            read_bounded_line(&mut r, MAX_LINE_BYTES).expect("reads").expect("a line");
        assert_eq!(line, "{\"id\":2,\"steps\":20}");
        // An oversized line arriving in 1-byte chunks still caps.
        let long = format!("{}\n", "y".repeat(40));
        let mut r = BufReader::with_capacity(1, long.as_bytes());
        let (line, truncated) = read_bounded_line(&mut r, 10).expect("reads").expect("a line");
        assert!(truncated);
        assert_eq!(line.len(), 10);
    }

    #[test]
    fn stream_mode_tags_every_line_with_idx() {
        let s = server();
        let input = "{\"mode\":\"stream\",\"v\":2}\n{\"id\":1,\"steps\":20}\nnot json\n{\"id\":3,\"steps\":20}\n\n";
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        // idx counts query lines only (the header does not count).
        assert!(lines.iter().any(|l| l.contains("\"id\":1") && l.contains("\"idx\":0")), "{text}");
        assert!(
            lines.iter().any(|l| l.contains("bad_request") && l.contains("\"idx\":1")),
            "{text}"
        );
        assert!(lines.iter().any(|l| l.contains("\"id\":3") && l.contains("\"idx\":2")), "{text}");
    }

    #[test]
    fn header_mid_stream_is_a_malformed_query() {
        let s = server();
        let input = "{\"id\":1,\"steps\":20}\n{\"mode\":\"stream\"}\n\n";
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"status\":\"ok\""));
        assert!(
            lines[1].contains("bad_request"),
            "a header after line 0 is just an id-less object: {text}"
        );
        assert!(!text.contains("\"idx\""), "the batch stays in ordered mode: {text}");
    }

    #[test]
    fn malformed_header_rejects_and_falls_back_to_ordered() {
        let s = server();
        let input = "{\"mode\":\"stream\",\"v\":1}\n{\"id\":1,\"steps\":20}\n\n";
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("bad_request") && lines[0].contains("version"), "{text}");
        assert!(lines[1].contains("\"id\":1") && lines[1].contains("\"status\":\"ok\""));
        assert!(!text.contains("\"idx\""), "fallback is ordered mode: {text}");
    }

    #[test]
    fn header_only_batch_is_not_eof() {
        let s = server();
        let input = "{\"mode\":\"stream\"}\n\n{\"id\":1,\"steps\":20}\n\n";
        let mut out: Vec<u8> = Vec::new();
        let batches = serve_lines(&s, input.as_bytes(), &mut out, 1).expect("serves");
        assert_eq!(batches, 2, "an empty streamed batch still frames");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"id\":1") && text.contains("\"status\":\"ok\""), "{text}");
    }
}
