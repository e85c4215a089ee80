//! End-to-end smoke over a real TCP socket: a mixed batch (good, poison,
//! malformed) against `serve_tcp` on an ephemeral port, fault-free and
//! under the chaos preset. This is what `just serve-smoke` and the CI
//! smoke job exercise through the `besst serve` binary; here the same
//! path runs in-process so the tier-1 suite covers it without spawning.

use besst_serve::net::{serve_tcp, TcpSummary};
use besst_serve::{Chaos, ServeConfig, Server};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Once;

fn quiet_expected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if msg.contains("buggify:") || msg.contains("poison") {
                return;
            }
            default(info);
        }));
    });
}

/// Bind an ephemeral listener and serve `max_conns` connections on a
/// background thread; returns the address and the join handle.
fn spawn_server(
    cfg: ServeConfig,
    max_conns: u64,
) -> (std::net::SocketAddr, std::thread::JoinHandle<std::io::Result<TcpSummary>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let server = Server::new(cfg).expect("pool starts");
        serve_tcp(&server, &listener, Some(max_conns))
    });
    (addr, handle)
}

/// Send one batch and collect the response lines (up to the blank-line
/// batch terminator).
fn roundtrip(addr: std::net::SocketAddr, batch: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(batch.as_bytes()).expect("send batch");
    stream.write_all(b"\n").expect("send delimiter");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        // lint: allow(unbounded-wait) -- test client reading its own
        // trusted in-process server; response lines are protocol-bounded
        let n = reader.read_line(&mut line).expect("read response");
        if n == 0 || line.trim().is_empty() {
            return lines; // blank line ends the batch (or EOF)
        }
        lines.push(line.trim_end().to_string());
    }
}

const SMOKE_BATCH: &str = concat!(
    "{\"id\":1,\"steps\":20,\"ranks\":8,\"seed\":1}\n",
    "{\"id\":2,\"app\":\"poison\",\"seed\":2}\n",
    "{\"id\":3,\"machine\":\"vulcan\",\"steps\":10,\"mode\":\"baseline\"}\n",
    "this line is not json\n",
    "{\"id\":5,\"ranks\":12,\"ft_period\":5}\n", // FTI rejects this geometry
);

#[test]
fn tcp_smoke_mixed_batch() {
    quiet_expected_panics();
    let (addr, handle) = spawn_server(ServeConfig::default(), 1);
    let lines = roundtrip(addr, SMOKE_BATCH);
    let summary = handle.join().expect("server thread").expect("serves");
    assert_eq!(summary, TcpSummary { connections: 1, batches: 1 });

    assert_eq!(lines.len(), 5, "one response line per input line: {lines:#?}");
    let find = |needle: &str| {
        lines
            .iter()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no line contains {needle}: {lines:#?}"))
    };
    assert!(find("\"id\":1").contains("\"status\":\"ok\""));
    assert!(find("\"id\":2").contains("\"kind\":\"panic\""));
    assert!(find("\"id\":3").contains("\"status\":\"ok\""));
    assert!(find("\"kind\":\"bad_request\"").contains("\"status\":\"error\""));
    assert!(find("\"id\":5").contains("\"kind\":\"bad_request\""));
}

#[test]
fn tcp_smoke_chaos_preset() {
    quiet_expected_panics();
    const CONNS: u64 = 8;
    let cfg = ServeConfig { chaos: Some(Chaos::new(0x005E_12E5)), ..ServeConfig::default() };
    let (addr, handle) = spawn_server(cfg, CONNS);

    // Resubmission game over real sockets: each round reconnects (a fresh
    // conn id draws a fresh drop/dup pattern) and resends the unanswered
    // ids; poison ids count as answered when their typed error arrives.
    let mut pending: BTreeSet<u64> = (0..24).collect();
    let mut used = 0u64;
    while used < CONNS && !pending.is_empty() {
        let batch: String = pending
            .iter()
            .map(|id| {
                if id % 7 == 0 {
                    format!("{{\"id\":{id},\"app\":\"poison\",\"seed\":{id}}}\n")
                } else {
                    format!("{{\"id\":{id},\"steps\":10,\"ranks\":8,\"seed\":{id}}}\n")
                }
            })
            .collect();
        used += 1;
        for line in roundtrip(addr, &batch) {
            let id = line
                .split("\"id\":")
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|n| n.parse::<u64>().ok())
                .expect("response lines carry ids");
            assert!(
                line.contains("\"status\":\"ok\"") || line.contains("\"kind\":\"panic\""),
                "unexpected outcome under chaos: {line}"
            );
            pending.remove(&id);
        }
    }
    assert!(pending.is_empty(), "chaos smoke never converged: {pending:?}");

    // Drain the unused connection budget so the server thread exits.
    for _ in used..CONNS {
        drop(TcpStream::connect(addr).expect("drain connect"));
    }
    let summary = handle.join().expect("server thread").expect("serves");
    assert_eq!(summary.connections, CONNS);
    assert_eq!(summary.batches, used);
}

#[test]
fn sequential_stream_queries_do_not_wait_on_acks() {
    // One client, one connection, 40 single-query stream batches, each
    // waiting for its terminator before the next is sent. A server that
    // lets Nagle hold a reply's last bytes until the client's ACK makes
    // every round trip wait out the client's delayed-ACK timer (about
    // 40 ms); answered at once, the whole exchange takes a few ms of
    // compute per query.
    const ROUNDS: u64 = 40;
    let (addr, handle) = spawn_server(ServeConfig::default(), 1);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let start = std::time::Instant::now();
    for i in 0..ROUNDS {
        let batch = format!("{{\"mode\":\"stream\",\"v\":2}}\n{{\"id\":{i},\"steps\":10}}\n\n");
        writer.write_all(batch.as_bytes()).expect("send batch");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            // lint: allow(unbounded-wait) -- test client reading its own
            // trusted in-process server; response lines are protocol-bounded
            let n = reader.read_line(&mut line).expect("read response");
            if n == 0 || line.trim().is_empty() {
                break;
            }
            lines.push(line);
        }
        assert_eq!(lines.len(), 1, "round {i}: {lines:?}");
        assert!(lines[0].contains(&format!("\"id\":{i},")), "round {i}: {lines:?}");
    }
    let elapsed = start.elapsed();
    drop(writer);
    drop(reader);
    let summary = handle.join().expect("server thread").expect("serves");
    assert_eq!(summary, TcpSummary { connections: 1, batches: ROUNDS });
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "{ROUNDS} round trips took {elapsed:?}: answers are waiting on ACKs"
    );
}
