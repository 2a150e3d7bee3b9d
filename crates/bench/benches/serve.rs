//! HTTP round-trip microbenches: a keep-alive loopback connection
//! against a running `osql-server`, measuring `GET /healthz` and a
//! warm-result-cache `POST /v1/query` — the serving layer's fixed
//! per-request overhead (parse, route, render, socket round-trip)
//! with the pipeline memoised away.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::Profile;
use llmsim::ModelProfile;
use opensearch_sql::PipelineConfig;
use osql_bench::World;
use osql_runtime::{AssetCache, Runtime, RuntimeConfig};
use osql_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Conn { reader: BufReader::new(stream), writer }
    }

    fn round_trip(&mut self, method: &str, path: &str, body: &str) -> u16 {
        let msg = if body.is_empty() {
            format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n\r\n")
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        self.writer.write_all(msg.as_bytes()).expect("write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        status
    }
}

fn bench_http_round_trip(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let assets = Arc::new(AssetCache::warmed_by(
        &world.preprocessed,
        world.model(ModelProfile::gpt_4o()),
        PipelineConfig::fast(),
    ));
    let rt = Arc::new(Runtime::start(assets, RuntimeConfig::with_workers(2)));
    let server =
        Server::start(rt, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    let ex = &world.benchmark.dev[0];
    let mut body = osql_server::json::ObjectWriter::new();
    body.str_field("db_id", &ex.db_id)
        .str_field("question", &ex.question)
        .str_field("evidence", &ex.evidence);
    let body = body.finish();

    let mut conn = Conn::open(addr);
    // prime the result cache so the query bench measures serving overhead
    assert_eq!(conn.round_trip("POST", "/v1/query", &body), 200);

    let mut group = c.benchmark_group("http_round_trip");
    group.sample_size(20);
    group.bench_function("healthz", |b| {
        b.iter(|| {
            std::hint::black_box(conn.round_trip("GET", "/healthz", ""));
        })
    });
    group.bench_function("query_warm_cache", |b| {
        b.iter(|| {
            std::hint::black_box(conn.round_trip("POST", "/v1/query", &body));
        })
    });
    group.finish();

    drop(conn);
    assert!(server.shutdown());
}

criterion_group!(benches, bench_http_round_trip);
criterion_main!(benches);
