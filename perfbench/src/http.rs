//! Minimal loopback HTTP/1.1 client: one keep-alive connection, requests
//! sent as pre-built bytes so the timed window holds only the socket round
//! trip.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to the server under test.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// The wire bytes of one request. Built once per schedule entry, outside
/// the timed window; the same bytes feed the `http::read_request` probe.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    if body.is_empty() {
        format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// The `POST /v1/query` body for one question.
pub fn query_body(db_id: &str, question: &str, evidence: &str) -> String {
    serde_json::to_string(&serde_json::json!({
        "db_id": db_id,
        "question": question,
        "evidence": evidence
    }))
    .expect("a flat string object always serialises")
}

/// The text of every member value of a JSON object, by key, without
/// building the values: `{"a":"x\"y","n":1.5,"l":[1,{"a":2}]}` gives
/// `a` → `"x\"y"`, `n` → `1.5`, `l` → `[1,{"a":2}]`. `None` if `body` is
/// not one object of `"key": value` members; the values themselves are not
/// validated, the caller parses the ones it reads. Replies are checked half
/// a million to a run, and a general parser that builds every value spends
/// longer on a reply than the server took to send it.
pub fn members(body: &str) -> Option<Vec<(&str, &str)>> {
    let bytes = body.as_bytes();
    let skip_ws = |mut at: usize| {
        while bytes.get(at).is_some_and(u8::is_ascii_whitespace) {
            at += 1;
        }
        at
    };
    // the index just past the string that opens at `at`
    let string_end = |at: usize| {
        let mut i = at + 1;
        loop {
            match bytes.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
    };
    // the index of the `,` or `}` that ends the value starting at `at`
    let value_end = |at: usize| {
        let (mut i, mut depth) = (at, 0usize);
        loop {
            match bytes.get(i)? {
                b'"' => i = string_end(i)?,
                b'{' | b'[' => {
                    depth += 1;
                    i += 1;
                }
                b'}' | b']' | b',' if depth == 0 => return Some(i),
                b'}' | b']' => {
                    depth -= 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    };
    let mut at = skip_ws(0);
    if bytes.get(at) != Some(&b'{') {
        return None;
    }
    at = skip_ws(at + 1);
    let mut out = Vec::new();
    if bytes.get(at) == Some(&b'}') {
        return (skip_ws(at + 1) == bytes.len()).then_some(out);
    }
    loop {
        if bytes.get(at) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(at)?;
        let key = &body[at + 1..key_end - 1];
        at = skip_ws(key_end);
        if bytes.get(at) != Some(&b':') {
            return None;
        }
        at = skip_ws(at + 1);
        let end = value_end(at)?;
        out.push((key, body[at..end].trim_end()));
        at = skip_ws(end);
        match bytes.get(at)? {
            b',' => at = skip_ws(at + 1),
            b'}' => return (skip_ws(at + 1) == bytes.len()).then_some(out),
            _ => return None,
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Client {
    /// Connect to `addr` with Nagle off and a generous read timeout (a
    /// stuck server fails the run instead of hanging it).
    pub fn open(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send pre-built request bytes and read the whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("malformed content-length"))?;
                }
            }
        }
        // the server caps bodies far below this; a larger claim is a bug
        if content_length > 16 << 20 {
            return Err(bad("response body too large"));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("response body is not utf-8"))?;
        Ok(Reply { status, body })
    }

    /// Convenience for one-off requests outside timed windows.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send(&request_bytes("GET", path, ""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_frame_a_body() {
        let bytes = request_bytes("POST", "/v1/query", "{\"a\":\"b\"}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/query HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 9\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":\"b\"}"));
        let get = String::from_utf8(request_bytes("GET", "/healthz", "")).unwrap();
        assert_eq!(get, "GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n");
    }

    #[test]
    fn members_are_found_without_building_values() {
        let body = r#"{"sql":"SELECT \"a\" FROM t -- }","from_cache":true, "ms" : 1.5e-3 ,"l":[1,{"a":"]"}],"o":{"x":{}},"z":null}"#;
        let got = members(body).unwrap();
        let want = [
            ("sql", r#""SELECT \"a\" FROM t -- }""#),
            ("from_cache", "true"),
            ("ms", "1.5e-3"),
            ("l", r#"[1,{"a":"]"}]"#),
            ("o", r#"{"x":{}}"#),
            ("z", "null"),
        ];
        assert_eq!(got, want);
        // a string member reads back through the general parser
        let sql: String = serde_json::from_str(got[0].1).unwrap();
        assert_eq!(sql, "SELECT \"a\" FROM t -- }");
        assert_eq!(members(" { } "), Some(Vec::new()));
        // and what the server writes is read whole
        let mut obj = osql_server::json::ObjectWriter::new();
        obj.str_field("q", "say \"hi\"\n")
            .f64_field("ms", 0.25)
            .bool_field("ok", false);
        let rendered = obj.finish();
        let got = members(&rendered).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            serde_json::from_str::<String>(got[0].1).unwrap(),
            "say \"hi\"\n"
        );
        assert_eq!((got[1].1.parse::<f64>(), got[2].1), (Ok(0.25), "false"));
        for broken in [
            "",
            "[1]",
            r#"{"a":1"#,
            r#"{"a":"x}"#,
            r#"{"a":1} x"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":[1}"#,
        ] {
            assert_eq!(members(broken), None, "{broken}");
        }
    }

    #[test]
    fn query_body_escapes_and_parses_back() {
        let body = query_body("db", "say \"hi\"\n\\o/", "");
        let back: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(
            back.get("question").unwrap().as_str(),
            Some("say \"hi\"\n\\o/")
        );
        assert_eq!(back.get("db_id").unwrap().as_str(), Some("db"));
        // and the server's own reader accepts it
        let fields = osql_server::json::parse_string_object(body.as_bytes()).unwrap();
        assert_eq!(
            osql_server::json::field(&fields, "question"),
            Some("say \"hi\"\n\\o/")
        );
    }
}
