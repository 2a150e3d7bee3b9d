//! Hand-rolled HTTP/1.1 message framing over blocking sockets.
//!
//! Supports exactly what the serving layer needs: request-line + header
//! parsing with hard size caps, `Content-Length` bodies, and keep-alive
//! semantics (1.1 persistent by default, `Connection: close` honored,
//! 1.0 close-by-default). Anything outside that subset — any
//! `Transfer-Encoding` (chunked included), a `Content-Length` that is not
//! plain decimal digits or that a second `Content-Length` contradicts,
//! upgrades, multi-line headers — is rejected with a typed error the
//! connection loop turns into a 4xx and a clean close, so a hostile or
//! confused client can never wedge an acceptor shard or smuggle a second
//! request inside a body.

use std::io::{self, BufRead, Write};

/// Parser caps. Oversize input fails fast with a typed error instead of
/// buffering without bound.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Request line + all header lines, in bytes.
    pub max_header_bytes: usize,
    /// Declared `Content-Length` ceiling, in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_header_bytes: 16 * 1024, max_body_bytes: 256 * 1024 }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request → 400.
    BadRequest(String),
    /// Request line + headers exceeded [`Limits::max_header_bytes`] → 431.
    HeadersTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// Socket error or timeout; no response is owed.
    Io(io::Error),
}

impl HttpError {
    /// The status code this error maps to (0 when none is owed).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Io(_) => 0,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub target: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should persist after the response.
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup (name must be lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The target's path, with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Value of `name` in the target's query string, if present (no
    /// percent-decoding — debug-endpoint parameters are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Read one line (up to CRLF or LF), enforcing the shared header budget.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1];
    loop {
        // byte-at-a-time via BufRead is buffered underneath; the budget
        // bounds total work per header block
        match reader.read(&mut chunk) {
            Ok(0) => {
                if raw.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(HttpError::BadRequest("truncated header line".into()));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::HeadersTooLarge);
                }
                *budget -= 1;
                if chunk[0] == b'\n' {
                    break;
                }
                raw.push(chunk[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("header line is not utf-8".into()))
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly before sending another request.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let mut budget = limits.max_header_bytes;
    let Some(line) = read_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line: {line:?}"))),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("malformed method: {method:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest(format!("unsupported version: {version:?}"))),
    };

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, &mut budget)? else {
            return Err(HttpError::BadRequest("connection closed mid-headers".into()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    // Only a Content-Length body is read, so a transfer coding would leave
    // its body on the stream to be read as the next request.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::BadRequest("transfer-encoding is not supported".into()));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| {
        // digits only: `usize::from_str` would also take a leading `+`
        v.parse::<usize>()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| HttpError::BadRequest(format!("bad content-length: {v:?}")))
    });
    let content_length = lengths.next().transpose()?.unwrap_or(0);
    for other in lengths {
        if other? != content_length {
            return Err(HttpError::BadRequest("conflicting content-length headers".into()));
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
    }

    Ok(Some(Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body,
        keep_alive,
    }))
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one response: status line, standard headers, any extras, body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(input: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(input.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_request_with_body_and_headers() {
        let req = parse(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-API-Key: k1\r\n\
             Content-Length: 4\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/query");
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap().keep_alive);
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap().keep_alive
        );
    }

    #[test]
    fn malformed_inputs_are_typed() {
        assert!(matches!(parse("garbage\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET /\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET / HTTP/2.0\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET / HTTP/1.1\r\nnocolon\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn a_transfer_encoding_is_rejected_not_read_as_an_empty_body() {
        let chunked = "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                       2\r\n{}\r\n0\r\n\r\n";
        assert!(matches!(parse(chunked), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn a_content_length_is_decimal_digits_only() {
        for v in ["+5", "-0", " 5x", ""] {
            let req = format!("POST / HTTP/1.1\r\nContent-Length: {v}\r\n\r\nabcde");
            assert!(matches!(parse(&req), Err(HttpError::BadRequest(_))), "{v:?}");
        }
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 05\r\n\r\nabcde").unwrap().unwrap();
        assert_eq!(req.body, b"abcde");
    }

    #[test]
    fn content_length_headers_that_disagree_are_rejected() {
        let req = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nabcde";
        assert!(matches!(parse(req), Err(HttpError::BadRequest(_))));
        // repeating the same length is not a contradiction
        let req = "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nabcde";
        assert_eq!(parse(req).unwrap().unwrap().body, b"abcde");
    }

    #[test]
    fn size_caps_are_enforced() {
        let limits = Limits { max_header_bytes: 64, max_body_bytes: 8 };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            read_request(&mut BufReader::new(long.as_bytes()), &limits),
            Err(HttpError::HeadersTooLarge)
        ));
        let fat = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            read_request(&mut BufReader::new(fat.as_bytes()), &limits),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn responses_frame_correctly() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("retry-after".to_owned(), "7".to_owned())],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("retry-after: 7\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.ends_with("connection: close\r\n\r\n{}"), "{text}");
    }
}
