//! A minimal, defensive HTTP/1.1 implementation over `std::net`.
//!
//! Hand-rolled because the build environment has no crates.io access and
//! the server's needs are narrow: request-line + headers + Content-Length
//! bodies, keep-alive, and hard limits on size everywhere a hostile or
//! truncated peer could send too much (oversized lines, absurd body
//! lengths). Time is bounded only per read: the socket read timeout the
//! caller installs cuts off a peer that goes silent, but it restarts on
//! every byte, so a slow-loris peer that trickles bytes faster than the
//! timeout can hold a worker for as long as it likes. No chunked
//! transfer, no TLS, no HTTP/2 — clients are curl, the ladder benchmark
//! and the integration suite.

use std::io::{self, BufRead, Read, Write};

/// Hard cap on the request line, per header line, and header count.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum number of request headers accepted.
pub const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/session/alice/push`.
    pub path: String,
    /// Body bytes (empty unless Content-Length was given).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed (or timed out) before a full request arrived.
    Disconnected,
    /// The bytes received were not valid HTTP within our limits.
    BadRequest(&'static str),
    /// A syntactically valid request exceeded the configured body cap.
    PayloadTooLarge,
}

/// Outcome of waiting for the next request on a keep-alive connection.
#[derive(Debug)]
pub enum NextRequest {
    /// A complete request was parsed.
    Request(Request),
    /// Clean end of connection: EOF before the first byte of a request.
    Closed,
}

/// Reads one line (up to CRLF/LF), enforcing [`MAX_LINE_BYTES`]. Returns
/// `None` on immediate EOF.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take((MAX_LINE_BYTES + 1) as u64)
        .read_until(b'\n', &mut buf)
        .map_err(|_| HttpError::Disconnected)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        // either the line blew the cap or the peer died mid-line
        return Err(if n > MAX_LINE_BYTES {
            HttpError::BadRequest("line too long")
        } else {
            HttpError::Disconnected
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 header bytes"))
}

/// Reads and parses the next request off a keep-alive connection.
///
/// `max_body` bounds the accepted Content-Length; bigger requests get
/// [`HttpError::PayloadTooLarge`] *without* reading the body (the caller
/// answers 413 and closes — draining an attacker-sized body would be the
/// denial of service we are avoiding).
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<NextRequest, HttpError> {
    let request_line = match read_line(reader)? {
        None => return Ok(NextRequest::Closed),
        Some(l) if l.is_empty() => return Err(HttpError::BadRequest("empty request line")),
        Some(l) => l,
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest("request target must be absolute"));
    }

    let mut content_length = None;
    // HTTP/1.1 keeps the connection by default, HTTP/1.0 closes it
    let mut keep_alive = version != "HTTP/1.0";
    let mut headers = 0usize;
    loop {
        let line = read_line(reader)?.ok_or(HttpError::Disconnected)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("malformed header"))?;
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest("unparseable Content-Length"))?;
            // RFC 7230 §3.3.3: differing lengths leave the framing ambiguous
            if content_length.is_some_and(|seen| seen != n) {
                return Err(HttpError::BadRequest("conflicting Content-Length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::BadRequest("chunked bodies are not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body).map_err(|_| HttpError::Disconnected)?;
    Ok(NextRequest::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    }))
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response (status line, minimal headers, body).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<NextRequest, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let raw = b"POST /annotate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        match parse(raw).unwrap() {
            NextRequest::Request(r) => {
                assert_eq!(r.method, "POST");
                assert_eq!(r.path, "/annotate");
                assert_eq!(r.body, b"hello");
                assert!(r.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn connection_close_is_honored() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse(raw).unwrap() {
            NextRequest::Request(r) => assert!(!r.keep_alive),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn http_1_0_closes_unless_asked_to_keep_alive() {
        let keep = |raw: &[u8]| match parse(raw).unwrap() {
            NextRequest::Request(r) => r.keep_alive,
            other => panic!("{other:?}"),
        };
        assert!(!keep(b"GET /healthz HTTP/1.0\r\n\r\n"));
        assert!(keep(
            b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        ));
        assert!(keep(b"GET /healthz HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 2\r\n\r\nhello"),
            Err(HttpError::BadRequest(_))
        ));
        // a repeated identical length frames the body the same way
        match parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nCONTENT-LENGTH: 5\r\n\r\nhello")
            .unwrap()
        {
            NextRequest::Request(r) => assert_eq!(r.body, b"hello"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_before_request_is_a_clean_close() {
        assert!(matches!(parse(b"").unwrap(), NextRequest::Closed));
    }

    #[test]
    fn garbage_and_truncation_are_distinguished() {
        assert!(matches!(
            parse(b"NOT A REQUEST\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"post /x HTTP/1.1\r\n\r\n"), // lowercase method
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x SMTP/1.0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // mid-body disconnect: Content-Length promises more than arrives
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpError::Disconnected)
        ));
        // mid-headers disconnect
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: y"),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn oversized_declarations_are_refused() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(HttpError::PayloadTooLarge)
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            parse(long.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", b"{}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));
    }
}
