//! A minimal HTTP/1.1 keep-alive client: one connection, one request in
//! flight, answers read to the last byte of their `Content-Length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One answer as read off the connection.
#[derive(Debug)]
pub struct Answer {
    /// Status code from the status line.
    pub status: u16,
    /// The `Content-Length` header.
    pub content_length: usize,
    /// The body bytes read after the head.
    pub body: Vec<u8>,
}

/// A keep-alive connection to the front end.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Opens the connection.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The bytes of a keep-alive `GET` for `target`.
    pub fn request_bytes(target: &str) -> Vec<u8> {
        format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
    }

    /// Writes `request` and reads its answer.
    ///
    /// # Errors
    ///
    /// I/O errors, a connection closed mid-answer, or a head that does not
    /// parse.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Answer> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(short("connection closed in the head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| short("head is not UTF-8"))?;
        let (status, content_length) = parse_head(head).ok_or_else(|| short("unparsable head"))?;
        while self.buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Answer {
            status,
            content_length,
            body: self.buf[head_end..].to_vec(),
        })
    }
}

fn short(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &str) -> Option<(u16, usize)> {
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let length = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    Some((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_yields_status_and_length() {
        let head =
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 17\r\n\r\n";
        assert_eq!(parse_head(head), Some((200, 17)));
        assert_eq!(parse_head("HTTP/1.1 404 Not Found\r\n\r\n"), None);
    }
}
