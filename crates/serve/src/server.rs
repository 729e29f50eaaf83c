//! The TCP front-end: an accept loop handing each connection to its own
//! thread running a [`Session`] over a shared [`EngineHandle`] — the
//! single-engine [`crate::ServiceHandle`] or a sharded
//! [`crate::shard::ShardedHandle`], indistinguishably.
//!
//! Connections speak the `esd-protocol/2` line protocol of
//! [`crate::protocol`]; on connect the server writes the hello banner (a
//! `#` comment line, so v1 clients skip it), and `quit` (or EOF) ends a
//! connection without touching the server. [`Server::stop`] closes the
//! accept loop; connection threads finish their current session and exit
//! when their clients disconnect. A request line longer than
//! [`MAX_LINE_BYTES`] is answered `error: line too long` and ends its
//! connection, so no client can make the server buffer an unbounded line.

use crate::service::EngineHandle;
use crate::session::{LineOutcome, Session};
use crate::IdMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The longest request line a connection may send, in bytes, without its
/// line terminator. A longer line gets `error: line too long` and the
/// connection is closed; the server never reads more than this plus one
/// byte into a line.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A running TCP server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts the accept loop
    /// over any [`EngineHandle`].
    pub fn start<H: EngineHandle>(
        addr: impl ToSocketAddrs,
        handle: H,
        ids: Arc<IdMap>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("esd-accept".into())
                .spawn(move || accept_loop(&listener, &handle, &ids, &stop))?
        };
        Ok(Self {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Existing connections run until their clients quit or disconnect.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop<H: EngineHandle>(
    listener: &TcpListener,
    handle: &H,
    ids: &Arc<IdMap>,
    stop: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let session = Session::new(handle.clone(), Arc::clone(ids));
        let _ = std::thread::Builder::new()
            .name("esd-conn".into())
            .spawn(move || {
                let _ = handle_connection(&stream, &session);
            });
    }
}

/// Runs one connection to completion: write the protocol banner, then
/// read a line, handle it, write the response, flush. Returns on `quit`,
/// EOF, a line longer than [`MAX_LINE_BYTES`], or any socket error.
fn handle_connection<H: EngineHandle>(stream: &TcpStream, session: &Session<H>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    writer.write_all(crate::protocol::hello_banner(session.handle().shards()).as_bytes())?;
    writer.flush()?;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break; // EOF
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            writer.write_all(b"error: line too long\n")?;
            writer.flush()?;
            break;
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match session.handle_line(line) {
            LineOutcome::Respond(text) => {
                writer.write_all(text.as_bytes())?;
                writer.flush()?;
            }
            LineOutcome::Quit => {
                writer.write_all(b"bye\n")?;
                writer.flush()?;
                break;
            }
        }
    }
    Ok(())
}
