//! A minimal blocking client for the wire protocol — enough for
//! examples, tests, and the benchmark's load generator.
//!
//! A frame costs one syscall each way: a request is assembled (length
//! prefix included) in a reused buffer and leaves in one `write`, and
//! responses are read through a buffer, so the prefix, the body and any
//! responses pipelined behind them come out of one `read`.

use crate::protocol::{
    decode_admin_response, decode_response, encode_admin_request, encode_request_into, frame_into,
    read_frame_into, AdminOp, AdminRequest, AdminResponse, FrameError, RequestFrame, ResponseFrame,
    MAX_RESPONSE_FRAME,
};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Read-buffer size: several typical responses, so a frame is usually in
/// hand after one `read`.
const READ_BUFFER: usize = 64 * 1024;

/// A blocking connection to a [`crate::NetServer`].
///
/// One request in flight at a time is the simple mode
/// ([`Client::call`]); pipelining is allowed, but responses may arrive
/// out of order — match on [`ResponseFrame::id`]. The server answers a
/// cache hit from the thread that read it, so a hit routinely overtakes
/// a miss sent before it. [`Client::try_clone`] splits the connection
/// into a sending handle and a receiving handle for that.
#[derive(Debug)]
pub struct Client {
    /// The socket, behind the read buffer; writes go to it directly.
    stream: BufReader<TcpStream>,
    /// The body of the frame last received.
    inbound: Vec<u8>,
    /// The frame being sent.
    outbound: Vec<u8>,
}

impl Client {
    /// Connects to a serving address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-connected stream (e.g. to speak raw bytes first).
    pub fn from_stream(stream: TcpStream) -> Self {
        Self {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
            inbound: Vec::new(),
            outbound: Vec::new(),
        }
    }

    /// A second handle over the same connection (shared socket) — one for
    /// a sender thread, one for a receiver thread.
    ///
    /// Each handle buffers what it reads, and bytes a handle has read
    /// belong to it: a response one handle pulled off the socket is
    /// invisible to the other. So any number of handles may
    /// [`send`](Client::send), but exactly **one** may
    /// [`recv`](Client::recv) — two receivers would split frames between
    /// their buffers. The clone starts with an empty buffer; clone before
    /// the first `recv`, or keep receiving on the original.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self::from_stream(self.stream.get_ref().try_clone()?))
    }

    /// Sends one request frame, in one write.
    pub fn send(&mut self, frame: &RequestFrame) -> Result<(), FrameError> {
        self.outbound.clear();
        encode_request_into(&mut self.outbound, frame);
        self.stream.get_mut().write_all(&self.outbound)?;
        Ok(())
    }

    /// Receives the next response frame; `Ok(None)` is a clean server
    /// close.
    pub fn recv(&mut self) -> Result<Option<ResponseFrame>, FrameError> {
        if !read_frame_into(&mut self.stream, MAX_RESPONSE_FRAME, &mut self.inbound)? {
            return Ok(None);
        }
        decode_response(&self.inbound).map(Some)
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, FrameError> {
        self.send(frame)?;
        match self.recv()? {
            Some(resp) => Ok(resp),
            None => Err(FrameError::Malformed("connection closed before response")),
        }
    }

    /// Sends one admin op and blocks for its response. Admin requests
    /// bypass the server's admission control and request queue, so this
    /// works while the data path is overloaded — but do not interleave
    /// it with pipelined queries on the same connection (the next frame
    /// on the wire would be a query response, not the admin response).
    pub fn admin(&mut self, op: AdminOp, id: u64) -> Result<AdminResponse, FrameError> {
        self.outbound.clear();
        let body = encode_admin_request(&AdminRequest::new(id, op));
        frame_into(&mut self.outbound, &body);
        self.stream.get_mut().write_all(&self.outbound)?;
        if !read_frame_into(&mut self.stream, MAX_RESPONSE_FRAME, &mut self.inbound)? {
            return Err(FrameError::Malformed(
                "connection closed before admin response",
            ));
        }
        decode_admin_response(&self.inbound)
    }

    /// Scrapes the merged net + serve + global registries as Prometheus
    /// exposition text.
    pub fn metrics(&mut self) -> Result<String, FrameError> {
        self.admin(AdminOp::Metrics, 0).map(|r| r.payload)
    }

    /// Fetches the server's health document (JSON).
    pub fn health(&mut self) -> Result<String, FrameError> {
        self.admin(AdminOp::Health, 0).map(|r| r.payload)
    }

    /// Dumps the retained slow-query log (JSON).
    pub fn slowlog(&mut self) -> Result<String, FrameError> {
        self.admin(AdminOp::SlowLog, 0).map(|r| r.payload)
    }

    /// Half-closes the write side, telling the server no more requests
    /// are coming; in-flight responses still arrive.
    pub fn finish_sending(&self) -> io::Result<()> {
        self.stream.get_ref().shutdown(std::net::Shutdown::Write)
    }
}
