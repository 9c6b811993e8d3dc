//! Real-socket runtime for HyperSub protocol nodes.
//!
//! The protocol crates (`hypersub-core`, `hypersub-chord`) are written
//! against [`hypersub_simnet::Ctx`], a context any host can build — this
//! crate is the second host, after the simulator. It runs the very same
//! [`hypersub_simnet::Node`] state machines over TCP:
//!
//! * [`frame`] — 4-byte length-prefixed frames carrying
//!   [`hypersub_simnet::WireMsg`] encodings, plus the connection
//!   handshake that announces the dialer's node index,
//! * [`wheel`] — a timer wheel with the simulator's deadline-then-FIFO
//!   firing order,
//! * [`driver`] — a [`LiveNode`] the caller's thread owns and polls:
//!   non-blocking accepts and reads, outbound connection reuse, and
//!   fail-stop dial/write errors surfaced as `on_send_failed`;
//!   [`run_until`] hosts any number of them on one thread.
//!
//! The `hypersub-node` binary builds a runnable pub/sub node on top.

pub mod driver;
pub mod frame;
pub mod wheel;

pub use driver::{run_until, LiveConfig, LiveNode};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use wheel::TimerWheel;
