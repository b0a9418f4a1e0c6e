//! Blocking accept loops that still shut down promptly.
//!
//! Every listener in the crate (the host's peer and status ports, the
//! gateway) parks a thread in a blocking `accept`, so a connection is
//! served the moment it arrives instead of at the next poll. Shutdown
//! sets the owner's flag and then [`wake`]s the parked thread with a
//! throwaway self-connection; the loop sees the flag and returns,
//! dropping — and so closing — the listener.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Spawns the accept thread for `listener`: each accepted connection goes
/// to `serve` (on the accept thread — spawn from `serve` for long-lived
/// work) until `shutdown` is set and a [`wake`] unblocks the accept, or
/// `accept` fails.
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    mut serve: impl FnMut(TcpStream) + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match conn {
                Ok(stream) => serve(stream),
                Err(_) => return,
            }
        }
    })
}

/// Unblocks an accept thread parked on `addr` by connecting to it once.
/// A wildcard bind address is reached through the loopback interface.
pub(crate) fn wake(addr: SocketAddr) {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    // A refused connection means the listener is already gone — nothing
    // left to wake.
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}
