//! Polling helpers for pending handles.
//!
//! [`wait_with_deadline`] polls one source (a service ticket, a metrics
//! condition) until it yields or a deadline passes, parking between
//! polls.

use std::time::{Duration, Instant};

/// Polls `poll` until it yields, parking `interval` between attempts, for
/// at most `deadline`. Returns `None` when the deadline passes first.
///
/// The first poll happens immediately, so an already-resolved source
/// never waits; a zero `deadline` means exactly one poll.
pub fn wait_with_deadline<T>(
    deadline: Duration,
    interval: Duration,
    mut poll: impl FnMut() -> Option<T>,
) -> Option<T> {
    let until = Instant::now() + deadline;
    loop {
        if let Some(out) = poll() {
            return Some(out);
        }
        let now = Instant::now();
        if now >= until {
            return None;
        }
        std::thread::sleep(interval.min(until - now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_with_deadline_returns_immediately_when_ready() {
        let out = wait_with_deadline(Duration::ZERO, Duration::from_millis(1), || Some(7));
        assert_eq!(out, Some(7));
    }

    #[test]
    fn wait_with_deadline_polls_until_resolution() {
        let mut remaining = 3;
        let out = wait_with_deadline(Duration::from_secs(5), Duration::from_millis(1), || {
            if remaining == 0 {
                Some("done")
            } else {
                remaining -= 1;
                None
            }
        });
        assert_eq!(out, Some("done"));
    }

    #[test]
    fn wait_with_deadline_gives_up() {
        let t0 = Instant::now();
        let out: Option<()> =
            wait_with_deadline(Duration::from_millis(10), Duration::from_millis(1), || None);
        assert_eq!(out, None);
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }
}
