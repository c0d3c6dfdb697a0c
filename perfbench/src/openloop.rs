//! Open-loop request scheduling.
//!
//! Request `i` is due at `start + i × interval`, whatever happened to
//! earlier requests. Its latency runs from that due time to its reply,
//! so a stall also charges the wait it imposes on the requests queued
//! behind it; how late each request was actually sent is recorded
//! separately as the generator's lag.

use std::time::{Duration, Instant};

/// Schedule and measurements of one open-loop request stream.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    /// Due time → reply, per request, in µs.
    pub latency_us: Vec<f64>,
    /// Due time → send, per request, in ms.
    pub lag_ms: Vec<f64>,
}

impl OpenLoop {
    /// A stream of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            latency_us: Vec::new(),
            lag_ms: Vec::new(),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Sleeps until request `i` is due (returns at once when it is
    /// already late).
    pub fn wait_until_due(&self, i: u64) {
        let due = self.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }

    /// Records request `i`, sent at `sent` and answered at `replied`.
    pub fn record(&mut self, i: u64, sent: Instant, replied: Instant) {
        let due = self.due(i);
        self.latency_us
            .push(replied.saturating_duration_since(due).as_secs_f64() * 1e6);
        self.lag_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_reply_charges_the_requests_behind_it() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut lp = OpenLoop::new(t0, 500.0); // due every 2 ms
        assert_eq!(lp.due(3), t0 + ms(6));
        // Request 0 is sent on time and answered after 5 ms.
        lp.record(0, t0, t0 + ms(5));
        // Request 1 was due at 2 ms but could only go out at 5 ms; it
        // is answered at 5.5 ms. Its latency counts from 2 ms.
        lp.record(1, t0 + ms(5), t0 + Duration::from_micros(5500));
        // Request 2 (due at 4 ms) waits for that reply too.
        lp.record(2, t0 + Duration::from_micros(5500), t0 + ms(6));
        // Request 3 is sent at its due time and answered 0.5 ms later.
        lp.record(3, t0 + ms(6), t0 + Duration::from_micros(6500));
        assert_eq!(lp.latency_us, vec![5000.0, 3500.0, 2000.0, 500.0]);
        assert_eq!(lp.lag_ms, vec![0.0, 3.0, 1.5, 0.0]);
    }
}
