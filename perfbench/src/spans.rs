//! Spans of the traced run, kept in memory and written at the end as
//! Chrome trace-event JSON (`wilocator-tracedump` and Perfetto read it).
//!
//! Each timed call is one complete (`"ph":"X"`) event named by its layer.
//! A batch or request is a root span; the calls made for it share its
//! trace id (`tid`) and nest inside it in time.

use std::fmt::Write as _;
use std::time::Instant;

/// Process ids grouping the roots in the viewer.
pub const PID_BATCH: u32 = 0;
/// Rider requests.
pub const PID_REQUEST: u32 = 1;
/// Set-up calls (index builds, training).
pub const PID_SETUP: u32 = 2;

#[derive(Debug)]
struct Event {
    name: &'static str,
    pid: u32,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    parent: Option<&'static str>,
}

/// The span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    cap: usize,
    events: Vec<Event>,
    dropped: u64,
}

impl Spans {
    /// A store timing from `origin`, holding at most `cap` spans (later
    /// ones are counted and dropped).
    pub fn new(origin: Instant, cap: usize) -> Spans {
        Spans {
            origin,
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one span. `parent` names the root it belongs to (`None`
    /// for a root). Start and end are truncated to whole microseconds
    /// separately, so a child never sticks out of its parent.
    pub fn push(
        &mut self,
        name: &'static str,
        pid: u32,
        tid: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        let ts_us = us(start);
        self.events.push(Event {
            name,
            pid,
            tid,
            ts_us,
            dur_us: us(end).saturating_sub(ts_us),
            parent,
        });
    }

    /// Spans held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Spans dropped at the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
                e.name, e.ts_us, e.dur_us, e.pid, e.tid
            );
            if let Some(parent) = e.parent {
                let _ = write!(out, ",\"args\":{{\"parent\":\"{parent} {}\"}}", e.tid);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn export_parses_and_nests() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_nanos(us * 1_000 + 400);
        let mut spans = Spans::new(origin, 10);
        spans.push("rank", PID_BATCH, 3, Some("batch"), at(10), at(12));
        spans.push("locate", PID_BATCH, 3, Some("batch"), at(12), at(20));
        spans.push("batch", PID_BATCH, 3, None, at(10), at(20));
        let events = wilocator_tracedump::parse_trace(&spans.chrome_json()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].ts, 10);
        assert_eq!(events[0].dur, 2);
        assert_eq!(
            events[1].arg("parent").and_then(|p| p.as_str()),
            Some("batch 3")
        );
        wilocator_tracedump::validate_nesting(&events).unwrap();
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_kept() {
        let origin = Instant::now();
        let mut spans = Spans::new(origin, 1);
        spans.push("a", PID_SETUP, 0, None, origin, origin);
        spans.push("b", PID_SETUP, 0, None, origin, origin);
        assert_eq!((spans.len(), spans.dropped()), (1, 1));
    }
}
