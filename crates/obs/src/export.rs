//! The Chrome trace-event JSON exporter.

use std::fmt::Write as _;

use crate::span::SpanEvent;

/// Renders drained span events as Chrome trace-event JSON — a flat array
/// of complete (`"ph":"X"`) events, directly loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). Timestamps
/// and durations are microseconds (fractional); span id, parent id, and
/// the site attribute ride along in `args`.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push('[');
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = event.t_start_ns as f64 / 1000.0;
        let dur = event.duration_ns() as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"cts\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"span\":{},\"parent\":{},\"attr\":{}}}}}",
            escape(event.name),
            event.thread,
            ts,
            dur,
            event.span_id,
            event.parent,
            event.attr,
        );
    }
    out.push(']');
    out
}

fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(span_id: u64, parent: u64, name: &'static str, t0: u64, t1: u64) -> SpanEvent {
        SpanEvent {
            span_id,
            parent,
            name,
            t_start_ns: t0,
            t_end_ns: t1,
            attr: 3,
            thread: 2,
        }
    }

    #[test]
    fn chrome_trace_shape_is_exact() {
        let events = vec![event(1, 0, "a.b", 1500, 4000)];
        assert_eq!(
            chrome_trace(&events),
            "[{\"name\":\"a.b\",\"cat\":\"cts\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\
             \"ts\":1.5,\"dur\":2.5,\"args\":{\"span\":1,\"parent\":0,\"attr\":3}}]"
        );
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn names_are_json_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
