//! Span recording: a process-global [`Recorder`] holding one store of
//! finished spans, and scoped [`SpanGuard`] timers.
//!
//! The hot path is built around one invariant: **with no recorder
//! installed, instrumentation costs a single relaxed atomic load**. When
//! a recorder is installed, each finished span is folded into the
//! store under one lock: into its name's duration [`Histogram`], which
//! is exact for the recorder's lifetime, and onto a list of the newest
//! `STORE_CAP` events for the Chrome trace, which drops the oldest. The
//! instrumented sites are coarse (a merge pair, a verify stage, a batch
//! stage, a frame), so that one lock is not a point of contention.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::export;
use crate::hist::Histogram;

/// Events a [`Recorder`] retains for [`Recorder::events`]; past it the
/// oldest are evicted and counted in [`Recorder::dropped`].
const STORE_CAP: usize = 262_144;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Option<Arc<Mutex<Store>>>> = Mutex::new(None);

thread_local! {
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) + 1;
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Nanoseconds since an arbitrary process-wide epoch, from a monotonic
/// clock. All span timestamps share this epoch, so durations and
/// cross-thread orderings are meaningful within one process.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A static span name. Declare one per instrumentation site:
///
/// ```
/// static MERGE: cts_obs::Name = cts_obs::Name::new("pipeline.merge_level");
/// ```
pub struct Name {
    text: &'static str,
}

impl Name {
    /// A new name. `const`, so names can be statics.
    pub const fn new(text: &'static str) -> Name {
        Name { text }
    }

    /// The name text.
    pub fn text(&self) -> &'static str {
        self.text
    }
}

/// One finished span, as retained by a [`Recorder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Process-unique span id (never 0).
    pub span_id: u64,
    /// Enclosing span's id, or 0 for a root span.
    pub parent: u64,
    /// The span name.
    pub name: &'static str,
    /// Start timestamp, [`now_ns`] epoch.
    pub t_start_ns: u64,
    /// End timestamp, [`now_ns`] epoch.
    pub t_end_ns: u64,
    /// Free-form site-defined attribute (sink count, level, priority…).
    pub attr: u64,
    /// Process-unique id of the thread that produced the event.
    pub thread: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (0 if the clock read backwards).
    pub fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// Per-name duration aggregate built by [`Recorder::summaries`].
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Duration distribution (nanoseconds) across every recorded event.
    pub durations: Histogram,
}

#[derive(Default)]
struct Store {
    /// The newest events, at most `STORE_CAP`.
    events: VecDeque<SpanEvent>,
    /// Durations of every recorded event, by name.
    summaries: BTreeMap<&'static str, Histogram>,
    /// Events evicted from `events`.
    dropped: u64,
}

impl Store {
    fn push(&mut self, event: SpanEvent) {
        let durations = self.summaries.entry(event.name).or_default();
        durations.record(event.duration_ns());
        if self.events.len() == STORE_CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Handle to the process-global span recorder.
///
/// At most one recorder is installed at a time; [`Recorder::install`]
/// replaces any previous one. Cloning the handle is cheap and all clones
/// observe the same recorded events.
#[derive(Clone)]
pub struct Recorder {
    store: Arc<Mutex<Store>>,
}

impl Recorder {
    /// Installs a fresh recorder as the process global and enables span
    /// recording. Every span finished from then on lands in it.
    pub fn install() -> Recorder {
        let mut global = lock(&GLOBAL);
        let store = Arc::<Mutex<Store>>::default();
        *global = Some(store.clone());
        ENABLED.store(true, Ordering::Release);
        Recorder { store }
    }

    /// Disables recording and drops the process-global recorder (handles
    /// already held stay usable for reading what was recorded).
    pub fn uninstall() {
        let mut global = lock(&GLOBAL);
        ENABLED.store(false, Ordering::Release);
        *global = None;
    }

    /// The currently installed recorder, if any.
    pub fn global() -> Option<Recorder> {
        lock(&GLOBAL).as_ref().map(|store| Recorder {
            store: store.clone(),
        })
    }

    /// Whether a recorder is installed and recording. This is the check
    /// every instrumentation site performs first — one relaxed load.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Does nothing: a span lands in the store when it finishes, so
    /// [`Recorder::events`] and [`Recorder::summaries`] are always up to
    /// date. Kept for callers that drain before they read.
    pub fn collect(&self) {}

    /// The retained events (the newest `STORE_CAP` recorded), ordered by
    /// start time (ties by span id).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut events: Vec<SpanEvent> = lock(&self.store).events.iter().cloned().collect();
        events.sort_by_key(|e| (e.t_start_ns, e.span_id));
        events
    }

    /// Per-name duration histograms over every recorded event, evicted
    /// ones included, sorted by name.
    pub fn summaries(&self) -> Vec<SpanSummary> {
        lock(&self.store)
            .summaries
            .iter()
            .map(|(&name, durations)| SpanSummary {
                name,
                durations: durations.clone(),
            })
            .collect()
    }

    /// Events missing from [`Recorder::events`]: the oldest, evicted past
    /// the retention cap (they still count in [`Recorder::summaries`]).
    pub fn dropped(&self) -> u64 {
        lock(&self.store).dropped
    }

    /// Renders everything retained so far as Chrome trace-event JSON (see
    /// [`crate::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.events())
    }
}

/// Folds a finished span into the installed recorder's store, if any.
fn push_event(mut event: SpanEvent) {
    event.thread = THREAD.try_with(|t| *t).unwrap_or(0);
    if let Some(store) = lock(&GLOBAL).as_ref() {
        lock(store).push(event);
    }
}

/// Starts a span named `name`. Inert (a no-op guard) when no recorder is
/// installed. The span ends — and is recorded — when the guard drops.
pub fn span(name: &'static Name) -> SpanGuard {
    span_with(name, 0)
}

/// Like [`span`], carrying a site-defined `u64` attribute (sink count,
/// tree level, priority — whatever the taxonomy documents for the site).
pub fn span_with(name: &'static Name, attr: u64) -> SpanGuard {
    if !Recorder::enabled() {
        return SpanGuard {
            name,
            span_id: 0,
            parent: 0,
            start: 0,
            attr: 0,
        };
    }
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = CURRENT_PARENT.with(|p| p.replace(span_id));
    SpanGuard {
        name,
        span_id,
        parent,
        start: now_ns(),
        attr,
    }
}

/// Records a completed span directly, bypassing the thread-local parent
/// stack — for measurements that start on one thread and end on another
/// (queue waits, connection lifetimes). Returns the allocated span id
/// (0 when no recorder is installed).
pub fn record(name: &'static Name, parent: u64, t_start_ns: u64, t_end_ns: u64, attr: u64) -> u64 {
    if !Recorder::enabled() {
        return 0;
    }
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed) + 1;
    push_event(SpanEvent {
        span_id,
        parent,
        name: name.text(),
        t_start_ns,
        t_end_ns,
        attr,
        thread: 0,
    });
    span_id
}

/// RAII timer returned by [`span`] / [`span_with`]. Dropping it ends the
/// span and records the event.
pub struct SpanGuard {
    name: &'static Name,
    span_id: u64,
    parent: u64,
    start: u64,
    attr: u64,
}

impl SpanGuard {
    /// This span's id, usable as an explicit parent for [`record`].
    /// 0 when the guard is inert (no recorder installed at creation).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Overwrites the attribute recorded when the span ends — for sites
    /// where the value (a count, a result size) is only known mid-span.
    pub fn set_attr(&mut self, attr: u64) {
        self.attr = attr;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.span_id == 0 {
            return;
        }
        let end = now_ns();
        let _ = CURRENT_PARENT.try_with(|p| p.set(self.parent));
        if Recorder::enabled() {
            push_event(SpanEvent {
                span_id: self.span_id,
                parent: self.parent,
                name: self.name.text(),
                t_start_ns: self.start,
                t_end_ns: end,
                attr: self.attr,
                thread: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; serialize tests that install one.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock(&TEST_LOCK)
    }

    static OUTER: Name = Name::new("test.outer");
    static INNER: Name = Name::new("test.inner");
    static MANUAL: Name = Name::new("test.manual");
    static FLOOD: Name = Name::new("test.flood");

    #[test]
    fn disabled_guard_is_inert() {
        let _g = serial();
        Recorder::uninstall();
        assert!(!Recorder::enabled());
        let guard = span_with(&OUTER, 7);
        assert_eq!(guard.id(), 0);
        drop(guard);
        assert_eq!(record(&MANUAL, 0, 1, 2, 3), 0);
    }

    #[test]
    fn nesting_links_parent_ids() {
        let _g = serial();
        let recorder = Recorder::install();
        let outer_id;
        {
            let outer = span(&OUTER);
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = span_with(&INNER, 5);
                assert_ne!(inner.id(), outer_id);
            }
        }
        let events = recorder.events();
        Recorder::uninstall();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        assert_eq!(inner.parent, outer.span_id);
        assert_eq!(outer.span_id, outer_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.attr, 5);
        assert!(inner.t_start_ns >= outer.t_start_ns);
        assert!(inner.t_end_ns <= outer.t_end_ns);
    }

    #[test]
    fn manual_record_crosses_threads() {
        let _g = serial();
        let recorder = Recorder::install();
        let t0 = now_ns();
        let handle = std::thread::spawn(move || {
            record(&MANUAL, 0, t0, now_ns(), 42);
        });
        handle.join().unwrap();
        {
            let _local = span(&OUTER);
        }
        let events = recorder.events();
        Recorder::uninstall();
        assert_eq!(events.len(), 2);
        let manual = events.iter().find(|e| e.name == "test.manual").unwrap();
        let local = events.iter().find(|e| e.name == "test.outer").unwrap();
        assert_eq!(manual.attr, 42);
        assert_ne!(manual.thread, local.thread, "distinct thread ids");
    }

    #[test]
    fn a_thread_keeps_every_span_without_collect() {
        let _g = serial();
        let recorder = Recorder::install();
        let n = 20_000;
        for i in 0..n {
            record(&FLOOD, 0, i, i + 1, i);
        }
        let events = recorder.events();
        let dropped = recorder.dropped();
        Recorder::uninstall();
        assert_eq!(events.len() as u64, n);
        assert_eq!(dropped, 0);
        assert!(events.iter().enumerate().all(|(i, e)| e.attr == i as u64));
    }

    #[test]
    fn past_the_cap_the_oldest_are_evicted_and_counted_exactly() {
        let _g = serial();
        let recorder = Recorder::install();
        // The cap is global: one thread fills it, others push past it.
        std::thread::spawn(|| {
            for i in 0..STORE_CAP as u64 {
                record(&FLOOD, 0, i, i + 1, i);
            }
        })
        .join()
        .unwrap();
        for i in 0..100 {
            std::thread::spawn(move || record(&MANUAL, 0, 0, 1, i))
                .join()
                .unwrap();
        }
        let events = recorder.events();
        let (dropped, summaries) = (recorder.dropped(), recorder.summaries());
        Recorder::uninstall();
        assert_eq!(dropped, 100);
        assert_eq!(events.len(), STORE_CAP);
        // The newest survive: the trace of a long run ends at its end.
        let manual: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "test.manual")
            .map(|e| e.attr)
            .collect();
        assert_eq!(manual, (0..100).collect::<Vec<u64>>());
        let oldest_flood = events
            .iter()
            .filter(|e| e.name == "test.flood")
            .map(|e| e.attr)
            .min();
        assert_eq!(oldest_flood, Some(100), "the 100 oldest flood events went");
        assert_eq!(summaries[0].durations.count(), STORE_CAP as u64);
        assert_eq!(summaries[1].durations.count(), 100);
    }

    #[test]
    fn summaries_count_every_recorded_event() {
        let _g = serial();
        let recorder = Recorder::install();
        let n = STORE_CAP as u64 + 1_000;
        for i in 0..n {
            record(&FLOOD, 0, 0, 1, i);
        }
        let summaries = recorder.summaries();
        let retained = recorder.events().len();
        Recorder::uninstall();
        assert_eq!(summaries[0].durations.count(), n);
        assert_eq!(retained, STORE_CAP);
    }

    #[test]
    fn reinstall_starts_clean() {
        let _g = serial();
        let first = Recorder::install();
        {
            let _s = span(&OUTER);
        }
        assert_eq!(first.events().len(), 1);
        let second = Recorder::install();
        {
            let _s = span(&INNER);
        }
        let events = second.events();
        Recorder::uninstall();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "test.inner");
        // The first handle still serves what it recorded earlier.
        assert_eq!(first.events().len(), 1);
    }

    #[test]
    fn summaries_aggregate_by_name() {
        let _g = serial();
        let recorder = Recorder::install();
        for i in 0..10 {
            record(&FLOOD, 0, 0, 1 << i, 0);
        }
        record(&MANUAL, 0, 0, 5, 0);
        let summaries = recorder.summaries();
        Recorder::uninstall();
        assert_eq!(summaries.len(), 2);
        // BTreeMap ordering: test.flood before test.manual.
        assert_eq!(summaries[0].name, "test.flood");
        assert_eq!(summaries[0].durations.count(), 10);
        assert_eq!(summaries[0].durations.max(), 512);
        assert_eq!(summaries[1].name, "test.manual");
        assert_eq!(summaries[1].durations.count(), 1);
    }

    #[test]
    fn set_attr_overrides_initial_value() {
        let _g = serial();
        let recorder = Recorder::install();
        {
            let mut guard = span_with(&OUTER, 1);
            guard.set_attr(99);
        }
        let events = recorder.events();
        Recorder::uninstall();
        assert_eq!(events[0].attr, 99);
    }
}
