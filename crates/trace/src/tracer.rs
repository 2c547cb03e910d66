//! The tracer: span lifecycle, parent links, and the per-thread
//! installation the instrumentation probes report to.
//!
//! Instrumented code calls the free functions [`crate::span`] and
//! [`crate::count`]; they are no-ops (a single relaxed atomic load) until
//! some thread installs a [`Tracer`] with [`install`]. Installation is
//! thread-scoped: a tracer records only the events emitted by the thread
//! that installed it. Concurrent traced sections on different threads —
//! parallel tests, server handler threads — therefore never write into
//! each other's sinks, and a thread records nothing unless it installs a
//! tracer of its own.

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::clock::{Clock, MonotonicClock, TestClock};
use crate::event::{Counter, Event, SpanId};
use crate::sink::Sink;

struct TracerInner {
    clock: Box<dyn Clock>,
    sink: Box<dyn Sink>,
    next_span: u64,
    /// Open spans, innermost last: `(id, name, begin reading)`.
    stack: Vec<(SpanId, Cow<'static, str>, u64)>,
}

/// A handle to one trace session: a clock, a sink, and the open-span stack.
/// Clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer over an explicit clock and sink.
    pub fn new(clock: impl Clock + 'static, sink: impl Sink + 'static) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                clock: Box::new(clock),
                sink: Box::new(sink),
                next_span: 1,
                stack: Vec::new(),
            })),
        }
    }

    /// A tracer over real monotonic time.
    pub fn monotonic(sink: impl Sink + 'static) -> Tracer {
        Tracer::new(MonotonicClock::new(), sink)
    }

    /// A tracer over the deterministic [`TestClock`] — the configuration
    /// whose serialized output is byte-identical across runs.
    pub fn deterministic(sink: impl Sink + 'static) -> Tracer {
        Tracer::new(TestClock::new(), sink)
    }

    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span, records its `Begin` event, and returns its id.
    pub fn begin(&self, name: Cow<'static, str>) -> SpanId {
        let mut inner = self.lock();
        let id = SpanId(inner.next_span);
        inner.next_span += 1;
        let parent = inner.stack.last().map(|(p, _, _)| *p);
        let t_ns = inner.clock.now_ns();
        inner.stack.push((id, name.clone(), t_ns));
        let event = Event::Begin {
            id,
            parent,
            name,
            t_ns,
        };
        inner.sink.record(&event);
        id
    }

    /// Closes span `id`, recording its `End` event. Any spans opened inside
    /// it and not yet closed are unwound silently (guards make this
    /// unreachable in practice; it keeps the stack sound under panics).
    pub fn end(&self, id: SpanId) {
        let mut inner = self.lock();
        let Some(pos) = inner.stack.iter().rposition(|(s, _, _)| *s == id) else {
            return;
        };
        let (_, name, begin_ns) = inner.stack.swap_remove(pos);
        inner.stack.truncate(pos);
        let t_ns = inner.clock.now_ns();
        let event = Event::End {
            id,
            name,
            t_ns,
            dur_ns: t_ns.saturating_sub(begin_ns),
        };
        inner.sink.record(&event);
    }

    /// Records a counter increment, attributed to the innermost open span.
    pub fn count(&self, counter: Counter, delta: u64) {
        let mut inner = self.lock();
        let span = inner.stack.last().map(|(s, _, _)| *s);
        let t_ns = inner.clock.now_ns();
        let event = Event::Count {
            counter,
            delta,
            span,
            t_ns,
        };
        inner.sink.record(&event);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

/// How many enabled installs are live across all threads. Probes check
/// this before touching thread-local state, so with no tracer installed
/// anywhere they cost one relaxed load. `Relaxed` suffices: the count
/// publishes no data (each thread reads only its own slot), and a thread
/// always observes its own increments.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The tracer installed on this thread, if any.
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Whether a tracer is installed on this thread. When no thread has one
/// installed this is a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0 && CURRENT.with(|c| c.borrow().is_some())
}

/// Keeps a tracer installed on its thread; restores the previously
/// installed tracer (usually none) on drop. Guards are not `Send`: they
/// must drop on the thread that created them, in reverse install order.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub struct InstallGuard {
    previous: Option<Tracer>,
    /// Whether this install enabled the probes (counted in [`INSTALLED`]).
    counted: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
        if self.counted {
            INSTALLED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Installs `tracer` as this thread's trace destination until the
/// returned guard drops. Events emitted on other threads are not
/// recorded; installs on other threads are independent of this one.
///
/// A tracer whose sink [`Sink::is_noop`] (e.g. [`crate::NullSink`]) is
/// installed without enabling the probes: recording events nobody will see
/// would be pure overhead, so the off-state fast path is kept instead.
pub fn install(tracer: &Tracer) -> InstallGuard {
    let counted = !tracer.lock().sink.is_noop();
    let installed = counted.then(|| tracer.clone());
    let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), installed));
    if counted {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
    }
    InstallGuard {
        previous,
        counted,
        _not_send: PhantomData,
    }
}

/// Closes its span when dropped. The disabled form is a no-op shell.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard(Option<(Tracer, SpanId)>);

impl SpanGuard {
    /// The guard's span id, when tracing was enabled at open.
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, id)) = self.0.take() {
            tracer.end(id);
        }
    }
}

/// Opens a span named `name` on this thread's tracer, if any. When no
/// thread has a tracer installed this is one atomic load and returns an
/// inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return SpanGuard(None);
    }
    span_cow(Cow::Borrowed(name))
}

/// [`span`] with a runtime-composed name `prefix + rest`; the allocation
/// happens only when this thread has a tracer installed.
#[inline]
pub fn span_prefixed(prefix: &'static str, rest: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_cow(Cow::Owned(format!("{prefix}{rest}")))
}

fn span_cow(name: Cow<'static, str>) -> SpanGuard {
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(tracer) => {
            let id = tracer.begin(name);
            SpanGuard(Some((tracer, id)))
        }
        None => SpanGuard(None),
    }
}

/// Adds `delta` to `counter` on this thread's tracer, if any. When no
/// thread has a tracer installed this is one atomic load.
#[inline]
pub fn count(counter: Counter, delta: u64) {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    CURRENT.with(|c| {
        if let Some(tracer) = c.borrow().as_ref() {
            tracer.count(counter, delta);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    #[test]
    fn probes_are_inert_without_install() {
        assert!(!enabled());
        let guard = span("nothing");
        assert!(guard.id().is_none());
        count(Counter::MachineSteps, 5);
    }

    #[test]
    fn spans_nest_and_unwind_defensively() {
        let sink = RingSink::new(64);
        let tracer = Tracer::deterministic(sink.clone());
        let outer = tracer.begin(Cow::Borrowed("outer"));
        let _inner = tracer.begin(Cow::Borrowed("inner"));
        // Ending the outer span unwinds the dangling inner one silently.
        tracer.end(outer);
        let events = sink.events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(matches!(&events[2], Event::End { name, .. } if name == "outer"));
    }
}
