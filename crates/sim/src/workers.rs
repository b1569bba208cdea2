//! The persistent epoch worker pool.
//!
//! Every parallel surface in the workspace — the bench crate's job
//! fan-outs, the `MultiGrid` cell executor, the radio map's per-UE
//! prologue and the chunked JSONL ingest — shares one process-wide pool
//! of worker threads ([`global`]) at one width, resolved by
//! [`worker_threads`]. The pool exists because the grid dispatches *twice per
//! simulated millisecond* (radio prologue, then cells): a 61-cell grid
//! stepping 4 s of simulated time performs 8 000 dispatches of a few tens
//! of microseconds of work each, and anything the dispatch path
//! allocates, spawns or asks the kernel for is paid at that rate.
//!
//! Design:
//!
//! * **Threads spawn once per process.** [`EpochPool::dispatch`]
//!   publishes a generation-counter epoch, runs the job on the calling
//!   thread too, then closes the epoch and waits for every helper that
//!   joined to leave. Nothing is boxed, sent, or allocated per dispatch —
//!   the job is a type-erased pointer to the caller's stack closure,
//!   which is sound because `dispatch` cannot return while any worker
//!   still runs it.
//! * **Both sides spin before they park.** A helper waiting for the next
//!   epoch and a dispatcher waiting for its helpers to leave first poll a
//!   lock-free mirror of the awaited counter for [`SPIN_BUDGET`], and
//!   only then sleep on a condvar; a dispatcher that finds nobody parked
//!   skips the wake-up call. Back-to-back epochs a few tens of
//!   microseconds apart therefore complete without a single futex system
//!   call, where park-only cost two per epoch — as much as the work. The
//!   mutex-guarded [`State`] stays the only source of truth (the mirrors
//!   are hints a spinner re-checks under the lock). Spinning is skipped
//!   when the dispatch is wider than the host has cores: a spinner would
//!   then burn the time slice of the very thread it waits for.
//! * **The caller is worker 0 and helper `w` joins only dispatches at
//!   least `w + 1` wide**, so a worker index means the same thread from
//!   one epoch to the next. A helper that wakes late finds the epoch
//!   closed and goes back to waiting; the caller never waits for a helper
//!   to *arrive*, only for those that did to leave.
//! * **Ranges are sticky, leftovers are stolen.**
//!   [`EpochPool::for_each_mut`] cuts a slice into a few contiguous
//!   ranges per worker. Worker `w` starts at its own first range — the
//!   same items every epoch, so their state stays in one core's cache —
//!   and then walks on through everyone else's, taking whatever is still
//!   unclaimed: a helper that never joins costs nothing, because the
//!   caller ends up running every range. Taking a range out of its slot
//!   *is* the claim, which is what hands out `&mut` access without
//!   `unsafe`. [`EpochPool::dispatch`] is the raw form for callers with
//!   their own queue (`run_jobs`). Determinism is the *caller's*
//!   contract: every user files results by item index, so which worker
//!   ran what never reaches the output bytes.
//! * **Dispatches serialize.** One epoch runs at a time process-wide; a
//!   dispatch from inside a running job (a fan-out job that itself
//!   builds a sharded grid) executes inline on the calling worker instead
//!   of deadlocking on the epoch gate. Concurrent dispatchers on distinct
//!   threads queue on the gate.
//!
//! A panicking job marks the epoch poisoned; `dispatch` finishes the
//! barrier handshake (so the borrow stays sound) and then propagates the
//! panic to its caller.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How long either side of the handshake polls before it parks. Longer
/// than the serial stretch between two epochs of a grid step (tens of
/// microseconds), far shorter than a scheduler time slice; a helper left
/// idle burns it once and then sleeps.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Ranges [`EpochPool::for_each_mut`] cuts per worker: more than one, so
/// that a worker whose own items turn out cheap has something to steal.
const RANGES_PER_WORKER: usize = 4;

/// Most ranges one `for_each_mut` cuts; the claim slots live on the
/// dispatcher's stack.
const MAX_RANGES: usize = 16;

/// A type-erased borrow of the dispatching caller's job closure.
///
/// Safety argument for the manual `Send`: a `Job` is only ever built from
/// `&F where F: Fn(usize) + Sync`, published under the state lock, and
/// every worker that copies it out increments `entered` under that same
/// lock; [`EpochPool::dispatch`] does not return (and so the closure is
/// not dropped) until `exited == entered` *after* the job slot is
/// cleared, so no worker can observe a dangling pointer. Sharing `&F`
/// across threads is exactly what `F: Sync` licenses.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

unsafe impl Send for Job {}

/// Epoch state guarded by [`Shared::state`].
struct State {
    /// Generation counter: bumped once per dispatch. Workers remember the
    /// last generation they examined and wait until it moves.
    epoch: u64,
    /// The published job, `None` once the epoch is closed.
    job: Option<Job>,
    /// Highest helper index allowed to join this epoch (`width - 1`): the
    /// pool may hold more threads than a narrow dispatch wants.
    limit: usize,
    /// Helpers that joined the current epoch…
    entered: usize,
    /// …and helpers that have finished the job and left it again.
    exited: usize,
    /// A worker's job invocation panicked this epoch.
    panicked: bool,
    /// Helpers asleep on `work_cv`: a dispatch wakes them only if any.
    parked: usize,
    /// The dispatcher is asleep on `done_cv`.
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers park here between epochs.
    work_cv: Condvar,
    /// The dispatcher parks here while late helpers drain out.
    done_cv: Condvar,
    /// Mirror of `State::epoch` for spinning helpers. Stored (`Release`)
    /// under the state lock after the job is published; a spinner that
    /// sees it move (`Acquire`) still takes the lock to read the job.
    epoch_hint: AtomicU64,
    /// Mirror of `State::exited` for the spinning dispatcher, stored
    /// (`Release`) under the state lock by each leaving helper; the
    /// dispatcher re-reads `exited` under the lock before it returns.
    exited_hint: AtomicUsize,
    /// Host parallelism: dispatches wider than this never spin.
    cores: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("epoch state is never held across a job, so never poisoned")
    }

    /// Poll `ready` until it holds or [`SPIN_BUDGET`] runs out; the caller
    /// re-checks under the lock either way. The clock is read once per 32
    /// polls.
    fn spin_until(&self, ready: impl Fn() -> bool) {
        let start = Instant::now();
        while start.elapsed() < SPIN_BUDGET {
            for _ in 0..32 {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// Persistent pool of worker threads woken per epoch; see the module
/// docs. Use [`global`] — the whole point is that every dispatch site
/// shares one set of threads.
pub struct EpochPool {
    shared: Arc<Shared>,
    /// Dispatch gate; the guarded count is how many threads exist.
    gate: Mutex<usize>,
}

thread_local! {
    /// Set on pool worker threads (permanently) and on a dispatching
    /// caller while it runs its own share of the job, so nested
    /// dispatches degrade to inline execution instead of deadlocking.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker(shared: Arc<Shared>, idx: usize) {
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    // Whether the last epoch examined was one this helper belongs to on
    // a host with a core to spare for it: then the next one is likely
    // microseconds away and worth polling for.
    let mut spin = false;
    loop {
        if spin {
            shared.spin_until(|| shared.epoch_hint.load(Ordering::Acquire) != seen);
        }
        let job = {
            let mut st = shared.lock();
            while st.epoch == seen {
                st.parked += 1;
                st = shared.work_cv.wait(st).expect("epoch state poisoned");
                st.parked -= 1;
            }
            seen = st.epoch;
            let wanted = idx <= st.limit;
            spin = wanted && st.limit < shared.cores;
            match st.job {
                Some(job) if wanted => {
                    st.entered += 1;
                    job
                }
                // Closed before we got here, or too narrow for us.
                _ => continue,
            }
        };
        // SAFETY: `job` was copied out under the lock while the epoch was
        // open and `entered` was bumped in the same critical section, so
        // the dispatcher is now blocked until this thread bumps `exited`;
        // the closure behind `data` outlives this call (see [`Job`]).
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, idx) })).is_ok();
        let mut st = shared.lock();
        if !ok {
            st.panicked = true;
        }
        st.exited += 1;
        shared.exited_hint.store(st.exited, Ordering::Release);
        if st.draining {
            shared.done_cv.notify_one();
        }
    }
}

/// One range of a cut slice: its first index and its items, until a
/// worker takes them.
type RangeSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// A slice cut into contiguous ranges, each in a slot a worker empties to
/// claim it.
struct Ranges<'a, T> {
    slots: [RangeSlot<'a, T>; MAX_RANGES],
    /// Slots filled; never zero.
    used: usize,
}

impl<'a, T> Ranges<'a, T> {
    /// Cut `items` into at most `ranges` (and at most [`MAX_RANGES`])
    /// near-equal contiguous ranges. Fewer items than ranges leaves the
    /// surplus slots empty.
    fn cut(items: &'a mut [T], ranges: usize) -> Self {
        let per_range = items.len().div_ceil(ranges.clamp(1, MAX_RANGES)).max(1);
        let used = items.len().div_ceil(per_range).max(1);
        let mut chunks = items.chunks_mut(per_range);
        let slots =
            std::array::from_fn(|r| Mutex::new(chunks.next().map(|chunk| (r * per_range, chunk))));
        Ranges { slots, used }
    }

    /// Worker `worker` of `width`: run `f` over its own first range, then
    /// over every range nobody has taken yet, in ring order from there.
    fn drain(&self, worker: usize, width: usize, f: &(impl Fn(usize, &mut T) + Sync)) {
        let first = worker * self.used / width;
        for k in 0..self.used {
            let slot = &self.slots[(first + k) % self.used];
            let taken = slot.lock().expect("a range slot is only locked to empty it").take();
            if let Some((base, range)) = taken {
                for (i, item) in range.iter_mut().enumerate() {
                    f(base + i, item);
                }
            }
        }
    }
}

impl EpochPool {
    fn new() -> Self {
        EpochPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    limit: 0,
                    entered: 0,
                    exited: 0,
                    panicked: false,
                    parked: 0,
                    draining: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                epoch_hint: AtomicU64::new(0),
                exited_hint: AtomicUsize::new(0),
                cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            }),
            gate: Mutex::new(0),
        }
    }

    /// Run `f(worker_index)` on the calling thread *and* on pool helpers
    /// `1..width`, returning once every participant has finished. `f` is
    /// typically a claim loop over shared items; correctness must not
    /// depend on which worker claims what, nor on any helper joining at
    /// all — the caller does not wait for helpers to arrive.
    ///
    /// `width <= 1` — and any dispatch from inside a running job — runs
    /// `f(0)` inline with no synchronization at all. The steady-state
    /// dispatch path performs no heap allocation; threads are spawned
    /// the first time a dispatch needs them and then live for the
    /// process.
    pub fn dispatch<F>(&self, width: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if width <= 1 || IN_POOL.with(|c| c.get()) {
            f(0);
            return;
        }
        let helpers = width - 1;
        let shared = &*self.shared;
        let mut gate = self.gate.lock().unwrap();
        while *gate < helpers {
            let shared = Arc::clone(&self.shared);
            let idx = *gate + 1;
            std::thread::Builder::new()
                .name(format!("poi360-epoch-{idx}"))
                .spawn(move || worker(shared, idx))
                .expect("spawn epoch pool worker");
            *gate += 1;
        }

        unsafe fn call_erased<F: Fn(usize)>(data: *const (), idx: usize) {
            unsafe { (*(data as *const F))(idx) }
        }
        let job = Job { data: &f as *const F as *const (), call: call_erased::<F> };
        let wake = {
            let mut st = shared.lock();
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(job);
            st.limit = helpers;
            st.entered = 0;
            st.exited = 0;
            shared.exited_hint.store(0, Ordering::Relaxed);
            shared.epoch_hint.store(st.epoch, Ordering::Release);
            st.parked > 0
        };
        if wake {
            shared.work_cv.notify_all();
        }

        // The caller is worker 0; nested dispatches inside `f` inline.
        IN_POOL.with(|c| c.set(true));
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_POOL.with(|c| c.set(false));

        // Close the epoch and wait out every helper that joined: only
        // after that may `f` — which the erased job borrows — be dropped.
        let panicked = {
            let mut st = shared.lock();
            st.job = None;
            if st.exited != st.entered && width <= shared.cores {
                let entered = st.entered;
                drop(st);
                shared.spin_until(|| shared.exited_hint.load(Ordering::Acquire) == entered);
                st = shared.lock();
            }
            while st.exited != st.entered {
                st.draining = true;
                st = shared.done_cv.wait(st).expect("epoch state poisoned");
            }
            st.draining = false;
            std::mem::replace(&mut st.panicked, false)
        };
        drop(gate);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        assert!(!panicked, "an epoch pool worker panicked while running a dispatched job");
    }

    /// Run `f(index, &mut items[index])` for every item, on the calling
    /// thread and up to `width - 1` helpers: the slice is cut into sticky
    /// contiguous ranges with stealing (module docs). Every item is
    /// visited exactly once whatever `width` and `items.len()` are and
    /// whether or not any helper joins; with one worker or one item it is
    /// a plain loop. A panic in `f` propagates once every range in flight
    /// has finished, leaving the items of the ranges it cut short
    /// unvisited.
    pub fn for_each_mut<T: Send>(
        &self,
        width: usize,
        items: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        let width = width.min(items.len());
        if width <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let ranges = Ranges::cut(items, width * RANGES_PER_WORKER);
        self.dispatch(width, |w| ranges.drain(w, width, &f));
    }
}

/// The process-wide pool. Every dispatch site — `bench::runner`'s job
/// fan-outs, the `MultiGrid` cell executor, `RadioMap::advance_all` and
/// `RunTrace::parse_chunked` — must use this instance so the process never
/// holds more worker threads than one pool's worth.
pub fn global() -> &'static EpochPool {
    static POOL: OnceLock<EpochPool> = OnceLock::new();
    POOL.get_or_init(EpochPool::new)
}

/// Process-wide width override (0 = unset), set by [`set_worker_threads`]
/// and scoped by [`with_worker_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the worker-pool width for this process (0 clears the override).
pub fn set_worker_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Run `f` with the worker-pool width pinned to `threads`, then put back
/// whatever override was in force before (also when `f` panics). Scopes
/// on different threads exclude each other through one process-wide lock,
/// so two width comparisons in one test binary cannot overwrite each
/// other's pin mid-run; a scope opened inside another on the same thread
/// nests under the lock its thread already holds.
pub fn with_worker_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static SCOPE: Mutex<()> = Mutex::new(());
    thread_local!(static NESTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
    struct Restore(usize, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_worker_threads(self.0);
            NESTED.set(self.1);
        }
    }
    let nested = NESTED.replace(true);
    // The lock guards no data, and `Restore` undoes the pin on unwind, so a
    // scope that panicked leaves nothing for the next one to trip over.
    let _lock = (!nested).then(|| SCOPE.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    let _restore = Restore(THREAD_OVERRIDE.swap(threads, Ordering::Relaxed), nested);
    f()
}

/// The width every pool user dispatches at — `run_jobs` fan-outs, the
/// `MultiGrid` shard count, the ingest's chunk count — which must reuse
/// this resolution rather than re-reading the environment: the
/// [`set_worker_threads`] override if set, else the `POI360_THREADS`
/// environment variable, else `available_parallelism` (min 1 in every
/// case). An unparsable env value warns exactly once per process, however
/// many resolutions run.
pub fn worker_threads() -> usize {
    let pinned = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Ok(env) = std::env::var("POI360_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!("warning: ignoring unparsable POI360_THREADS={env:?}");
        });
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dispatch_runs_every_claimed_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let next = AtomicUsize::new(0);
        global().dispatch(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= hits.len() {
                break;
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn thread_override_takes_priority() {
        assert_eq!(with_worker_threads(3, worker_threads), 3);
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn width_one_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let slot = Mutex::new(None);
        global().dispatch(1, |w| *slot.lock().unwrap() = Some((w, std::thread::current().id())));
        assert_eq!(*slot.lock().unwrap(), Some((0, caller)));
    }

    #[test]
    fn sequential_dispatches_reuse_the_pool() {
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            let next = AtomicUsize::new(0);
            global().dispatch(3, |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 10 {
                    break;
                }
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45 + 10 * round);
        }
    }

    #[test]
    fn nested_dispatch_degrades_to_inline_instead_of_deadlocking() {
        let outer = AtomicUsize::new(0);
        let inner_total = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        global().dispatch(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= 8 {
                break;
            }
            outer.fetch_add(1, Ordering::Relaxed);
            let inner_next = AtomicUsize::new(0);
            global().dispatch(4, |_| loop {
                let j = inner_next.fetch_add(1, Ordering::Relaxed);
                if j >= 5 {
                    break;
                }
                inner_total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert_eq!(inner_total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn worker_panic_propagates_to_the_dispatcher() {
        // Force the panic onto the caller (worker 0) so the test is
        // deterministic even when helpers never wake in time.
        let result = catch_unwind(AssertUnwindSafe(|| {
            global().dispatch(2, |w| {
                if w == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "a panicking job must fail the dispatch");
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        global().dispatch(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);

        // The same from inside a *stolen* range, on a helper. The caller
        // waits in the first item it runs until the helper has taken one
        // of the caller's ranges (the lower half of the ring) — at once
        // if it got to range 0 first, else after walking through its own
        // half — and panicked on that range's first item.
        let mut items = vec![0u32; 64];
        let per_range = items.len() / (2 * RANGES_PER_WORKER);
        let caller = std::thread::current().id();
        let stolen = std::sync::atomic::AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            global().for_each_mut(2, &mut items, |i, hits| {
                *hits += 1;
                if std::thread::current().id() == caller {
                    while !stolen.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                } else if i < RANGES_PER_WORKER * per_range && !stolen.swap(true, Ordering::AcqRel)
                {
                    panic!("boom in a stolen range");
                }
            });
        }));
        assert!(result.is_err(), "a helper's panic must fail the dispatch");
        // The handshake completed before the panic surfaced: the borrow
        // is back, nothing ran twice, and only the cut-short range has
        // unvisited items.
        assert!(items.iter().all(|&hits| hits <= 1));
        let unvisited = items.iter().filter(|&&hits| hits == 0).count();
        assert_eq!(unvisited, per_range - 1, "hits {items:?}");
        global().for_each_mut(2, &mut items, |_, hits| *hits = 7);
        assert!(items.iter().all(|&hits| hits == 7));
    }

    #[test]
    fn for_each_mut_visits_every_item_once_at_any_width_and_length() {
        for len in [0usize, 1, 2, 3, 5, 16, 19, 61, 64, 100] {
            for width in [0usize, 1, 2, 3, 4, 7, 40] {
                let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); len];
                global().for_each_mut(width, &mut items, |i, item| {
                    item.0 = i;
                    item.1 += 1;
                });
                for (i, item) in items.iter().enumerate() {
                    assert_eq!(*item, (i, 1), "len {len} width {width}");
                }
            }
        }
    }

    #[test]
    fn a_lone_worker_drains_every_range() {
        // The caller of an epoch no helper joins, and equally a helper
        // whose peers all finished: whichever worker walks the ring alone
        // runs all of it, empty slots included.
        for len in [0usize, 1, 3, 19, 61] {
            for width in [2usize, 3, 4, 7, 40] {
                for worker in [0, width - 1] {
                    let mut items = vec![0u32; len];
                    let ranges = Ranges::cut(&mut items, width * RANGES_PER_WORKER);
                    let seen = Mutex::new(Vec::new());
                    ranges.drain(worker, width, &|i, item: &mut u32| {
                        *item += 1;
                        seen.lock().unwrap().push(i);
                    });
                    ranges.drain(worker, width, &|_, _: &mut u32| panic!("a range ran twice"));
                    let mut seen = seen.into_inner().unwrap();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len} width {width}");
                    assert!(items.iter().all(|&hits| hits == 1));
                }
            }
        }
    }

    #[test]
    fn concurrent_dispatchers_serialize_on_the_gate() {
        let results: Vec<_> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|k| {
                    scope.spawn(move || {
                        let sum = std::sync::atomic::AtomicU64::new(0);
                        let next = AtomicUsize::new(0);
                        global().dispatch(3, |_| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed) as u64;
                            if i >= 20 {
                                break;
                            }
                            sum.fetch_add(i * (k + 1), Ordering::Relaxed);
                        });
                        sum.load(Ordering::Relaxed)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(results, vec![190, 380, 570, 760]);
    }
}
