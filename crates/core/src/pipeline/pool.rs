//! The one compile pool, and the worker count both it and the solver's
//! sweep size themselves by.

use super::QuarantineReason;
use cla_cfront::CError;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// Renders a `catch_unwind` payload as text (the conventional `&str` /
/// `String` payloads; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker count a `jobs` setting asks for: `0` means one per core this
/// process may run on. The compile pool and the solver's sweep both size
/// themselves here; answers never depend on it.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// The one compile pool: runs `one` over every file, given its input
/// index, on up to `jobs` threads (0 = one per CPU, never more than there
/// are files) and hands each result to `sink` on the calling thread, tagged with its input index
/// and how long `one` took. Returns the thread count used.
///
/// * Every `one` runs under `catch_unwind`: a panic in the frontend is a
///   bug in *our* code, but it is triggered by *their* bytes, and one
///   hostile file must not take down the run or a worker. A typed error or
///   a panic reaches the sink as a [`QuarantineReason`].
/// * In `strict` mode a failure never reaches the sink: the pool stops
///   claiming files past it, finishes the ones before it, and returns the
///   failure of the *lowest input index* as a typed `CError` — the same
///   error at any `jobs`.
/// * Results arrive in completion order. `sink` returns how many inputs
///   (the in-order prefix) it has consumed for good; workers block rather
///   than start a file more than `2 × jobs` past that, which bounds what a
///   sink that must consume in order (a
///   [`StreamLinker`](cla_cladb::StreamLinker)) ever buffers.
/// * With one job the same claim → compile → deliver body runs inline on
///   the calling thread; no thread is spawned.
///
/// # Errors
///
/// Strict mode only: the lowest-index failure.
pub(super) fn compile_all<T: Send>(
    files: &[&str],
    jobs: usize,
    strict: bool,
    one: impl Fn(usize, &str) -> Result<T, CError> + Sync,
    mut sink: impl FnMut(usize, Duration, Result<T, QuarantineReason>) -> usize,
) -> Result<usize, CError> {
    /// Shared between the workers and the delivering thread.
    struct Progress {
        /// What `sink` last returned.
        consumed: usize,
        /// Files past this index are not started (strict failure, or the
        /// delivering thread is gone).
        stop: usize,
    }
    /// Runs `F` however the scope it lives in is left.
    struct OnDrop<F: Fn()>(F);
    impl<F: Fn()> Drop for OnDrop<F> {
        fn drop(&mut self) {
            (self.0)();
        }
    }
    const POISON: &str = "only plain assignments run under the pool's progress lock";

    let jobs = resolve_jobs(jobs).clamp(1, files.len().max(1));
    let window = jobs * 2;
    let next = AtomicUsize::new(0);
    let progress = Mutex::new(Progress {
        consumed: 0,
        stop: usize::MAX,
    });
    let unblocked = Condvar::new();
    let stop_past = |i: usize| {
        let mut p = progress.lock().expect(POISON);
        p.stop = p.stop.min(i);
        drop(p);
        unblocked.notify_all();
    };
    // Claim → compile → deliver, until the files (or the reasons to go on)
    // run out.
    type Delivery<T> = (usize, Duration, Result<T, QuarantineReason>);
    let work = |deliver: &mut dyn FnMut(Delivery<T>)| loop {
        let i = next.fetch_add(1, Relaxed);
        if i >= files.len() {
            break;
        }
        {
            let mut p = progress.lock().expect(POISON);
            while i <= p.stop && i >= p.consumed + window {
                p = unblocked.wait(p).expect(POISON);
            }
            if i > p.stop {
                break;
            }
        }
        let t = std::time::Instant::now();
        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| one(i, files[i]))) {
            Ok(Ok(c)) => Ok(c),
            Ok(Err(e)) => Err(QuarantineReason::Error(e)),
            Err(payload) => Err(QuarantineReason::Panic(panic_message(payload))),
        };
        // Indices are claimed in order, so everything before `i` is already
        // running or done: stopping *past* `i` still compiles all of them,
        // and the lowest failing index is found whatever the timing.
        if strict && r.is_err() {
            stop_past(i);
        }
        deliver((i, t.elapsed(), r));
    };
    let mut failure: Option<(usize, QuarantineReason)> = None;
    let mut accept = |(i, dur, r): Delivery<T>| match r {
        Err(reason) if strict => {
            if failure.as_ref().is_none_or(|(first, _)| i < *first) {
                failure = Some((i, reason));
            }
        }
        r => {
            let consumed = sink(i, dur, r);
            progress.lock().expect(POISON).consumed = consumed;
            unblocked.notify_all();
        }
    };
    if jobs == 1 {
        work(&mut accept);
    } else {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                // A send only fails once the receiver below is gone, and
                // then `stop` is already 0.
                scope.spawn(|| work(&mut move |d| drop(tx.send(d))));
            }
            drop(tx);
            // Should `sink` panic, the scope still joins the workers: wake
            // the ones waiting on it into stopping.
            let _wake = OnDrop(|| stop_past(0));
            rx.into_iter().for_each(&mut accept);
        });
    }
    match failure {
        // Panics become a `CError` instead of re-raising, so even fail-fast
        // callers get a value, never a poisoned thread pool.
        Some((_, QuarantineReason::Error(e))) => Err(e),
        Some((_, QuarantineReason::Panic(msg))) => Err(CError::parse(
            format!("internal frontend panic: {msg}"),
            cla_cfront::Loc::BUILTIN,
        )),
        None => Ok(jobs),
    }
}
