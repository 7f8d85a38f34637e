//! Single-flight builds: concurrent requests that miss on one key share
//! one build instead of each running it.
//!
//! A [`SingleFlight`] keeps one slot, a `Mutex<Option<V>>`, per key being
//! built. A request that misses its store takes the key's slot (creating
//! it) and locks it. The first to lock finds it empty, builds with the lock
//! held, publishes the value to the store and fills the slot; the others
//! block on the lock and answer with the value they then find — without
//! building and without a second store lookup.
//!
//! The store lookup and the slot take happen under one lock, and so do the
//! builder's publish and slot removal. A request therefore either finds the
//! published value or joins the slot — there is no window in which it
//! misses the store after the builder left, so the number of builds equals
//! the number of distinct keys however the requests interleave.
//!
//! A failed or panicking build leaves its slot empty, so whoever locks it
//! next builds again; a slot lock poisoned by a panic is taken over, never
//! propagated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How [`SingleFlight::run`] obtained its value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// The store lookup found it; nothing was built.
    Found,
    /// This call built it.
    Built,
    /// This call waited for another call's build.
    Waited,
}

/// The per-key slots of builds in progress, and a count of the waits.
pub struct SingleFlight<V> {
    slots: Mutex<HashMap<String, Arc<Mutex<Option<V>>>>>,
    waits: AtomicU64,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight { slots: Mutex::new(HashMap::new()), waits: AtomicU64::new(0) }
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Calls answered by another call's build so far.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Keys being built right now.
    pub fn in_flight(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Look `key` up with `lookup`; on a miss, build it once across every
    /// concurrent caller. The builder runs `build` outside the slot map's
    /// lock and, on success, `publish`es the value to the store before any
    /// later caller can look it up again. `lookup` runs exactly once.
    pub fn run<E>(
        &self,
        key: &str,
        lookup: impl FnOnce() -> Option<V>,
        build: impl FnOnce() -> Result<V, E>,
        publish: impl FnOnce(&V),
    ) -> Result<(V, Source), E> {
        let slot = {
            let mut slots = lock(&self.slots);
            if let Some(found) = lookup() {
                return Ok((found, Source::Found));
            }
            Arc::clone(slots.entry(key.to_string()).or_default())
        };
        let mut landed = lock(&slot);
        if let Some(value) = landed.as_ref() {
            self.waits.fetch_add(1, Ordering::Relaxed);
            return Ok((value.clone(), Source::Waited));
        }
        let built = build();
        // Publish and leave under the slot map's lock: a caller that misses
        // the store from here on cannot also find this slot.
        let mut slots = lock(&self.slots);
        if let Ok(value) = &built {
            publish(value);
            *landed = Some(value.clone());
        }
        if slots.get(key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
            slots.remove(key);
        }
        built.map(|value| (value, Source::Built))
    }
}

/// Lock a mutex whose data stays consistent even if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    type Flight = SingleFlight<Arc<String>>;

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let flight = Flight::default();
        let store: Mutex<Option<Arc<String>>> = Mutex::new(None);
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(Arc<String>, Source)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        flight
                            .run(
                                "k",
                                || store.lock().unwrap().clone(),
                                || {
                                    builds.fetch_add(1, Ordering::SeqCst);
                                    std::thread::sleep(Duration::from_millis(50));
                                    Ok::<_, String>(Arc::new("value".to_string()))
                                },
                                |v| *store.lock().unwrap() = Some(Arc::clone(v)),
                            )
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|(v, _)| Arc::ptr_eq(v, &results[0].0)), "one shared value");
        let built = results.iter().filter(|(_, s)| *s == Source::Built).count();
        let waited = results.iter().filter(|(_, s)| *s == Source::Waited).count() as u64;
        assert_eq!(built, 1);
        assert_eq!(flight.waits(), waited);
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn a_failed_build_leaves_the_slot_empty() {
        let flight = Flight::default();
        let err = flight.run("k", || None, || Err("boom"), |_| unreachable!());
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(flight.in_flight(), 0);
        let (value, source) =
            flight.run("k", || None, || Ok::<_, ()>(Arc::new("ok".to_string())), |_| {}).unwrap();
        assert_eq!((value.as_str(), source), ("ok", Source::Built));
    }

    #[test]
    fn a_panicking_build_leaves_the_slot_empty_and_unpoisoned() {
        let flight = Flight::default();
        let started = Barrier::new(2);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                flight.run(
                    "k",
                    || None,
                    || -> Result<Arc<String>, ()> {
                        started.wait();
                        // Let the waiter take the slot before unwinding: the
                        // map, this call and the waiter then hold it.
                        let deadline = std::time::Instant::now() + Duration::from_secs(10);
                        while lock(&flight.slots).get("k").map_or(0, Arc::strong_count) < 3
                            && std::time::Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        panic!("build panicked");
                    },
                    |_| {},
                )
            });
            started.wait();
            let waiter = s.spawn(|| {
                flight.run(
                    "k",
                    || None,
                    || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, ()>(Arc::new("rebuilt".to_string()))
                    },
                    |_| {},
                )
            });
            assert!(leader.join().is_err(), "the panic propagates to its own caller");
            let (value, source) = waiter.join().unwrap().unwrap();
            assert_eq!((value.as_str(), source), ("rebuilt", Source::Built));
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the waiter built in the panic's place");
        assert_eq!(flight.waits(), 0);
        assert_eq!(flight.in_flight(), 0);
        // Not poisoned: a later call still works.
        let (value, _) = flight
            .run("k", || None, || Ok::<_, ()>(Arc::new("later".to_string())), |_| {})
            .unwrap();
        assert_eq!(value.as_str(), "later");
    }
}
