//! Global string interning for relation names and constants.
//!
//! Data exchange manipulates many small identifiers (relation symbols,
//! constants from `Const`). Interning them into `u32`-backed [`Symbol`]s
//! makes values `Copy`, comparisons O(1), and hash maps fast. The interner
//! is global (rustc-style) so symbols can be freely passed between
//! instances, settings, and chase runs without threading an arena around.
//!
//! The *resolve* path (`Symbol` → string) is lock-free: every interned
//! string is leaked into an append-only array of power-of-two buckets of
//! `OnceLock` slots, published before the symbol id escapes the write
//! lock. Worker threads in `dex-par` pools resolve symbols concurrently
//! without touching the `RwLock`, which only guards the name→id table.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned string. Two `Symbol`s are equal iff the strings they were
/// interned from are equal.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
    table: HashMap<String, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            table: HashMap::new(),
        })
    })
}

// The interner's invariant (table maps name → index into names) cannot be
// broken by a panic mid-update: `intern` pushes and inserts already-built
// values, and those operations abort rather than unwind on allocation
// failure. So a poisoned lock only means *some* thread panicked while
// holding the guard — e.g. a failing assertion inside `as_str` callers in
// a test — and the data is still consistent. Recover instead of wedging
// every later `Symbol` use in the process.

fn read_lock(lock: &RwLock<Interner>) -> RwLockReadGuard<'_, Interner> {
    lock.read().unwrap_or_else(|poison| poison.into_inner())
}

fn write_lock(lock: &RwLock<Interner>) -> RwLockWriteGuard<'_, Interner> {
    lock.write().unwrap_or_else(|poison| poison.into_inner())
}

/// Lock-free id→string side table: bucket `b` is a lazily allocated array
/// of `2^b` slots covering ids whose `id + 1` lies in `[2^b, 2^(b+1))`.
/// Slots are set (with the leaked string) inside `intern`'s write lock
/// *before* the id is published in the table, so any thread holding a
/// `Symbol` finds its slot filled — `OnceLock::set`/`get` provide the
/// release/acquire pairing.
const BUCKETS: usize = 33;

static RESOLVED: [OnceLock<Box<[OnceLock<&'static str>]>>; BUCKETS] =
    [const { OnceLock::new() }; BUCKETS];

fn resolve_slot(id: u32) -> &'static OnceLock<&'static str> {
    let pos = id as u64 + 1;
    let bucket = pos.ilog2() as usize;
    let index = (pos - (1u64 << bucket)) as usize;
    let arr = RESOLVED[bucket].get_or_init(|| {
        let len = 1usize << bucket;
        (0..len).map(|_| OnceLock::new()).collect()
    });
    &arr[index]
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let lock = interner();
        if let Some(&id) = read_lock(lock).table.get(name) {
            return Symbol(id);
        }
        let mut w = write_lock(lock);
        // Double-checked: another thread may have interned it meanwhile.
        if let Some(&id) = w.table.get(name) {
            return Symbol(id);
        }
        let id = w.names.len() as u32;
        w.names.push(name.to_owned());
        // Publish the resolve slot before the id escapes the write lock.
        let _ = resolve_slot(id).set(Box::leak(name.to_owned().into_boxed_str()));
        w.table.insert(name.to_owned(), id);
        Symbol(id)
    }

    /// Resolves the symbol to its interned string without taking any
    /// lock — safe to call from every worker of a `dex-par` pool.
    pub fn resolve(&self) -> &'static str {
        let cell = resolve_slot(self.0);
        if let Some(s) = cell.get() {
            return s;
        }
        // Unreachable for ids produced by `intern` (the slot is filled
        // before the id is published), kept as a belt-and-braces fallback
        // that repairs the slot from the locked table.
        let name = read_lock(interner()).names[self.0 as usize].clone();
        cell.get_or_init(|| Box::leak(name.into_boxed_str()))
    }

    /// Returns the interned string (an owned copy; see [`Symbol::resolve`]
    /// for the allocation-free, lock-free variant).
    pub fn as_str(&self) -> String {
        self.resolve().to_owned()
    }

    /// Raw id, stable within a process. Useful for dense side tables.
    pub fn id(&self) -> u32 {
        self.0
    }

    /// The symbol with raw id `id`, interned or not: lets tests hash
    /// sequential ids without interning a string for each.
    #[cfg(test)]
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.resolve())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.resolve())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("R");
        let b = Symbol::intern("R");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "R");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("beta");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(b.as_str(), "beta");
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::intern("Emp_42");
        assert_eq!(format!("{s}"), "Emp_42");
    }

    #[test]
    fn from_str_impl_interns() {
        let s: Symbol = "zeta".into();
        assert_eq!(s, Symbol::intern("zeta"));
    }

    #[test]
    fn poisoned_lock_recovers() {
        // A thread panicking while holding the interner lock must not
        // wedge interning for the rest of the process (test runners share
        // one process across #[test] fns).
        let _ = std::thread::spawn(|| {
            let guard = super::write_lock(super::interner());
            let _hold = guard;
            panic!("poison the interner on purpose");
        })
        .join();
        let s = Symbol::intern("after-poison");
        assert_eq!(s.as_str(), "after-poison");
        assert_eq!(s, Symbol::intern("after-poison"));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("shared-name")))
            .collect();
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn resolve_is_lock_free_and_agrees_with_as_str() {
        let s = Symbol::intern("resolve-me");
        // Resolve while a *write* lock is held: the old read path would
        // deadlock here, the lock-free slot must not.
        let guard = super::write_lock(super::interner());
        assert_eq!(s.resolve(), "resolve-me");
        assert_eq!(format!("{s}"), "resolve-me");
        drop(guard);
        assert_eq!(s.as_str(), "resolve-me");
        // Repeated resolves return the same leaked allocation.
        assert!(std::ptr::eq(s.resolve(), s.resolve()));
    }

    #[test]
    fn resolve_slot_bucket_math_covers_id_space() {
        // Bucket b covers pos = id+1 in [2^b, 2^(b+1)); spot-check the
        // boundaries up to a few buckets by interning enough symbols that
        // ids cross them, then resolving every one.
        let syms: Vec<Symbol> = (0..70)
            .map(|i| Symbol::intern(&format!("bucket-math-{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.resolve(), format!("bucket-math-{i}"));
        }
    }

    #[test]
    fn interning_stress_64_seeds_8_threads() {
        // 64 seeds × 8 threads hammering intern/resolve over an
        // overlapping name universe: every thread must observe one stable
        // id per name, and resolve must round-trip on all of them.
        use dex_testkit::TestRng;
        use std::collections::HashMap;

        for seed in 0..64u64 {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    std::thread::spawn(move || {
                        let mut rng = TestRng::seed_from_u64(seed * 8 + t);
                        let mut seen: HashMap<String, Symbol> = HashMap::new();
                        for _ in 0..200 {
                            // Small universe per seed → heavy cross-thread
                            // collisions on the same names.
                            let n = rng.gen_range(0..16usize);
                            let name = format!("stress-{seed}-{n}");
                            let sym = Symbol::intern(&name);
                            assert_eq!(sym.resolve(), name);
                            if let Some(prev) = seen.insert(name, sym) {
                                assert_eq!(prev, sym, "id changed across interns");
                            }
                        }
                        seen
                    })
                })
                .collect();
            let maps: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Cross-thread consistency: same name → same id everywhere.
            let mut global: HashMap<String, Symbol> = HashMap::new();
            for map in maps {
                for (name, sym) in map {
                    if let Some(prev) = global.insert(name.clone(), sym) {
                        assert_eq!(prev, sym, "threads disagree on id of {name}");
                    }
                }
            }
        }
    }
}
