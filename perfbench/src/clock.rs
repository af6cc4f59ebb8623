//! What the timed windows are measured with: the process's CPU time, and
//! a fixed reference computation that prices the host's current speed.
//!
//! The reference host is a shared 2-vCPU virtual machine. Time its vCPUs
//! spend descheduled (steal, other processes) shows in wall time but not in
//! CPU time, and a slowdown that reaches CPU time too (neighbours sharing
//! caches and cores) slows the reference computation too, if a little less
//! than the program. A request's cost is its CPU time priced by a
//! reference computation run right after it: see [`price`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;

/// CPU time of the whole process (all threads), in ns.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Elsewhere, wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The reference computation's time, in ms, at which cost is CPU time.
/// Set near its time on the reference host, so costs read close to
/// milliseconds there.
pub const REF_MS: f64 = 1.5;

/// Keys in the reference computation's maps, edges in its join, and
/// strings in its text part.
const REF_KEYS: u64 = 1_500;
const REF_EDGES: u64 = 1_000;
const REF_TEXTS: u64 = 1_000;

/// Xorshift64: the reference computation's pseudo-random stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference computation, in three parts of about equal time, each
/// the kind of work the program does: ordered and hashed map inserts,
/// lookups and a sort; a hash join of a binary relation with itself into
/// a set of freshly allocated tuples; and formatting, sorting and
/// splitting short strings. A slower host slows each part by a different
/// factor; their sum tracked the program more closely than each part
/// alone. Independent of the program's crates, so no program change
/// moves it. Returns a checksum.
pub fn reference_work() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut sum = 0u64;

    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    let mut keys = Vec::with_capacity(REF_KEYS as usize);
    for i in 0..REF_KEYS {
        let k = next(&mut x) % (4 * REF_KEYS);
        tree.insert(k, i);
        hash.insert(k, i);
        keys.push(k);
    }
    keys.sort_unstable();
    for k in &keys {
        sum = sum.wrapping_add(tree[k]).wrapping_add(hash[k]);
        if let Some((&lo, _)) = tree.range(k / 2..).next() {
            sum = sum.wrapping_add(lo);
        }
    }

    let edges: Vec<[u64; 2]> = (0..REF_EDGES)
        .map(|_| {
            let e = next(&mut x);
            [e % 400, (e >> 20) % 400]
        })
        .collect();
    let mut by_src: HashMap<u64, Vec<u64>> = HashMap::new();
    for &[a, b] in &edges {
        by_src.entry(a).or_default().push(b);
    }
    let mut paths: HashSet<Vec<u64>> = HashSet::new();
    for &[a, b] in &edges {
        for &c in by_src.get(&b).into_iter().flatten() {
            paths.insert(vec![a, c]);
        }
    }
    let mut paths: Vec<Vec<u64>> = paths.into_iter().collect();
    paths.sort_unstable();
    sum = sum.wrapping_add(paths.len() as u64);

    let mut texts: Vec<String> = (0..REF_TEXTS)
        .map(|_| {
            let t = next(&mut x);
            format!("R{}(c{}, _{})", t % 17, (t >> 8) % 500, (t >> 20) % 100)
        })
        .collect();
    texts.sort_unstable();
    texts.dedup();
    for t in &texts {
        for part in t.split([',', '(', ')']) {
            if let Some(c) = part.trim().strip_prefix('c') {
                sum = sum.wrapping_add(c.parse::<u64>().unwrap_or(0));
            }
        }
    }
    black_box(sum)
}

/// CPU ns of one reference computation.
pub fn reference_ns() -> u64 {
    let t = cpu_ns();
    black_box(reference_work());
    cpu_ns().saturating_sub(t).max(1)
}

/// How much faster than the reference computation the program slows
/// when the host does. Over 20 runs in one hour on the reference host,
/// the cost of runs priced at elasticity 1 still rose with the run's
/// reference time: hardly on `exchange`, by the reference's slowdown to
/// the power 0.3–0.5 on `keyed`, `update` and `repair`. At 1.2 the
/// spread between runs of `keyed` and `update` halved and that of
/// `exchange` stayed within a point of its own.
const REF_ELASTICITY: f64 = 1.2;

/// Cost in ms of `cpu_ns` of CPU time taken next to a reference
/// computation that took `ref_ns`: the CPU time scaled by how much
/// faster than [`REF_MS`] the reference ran, to the power
/// [`REF_ELASTICITY`]. On a host where the reference takes `REF_MS`, cost
/// is CPU time.
pub fn price(cpu_ns: f64, ref_ns: f64) -> f64 {
    cpu_ns / 1e6 * (REF_MS * 1e6 / ref_ns).powf(REF_ELASTICITY)
}
