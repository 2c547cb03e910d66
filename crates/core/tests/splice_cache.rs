//! The splice-result cache must degrade gradually at capacity: the old
//! epoch scheme cleared the whole map, so every splice in the working set
//! missed at once right after a clear (a periodic latency cliff in long
//! drag sessions). The generational scheme retires one generation at a
//! time and promotes hot entries, and reports retirements through the
//! `SpliceCacheEvictions` counter.

use hazel_lang::store::TermId;
use livelit_core::cc::{CachedSplice, SpliceCache, SPLICE_CACHE_CAP};
use livelit_trace::{install, Counter, StatsSink, Tracer};

fn key(i: usize) -> (TermId, u32) {
    (TermId(u32::try_from(i).unwrap()), 0)
}

#[test]
fn rotation_keeps_recent_entries_and_counts_evictions() {
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let _session = install(&tracer);

    let mut cache = SpliceCache::default();
    let hot = key(0);

    // Fill the live generation exactly to capacity.
    for i in 0..SPLICE_CACHE_CAP {
        cache.insert(key(i), CachedSplice::NotClosed);
    }
    assert_eq!(cache.len(), SPLICE_CACHE_CAP);
    assert_eq!(sink.snapshot().counter(Counter::SpliceCacheEvictions), 0);

    // The insert past capacity rotates: the full generation is demoted,
    // not dropped — every prior entry is still retrievable, so there is
    // no full-cache stall. Nothing has been evicted yet (the retired
    // previous generation was empty).
    cache.insert(key(SPLICE_CACHE_CAP), CachedSplice::NotClosed);
    assert_eq!(sink.snapshot().counter(Counter::SpliceCacheEvictions), 0);
    assert_eq!(
        cache.len(),
        SPLICE_CACHE_CAP + 1,
        "no entry lost at rotation"
    );

    // A lookup promotes the hot entry into the live generation...
    assert!(cache.lookup(&hot).is_some());

    // ...so it survives the *next* rotation, which retires the rest of
    // the demoted generation and finally counts evictions.
    for i in 0..SPLICE_CACHE_CAP {
        cache.insert(key(SPLICE_CACHE_CAP + 1 + i), CachedSplice::NotClosed);
    }
    let evicted = sink.snapshot().counter(Counter::SpliceCacheEvictions);
    assert!(
        evicted > 0 && evicted < 2 * SPLICE_CACHE_CAP as u64,
        "one generation retired, not the whole cache (evicted {evicted})"
    );
    assert!(cache.lookup(&hot).is_some(), "promoted hot entry survived");
    // An entry never touched since the first generation is gone.
    assert!(cache.lookup(&key(1)).is_none(), "cold entry was retired");
}
