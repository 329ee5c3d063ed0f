// Work counters of the memoized Step-1 greedy packing, shared between
// PackEngine (which fills them) and Solution (which surfaces them to the
// perf harness: wall times in BENCH_optimizer.json are only comparable
// alongside the amount of search the solve asked for).
//
// The counters are one solve's logical work: a query answered from the
// table set's pack memo counts the passes and prune that answer's
// computation ran, as if this solve had run them. They do not depend on
// what earlier solves left in the memo, so they do not show the work
// the memo spared either.
#pragma once

#include <cstdint>

namespace mst {

struct PackStats {
    std::int64_t pack_calls = 0;      ///< pack queries issued
    std::int64_t pack_cache_hits = 0; ///< repeats of a query earlier in the same solve
    std::int64_t greedy_passes = 0;   ///< greedy passes its queries' answers took
    std::int64_t depth_profiles = 0;  ///< distinct virtual depths among its first asks
    std::int64_t pruned_packs = 0;    ///< queries answered by the area-floor bound
};

} // namespace mst
