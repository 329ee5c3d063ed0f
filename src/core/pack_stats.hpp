// Work counters of the memoized Step-1 greedy packing, shared between
// PackEngine (which fills them) and Solution (which surfaces them to the
// perf harness: wall times in BENCH_optimizer.json are only comparable
// alongside the amount of search actually performed).
#pragma once

#include <cstdint>

namespace mst {

struct PackStats {
    std::int64_t pack_calls = 0;      ///< pack queries issued
    std::int64_t pack_cache_hits = 0; ///< served from the (depth, budget) memo
    std::int64_t greedy_passes = 0;   ///< full greedy passes actually run
    std::int64_t depth_profiles = 0;  ///< distinct virtual depths profiled
    std::int64_t pruned_packs = 0;    ///< queries answered by the area-floor bound
};

} // namespace mst
