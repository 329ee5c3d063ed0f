// Memoized, parallel driver of the Step-1 greedy packing.
//
// Step 1's criterion-1 budget search and Step 2's re-pack fallback both
// query the greedy many times with repeating (virtual depth, wire
// budget) pairs. PackEngine answers those queries through three layers:
//
//   * memoization — per depth: minimal widths, module orders, and the
//     per-depth area floor; per (depth, budget): the packed architecture
//     (or infeasibility). Pure caching, byte-identical results
//     (tests/golden_fingerprint_test.cpp), off via OptimizeOptions::memoize.
//   * pruning — a (depth, budget) query whose per-depth area floor
//     (sum of each module's minimum width*time rectangle at its minimal
//     width, see SocTimeTables::min_area_from) exceeds budget * depth
//     provably has no packing, so it is answered infeasible without
//     running a single greedy pass.
//   * parallelism — pack_batch() evaluates many queries at once: distinct
//     misses fan out across the global executor, and inside one miss the
//     (module order x expansion policy) passes run in adaptive waves
//     (1,1,2,4,8,...) with a lowest-index winner, so a pass that would
//     have won the sequential scan always wins here too.
//
// Inside one greedy pass, best-fit group selection asks a BestFitIndex
// (arch/best_fit_index.hpp) kept in step with the pass's architecture:
// O(width classes) per placed module instead of a scan of every group,
// with the scan's lowest-index tie-break. The first_fit ablation keeps
// the dense scan.
//
// Determinism: the task schedule depends only on the queries and the
// options — never on thread count or timing. The memo and the work
// counters are updated by the coordinating thread in query order, so
// solutions AND stats are identical at any OptimizeOptions::threads.
// pack_within()/pack_batch() must be called from one coordinating thread
// per engine; internal fan-out is managed by the engine itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "arch/architecture.hpp"
#include "core/pack_stats.hpp"
#include "core/problem.hpp"

namespace mst {

/// One greedy-packing query: fit every module within `depth` using at
/// most `budget` wires.
struct PackQuery {
    CycleCount depth = 0;
    WireCount budget = 0;
};

/// Adaptive wave extent shared by every candidate scan of the search
/// (Step-1 fraction sweeps, Step-2 re-pack depth scans, the engine's
/// order x policy passes): 1, 1, 2, 4, then 8 per wave. The first waves
/// mirror the sequential scan exactly (no wasted work when the winner
/// sits early, the overwhelmingly common case); later waves open enough
/// parallelism to cover deep scans while over-evaluating at most one
/// wave beyond the sequential stop. One definition on purpose: the
/// schedule is determinism- and stats-sensitive, so every scan must
/// grow the same way.
[[nodiscard]] constexpr std::size_t pack_wave_extent(int wave) noexcept
{
    switch (wave) {
    case 0: return 1;
    case 1: return 1;
    case 2: return 2;
    case 3: return 4;
    default: return 8;
    }
}

/// Reusable per-pass buffers (architecture with pooled groups, best-fit
/// index, expansion alternatives). One greedy pass checks a scratch out
/// of the engine's pool, builds into it, and returns it — repeated
/// passes and wave probes stop churning the allocator. Defined in
/// pack_engine.cpp.
struct PackScratch;

/// One optimization run's packing context: time tables + options + caches.
class PackEngine {
public:
    PackEngine(const SocTimeTables& tables, const OptimizeOptions& options);
    ~PackEngine();

    [[nodiscard]] const SocTimeTables& tables() const noexcept { return *tables_; }
    [[nodiscard]] const OptimizeOptions& options() const noexcept { return options_; }

    /// Snapshot of the work counters (atomics internally, so parallel
    /// passes can count; the totals are deterministic because the task
    /// schedule is).
    [[nodiscard]] PackStats stats() const noexcept;

    /// Concurrency cap for this run: OptimizeOptions::threads, where
    /// <= 0 means "whatever the global executor offers".
    [[nodiscard]] int parallel_cap() const noexcept { return options_.threads; }

    /// Try to pack every module into at most `wire_budget` wires with
    /// every group fill within `depth`. Returns nullopt when no pass
    /// fits. Single-query form of pack_batch().
    [[nodiscard]] std::optional<Architecture> pack_within(CycleCount depth,
                                                          WireCount wire_budget);

    /// Evaluate every query; results[i] always matches queries[i].
    /// Distinct uncached queries are computed concurrently on the global
    /// executor (duplicates within one batch count as cache hits, like
    /// the equivalent sequence of pack_within calls would).
    [[nodiscard]] std::vector<std::optional<Architecture>> pack_batch(
        const std::vector<PackQuery>& queries);

private:
    /// Everything about one virtual depth that is budget-independent.
    struct DepthProfile {
        /// Per-module minimal widths, or nullopt when some module fits no
        /// width within the depth (the whole depth is then infeasible).
        std::optional<std::vector<WireCount>> min_widths;
        WireCount widest = 0;
        /// Sum of per-module minimum areas at their minimal widths: no
        /// packing within this depth can occupy fewer wire-cycles.
        CycleCount area_floor = 0;
        /// Lazily built by-min-width module order (the only depth-
        /// dependent kind); guarded by orders_mutex_ (parallel passes
        /// share profiles). Depth-independent orders live engine-wide in
        /// shared_orders_.
        std::map<ModuleOrder, std::vector<int>> orders;
    };

    [[nodiscard]] DepthProfile make_profile(CycleCount depth);
    [[nodiscard]] const std::vector<int>& order_for(DepthProfile& profile, ModuleOrder order);
    [[nodiscard]] const std::vector<int>& shared_order_locked(ModuleOrder order);
    [[nodiscard]] std::optional<Architecture> pack_uncached(CycleCount depth,
                                                            WireCount wire_budget,
                                                            DepthProfile& profile);

    /// Check a scratch out of the pool (or make a fresh one) / hand it
    /// back. Scratches carry no logical state across passes, so which
    /// pass gets which scratch never affects results.
    [[nodiscard]] std::unique_ptr<PackScratch> acquire_scratch();
    void release_scratch(std::unique_ptr<PackScratch> scratch);

    const SocTimeTables* tables_;
    OptimizeOptions options_;

    std::atomic<std::int64_t> pack_calls_{0};
    std::atomic<std::int64_t> pack_cache_hits_{0};
    std::atomic<std::int64_t> greedy_passes_{0};
    std::atomic<std::int64_t> depth_profiles_{0};
    std::atomic<std::int64_t> pruned_packs_{0};

    std::mutex orders_mutex_;
    /// Depth-independent module orders (by_volume, by_time, input_order),
    /// built once per engine; by_min_width depends on the per-depth
    /// minimal widths and lives in each DepthProfile. Guarded by
    /// orders_mutex_; map nodes are stable, so references handed to
    /// parallel passes stay valid.
    std::map<ModuleOrder, std::vector<int>> shared_orders_;

    std::mutex scratch_mutex_;
    std::vector<std::unique_ptr<PackScratch>> scratch_pool_;

    /// Coordinator-mutated only; parallel tasks receive stable node
    /// pointers resolved before each fan-out.
    std::map<CycleCount, DepthProfile> profiles_;
    std::map<std::pair<CycleCount, WireCount>, std::optional<Architecture>> packs_;
};

} // namespace mst
