// Memoized, sequential driver of the Step-1 greedy packing.
//
// Step 1's criterion-1 budget search and Step 2's re-pack fallback both
// query the greedy many times with repeating (virtual depth, wire
// budget) pairs, within one solve and across the solves of one table
// set. PackEngine answers those queries through three layers:
//
//   * the per-solve map — each (depth, budget) this engine has answered,
//     as a pointer to the answer. A repeat within the solve takes no
//     lock and is what PackStats::pack_cache_hits counts.
//   * the table set's pack memo (arch/pack_memo.hpp, one per
//     SocTimeTables) — every query any solve over the set has answered:
//     the outcome, the work that computed it, and the packing in compact
//     form. A miss in the per-solve map reads it first; a query that
//     must compute publishes its answer there. Per depth the engine
//     keeps its own profile: minimal widths, the by-minimal-width module
//     order and the per-depth area floor, built only when a query at
//     that depth must compute. The depth-independent orders (by volume,
//     by single-wire time) are the table set's, built once. A new depth
//     profile starts from the nearest deeper one: minimal widths never
//     shrink as the depth drops, so each module's search starts at its
//     width there, one probe when the width holds. Same widths, far
//     fewer table probes.
//   * pruning — a (depth, budget) query whose per-depth area floor
//     (sum of each module's minimum width*time rectangle at its minimal
//     width, see SocTimeTables::min_area_from) exceeds budget * depth
//     provably has no packing, so it is answered infeasible without
//     running a single greedy pass.
//
// Both memo layers are pure caching, with byte-identical results
// (tests/golden_fingerprint_test.cpp, tests/pack_memo_test.cpp), and
// both are off with OptimizeOptions::memoize: the unmemoized reference
// profiles every query from scratch, sorts its own copy of both orders,
// and never reads or writes the table set's memo.
//
// One level up, the same memo holds plans (DftPlan): a whole search's
// Step 1 result and Step 2 trajectory per cell shape, charged against
// the same cap. A solve that finds its plan runs no engine at all. A
// plan points at the answers of its re-packs instead of copying them,
// which is why pack() reports each packing's answer and whether the
// memo took it; with memoize off the engine keeps the answers of its
// packings itself, so a plan of the reference can be rebuilt too.
//
// Stats are per-solve logical work. A query answered from the table
// set's memo adds the greedy passes and prune its answer recorded, and
// a depth's first miss in the solve counts as a depth profile whether
// or not the profile is built. A solve that reuses a plan reports the
// PackStats the plan recorded. So a solve's PackStats are the same
// whatever other solves ran over the table set before, at any thread
// count and in any order.
//
// An uncached query runs the fixed 3 x 3 plan of greedy passes, module
// order major and expansion policy minor, in preference order — the
// paper's pass (decreasing k_min, k_min widening) first — and stops at
// the first that packs. With OptimizeOptions::budget_search off only the
// paper's pass runs.
//
// Inside one greedy pass, best-fit group selection asks a BestFitIndex
// (arch/best_fit_index.hpp) kept in step with the pass's architecture:
// O(width classes) per placed module instead of a scan of every group,
// with the scan's lowest-index tie-break.
//
// Determinism: the engine runs on its caller's thread and never fans
// out, so solutions AND stats are identical at any
// OptimizeOptions::threads. One engine serves one thread at a time;
// engines on other threads may share its table set (and memo).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "arch/architecture.hpp"
#include "arch/pack_memo.hpp"
#include "core/pack_stats.hpp"
#include "core/problem.hpp"

namespace mst {

/// Module orders of the greedy passes, in preference order: the paper's
/// decreasing minimal width (ties: volume, then index) first, then
/// decreasing test-data volume and decreasing single-wire test time.
enum class ModuleOrder { by_min_width, by_volume, by_time };

/// Reusable per-pass buffers (architecture with pooled groups, best-fit
/// index, expansion alternatives). Every greedy pass of an engine builds
/// into its one scratch, so repeated passes stop churning the
/// allocator. Defined in pack_engine.cpp.
struct PackScratch;

/// One optimization run's packing context: time tables + options +
/// per-solve caches.
class PackEngine {
public:
    PackEngine(const SocTimeTables& tables, const OptimizeOptions& options);
    ~PackEngine();

    [[nodiscard]] const SocTimeTables& tables() const noexcept { return *tables_; }
    [[nodiscard]] const OptimizeOptions& options() const noexcept { return options_; }

    /// Snapshot of the work counters.
    [[nodiscard]] PackStats stats() const noexcept { return stats_; }

    /// Try to pack every module into at most `wire_budget` wires with
    /// every group fill within `depth`. Returns nullopt when no pass
    /// fits.
    [[nodiscard]] std::optional<Architecture> pack_within(CycleCount depth,
                                                          WireCount wire_budget)
    {
        return pack(depth, wire_budget).architecture;
    }

    /// pack_within, plus the answer behind a packing: what a DftPlan
    /// records to rebuild it later.
    struct Packed {
        std::optional<Architecture> architecture;
        /// The packing's encoding (null without a packing). It lives as
        /// long as the engine, and as long as the table set when
        /// `published`, in the table set's memo.
        const PackAnswer* answer = nullptr;
        bool published = false;
    };
    [[nodiscard]] Packed pack(CycleCount depth, WireCount wire_budget);

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
        /// dependent kind). The depth-independent orders are shared (see
        /// shared_order).
        std::optional<std::vector<int>> by_min_width;
    };

    /// Profile `depth`. With `deeper` (a profile of a larger depth), each
    /// module's search starts at its width there, and the area floor
    /// only changes by the modules whose width moved; without it every
    /// search covers the whole row — the from-scratch reference.
    [[nodiscard]] DepthProfile make_profile(CycleCount depth, const DepthProfile* deeper);
    [[nodiscard]] const std::vector<int>& order_for(DepthProfile& profile, ModuleOrder order);
    /// A depth-independent order (by_volume, by_time): the table set's
    /// once-built one, or with memoize off the engine's own sorted copy.
    [[nodiscard]] const std::vector<int>& shared_order(ModuleOrder order);
    /// The profile of `depth`, built on its first use from the nearest
    /// deeper profile built so far.
    [[nodiscard]] DepthProfile& profile_for(CycleCount depth);

    /// One computed pack query: the packing, or nullopt, and the work.
    struct Computed {
        std::optional<Architecture> packed;
        int greedy_passes = 0;
        bool pruned = false;
    };
    [[nodiscard]] Computed compute(CycleCount depth, WireCount wire_budget,
                                   DepthProfile& profile);
    /// Count an answer's work as this solve's (see PackStats).
    void count_work(int greedy_passes, bool pruned) noexcept;

    const SocTimeTables* tables_;
    OptimizeOptions options_;
    PackStats stats_;
    std::unique_ptr<PackScratch> scratch_;

    /// The from-scratch reference's own depth-independent orders
    /// (memoize off only); memoized engines read the table set's.
    std::map<ModuleOrder, std::vector<int>> reference_orders_;

    std::map<CycleCount, DepthProfile> profiles_;
    /// This solve's answered (depth, budget) queries: pointers into the
    /// table set's memo (published), or into own_answers_ once that memo
    /// is full.
    struct Answered {
        const PackAnswer* answer;
        bool published;
    };
    std::map<std::pair<CycleCount, WireCount>, Answered> answers_;
    /// Answers the memo did not take, and with memoize off the packings.
    std::deque<PackAnswer> own_answers_;
};

} // namespace mst
