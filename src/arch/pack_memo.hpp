// The table set's memo of answered pack queries and of whole searches.
//
// A pack query — pack every module into at most `wire_budget` wires with
// every group fill within `depth` (core/pack_engine.hpp) — reads nothing
// but the time tables and the three fields of PackKey. So its answer is
// a property of the table set, and every solve over that set (a sweep's
// scenarios of one SOC, the requests serve runs on one cached set, the
// cells of a what-if grid) can reuse it. SocTimeTables owns one PackMemo
// (SocTimeTables::pack_memo()); PackEngine reads it and publishes to it.
//
// An answer records the outcome, the greedy passes and area-floor prune
// its computation ran (so a solve that reuses it still reports the work
// as its own, see PackStats), and on success the packing in compact
// form: each group's width and member count, then its module indices in
// member order, group-major. An index takes one 16-bit word on SOCs of
// up to 65,536 modules and two beyond; a packing of N modules costs
// about 2N bytes in one allocation, where an Architecture copy holds 4N
// bytes of member lists in a few allocations per group.
//
// The same memo holds plans. A DftPlan is one whole search (Section 6:
// Step 1 at the ATE's depth and channels, then Step 2's architectures as
// the site count n falls), keyed by PlanKey, every input that search
// reads. Index time, contact and manufacturing yields, abort-on-fail,
// retest and the control pads enter only the throughput score of each
// site point (Section 4), so every what-if over one cell shape scores
// the same plan. Step 2's trajectory is stored as one step per change
// of the incumbent (the n it starts at, its channels per site and test
// cycles), so a 1,023-site curve takes a few dozen steps. A plan stores
// no packing but Step 1's compacted one: each incumbent is a pointer to
// a published answer (or to Step 1's packing) plus a run of single-wire
// widenings, so rebuilding it at any n is one unpack and a few
// widen_group calls. A plan whose
// re-pack answers are not all published (the memo refused one) is not
// published either: it would point at answers that die with its solve.
// A plan records the PackStats and site points its search took, and a
// solve that reuses it reports that work as its own.
//
// Bound: the memo stops accepting answers and plans once they would hold
// more than 2,048 words (4 KiB) per SOC module, and never less than
// 131,072 words (256 KiB) per table set, an entry costing its words plus
// a fixed per-entry charge (capacity_words()). The floor is for small
// SOCs: at the per-module rate alone, d695's 10 modules would stop
// publishing after a few dozen cell shapes. Later queries and searches
// still compute; their results simply stay with the solve that asked.
//
// Thread safety: every find and publish takes one mutex; answers and
// plans are never changed or erased once published, and the node-based
// maps keep their addresses, so a pointer handed out stays valid, and
// readable without the lock, for the lifetime of the table set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/pack_stats.hpp"
#include "throughput/model.hpp"

namespace mst {

class Architecture;
class SocTimeTables;

/// Every input of one pack query besides the table set.
struct PackKey {
    CycleCount depth = 0;
    WireCount wire_budget = 0;
    bool budget_search = true;

    friend bool operator==(const PackKey& a, const PackKey& b) noexcept
    {
        return a.depth == b.depth && a.wire_budget == b.wire_budget &&
               a.budget_search == b.budget_search;
    }
};

/// One answered pack query: the outcome, the work that computed it and,
/// on success, the packing (see the file comment for its encoding).
class PackAnswer {
public:
    /// No packing: `pruned` when the area floor answered the query.
    PackAnswer(int greedy_passes, bool pruned) noexcept
        : greedy_passes_(greedy_passes), pruned_(pruned)
    {
    }
    /// The packing `architecture`, found by the last of `greedy_passes`
    /// passes.
    PackAnswer(const Architecture& architecture, int greedy_passes);

    [[nodiscard]] bool packed() const noexcept { return packed_; }
    [[nodiscard]] int greedy_passes() const noexcept { return greedy_passes_; }
    [[nodiscard]] bool pruned() const noexcept { return pruned_; }

    /// Rebuild the packing over `tables`, the set it was packed over:
    /// the same groups, widths, members and member order, hence the same
    /// fills. Each group is built in one step from its width and members
    /// (Architecture's bulk add_group). Requires packed().
    [[nodiscard]] Architecture unpack(const SocTimeTables& tables) const;

    /// Encoded packing size in 16-bit words (0 without a packing).
    [[nodiscard]] std::size_t words() const noexcept { return code_.size(); }

private:
    std::vector<std::uint16_t> code_;
    int greedy_passes_ = 0;
    bool pruned_ = false;
    bool packed_ = false;
};

/// Every input of one search (Step 1, then Step 2 unless step1_only)
/// besides the table set.
struct PlanKey {
    CycleCount depth = 0;
    ChannelCount ate_channels = 0;
    BroadcastMode broadcast = BroadcastMode::none;
    bool budget_search = true;
    bool step1_only = false;

    friend bool operator==(const PlanKey& a, const PlanKey& b) noexcept
    {
        return a.depth == b.depth && a.ate_channels == b.ate_channels &&
               a.broadcast == b.broadcast && a.budget_search == b.budget_search &&
               a.step1_only == b.step1_only;
    }
};

/// One search's outcome, score-free (see the file comment): Step 1's
/// result and Step 2's trajectory, with what rebuilds each incumbent.
class DftPlan {
public:
    /// One stretch of Step 2's trajectory: the incumbent from n = sites
    /// down to the next step's sites + 1 (or to n = 1). It is base
    /// `base`'s packing widened by the log's widenings from the base's
    /// first up to widen_end.
    struct Step {
        SiteCount sites = 0;
        ChannelCount channels_per_site = 0;
        CycleCount test_cycles = 0;
        std::uint32_t base = 0;
        std::uint32_t widen_end = 0;
    };

    /// Start recording from Step 1's architecture and its n_max.
    DftPlan(const Architecture& step1, SiteCount max_sites);

    // --- Recording, in the order Step 2 walks n down ---

    /// The incumbent's group `group` grew by one wire.
    void widen(std::size_t group);
    /// A re-pack replaced the incumbent with `answer`'s packing;
    /// `published` says whether the answer lives in the table set's memo.
    void repack(const PackAnswer& answer, bool published);
    /// `incumbent` is the architecture at `sites` sites; a new step
    /// starts only when it changed since the last one.
    void add_point(SiteCount sites, const Architecture& incumbent);
    /// The search's work, as the solve that computed it counted it.
    void set_stats(const PackStats& stats) noexcept { stats_ = stats; }

    // --- Reading ---

    [[nodiscard]] ChannelCount step1_channels() const noexcept { return step1_channels_; }
    [[nodiscard]] CycleCount step1_cycles() const noexcept { return step1_cycles_; }
    [[nodiscard]] SiteCount max_sites() const noexcept { return max_sites_; }
    /// Sites descending; empty when Step 2 did not run.
    [[nodiscard]] const std::vector<Step>& steps() const noexcept { return steps_; }
    [[nodiscard]] const PackStats& stats() const noexcept { return stats_; }
    /// False when a re-pack answer is not in the memo (see file comment).
    [[nodiscard]] bool publishable() const noexcept { return publishable_; }

    /// Step 1's architecture over `tables`, the set it was searched over.
    [[nodiscard]] Architecture step1_architecture(const SocTimeTables& tables) const;
    /// The incumbent of steps()[step], rebuilt over `tables`.
    [[nodiscard]] Architecture architecture_at(std::size_t step,
                                               const SocTimeTables& tables) const;

    /// Size in 16-bit words, as the memo charges it.
    [[nodiscard]] std::size_t words() const noexcept;

private:
    /// One incumbent a run of widenings starts from: a re-pack answer,
    /// or Step 1's packing when null.
    struct Base {
        const PackAnswer* packing = nullptr;
        std::uint32_t widen_begin = 0;
    };

    PackAnswer step1_;
    ChannelCount step1_channels_ = 0;
    CycleCount step1_cycles_ = 0;
    SiteCount max_sites_ = 0;
    PackStats stats_;
    std::vector<Step> steps_;
    std::vector<Base> bases_{Base{}};
    std::vector<std::uint32_t> widens_; ///< widened group index per wire
    bool changed_ = true;               ///< the incumbent moved since the last step
    bool publishable_ = true;
};

/// One table set's answered pack queries and searched plans, capped by
/// its module count, with a floor (see the file comment).
class PackMemo {
public:
    explicit PackMemo(int module_count);

    /// The published answer of `key`, or nullptr.
    [[nodiscard]] const PackAnswer* find(const PackKey& key) const;

    /// Publish `answer` under `key` unless an answer is already there
    /// (a racing solve computed the same one): returns the resident
    /// answer either way. Returns nullptr, and leaves `answer` as it
    /// was, when the memo is full.
    const PackAnswer* publish(const PackKey& key, PackAnswer&& answer);

    /// The published plan of `key`, or nullptr.
    [[nodiscard]] const DftPlan* find(const PlanKey& key) const;

    /// publish() for plans; `plan` must be publishable().
    const DftPlan* publish(const PlanKey& key, DftPlan&& plan);

    /// Published answers and plans, and the words they are charged
    /// (tests, probes).
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t plan_count() const;
    [[nodiscard]] std::size_t charged_words() const;
    [[nodiscard]] std::size_t capacity_words() const noexcept { return capacity_words_; }

private:
    struct KeyHash {
        std::size_t operator()(const PackKey& key) const noexcept;
        std::size_t operator()(const PlanKey& key) const noexcept;
    };

    /// Insert-if-absent under the cap, shared by both publish().
    template <class Map, class Key, class Value>
    const Value* insert(Map& map, const Key& key, Value&& value);

    mutable std::mutex mutex_;
    std::unordered_map<PackKey, PackAnswer, KeyHash> answers_;
    std::unordered_map<PlanKey, DftPlan, KeyHash> plans_;
    std::size_t capacity_words_;
    std::size_t charged_words_ = 0;
};

} // namespace mst
