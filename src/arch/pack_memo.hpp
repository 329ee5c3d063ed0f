// The table set's memo of answered pack queries.
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
// Bound: the memo stops accepting answers once they would hold more
// than 2,048 words (4 KiB) per SOC module, an answer costing its packing
// words plus a fixed per-entry charge (capacity_words()). Later queries
// still compute; their answers simply stay with the solve that asked.
//
// Thread safety: find() and publish() take one mutex; answers are never
// changed or erased once published, and the node-based map keeps their
// addresses, so a pointer handed out stays valid, and readable without
// the lock, for the lifetime of the table set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

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
    /// fills. Requires packed().
    [[nodiscard]] Architecture unpack(const SocTimeTables& tables) const;

    /// Encoded packing size in 16-bit words (0 without a packing).
    [[nodiscard]] std::size_t words() const noexcept { return code_.size(); }

private:
    std::vector<std::uint16_t> code_;
    int greedy_passes_ = 0;
    bool pruned_ = false;
    bool packed_ = false;
};

/// One table set's answered pack queries, capped by its module count
/// (see the file comment).
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

    /// Published answers, and the words they are charged (tests, probes).
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t charged_words() const;
    [[nodiscard]] std::size_t capacity_words() const noexcept { return capacity_words_; }

private:
    struct KeyHash {
        std::size_t operator()(const PackKey& key) const noexcept;
    };

    mutable std::mutex mutex_;
    std::unordered_map<PackKey, PackAnswer, KeyHash> answers_;
    std::size_t capacity_words_;
    std::size_t charged_words_ = 0;
};

} // namespace mst
