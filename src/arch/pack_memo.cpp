#include "arch/pack_memo.hpp"

#include <cassert>
#include <utility>

#include "arch/architecture.hpp"

namespace mst {

namespace {

/// The memo's cap, in 16-bit words per SOC module. The largest plan-grid
/// table set (p34392: 209 answers, 19 modules) fills about a third of
/// it; the generated 3000- to 10000-module sets fill under 5%.
constexpr std::size_t words_per_module = 2048;

/// Words charged per published answer on top of its packing: the map
/// node, the answer object and its bucket, rounded up.
constexpr std::size_t entry_charge_words = 56;

/// SOCs with more modules than this take two words per index.
constexpr int narrow_index_limit = 1 << 16;

void put_wide(std::vector<std::uint16_t>& code, std::uint32_t value)
{
    code.push_back(static_cast<std::uint16_t>(value & 0xffffU));
    code.push_back(static_cast<std::uint16_t>(value >> 16));
}

std::uint32_t get_wide(const std::uint16_t*& at) noexcept
{
    const std::uint32_t value = at[0] | (static_cast<std::uint32_t>(at[1]) << 16);
    at += 2;
    return value;
}

} // namespace

PackAnswer::PackAnswer(const Architecture& architecture, int greedy_passes)
    : greedy_passes_(greedy_passes), packed_(true)
{
    const bool wide = architecture.tables().module_count() > narrow_index_limit;
    std::size_t words = 0;
    for (const ChannelGroup& group : architecture.groups()) {
        words += 4 + group.module_indices().size() * (wide ? 2 : 1);
    }
    code_.reserve(words);
    for (const ChannelGroup& group : architecture.groups()) {
        put_wide(code_, static_cast<std::uint32_t>(group.width()));
        put_wide(code_, static_cast<std::uint32_t>(group.module_indices().size()));
        for (const int module_index : group.module_indices()) {
            if (wide) {
                put_wide(code_, static_cast<std::uint32_t>(module_index));
            } else {
                code_.push_back(static_cast<std::uint16_t>(module_index));
            }
        }
    }
}

Architecture PackAnswer::unpack(const SocTimeTables& tables) const
{
    assert(packed());
    const bool wide = tables.module_count() > narrow_index_limit;
    Architecture arch(tables);
    const std::uint16_t* at = code_.data();
    const std::uint16_t* const end = at + code_.size();
    while (at != end) {
        const std::size_t g = arch.add_group(static_cast<WireCount>(get_wide(at)));
        const std::uint32_t members = get_wide(at);
        for (std::uint32_t i = 0; i < members; ++i) {
            arch.add_module(g, static_cast<int>(wide ? get_wide(at) : *at++));
        }
    }
    return arch;
}

std::size_t PackMemo::KeyHash::operator()(const PackKey& key) const noexcept
{
    // Fibonacci mix of the depth, then the budget and mode in the low bits.
    const auto depth = static_cast<std::uint64_t>(key.depth) * 0x9e3779b97f4a7c15ULL;
    const auto rest = (static_cast<std::uint64_t>(key.wire_budget) << 1) |
                      static_cast<std::uint64_t>(key.budget_search);
    return static_cast<std::size_t>((depth ^ (depth >> 29)) + rest * 0xff51afd7ed558ccdULL);
}

PackMemo::PackMemo(int module_count)
    : capacity_words_(words_per_module * static_cast<std::size_t>(module_count))
{
}

const PackAnswer* PackMemo::find(const PackKey& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = answers_.find(key);
    return found == answers_.end() ? nullptr : &found->second;
}

const PackAnswer* PackMemo::publish(const PackKey& key, PackAnswer&& answer)
{
    const std::size_t charge = answer.words() + entry_charge_words;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = answers_.find(key);
    if (found != answers_.end()) {
        return &found->second;
    }
    if (charged_words_ + charge > capacity_words_) {
        return nullptr;
    }
    charged_words_ += charge;
    return &answers_.emplace(key, std::move(answer)).first->second;
}

std::size_t PackMemo::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return answers_.size();
}

std::size_t PackMemo::charged_words() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return charged_words_;
}

} // namespace mst
