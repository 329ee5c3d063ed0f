#include "arch/pack_memo.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "arch/architecture.hpp"

namespace mst {

namespace {

/// The memo's cap, in 16-bit words per SOC module. The generated 3000-
/// to 10000-module sets fill under 5% of it.
constexpr std::size_t words_per_module = 2048;

/// The cap's floor, in 16-bit words (256 KiB): ITC'02-sized SOCs would
/// otherwise cap at a few dozen cell shapes (d695: 20,480 words by the
/// per-module rate, where 16 cell shapes with and without broadcast
/// take 27,074). At most 4 MiB across serve's 16 cached table sets.
constexpr std::size_t min_capacity_words = 131072;

/// Words charged per published answer or plan on top of its own words:
/// the map node, the object and its bucket, rounded up.
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

/// 16-bit words of `count` objects of type T.
template <class T>
std::size_t words_of(std::size_t count) noexcept
{
    return (count * sizeof(T) + 1) / 2;
}

/// Fibonacci-mixed bits of one hash ingredient.
std::size_t mix(std::uint64_t value) noexcept
{
    return static_cast<std::size_t>(value * 0xff51afd7ed558ccdULL);
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
        const auto width = static_cast<WireCount>(get_wide(at));
        const std::uint32_t members = get_wide(at);
        if (wide) {
            arch.add_group(width, members, [&at] { return static_cast<int>(get_wide(at)); });
        } else {
            arch.add_group(width, members, [&at] { return static_cast<int>(*at++); });
        }
    }
    return arch;
}

DftPlan::DftPlan(const Architecture& step1, SiteCount max_sites)
    : step1_(step1, 0),
      step1_channels_(step1.channels()),
      step1_cycles_(step1.test_cycles()),
      max_sites_(max_sites)
{
}

void DftPlan::widen(std::size_t group)
{
    widens_.push_back(static_cast<std::uint32_t>(group));
    changed_ = true;
}

void DftPlan::repack(const PackAnswer& answer, bool published)
{
    bases_.push_back({&answer, static_cast<std::uint32_t>(widens_.size())});
    changed_ = true;
    publishable_ = publishable_ && published;
}

void DftPlan::add_point(SiteCount sites, const Architecture& incumbent)
{
    if (!changed_) {
        return;
    }
    steps_.push_back({sites, incumbent.channels(), incumbent.test_cycles(),
                      static_cast<std::uint32_t>(bases_.size() - 1),
                      static_cast<std::uint32_t>(widens_.size())});
    changed_ = false;
}

Architecture DftPlan::step1_architecture(const SocTimeTables& tables) const
{
    return step1_.unpack(tables);
}

Architecture DftPlan::architecture_at(std::size_t step, const SocTimeTables& tables) const
{
    const Step& at = steps_[step];
    const Base& base = bases_[at.base];
    Architecture arch = (base.packing != nullptr ? *base.packing : step1_).unpack(tables);
    for (std::uint32_t w = base.widen_begin; w < at.widen_end; ++w) {
        arch.widen_group(widens_[w], 1);
    }
    return arch;
}

std::size_t DftPlan::words() const noexcept
{
    return step1_.words() + words_of<Step>(steps_.size()) + words_of<Base>(bases_.size()) +
           words_of<std::uint32_t>(widens_.size());
}

std::size_t PackMemo::KeyHash::operator()(const PackKey& key) const noexcept
{
    // Fibonacci mix of the depth, then the budget and mode in the low bits.
    const auto depth = static_cast<std::uint64_t>(key.depth) * 0x9e3779b97f4a7c15ULL;
    const auto rest = (static_cast<std::uint64_t>(key.wire_budget) << 1) |
                      static_cast<std::uint64_t>(key.budget_search);
    return static_cast<std::size_t>(depth ^ (depth >> 29)) + mix(rest);
}

std::size_t PackMemo::KeyHash::operator()(const PlanKey& key) const noexcept
{
    const auto depth = static_cast<std::uint64_t>(key.depth) * 0x9e3779b97f4a7c15ULL;
    const auto rest = (static_cast<std::uint64_t>(key.ate_channels) << 3) |
                      (static_cast<std::uint64_t>(key.broadcast == BroadcastMode::stimuli) << 2) |
                      (static_cast<std::uint64_t>(key.budget_search) << 1) |
                      static_cast<std::uint64_t>(key.step1_only);
    return static_cast<std::size_t>(depth ^ (depth >> 29)) + mix(rest);
}

PackMemo::PackMemo(int module_count)
    : capacity_words_(
          std::max(min_capacity_words, words_per_module * static_cast<std::size_t>(module_count)))
{
}

const PackAnswer* PackMemo::find(const PackKey& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = answers_.find(key);
    return found == answers_.end() ? nullptr : &found->second;
}

template <class Map, class Key, class Value>
const Value* PackMemo::insert(Map& map, const Key& key, Value&& value)
{
    const std::size_t charge = value.words() + entry_charge_words;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = map.find(key);
    if (found != map.end()) {
        return &found->second;
    }
    if (charged_words_ + charge > capacity_words_) {
        return nullptr;
    }
    charged_words_ += charge;
    return &map.emplace(key, std::move(value)).first->second;
}

const PackAnswer* PackMemo::publish(const PackKey& key, PackAnswer&& answer)
{
    return insert(answers_, key, std::move(answer));
}

const DftPlan* PackMemo::find(const PlanKey& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = plans_.find(key);
    return found == plans_.end() ? nullptr : &found->second;
}

const DftPlan* PackMemo::publish(const PlanKey& key, DftPlan&& plan)
{
    assert(plan.publishable());
    return insert(plans_, key, std::move(plan));
}

std::size_t PackMemo::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return answers_.size();
}

std::size_t PackMemo::plan_count() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
}

std::size_t PackMemo::charged_words() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return charged_words_;
}

} // namespace mst
