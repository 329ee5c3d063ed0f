#include "core/pack_engine.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>
#include <utility>

#include "arch/best_fit_index.hpp"
#include "arch/channel_group.hpp"

namespace mst {

/// One expansion alternative: either a new group (group == nullopt) or a
/// widening of an existing group, always by `added_wires`. Lives in the
/// mst namespace (not an anonymous one) so PackScratch can carry a
/// buffer of them; still private to this translation unit in spirit.
struct PackExpansion {
    std::optional<std::size_t> group;
    WireCount added_wires = 0;
    CycleCount resulting_total_fill = 0;
};

struct PackScratch {
    explicit PackScratch(const SocTimeTables& tables) : arch(tables) {}

    /// The pass builds here; reset() between passes retires groups into
    /// the architecture's spare pool instead of freeing them.
    Architecture arch;
    /// Best-fit selection index over arch's groups, kept in step with
    /// every mutation of the pass.
    BestFitIndex index;
    std::vector<PackExpansion> expansions;
};

namespace {

/// How a greedy pass opens room for a module that fits no existing group
/// (paper Fig. 4(c)).
enum class ExpansionPolicy {
    widen_by_kmin,    ///< paper: every alternative adds k_min(module) wires;
                      ///< pick the one with the smallest total fill
    min_widening,     ///< widen an existing group by the smallest delta that
                      ///< fits, competing on free memory
    always_new_group, ///< never widen, always open a new group
};

/// The from-scratch reference's own copy of a depth-independent order
/// (memoize off): sorted here, independently of the table set's
/// once-built SocTimeTables::volume_order() / time_order(), so the
/// oracle does not share them. by_min_width is derived per depth from
/// the by_volume order via a counting sort (see order_by_min_width).
std::vector<int> module_order(const SocTimeTables& tables, ModuleOrder order)
{
    const auto count = static_cast<std::size_t>(tables.module_count());
    std::vector<int> indices(count);
    std::iota(indices.begin(), indices.end(), 0);

    switch (order) {
    case ModuleOrder::by_volume:
        std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
            return tables.volume_bits(a) > tables.volume_bits(b);
        });
        break;
    case ModuleOrder::by_time:
        std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
            return tables.time(a, 1) > tables.time(b, 1);
        });
        break;
    case ModuleOrder::by_min_width:
        break; // handled per depth by order_by_min_width
    }
    return indices;
}

/// The by_min_width order of one depth: decreasing minimal width, ties
/// by decreasing volume then index. Since `volume_order` is already
/// (volume desc, index asc), a stable counting sort on the width key
/// yields exactly what stable_sort over the two-key comparator did —
/// in O(n + widest) instead of O(n log n) per depth.
std::vector<int> order_by_min_width(const std::vector<WireCount>& min_widths,
                                    WireCount widest,
                                    const std::vector<int>& volume_order)
{
    // Bucket start positions: wider buckets first.
    std::vector<std::size_t> starts(static_cast<std::size_t>(widest) + 2, 0);
    for (const WireCount width : min_widths) {
        ++starts[static_cast<std::size_t>(width)];
    }
    std::size_t position = 0;
    for (WireCount width = widest; width >= 1; --width) {
        const std::size_t bucket = starts[static_cast<std::size_t>(width)];
        starts[static_cast<std::size_t>(width)] = position;
        position += bucket;
    }
    std::vector<int> indices(min_widths.size());
    for (const int module_index : volume_order) {
        const WireCount width = min_widths[static_cast<std::size_t>(module_index)];
        indices[starts[static_cast<std::size_t>(width)]++] = module_index;
    }
    return indices;
}

/// Enumerate the feasible alternatives of Fig. 4(c) for placing
/// `module_index` into `out`, under the pass's expansion policy.
/// The architecture's running aggregates make each alternative O(1):
/// no per-module rescans of the group list or the member times.
void enumerate_expansions(const Architecture& arch,
                          const SocTimeTables& tables,
                          int module_index,
                          WireCount min_width,
                          CycleCount depth,
                          WireCount wire_budget,
                          ExpansionPolicy policy,
                          std::vector<PackExpansion>& out)
{
    out.clear();
    const WireCount head_room = wire_budget - arch.total_wires();
    const CycleCount current_fill = arch.total_fill();

    // Alternative (i): a brand-new group at the module's minimal width.
    if (min_width <= head_room) {
        PackExpansion fresh;
        fresh.added_wires = min_width;
        fresh.resulting_total_fill = current_fill + tables.time(module_index, min_width);
        out.push_back(fresh);
    }
    if (policy == ExpansionPolicy::always_new_group) {
        return;
    }

    // Alternatives (ii)...: widen an existing group. The width check
    // runs off the dense mirror; only surviving candidates touch the
    // group object (its fill staircase answers fill_at_width in O(1)
    // amortized).
    const std::vector<CycleCount>& fills = arch.group_fills();
    const std::vector<WireCount>& widths = arch.group_widths();
    const SocTimeTables::TimeRow row = tables.time_row(module_index);
    for (std::size_t g = 0; g < widths.size(); ++g) {
        WireCount delta = 0;
        if (policy == ExpansionPolicy::widen_by_kmin) {
            // Paper: every alternative adds exactly k_min(module) wires.
            delta = min_width;
            if (delta > head_room) {
                continue;
            }
            const WireCount new_width = widths[g] + delta;
            const CycleCount fill = arch.groups()[g].fill_at_width(new_width) +
                                    row.at_width(new_width);
            if (fill > depth) {
                continue;
            }
        } else { // ExpansionPolicy::min_widening
            delta = arch.groups()[g].min_widening_for(module_index, depth, head_room);
            if (delta == 0) {
                continue;
            }
        }
        const WireCount new_width = widths[g] + delta;
        PackExpansion widened;
        widened.group = g;
        widened.added_wires = delta;
        widened.resulting_total_fill = current_fill - fills[g] +
                                       arch.groups()[g].fill_at_width(new_width) +
                                       row.at_width(new_width);
        out.push_back(widened);
    }
}

/// Paper's selection: with equal added channels, the smallest total fill
/// leaves the most free memory. With unequal added wires (min_widening)
/// compare free memory directly.
const PackExpansion& select_expansion(const std::vector<PackExpansion>& expansions,
                                      CycleCount depth)
{
    const auto free_memory = [depth](const PackExpansion& e) {
        return depth * e.added_wires - e.resulting_total_fill;
    };
    const PackExpansion* best = &expansions.front();
    for (const PackExpansion& candidate : expansions) {
        if (free_memory(candidate) > free_memory(*best)) {
            best = &candidate;
        } else if (free_memory(candidate) == free_memory(*best) &&
                   candidate.added_wires < best->added_wires) {
            best = &candidate;
        }
    }
    return *best;
}

/// One greedy Step-1 pass under an explicit wire budget, built inside
/// `scratch` (allocation-free after warm-up). Returns nullopt when the
/// budget is too tight for this pass; on success the packed architecture
/// is copied out of the scratch (copies drop the scratch-only state:
/// spare groups, staircase caches).
std::optional<Architecture> step1_pass(const SocTimeTables& tables,
                                       CycleCount depth,
                                       WireCount wire_budget,
                                       const std::vector<WireCount>& min_widths,
                                       const std::vector<int>& order,
                                       ExpansionPolicy expansion,
                                       PackScratch& scratch)
{
    Architecture& arch = scratch.arch;
    BestFitIndex& index = scratch.index;
    arch.reset();
    index.clear();
    const auto open_group = [&](WireCount width, int module_index) {
        const std::size_t g = arch.add_group(width);
        arch.add_module(g, module_index);
        index.add_group(g, width, arch.group_fills()[g]);
    };
    for (const int module_index : order) {
        const WireCount min_width = min_widths[static_cast<std::size_t>(module_index)];
        if (arch.groups().empty()) {
            if (min_width > wire_budget) {
                return std::nullopt;
            }
            open_group(min_width, module_index);
            continue;
        }
        // Place on an existing group without widening when one fits.
        const std::optional<BestFitIndex::Fit> fit =
            index.best_fit(tables.time_row(module_index), depth);
        if (fit) {
            arch.add_module(fit->group, module_index);
            index.place(*fit);
            continue;
        }
        enumerate_expansions(arch, tables, module_index, min_width, depth, wire_budget,
                             expansion, scratch.expansions);
        if (scratch.expansions.empty() && expansion == ExpansionPolicy::widen_by_kmin) {
            // Budget pressure: the paper's fixed k_min widening no longer
            // fits the remaining channels, but a smaller widening might.
            enumerate_expansions(arch, tables, module_index, min_width, depth, wire_budget,
                                 ExpansionPolicy::min_widening, scratch.expansions);
        }
        if (scratch.expansions.empty()) {
            return std::nullopt;
        }
        const PackExpansion& chosen = select_expansion(scratch.expansions, depth);
        if (chosen.group) {
            const std::size_t g = *chosen.group;
            arch.widen_group(g, chosen.added_wires);
            arch.add_module(g, module_index);
            index.set_group(g, arch.group_widths()[g], arch.group_fills()[g]);
        } else {
            open_group(chosen.added_wires, module_index);
        }
    }
    return arch;
}

/// The greedy passes of one pack query in sequential preference order:
/// order-major, so pass p runs pass_orders[p / 3] x pass_expansions[p % 3].
/// Pass 0 is the paper's; without budget_search it is the only one.
constexpr std::array<ModuleOrder, 3> pass_orders{ModuleOrder::by_min_width,
                                                 ModuleOrder::by_volume, ModuleOrder::by_time};
constexpr std::array<ExpansionPolicy, 3> pass_expansions{ExpansionPolicy::widen_by_kmin,
                                                         ExpansionPolicy::min_widening,
                                                         ExpansionPolicy::always_new_group};

} // namespace

PackEngine::PackEngine(const SocTimeTables& tables, const OptimizeOptions& options)
    : tables_(&tables), options_(options), scratch_(std::make_unique<PackScratch>(tables))
{
}

PackEngine::~PackEngine() = default;

PackEngine::DepthProfile PackEngine::make_profile(CycleCount depth, const DepthProfile* deeper)
{
    DepthProfile profile;
    if (deeper && !deeper->min_widths) {
        return profile; // a module fits no width even deeper: infeasible here too
    }
    const auto count = static_cast<std::size_t>(tables_->module_count());
    std::vector<WireCount> min_widths(count);
    if (deeper) {
        profile.area_floor = deeper->area_floor;
    }
    for (std::size_t m = 0; m < count; ++m) {
        const int module_index = static_cast<int>(m);
        // Minimal widths never shrink as the depth drops: a deeper
        // profile's width is where the search starts (0: no seed).
        const WireCount from = deeper ? (*deeper->min_widths)[m] : 0;
        const std::optional<WireCount> width =
            from > 0 ? tables_->min_width_for(module_index, depth, from)
                     : tables_->min_width_for(module_index, depth);
        if (!width) {
            return profile; // min_widths stays nullopt: depth infeasible
        }
        min_widths[m] = *width;
        profile.widest = std::max(profile.widest, *width);
        if (*width != from) {
            profile.area_floor += tables_->min_area_from(module_index, *width);
            if (from > 0) {
                profile.area_floor -= tables_->min_area_from(module_index, from);
            }
        }
    }
    profile.min_widths = std::move(min_widths);
    return profile;
}

const std::vector<int>& PackEngine::shared_order(ModuleOrder order)
{
    if (options_.memoize) {
        return order == ModuleOrder::by_volume ? tables_->volume_order()
                                               : tables_->time_order();
    }
    auto found = reference_orders_.find(order);
    if (found == reference_orders_.end()) {
        found = reference_orders_.emplace(order, module_order(*tables_, order)).first;
    }
    return found->second;
}

const std::vector<int>& PackEngine::order_for(DepthProfile& profile, ModuleOrder order)
{
    if (order != ModuleOrder::by_min_width) {
        // Depth-independent kinds are shared across every profile.
        return shared_order(order);
    }
    if (!profile.by_min_width) {
        profile.by_min_width = order_by_min_width(*profile.min_widths, profile.widest,
                                                  shared_order(ModuleOrder::by_volume));
    }
    return *profile.by_min_width;
}

PackEngine::DepthProfile& PackEngine::profile_for(CycleCount depth)
{
    auto profile = profiles_.find(depth);
    if (profile == profiles_.end()) {
        const auto deeper = profiles_.upper_bound(depth);
        profile = profiles_
                      .emplace(depth, make_profile(depth, deeper == profiles_.end()
                                                              ? nullptr
                                                              : &deeper->second))
                      .first;
    }
    return profile->second;
}

PackEngine::Computed PackEngine::compute(CycleCount depth, WireCount wire_budget,
                                         DepthProfile& profile)
{
    Computed computed;
    if (!profile.min_widths || profile.widest > wire_budget) {
        return computed;
    }
    // Area-floor prune: no packing can occupy fewer wire-cycles than the
    // per-depth floor, so a budget below floor / depth is infeasible
    // without running any pass. Sound, hence byte-identical results.
    if (profile.area_floor > static_cast<CycleCount>(wire_budget) * depth) {
        computed.pruned = true;
        return computed;
    }

    // The passes in the sequential preference order; the first that
    // packs wins and no later pass runs.
    const std::size_t passes =
        options_.budget_search ? pass_orders.size() * pass_expansions.size() : 1;
    for (std::size_t pass = 0; pass < passes && !computed.packed; ++pass) {
        ++computed.greedy_passes;
        computed.packed = step1_pass(
            *tables_, depth, wire_budget, *profile.min_widths,
            order_for(profile, pass_orders[pass / pass_expansions.size()]),
            pass_expansions[pass % pass_expansions.size()], *scratch_);
    }
    return computed;
}

void PackEngine::count_work(int greedy_passes, bool pruned) noexcept
{
    stats_.greedy_passes += greedy_passes;
    stats_.pruned_packs += pruned ? 1 : 0;
}

PackEngine::Packed PackEngine::pack(CycleCount depth, WireCount wire_budget)
{
    ++stats_.pack_calls;
    if (!options_.memoize) {
        ++stats_.depth_profiles;
        DepthProfile fresh = make_profile(depth, nullptr);
        Computed computed = compute(depth, wire_budget, fresh);
        count_work(computed.greedy_passes, computed.pruned);
        if (!computed.packed) {
            return {};
        }
        const PackAnswer& own =
            own_answers_.emplace_back(*computed.packed, computed.greedy_passes);
        return {std::move(computed.packed), &own, false};
    }
    const auto reuse = [this](const Answered& answered) -> Packed {
        if (!answered.answer->packed()) {
            return {};
        }
        return {answered.answer->unpack(*tables_), answered.answer, answered.published};
    };
    const auto key = std::make_pair(depth, wire_budget);
    const auto next = answers_.lower_bound(key);
    if (next != answers_.end() && next->first == key) {
        ++stats_.pack_cache_hits;
        return reuse(next->second);
    }
    // A depth's first miss in this solve counts as its profile, whether
    // the profile is built or a table-set answer spares the build.
    const bool depth_seen = (next != answers_.end() && next->first.first == depth) ||
                            (next != answers_.begin() && std::prev(next)->first.first == depth);
    if (!depth_seen) {
        ++stats_.depth_profiles;
    }
    PackMemo& memo = tables_->pack_memo();
    const PackKey memo_key{depth, wire_budget, options_.budget_search};
    if (const PackAnswer* shared = memo.find(memo_key)) {
        count_work(shared->greedy_passes(), shared->pruned());
        return reuse(answers_.emplace_hint(next, key, Answered{shared, true})->second);
    }
    Computed computed = compute(depth, wire_budget, profile_for(depth));
    count_work(computed.greedy_passes, computed.pruned);
    PackAnswer answer = computed.packed ? PackAnswer(*computed.packed, computed.greedy_passes)
                                        : PackAnswer(computed.greedy_passes, computed.pruned);
    const PackAnswer* resident = memo.publish(memo_key, std::move(answer));
    const bool published = resident != nullptr;
    if (!published) {
        resident = &own_answers_.emplace_back(std::move(answer));
    }
    answers_.emplace_hint(next, key, Answered{resident, published});
    if (!computed.packed) {
        return {};
    }
    return {std::move(computed.packed), resident, published};
}

} // namespace mst
