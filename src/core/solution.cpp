#include "core/solution.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"

namespace mst {

void validate_solution(const Solution& solution, const Soc& soc, const AteSpec& ate,
                       BroadcastMode broadcast)
{
    if (solution.sites < 1) {
        throw ValidationError("solution has no test sites");
    }
    if (solution.channels_per_site <= 0 || solution.channels_per_site % 2 != 0) {
        throw ValidationError("per-site channel count must be positive and even");
    }

    // Channel budget: n*k <= K, or (n+1)*k/2 <= K with stimuli broadcast.
    const ChannelCount half = solution.channels_per_site / 2;
    const ChannelCount used = (broadcast == BroadcastMode::stimuli)
                                  ? (solution.sites + 1) * half
                                  : solution.sites * solution.channels_per_site;
    if (used > ate.channels) {
        throw ValidationError("solution exceeds the ATE channel budget");
    }

    if (solution.test_cycles > ate.vector_memory_depth) {
        throw ValidationError("solution exceeds the ATE vector memory depth");
    }

    // Architecture consistency. Coverage by module index, one counter
    // per SOC module (the idiom of Architecture::validate).
    if (!solution.module_names ||
        solution.module_names->size() != static_cast<std::size_t>(soc.module_count())) {
        throw ValidationError("solution's module names table does not match the SOC");
    }
    WireCount wires = 0;
    std::vector<int> seen(static_cast<std::size_t>(soc.module_count()), 0);
    for (const GroupSummary& group : solution.groups) {
        if (group.fill > ate.vector_memory_depth) {
            throw ValidationError("group fill exceeds the vector memory depth");
        }
        wires += group.wires;
        for (const int index : group.module_indices) {
            if (index < 0 || index >= soc.module_count()) {
                throw ValidationError("solution wraps module " + std::to_string(index) +
                                      ", which the SOC does not have");
            }
            if (++seen[static_cast<std::size_t>(index)] > 1) {
                throw ValidationError("module '" + soc.module(index).name() +
                                      "' assigned to two groups");
            }
        }
    }
    if (channels_from_wires(wires) != solution.channels_per_site) {
        throw ValidationError("group widths do not add up to the per-site channel count");
    }
    for (std::size_t m = 0; m < seen.size(); ++m) {
        if (seen[m] == 0) {
            throw ValidationError("module '" + soc.module(static_cast<int>(m)).name() +
                                  "' is not assigned to any group");
        }
    }

    // E-RPCT interface consistency.
    if (solution.erpct.external_channels != solution.channels_per_site) {
        throw ValidationError("E-RPCT wrapper width does not match the per-site channel count");
    }
}

} // namespace mst
