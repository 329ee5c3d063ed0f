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
    // per SOC module (the idiom of Architecture::validate); the name
    // check ties each entry's index to the module the reports print.
    WireCount wires = 0;
    std::vector<int> seen(static_cast<std::size_t>(soc.module_count()), 0);
    for (const GroupSummary& group : solution.groups) {
        if (group.channels != channels_from_wires(group.wires)) {
            throw ValidationError("group channel count is not twice its wire count");
        }
        if (group.fill > ate.vector_memory_depth) {
            throw ValidationError("group fill exceeds the vector memory depth");
        }
        if (group.module_indices.size() != group.module_names.size()) {
            throw ValidationError("group module names and indices differ in length");
        }
        wires += group.wires;
        for (std::size_t i = 0; i < group.module_indices.size(); ++i) {
            const int index = group.module_indices[i];
            const std::string& name = group.module_names[i];
            if (index < 0 || index >= soc.module_count() || soc.module(index).name() != name) {
                throw ValidationError("solution wraps module '" + name +
                                      "', which is not the SOC's module " +
                                      std::to_string(index));
            }
            if (++seen[static_cast<std::size_t>(index)] > 1) {
                throw ValidationError("module '" + name + "' assigned to two groups");
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
