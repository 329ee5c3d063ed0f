#include "baseline/lower_bound.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace mst {

std::optional<WireCount> lower_bound_wires(const SocTimeTables& tables, CycleCount depth)
{
    WireCount widest_single = 0;
    CycleCount total_min_area = 0;
    for (int m = 0; m < tables.module_count(); ++m) {
        const std::optional<WireCount> width = tables.min_width_for(m, depth);
        if (!width) {
            return std::nullopt;
        }
        widest_single = std::max(widest_single, *width);
        total_min_area += tables.min_area(m);
    }
    const auto area_bound = static_cast<WireCount>(ceil_div(total_min_area, depth));
    return std::max(widest_single, area_bound);
}

std::optional<ChannelCount> lower_bound_channels(const SocTimeTables& tables, CycleCount depth)
{
    const std::optional<WireCount> wires = lower_bound_wires(tables, depth);
    if (!wires) {
        return std::nullopt;
    }
    return channels_from_wires(*wires);
}

} // namespace mst
