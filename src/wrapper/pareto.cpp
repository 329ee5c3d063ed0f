#include "wrapper/pareto.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "wrapper/time_calculator.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {

WireCount table_extent(const Module& module)
{
    const WireCount limit = std::clamp(module.max_useful_width(), 1, width_cap);
    if (module.scan_chain_count() == 0) {
        return limit;
    }
    const FlipFlopCount longest = *std::max_element(module.scan_chain_lengths().begin(),
                                                    module.scan_chain_lengths().end());
    const FlipFlopCount total = module.total_scan_flip_flops();
    const auto ceil_div = [](FlipFlopCount bits, FlipFlopCount chain) {
        return static_cast<WireCount>((bits + chain - 1) / chain);
    };
    const WireCount saturated =
        std::max({module.scan_chain_count(), ceil_div(total + module.scan_in_cells(), longest),
                  ceil_div(total + module.scan_out_cells(), longest)});
    return std::clamp(saturated, 1, limit);
}

void build_time_row(const Module& module, TableBuild build, std::size_t count,
                    CycleCount* times)
{
    const WrapperTimeCalculator calculator(module);
    std::vector<FlipFlopCount> lpt_scratch; // reused across the width loop
    CycleCount best_time = std::numeric_limits<CycleCount>::max();
    const auto limit = static_cast<WireCount>(count);
    for (WireCount w = 1; w <= limit; ++w) {
        // A width whose lower bound cannot beat the running best leaves
        // the effective time as it is.
        const std::optional<CycleCount> raw =
            build == TableBuild::fast ? calculator.time_if_can_beat(w, best_time, lpt_scratch)
                                      : wrapped_test_time(module, w);
        if (raw && *raw < best_time) {
            best_time = *raw;
        }
        times[static_cast<std::size_t>(w) - 1] = best_time;
    }
}

void fill_suffix_min_areas(const CycleCount* times, std::size_t count, CycleCount* areas)
{
    // Beyond the row the time saturates, so wider groups only cost more
    // area and the suffix over the row already covers them. The head,
    // min over w of w * effective(w), also equals min over w of w * raw(w):
    // effective(w) = raw(v) for some v <= w, so no effective area
    // undercuts the raw minimum, while effective <= raw bounds it from
    // the other side.
    CycleCount best_area = 0;
    for (std::size_t i = count; i-- > 0;) {
        const CycleCount area = static_cast<CycleCount>(i + 1) * times[i];
        if (i + 1 == count || area < best_area) {
            best_area = area;
        }
        areas[i] = best_area;
    }
}

} // namespace mst
