#include "baseline/bin_packing.hpp"

#include <algorithm>
#include <vector>

#include "arch/architecture.hpp"
#include "baseline/rectangle.hpp"
#include "common/error.hpp"

namespace mst {

namespace {

/// A packing column: a fixed-width lane of the ATE's time axis.
struct Column {
    WireCount width = 0;
    CycleCount fill = 0;
    std::vector<ModuleRectangle> rectangles;
};

/// First-fit by decreasing height: the classic level heuristic [7] builds
/// on. Each rectangle lands in the first column wide enough with depth
/// head-room, else opens a new column of its own width.
std::vector<Column> first_fit_decreasing(std::vector<ModuleRectangle> rectangles,
                                         CycleCount depth)
{
    std::stable_sort(rectangles.begin(), rectangles.end(),
                     [](const ModuleRectangle& a, const ModuleRectangle& b) {
                         if (a.height != b.height) {
                             return a.height > b.height;
                         }
                         return a.width > b.width;
                     });
    std::vector<Column> columns;
    for (const ModuleRectangle& rect : rectangles) {
        Column* target = nullptr;
        for (Column& column : columns) {
            if (rect.width <= column.width && column.fill + rect.height <= depth) {
                target = &column;
                break;
            }
        }
        if (target == nullptr) {
            columns.push_back(Column{rect.width, 0, {}});
            target = &columns.back();
        }
        target->fill += rect.height;
        target->rectangles.push_back(rect);
    }
    return columns;
}

/// Try to empty the narrowest columns by relocating their rectangles
/// (re-wrapped at the destination column's width) into the remaining
/// columns. Emptied columns are removed, saving their wires.
void eliminate_columns(std::vector<Column>& columns,
                       const SocTimeTables& tables,
                       CycleCount depth)
{
    bool removed = true;
    while (removed && columns.size() > 1) {
        removed = false;
        // Attack the column with the fewest wires first.
        auto victim = std::min_element(columns.begin(), columns.end(),
                                       [](const Column& a, const Column& b) {
                                           return a.width < b.width;
                                       });
        std::vector<Column> trial(columns.begin(), columns.end());
        trial.erase(trial.begin() + std::distance(columns.begin(), victim));

        bool all_relocated = true;
        for (const ModuleRectangle& rect : victim->rectangles) {
            Column* best = nullptr;
            CycleCount best_height = 0;
            for (Column& column : trial) {
                const CycleCount height = tables.time(rect.module_index, column.width);
                if (column.fill + height <= depth &&
                    (best == nullptr || column.fill + height < best->fill + best_height)) {
                    best = &column;
                    best_height = height;
                }
            }
            if (best == nullptr) {
                all_relocated = false;
                break;
            }
            best->fill += best_height;
            best->rectangles.push_back(
                ModuleRectangle{rect.module_index, best->width, best_height});
        }
        if (all_relocated) {
            columns = std::move(trial);
            removed = true;
        }
    }
}

} // namespace

BaselineResult pack_rectangles(const SocTimeTables& tables,
                               const AteSpec& ate,
                               BroadcastMode broadcast)
{
    ate.validate();
    const CycleCount depth = ate.vector_memory_depth;
    std::optional<std::vector<ModuleRectangle>> rectangles =
        narrowest_fitting_rectangles(tables, depth);
    if (!rectangles) {
        throw InfeasibleError("SOC '" + tables.soc().name() +
                              "' does not fit the ATE vector memory at any width");
    }

    std::vector<Column> columns = first_fit_decreasing(std::move(*rectangles), depth);
    eliminate_columns(columns, tables, depth);

    BaselineResult result;
    WireCount wires = 0;
    for (const Column& column : columns) {
        wires += column.width;
        result.test_cycles = std::max(result.test_cycles, column.fill);
    }
    result.channels = channels_from_wires(wires);
    result.columns = static_cast<int>(columns.size());
    if (result.channels > ate.channels) {
        throw InfeasibleError("baseline packing for SOC '" + tables.soc().name() +
                              "' exceeds the ATE channel budget");
    }
    result.max_sites = max_sites(result.channels, ate.channels, broadcast);
    return result;
}

} // namespace mst
