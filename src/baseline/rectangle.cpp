#include "baseline/rectangle.hpp"

namespace mst {

std::optional<std::vector<ModuleRectangle>>
narrowest_fitting_rectangles(const SocTimeTables& tables, CycleCount depth)
{
    std::vector<ModuleRectangle> rectangles;
    rectangles.reserve(static_cast<std::size_t>(tables.module_count()));
    for (int m = 0; m < tables.module_count(); ++m) {
        const std::optional<WireCount> width = tables.min_width_for(m, depth);
        if (!width) {
            return std::nullopt;
        }
        ModuleRectangle rect;
        rect.module_index = m;
        rect.width = *width;
        rect.height = tables.time(m, *width);
        rectangles.push_back(rect);
    }
    return rectangles;
}

} // namespace mst
