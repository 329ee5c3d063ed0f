#include "report/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace mst {

namespace {

/// Block letters cycle through A..Z then a..z.
char block_letter(int module_index)
{
    constexpr int alphabet = 26;
    const int wrapped = module_index % (2 * alphabet);
    return (wrapped < alphabet) ? static_cast<char>('A' + wrapped)
                                : static_cast<char>('a' + wrapped - alphabet);
}

} // namespace

std::string render_gantt(const Architecture& architecture, CycleCount depth, int columns)
{
    if (depth < 1) {
        throw ValidationError("gantt depth must be positive");
    }
    if (columns < 8) {
        throw ValidationError("gantt needs at least 8 columns");
    }

    std::ostringstream out;
    const double scale = static_cast<double>(columns) / static_cast<double>(depth);
    int group_number = 0;
    for (const ChannelGroup& group : architecture.groups()) {
        out << "TAM " << ++group_number << " [w=" << group.width() << "] |";
        std::string row;
        for (const int module_index : group.module_indices()) {
            const CycleCount time = architecture.tables().time(module_index, group.width());
            const auto cells = static_cast<std::size_t>(
                std::max<long>(1, std::lround(static_cast<double>(time) * scale)));
            row.append(cells, block_letter(module_index));
        }
        if (row.size() > static_cast<std::size_t>(columns)) {
            row.resize(static_cast<std::size_t>(columns));
        }
        row.append(static_cast<std::size_t>(columns) - row.size(), '.');
        out << row << "|\n";
    }

    out << "legend:";
    for (int m = 0; m < architecture.tables().module_count(); ++m) {
        out << ' ' << block_letter(m) << '=' << architecture.tables().soc().module(m).name();
        if (m == 25 && architecture.tables().module_count() > 26) {
            out << " ...";
            break;
        }
    }
    out << '\n';
    return out.str();
}

} // namespace mst
