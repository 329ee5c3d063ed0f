#include "report/solution_json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

namespace mst {

void append_json_escaped(std::string& out, std::string_view text)
{
    for (const char ch : text) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", ch);
                out += buffer;
            } else {
                out += ch;
            }
        }
    }
}

std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    append_json_escaped(out, text);
    return out;
}

void append_json_number(std::string& out, double value)
{
    // General format at precision 6 is printf's %.6g by definition.
    char buffer[32];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::general, 6);
    out.append(buffer, written.ptr);
}

std::string json_number(double value)
{
    std::string out;
    append_json_number(out, value);
    return out;
}

namespace {

/// A JSON string value: `<<` writes it quoted and escaped.
struct Quoted {
    std::string_view text;
};

/// The string solution_to_json appends to: `<<` takes text, characters,
/// integers (in the digits an ostream prints), doubles (as json_number
/// prints them) and Quoted strings.
struct JsonText {
    std::string text;

    template <class Piece>
    JsonText& operator<<(const Piece& piece)
    {
        if constexpr (std::is_same_v<Piece, Quoted>) {
            text += '"';
            append_json_escaped(text, piece.text);
            text += '"';
        } else if constexpr (std::is_floating_point_v<Piece>) {
            append_json_number(text, piece);
        } else if constexpr (std::is_integral_v<Piece> && !std::is_same_v<Piece, char>) {
            char buffer[24];
            text.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, piece).ptr);
        } else {
            text += piece;
        }
        return *this;
    }
};

// Upper bounds on the bytes solution_to_json writes besides the name
// lists, in either style: its fixed text plus 24 bytes per number (any
// integer, or any double as json_number prints it). A bound that falls
// short would cost one regrowth, not a wrong byte.
constexpr std::size_t number_bytes = 24;
constexpr std::size_t header_bytes = 640 + 17 * number_bytes;
constexpr std::size_t exact_group_bytes = 4;
constexpr std::size_t group_bytes = 80 + 3 * number_bytes;
constexpr std::size_t point_bytes = 96 + 4 * number_bytes;

/// Bytes of name lists that partition the SOC's modules into `lists`
/// lists, as a valid solution's groups (and exact groups) do.
std::size_t partition_bytes(const ModuleNames& names, std::size_t lists)
{
    return names.quoted_bytes() + 2 * (names.size() - std::min(lists, names.size()));
}

/// solution_to_json's output size: the name lists exactly, the rest
/// within the bounds above. Only a reservation: ModuleNames::append_list
/// sizes each list from its own members.
std::size_t document_bound(const Solution& solution)
{
    const ModuleNames& names = *solution.module_names;
    std::size_t bytes = header_bytes + 6 * solution.soc_name.size() + 2 +
                        group_bytes * solution.groups.size() +
                        point_bytes * solution.site_curve.size() +
                        partition_bytes(names, solution.groups.size());
    if (solution.exact) {
        bytes += exact_group_bytes * solution.exact->groups.size() +
                 partition_bytes(names, solution.exact->groups.size());
    }
    return bytes;
}

} // namespace

std::string solution_to_json(const Solution& solution, JsonStyle style)
{
    // Layout tokens: pretty indents nested objects, compact stays on one
    // line. Key order and value formatting are identical either way.
    const bool pretty = (style == JsonStyle::pretty);
    const char* open = pretty ? "{\n" : "{";
    const char* key = pretty ? "  \"" : "\"";
    const char* sep = pretty ? ",\n" : ",";
    const char* item = pretty ? "    " : "";

    const ModuleNames& names = *solution.module_names;
    JsonText out;
    out.text.reserve(document_bound(solution));
    out << open;
    out << key << "soc\": " << Quoted{solution.soc_name} << sep;
    out << key << "sites\": " << solution.sites << sep;
    out << key << "channels_per_site\": " << solution.channels_per_site << sep;
    out << key << "test_cycles\": " << solution.test_cycles << sep;
    out << key << "manufacturing_time_s\": " << solution.manufacturing_time << sep;
    out << key << "devices_per_hour\": " << solution.throughput.devices_per_hour << sep;
    out << key << "unique_devices_per_hour\": "
        << solution.throughput.unique_devices_per_hour << sep;
    out << key << "step1\": { \"channels\": " << solution.channels_step1
        << ", \"max_sites\": " << solution.max_sites_step1 << " }" << sep;
    if (solution.exact) {
        const ExactSummary& exact = *solution.exact;
        out << key << "exact\": { \"wires\": " << exact.wires
            << ", \"greedy_wires\": " << exact.greedy_wires << ", \"gap\": " << exact.gap
            << ", \"bnb_nodes\": " << exact.nodes_explored << ", \"certified\": "
            << (exact.certified ? "true" : "false") << ", \"groups\": [";
        for (std::size_t g = 0; g < exact.groups.size(); ++g) {
            out << (g == 0 ? "" : ", ") << '[';
            names.append_list(out.text, exact.groups[g]);
            out << ']';
        }
        out << "] }" << sep;
    }
    out << key << "erpct\": { \"external_channels\": " << solution.erpct.external_channels
        << ", \"internal_wires\": " << solution.erpct.internal_wires
        << ", \"control_pads\": " << solution.erpct.control_pads
        << ", \"functional_pins\": " << solution.erpct.functional_pins
        << ", \"contacted_pads\": " << solution.erpct.contacted_pads() << " }" << sep;

    out << key << "tams\": [";
    for (std::size_t g = 0; g < solution.groups.size(); ++g) {
        const GroupSummary& group = solution.groups[g];
        out << (g == 0 ? (pretty ? "\n" : "") : sep) << item;
        out << "{ \"wires\": " << group.wires
            << ", \"channels\": " << channels_from_wires(group.wires)
            << ", \"fill_cycles\": " << group.fill << ", \"modules\": [";
        names.append_list(out.text, group.module_indices);
        out << "] }";
    }
    out << (pretty ? "\n  ]" : "]") << sep;

    out << key << "site_curve\": [";
    for (std::size_t i = 0; i < solution.site_curve.size(); ++i) {
        const SitePoint& point = solution.site_curve[i];
        out << (i == 0 ? (pretty ? "\n" : "") : sep) << item;
        out << "{ \"sites\": " << point.sites << ", \"channels_per_site\": "
            << point.channels_per_site << ", \"test_cycles\": " << point.test_cycles
            << ", \"devices_per_hour\": " << point.devices_per_hour << " }";
    }
    out << (pretty ? "\n  ]\n}\n" : "]}");
    // Callers keep documents (the serve outcome cache, reply buffers):
    // hand back exact-size storage, not the slack of the reservation.
    out.text.shrink_to_fit();
    return std::move(out.text);
}

} // namespace mst
