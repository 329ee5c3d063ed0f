#include "report/solution_json.hpp"

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

    /// A list of module names, quoted and escaped, resolved from indices
    /// through the solution's names table.
    void names(const Solution& solution, const std::vector<int>& members)
    {
        for (std::size_t m = 0; m < members.size(); ++m) {
            *this << (m == 0 ? "" : ", ") << Quoted{solution.module_name(members[m])};
        }
    }
};

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

    JsonText out;
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
            out.names(solution, exact.groups[g]);
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
        out.names(solution, group.module_indices);
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
    // hand back exact-size storage, not the slack of appending's growth.
    out.text.shrink_to_fit();
    return std::move(out.text);
}

} // namespace mst
