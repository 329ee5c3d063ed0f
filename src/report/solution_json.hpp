// JSON export of a Solution: the machine-readable handoff from the
// optimizer to downstream DfT insertion / test-program generation tools.
#pragma once

#include <string>
#include <string_view>

#include "core/solution.hpp"

namespace mst {

/// Layout of the serialized solution. Both styles carry the same keys
/// and values; `compact` emits no newlines so the object can be embedded
/// in a JSON-lines response (the request service's wire format).
enum class JsonStyle {
    pretty,   ///< indented, one key per line (CLI --json output)
    compact,  ///< single line, minimal whitespace
};

/// Serialize a solution as a single self-contained JSON object:
/// operating point, E-RPCT wrapper parameters, per-group TAM plan, and
/// the full site curve. Output is deterministic (fixed key order) and
/// strings are escaped per RFC 8259.
[[nodiscard]] std::string solution_to_json(const Solution& solution,
                                           JsonStyle style = JsonStyle::pretty);

/// Escape a string for embedding in a JSON string literal (RFC 8259:
/// backslash, double quote, and control characters).
[[nodiscard]] std::string json_escape(const std::string& text);

/// json_escape, appended to `out` with no temporary.
void append_json_escaped(std::string& out, std::string_view text);

/// A JSON number as printf's `%.6g` prints it: the one number format of
/// every JSON document mst writes (solutions, sweep reports, BENCH files).
[[nodiscard]] std::string json_number(double value);

/// json_number, appended to `out` with no temporary.
void append_json_number(std::string& out, double value);

} // namespace mst
