// Reader for the .soc benchmark format.
//
// The format is a line-oriented rendition of the ITC'02 SOC Test
// Benchmarks [13], carrying exactly the fields the DATE'05 algorithm
// consumes. Grammar (one statement per line, '#' starts a comment):
//
//   soc <name>
//   module <name> inputs <n> outputs <n> bidirs <n> patterns <n> [scan <l1> <l2> ...]
//   end            # required terminator (guards against truncated files)
//
// Example:
//
//   soc d695
//   module c6288 inputs 32 outputs 32 bidirs 0 patterns 12
//   module s9234 inputs 36 outputs 39 bidirs 0 patterns 105 scan 54 53 52 52
//   end
//
// Counts are decimal with an optional sign (leading zeros allowed);
// tokens split on spaces, tabs, CR, VT and FF. Terminal counts must fit
// an int, pattern counts and chain lengths a 64-bit integer. All three
// entry points run the same single pass over the whole text: string
// views for lines and tokens, std::from_chars for the numbers.
#pragma once

#include <iosfwd>
#include <string>

#include "soc/soc.hpp"

namespace mst {

/// Parse a .soc description from a stream (read to its end first).
/// `origin` is used in error messages only. Throws ParseError, with the
/// offending line, on malformed input and on semantically invalid data.
[[nodiscard]] Soc parse_soc(std::istream& in, std::string_view origin = "<stream>");

/// Parse a .soc description held in a string.
[[nodiscard]] Soc parse_soc_string(const std::string& text, std::string_view origin = "<string>");

/// Load a .soc file from disk. Throws ParseError if the file cannot be
/// opened or is malformed.
[[nodiscard]] Soc load_soc_file(const std::string& path);

} // namespace mst
