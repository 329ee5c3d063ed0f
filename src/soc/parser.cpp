#include "soc/parser.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace mst {

namespace {

std::string concat(std::initializer_list<std::string_view> parts)
{
    std::string out;
    for (const std::string_view part : parts) {
        out.append(part);
    }
    return out;
}

/// The characters `std::istream >> std::string` splits on in the C
/// locale, so CR (of CRLF line ends), tabs and form feeds separate
/// tokens exactly as they always have.
bool is_space(char c) noexcept
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Whitespace-separated tokens of one line, dropping everything after
/// its first '#'. Views into the parsed text: no token is copied.
class Tokens {
public:
    explicit Tokens(std::string_view line) noexcept : rest_(line.substr(0, line.find('#'))) {}

    /// The next token, or an empty view once the line is used up.
    std::string_view next() noexcept
    {
        std::size_t begin = 0;
        while (begin < rest_.size() && is_space(rest_[begin])) {
            ++begin;
        }
        std::size_t end = begin;
        while (end < rest_.size() && !is_space(rest_[end])) {
            ++end;
        }
        const std::string_view token = rest_.substr(begin, end - begin);
        rest_.remove_prefix(end);
        return token;
    }

private:
    std::string_view rest_;
};

/// A non-negative decimal count no larger than `max`. Accepts what
/// std::stoll accepted over a whole token: one optional sign, then
/// digits (leading zeros allowed).
std::int64_t parse_count(std::string_view token, std::string_view origin, int line_no,
                         std::string_view field, std::int64_t max = INT64_MAX)
{
    std::string_view digits = token;
    const bool negative = !digits.empty() && digits.front() == '-';
    if (!digits.empty() && (digits.front() == '+' || digits.front() == '-')) {
        digits.remove_prefix(1);
    }
    // Unsigned from_chars takes no sign of its own, so "+-5" fails here
    // as it did under stoll; the magnitude limit is stoll's int64 range.
    std::uint64_t magnitude = 0;
    const char* end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, magnitude);
    const std::uint64_t limit =
        negative ? std::uint64_t{1} << 63 : static_cast<std::uint64_t>(INT64_MAX);
    if (error != std::errc{} || stop != end || magnitude > limit) {
        throw ParseError(origin, line_no,
                         concat({"expected an integer for '", field, "', got '", token, "'"}));
    }
    // Negative terminal counts, chain lengths, and pattern counts are
    // never meaningful; diagnose them here with the line number instead
    // of relying on downstream Module validation to notice.
    if (negative && magnitude != 0) {
        throw ParseError(origin, line_no,
                         concat({"expected a non-negative integer for '", field, "', got '",
                                 token, "'"}));
    }
    if (magnitude > static_cast<std::uint64_t>(max)) {
        throw ParseError(origin, line_no,
                         concat({"expected at most ", std::to_string(max), " for '", field,
                                 "', got '", token, "'"}));
    }
    return static_cast<std::int64_t>(magnitude);
}

/// The rest of a `module` line (the keyword already consumed).
/// `chains` is the caller's scratch for the scan lengths, so each
/// module's own vector is allocated once at its final size.
Module parse_module_line(Tokens& tokens, std::vector<FlipFlopCount>& chains,
                         std::string_view origin, int line_no)
{
    const std::string_view name = tokens.next();
    if (name.empty()) {
        throw ParseError(origin, line_no, "'module' requires a name");
    }
    std::optional<int> inputs;
    std::optional<int> outputs;
    std::optional<int> bidirs;
    std::optional<PatternCount> patterns;
    chains.clear();

    for (std::string_view key = tokens.next(); !key.empty(); key = tokens.next()) {
        if (key == "scan") {
            for (std::string_view length = tokens.next(); !length.empty();
                 length = tokens.next()) {
                chains.push_back(parse_count(length, origin, line_no, "scan chain length"));
            }
            break;
        }
        const std::string_view value = tokens.next();
        if (value.empty()) {
            throw ParseError(origin, line_no, concat({"field '", key, "' is missing its value"}));
        }
        std::optional<int>* terminals = key == "inputs"    ? &inputs
                                        : key == "outputs" ? &outputs
                                        : key == "bidirs"  ? &bidirs
                                                           : nullptr;
        if (terminals != nullptr) {
            *terminals = static_cast<int>(parse_count(value, origin, line_no, key, INT_MAX));
        } else {
            const std::int64_t count = parse_count(value, origin, line_no, key);
            if (key != "patterns") {
                throw ParseError(origin, line_no, concat({"unknown module field '", key, "'"}));
            }
            patterns = count;
        }
    }

    if (!inputs || !outputs || !patterns) {
        throw ParseError(origin, line_no,
                         concat({"module '", name, "' must define inputs, outputs, and patterns"}));
    }
    try {
        return Module(std::string(name), *inputs, *outputs, bidirs.value_or(0), *patterns,
                      std::vector<FlipFlopCount>(chains.begin(), chains.end()));
    } catch (const ValidationError& e) {
        throw ParseError(origin, line_no, e.what());
    }
}

/// The one .soc parser: a single pass over the whole text, one line
/// (split on '\n', as std::getline did) at a time.
Soc parse_soc_text(std::string_view text, std::string_view origin)
{
    std::string soc_name;
    std::vector<Module> modules;
    modules.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
    std::vector<FlipFlopCount> chains;
    bool ended = false;

    int line_no = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t newline = std::min(text.find('\n', pos), text.size());
        Tokens tokens(text.substr(pos, newline - pos));
        pos = newline + 1;
        ++line_no;
        const std::string_view keyword = tokens.next();
        if (keyword.empty()) {
            continue;
        }
        if (ended) {
            throw ParseError(origin, line_no, "content after 'end'");
        }
        if (keyword == "soc") {
            if (!soc_name.empty()) {
                throw ParseError(origin, line_no, "duplicate 'soc' statement");
            }
            const std::string_view name = tokens.next();
            if (name.empty() || !tokens.next().empty()) {
                throw ParseError(origin, line_no, "'soc' requires exactly one name");
            }
            soc_name = name;
        } else if (keyword == "module") {
            if (soc_name.empty()) {
                throw ParseError(origin, line_no, "'module' before 'soc' statement");
            }
            modules.push_back(parse_module_line(tokens, chains, origin, line_no));
        } else if (keyword == "end") {
            ended = true;
        } else {
            throw ParseError(origin, line_no, concat({"unknown statement '", keyword, "'"}));
        }
    }

    if (soc_name.empty()) {
        throw ParseError(origin, line_no, "missing 'soc' statement");
    }
    if (!ended) {
        // A file that just stops is indistinguishable from one cut off
        // mid-transfer; require the 'end' terminator so truncation is a
        // diagnosed error instead of a silently shorter SOC.
        throw ParseError(origin, line_no, "missing 'end' statement (truncated file?)");
    }
    try {
        return Soc(soc_name, std::move(modules));
    } catch (const ValidationError& e) {
        throw ParseError(origin, line_no, e.what());
    }
}

std::string read_all(std::istream& in)
{
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

Soc parse_soc(std::istream& in, std::string_view origin)
{
    return parse_soc_text(read_all(in), origin);
}

Soc parse_soc_string(const std::string& text, std::string_view origin)
{
    return parse_soc_text(text, origin);
}

Soc load_soc_file(const std::string& path)
{
    std::ifstream file(path);
    if (!file) {
        throw ParseError(path, 0, "cannot open file");
    }
    return parse_soc_text(read_all(file), path);
}

} // namespace mst
