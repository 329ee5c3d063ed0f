// The module names of one SOC, as the reports print them.
#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "soc/soc.hpp"

namespace mst {

/// An SOC's module names by module index, twice: as written (the CLI
/// table, the examples), and each already quoted and escaped as a JSON
/// string value, back to back in one buffer. The solution writer copies
/// a module's quoted entry as one span, so a name is escaped once per
/// table set, not once per solve. Immutable; SocTimeTables::module_names()
/// builds one per table set.
class ModuleNames {
public:
    explicit ModuleNames(const Soc& soc);

    [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

    /// Name of module `module_index`.
    [[nodiscard]] const std::string& name(int module_index) const noexcept
    {
        assert(module_index >= 0 && static_cast<std::size_t>(module_index) < size());
        return names_[static_cast<std::size_t>(module_index)];
    }

    /// Name of module `module_index` as a JSON string value: the name
    /// quoted, escaped as json_escape escapes it.
    [[nodiscard]] std::string_view quoted(int module_index) const noexcept
    {
        const std::string_view entry = listed(module_index);
        return entry.substr(separator.size());
    }

    /// Bytes of every quoted entry together: the name lists of a
    /// partition of the SOC's modules into `lists` non-empty lists take
    /// this plus the separators, 2 * (size() - lists) bytes.
    [[nodiscard]] std::size_t quoted_bytes() const noexcept
    {
        return entries_.size() - padding - separator.size() * size();
    }

    /// Bytes append_list() writes for `members`.
    [[nodiscard]] std::size_t list_bytes(const std::vector<int>& members) const noexcept;

    /// Append the quoted entries of `members` in order, separated by
    /// ", ": one span copy per member.
    void append_list(std::string& out, const std::vector<int>& members) const;

private:
    /// Entries are stored with their list separator in front, so every
    /// member of a list but the first is one copy of its whole entry.
    static constexpr std::string_view separator = ", ";
    /// Zero bytes after the last entry: append_list copies in 16-byte
    /// chunks and may read up to 15 bytes past an entry's end.
    static constexpr std::size_t padding = 16;

    /// ", " then the quoted name of `module_index`.
    [[nodiscard]] std::string_view listed(int module_index) const noexcept
    {
        assert(module_index >= 0 && static_cast<std::size_t>(module_index) < size());
        const auto m = static_cast<std::size_t>(module_index);
        return {entries_.data() + offsets_[m], offsets_[m + 1] - offsets_[m]};
    }

    std::vector<std::string> names_;
    std::string entries_;              ///< every listed entry in module order, then padding
    std::vector<std::size_t> offsets_; ///< entry m is [offsets_[m], offsets_[m + 1])
};

} // namespace mst
