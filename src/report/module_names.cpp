#include "report/module_names.hpp"

#include <cstring>

#include "report/solution_json.hpp"

namespace mst {

ModuleNames::ModuleNames(const Soc& soc)
{
    const std::vector<Module>& modules = soc.modules();
    names_.reserve(modules.size());
    offsets_.reserve(modules.size() + 1);
    std::size_t plain_bytes = padding;
    for (const Module& module : modules) {
        plain_bytes += separator.size() + module.name().size() + 2;
    }
    entries_.reserve(plain_bytes); // exact unless a name needs escapes
    offsets_.push_back(0);
    for (const Module& module : modules) {
        names_.push_back(module.name());
        entries_.append(separator.data(), separator.size());
        entries_ += '"';
        append_json_escaped(entries_, module.name());
        entries_ += '"';
        offsets_.push_back(entries_.size());
    }
    entries_.append(padding, '\0');
}

std::size_t ModuleNames::list_bytes(const std::vector<int>& members) const noexcept
{
    if (members.empty()) {
        return 0;
    }
    std::size_t bytes = 0;
    for (const int member : members) {
        bytes += listed(member).size();
    }
    return bytes - separator.size();
}

void ModuleNames::append_list(std::string& out, const std::vector<int>& members) const
{
    // Size the string once, then copy every entry in whole 16-byte
    // chunks: an entry's tail chunk may run up to 15 bytes past it, into
    // the next entry's place (overwritten next) or the padding here.
    const std::size_t start = out.size();
    const std::size_t bytes = list_bytes(members);
    out.resize(start + bytes + padding);
    char* at = out.data() + start;
    for (std::size_t m = 0; m < members.size(); ++m) {
        std::string_view entry = listed(members[m]);
        if (m == 0) {
            entry.remove_prefix(separator.size());
        }
        for (std::size_t copied = 0; copied < entry.size(); copied += padding) {
            std::memcpy(at + copied, entry.data() + copied, padding);
        }
        at += entry.size();
    }
    out.resize(start + bytes);
}

} // namespace mst
