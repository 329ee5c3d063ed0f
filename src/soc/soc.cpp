#include "soc/soc.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace mst {

Soc::Soc(std::string name, std::vector<Module> modules)
    : name_(std::move(name)), modules_(std::move(modules))
{
    if (name_.empty()) {
        throw ValidationError("SOC must have a non-empty name");
    }
    if (modules_.empty()) {
        throw ValidationError("SOC '" + name_ + "' must contain at least one module");
    }
    // Views into modules_, which does not move again: no name is copied.
    std::unordered_set<std::string_view> seen;
    seen.reserve(modules_.size());
    for (const Module& m : modules_) {
        if (!seen.insert(m.name()).second) {
            throw ValidationError("SOC '" + name_ + "' has duplicate module name '" + m.name() + "'");
        }
    }
}

SocStats Soc::stats() const
{
    SocStats s;
    s.module_count = module_count();
    for (const Module& m : modules_) {
        if (m.scan_chain_count() > 0) {
            ++s.scan_tested_modules;
        }
        s.total_scan_flip_flops += m.total_scan_flip_flops();
        s.total_patterns += m.patterns();
        s.total_test_data_volume_bits += m.test_data_volume_bits();
        s.max_scan_chains = std::max(s.max_scan_chains, m.scan_chain_count());
        s.max_patterns = std::max(s.max_patterns, m.patterns());
    }
    return s;
}

} // namespace mst
