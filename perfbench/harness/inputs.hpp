// Seeded inputs of the three workloads.
//
// Everything the program under test receives is generated here from the
// workload seed; the program never sees the seed itself. Sizes, cells and
// the shape of each cycle are fixed by position, and only the SOC
// contents and the request draw depend on the seed, so runs on different
// seeds do comparable work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ate/ate.hpp"
#include "core/problem.hpp"
#include "soc/soc.hpp"

namespace perfbench {

/// The option families the grid and the serve mix cover.
enum class Variant { plain, broadcast, abort, retest };
inline constexpr Variant all_variants[] = {Variant::plain, Variant::broadcast, Variant::abort,
                                           Variant::retest};

[[nodiscard]] mst::OptimizeOptions variant_options(Variant variant, int threads);
[[nodiscard]] mst::TestCell make_cell(int channels, mst::CycleCount depth);

// --- plan-cold: one fresh wide-shallow SOC per scenario ---

/// Scenarios per cycle; each cycle walks the same size and cell ladder.
inline constexpr int cold_cycle_length = 16;

struct ColdScenario {
    mst::Soc soc;
    mst::TestCell cell;
    mst::OptimizeOptions options;
};

[[nodiscard]] ColdScenario cold_scenario(std::uint64_t seed, int cycle, int index, int threads);

// --- plan-grid: a cell grid over a few resident SOCs ---

struct GridSoc {
    std::string name;
    std::string text; ///< .soc text; empty for an ITC'02 SOC resolved by name
};

struct GridScenario {
    int soc = 0; ///< index into grid_socs()
    mst::TestCell cell;
    Variant variant = Variant::plain;
};

[[nodiscard]] std::vector<GridSoc> grid_socs(std::uint64_t seed);
/// Every SOC x {256,512,1024} channels x {2M,7M,32M} x variant, in a
/// fixed shuffled order.
[[nodiscard]] std::vector<GridScenario> grid_scenarios(std::size_t soc_count);

// --- serve-mix: Zipf-popular requests, new keys every cycle ---

/// Deliberately bad requests and the error kind each must draw.
enum class BadKind { none, parse, validation, version, infeasible };
[[nodiscard]] const char* expected_error_kind(BadKind kind) noexcept;

/// Requests per cycle; every 50th is a bad one (2%).
inline constexpr int serve_cycle_requests = 1200;

struct ServeCycle {
    std::vector<mst::Soc> generated;        ///< the run's generated SOCs
    std::vector<std::string> soc_member;    ///< per SOC: "soc_text":"..." or "soc":"name"
    std::vector<std::string> combo_member;  ///< per (cell, options) combo
    struct Request {
        int key = -1; ///< soc * combo_count + combo; -1 for a bad request
        BadKind bad = BadKind::none;
    };
    std::vector<Request> requests;

    [[nodiscard]] std::size_t combo_count() const noexcept { return combo_member.size(); }
    /// Request line i with the given id (no trailing newline).
    [[nodiscard]] std::string line(std::size_t i, std::uint64_t id) const;
    /// The request line of one key with the given id.
    [[nodiscard]] std::string key_line(int key, std::uint64_t id) const;
};

[[nodiscard]] ServeCycle serve_cycle(std::uint64_t seed, int cycle);

} // namespace perfbench
