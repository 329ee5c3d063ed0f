#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "common.hpp"
#include "report/solution_json.hpp"
#include "soc/generator.hpp"
#include "soc/writer.hpp"

namespace perfbench {

namespace {

constexpr mst::CycleCount mega = 1024 * 1024;

mst::Soc generated_soc(const std::string& name, int modules, mst::ScaledShape shape,
                       std::uint64_t seed)
{
    mst::GeneratorConfig config = mst::scaled_benchmark_config(name, modules, shape);
    config.seed = seed;
    return mst::generate_soc(config);
}

} // namespace

mst::OptimizeOptions variant_options(Variant variant, int threads)
{
    mst::OptimizeOptions options;
    options.threads = threads;
    switch (variant) {
    case Variant::plain: break;
    case Variant::broadcast: options.broadcast = mst::BroadcastMode::stimuli; break;
    case Variant::abort: options.abort = mst::AbortOnFail::on; break;
    case Variant::retest: options.retest = mst::RetestPolicy::retest_contact_failures; break;
    }
    return options;
}

mst::TestCell make_cell(int channels, mst::CycleCount depth)
{
    mst::TestCell cell;
    cell.ate.channels = channels;
    cell.ate.vector_memory_depth = depth;
    return cell;
}

ColdScenario cold_scenario(std::uint64_t seed, int cycle, int index, int threads)
{
    // Wide-shallow SOCs from 2000 to 10000 modules on cells around the
    // stock 512 x 7M: parse and table build dominate each solve.
    static constexpr int channels[] = {256, 320, 384, 448, 512};
    static constexpr int depth_m[] = {7, 6, 8};
    const int modules = 2000 + index * 8000 / (cold_cycle_length - 1);
    const auto i = static_cast<std::size_t>(index);
    const std::string name = "cold" + std::to_string(cycle) + "-" + std::to_string(index);
    return {generated_soc(name, modules, mst::ScaledShape::wide_shallow,
                          mix_seed(seed, 1000 + static_cast<std::uint64_t>(cycle), i)),
            make_cell(channels[i % std::size(channels)], depth_m[i % std::size(depth_m)] * mega),
            variant_options(Variant::plain, threads)};
}

std::vector<GridSoc> grid_socs(std::uint64_t seed)
{
    // Narrow-deep SOCs, where Step 2 dominates, plus two ITC'02 SOCs.
    static constexpr int modules[] = {3000, 6000, 10000};
    std::vector<GridSoc> socs;
    for (std::size_t i = 0; i < std::size(modules); ++i) {
        const std::string name = "grid" + std::to_string(i);
        socs.push_back({name, mst::soc_to_string(generated_soc(name, modules[i],
                                                               mst::ScaledShape::narrow_deep,
                                                               mix_seed(seed, 2000, i)))});
    }
    socs.push_back({"p34392", ""});
    socs.push_back({"p93791", ""});
    return socs;
}

std::vector<GridScenario> grid_scenarios(std::size_t soc_count)
{
    std::vector<GridScenario> scenarios;
    for (std::size_t soc = 0; soc < soc_count; ++soc) {
        for (const int channels : {256, 512, 1024}) {
            for (const mst::CycleCount depth : {2 * mega, 7 * mega, 32 * mega}) {
                for (const Variant variant : all_variants) {
                    scenarios.push_back(
                        {static_cast<int>(soc), make_cell(channels, depth), variant});
                }
            }
        }
    }
    // A fixed shuffle, so each cycle's heavy scenarios are spread over the
    // cycle instead of running back to back on one SOC.
    std::uint64_t state = mix_seed(0x5EED, 2500);
    for (std::size_t i = scenarios.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(next_unit(state) * static_cast<double>(i + 1));
        std::swap(scenarios[i], scenarios[j]);
    }
    return scenarios;
}

const char* expected_error_kind(BadKind kind) noexcept
{
    switch (kind) {
    case BadKind::none: return "";
    case BadKind::parse: return "parse";
    case BadKind::validation: return "validation";
    case BadKind::version: return "version";
    case BadKind::infeasible: return "infeasible";
    }
    return "";
}

ServeCycle serve_cycle(std::uint64_t seed, int cycle)
{
    ServeCycle out;
    // The SOC population of the run: 20 generated SOCs, log-spaced from
    // 50 to 2000 modules over three shapes, sent inline, and four ITC'02
    // SOCs sent by name. 24 SOCs exceed the 16 table sets the server
    // keeps, so the tables cache evicts and the shm tier restores.
    constexpr int generated = 20;
    static constexpr mst::ScaledShape shapes[] = {mst::ScaledShape::classic,
                                                  mst::ScaledShape::wide_shallow,
                                                  mst::ScaledShape::narrow_deep};
    for (int i = 0; i < generated; ++i) {
        const int modules = static_cast<int>(
            std::lround(50.0 * std::pow(2000.0 / 50.0, i / double(generated - 1))));
        const std::string name = "svc" + std::to_string(i);
        out.generated.push_back(
            generated_soc(name, modules, shapes[i % 3], mix_seed(seed, 3000, i)));
        out.soc_member.push_back("\"soc_text\":\"" +
                                 mst::json_escape(mst::soc_to_string(out.generated.back())) +
                                 "\"");
    }
    for (const char* name : {"d695", "p22810", "p34392", "p93791"}) {
        out.soc_member.push_back(std::string("\"soc\":\"") + name + "\"");
    }
    // 16 (cell, options) combos per SOC: 384 keys, above the 256 outcomes
    // the memo keeps. Each cycle asks about its own prober index time, so
    // its keys are new (misses that compute and publish) while the work
    // per key stays the same from cycle to cycle. How many requests ask
    // for a key never seen before is a synthetic assumption, not taken
    // from a client trace; it sets the miss share and the shm hit ratio.
    char index_time[32];
    std::snprintf(index_time, sizeof index_time, ",\"index\":%.3f", 0.5 + 0.001 * cycle);
    for (const int channels : {256, 512}) {
        for (const char* depth : {"7M", "32M"}) {
            for (const Variant variant : all_variants) {
                std::string member = "\"channels\":" + std::to_string(channels) +
                                     ",\"depth\":\"" + depth + "\"" + index_time;
                switch (variant) {
                case Variant::plain: break;
                case Variant::broadcast: member += ",\"broadcast\":true"; break;
                case Variant::abort: member += ",\"abort_on_fail\":true"; break;
                case Variant::retest: member += ",\"retest\":true"; break;
                }
                out.combo_member.push_back(member);
            }
        }
    }

    // Zipf(0.8) popularity over a ranking of the keys that is the same
    // for every seed and cycle: which SOC sizes and cells are hot is part
    // of the workload's shape; the seed picks contents and the draw.
    const std::size_t keys = out.soc_member.size() * out.combo_member.size();
    std::uint64_t rank_state = mix_seed(0x5EED, 4000);
    std::vector<int> ranked(keys);
    std::iota(ranked.begin(), ranked.end(), 0);
    for (std::size_t i = keys - 1; i > 0; --i) {
        const auto j =
            static_cast<std::size_t>(next_unit(rank_state) * static_cast<double>(i + 1));
        std::swap(ranked[i], ranked[j]);
    }
    std::uint64_t state = mix_seed(seed, 4000 + static_cast<std::uint64_t>(cycle));
    std::vector<double> cumulative(keys);
    double total = 0;
    for (std::size_t r = 0; r < keys; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.8);
        cumulative[r] = total;
    }
    static constexpr BadKind bad_kinds[] = {BadKind::parse, BadKind::validation,
                                            BadKind::version, BadKind::infeasible};
    for (int i = 0; i < serve_cycle_requests; ++i) {
        ServeCycle::Request request;
        if (i % 50 == 49) {
            request.bad = bad_kinds[(i / 50) % 4];
        } else {
            const double u = next_unit(state) * total;
            const auto rank = static_cast<std::size_t>(
                std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
            request.key = ranked[std::min(rank, keys - 1)];
        }
        out.requests.push_back(request);
    }
    return out;
}

std::string ServeCycle::line(std::size_t i, std::uint64_t id) const
{
    const Request& request = requests[i];
    const std::string head = "{\"id\":" + std::to_string(id) + ",";
    switch (request.bad) {
    case BadKind::none: break;
    case BadKind::parse: return head + "\"soc\":\"d695\",\"channels\":256";
    case BadKind::validation: return head + "\"soc\":\"d695\",\"chanels\":256}";
    case BadKind::version: return head + "\"v\":2,\"soc\":\"d695\"}";
    case BadKind::infeasible: return head + "\"soc\":\"p93791\",\"channels\":8,\"depth\":\"64K\"}";
    }
    return key_line(request.key, id);
}

std::string ServeCycle::key_line(int key, std::uint64_t id) const
{
    const auto index = static_cast<std::size_t>(key);
    return "{\"id\":" + std::to_string(id) + "," + soc_member[index / combo_count()] + "," +
           combo_member[index % combo_count()] + "}";
}

} // namespace perfbench
