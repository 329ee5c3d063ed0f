// plan-cold and plan-grid: in-process planning workloads.
#include <cmath>
#include <memory>
#include <optional>

#include "core/optimizer.hpp"
#include "inputs.hpp"
#include "report/solution_json.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"
#include "solve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Set-up repetitions; setup_s is their median.
constexpr int setup_rounds = 5;
/// Timed seconds of one cycle on the reference host (see run_cycles).
constexpr double cold_cycle_seconds = 1.1;
constexpr double grid_cycle_seconds = 1.3;

std::string one_shot_json(const mst::Soc& soc, const mst::TestCell& cell,
                          const mst::OptimizeOptions& options)
{
    return mst::solution_to_json(mst::optimize_multi_site(soc, cell, options),
                                 mst::JsonStyle::compact);
}

void finish_plan(Result& result, const RunConfig& config, const std::vector<double>& setups,
                 const std::vector<CycleTiming>& cycles,
                 const std::vector<const SpanBuffer*>& spans,
                 const SolveCounters& counters, const Digest& digest)
{
    result.notes.push_back("digest " + config.workload + " seed " +
                           std::to_string(config.seed) + ": " + digest.hex());
    if (!config.trace) {
        add_setup_metric(result, setups);
        add_position_metrics(result, position_best(cycles, false));
        result.add("rss_peak_mb", peak_rss_mb(), "MB");
        return;
    }
    add_solve_layers(result, layer_times(spans), counters);
    result.add("trace.overhead_ms",
               (percentile(position_best(cycles, true), 0.5) -
                percentile(position_best(cycles, false), 0.5)) * 1e3,
               "ms");
    for (std::string& line : layer_shares(spans)) {
        result.notes.push_back(std::move(line));
    }
    if (!config.trace_out.empty() && !write_spans(config.trace_out, spans)) {
        result.notes.push_back("could not write spans to " + config.trace_out);
    }
}

} // namespace

Result run_plan_cold(const RunConfig& config)
{
    Result result;
    SpanBuffer untraced_buffer(false);
    SpanBuffer traced_buffer(true);
    SolveCounters counters;
    Digest digest;

    // Set-up: a warm-up solve of the cycle's largest scenario, so executor
    // threads exist and the allocator has grown to the working size
    // before timing.
    const ColdScenario warm =
        cold_scenario(config.seed, -1, cold_cycle_length - 1, config.threads);
    const std::string warm_text = mst::soc_to_string(warm.soc);
    std::vector<double> setups;
    for (int round = 0; round < setup_rounds; ++round) {
        const auto start = Clock::now();
        const mst::Soc soc = mst::parse_soc_string(warm_text, "<warmup>");
        const mst::SocTimeTables tables(soc, mst::TableBuild::fast, config.threads);
        (void)solve_on_tables(untraced_buffer, 0, -1, tables, warm.cell, warm.options, counters);
        setups.push_back(seconds_between(start, Clock::now()));
    }

    const auto run_cycle = [&](int cycle, bool traced, std::vector<double>& latencies) {
        SpanBuffer& buffer = traced ? traced_buffer : untraced_buffer;
        double busy = 0;
        for (int j = 0; j < cold_cycle_length; ++j) {
            const auto op = static_cast<std::uint64_t>(cycle * cold_cycle_length + j);
            const ColdScenario input = cold_scenario(config.seed, cycle, j, config.threads);
            const std::string text = mst::soc_to_string(input.soc);
            ++result.attempted;
            const auto start = Clock::now();
            try {
                std::optional<mst::Soc> soc;
                std::optional<mst::SocTimeTables> tables;
                std::string json;
                {
                    ScopedSpan root(buffer, "scenario", op);
                    {
                        ScopedSpan span(buffer, "soc.parse", op, root.index());
                        soc.emplace(mst::parse_soc_string(text, "<plan-cold>"));
                    }
                    {
                        ScopedSpan span(buffer, "tables.build", op, root.index());
                        tables.emplace(*soc, mst::TableBuild::fast, config.threads);
                    }
                    json = solve_on_tables(buffer, op, root.index(), *tables, input.cell,
                                           input.options, counters);
                }
                const double latency = seconds_between(start, Clock::now());
                latencies.push_back(latency);
                busy += latency;
                if (buffer.enabled()) {
                    count_tables(*tables, counters);
                    probe_packing(buffer, op, *tables, input.cell, input.options, counters);
                }
                tables.reset();
                soc.reset();
                // Reference: the one-shot answer from the generated SOC
                // object, outside the timed span.
                if (json != one_shot_json(input.soc, input.cell, input.options)) {
                    result.fail("plan-cold " + input.soc.name() +
                                " differs from the one-shot answer");
                }
                if (cycle == 0) {
                    digest.add(json);
                }
            } catch (const std::exception& e) {
                if (latencies.size() == static_cast<std::size_t>(j)) { // the timed solve threw
                    busy += seconds_between(start, Clock::now());
                    latencies.push_back(std::nan(""));
                }
                result.fail("plan-cold " + input.soc.name() + ": " + e.what());
            }
        }
        return busy;
    };
    const std::vector<CycleTiming> cycles = run_cycles(config, cold_cycle_seconds, run_cycle);
    finish_plan(result, config, setups, cycles, {&traced_buffer}, counters, digest);
    return result;
}

Result run_plan_grid(const RunConfig& config)
{
    Result result;
    SpanBuffer untraced_buffer(false);
    SpanBuffer setup_buffer(config.trace);
    SpanBuffer traced_buffer(true);
    SolveCounters counters;

    const std::vector<GridSoc> inputs = grid_socs(config.seed);
    const std::vector<GridScenario> scenarios = grid_scenarios(inputs.size());

    // Set-up: resolve every SOC and build its tables. The last build
    // stays resident (and is the one the traced run records).
    std::vector<std::unique_ptr<const mst::SocTimeTables>> tables;
    std::vector<std::unique_ptr<const mst::Soc>> socs;
    std::vector<double> setups;
    for (int round = 0; round < setup_rounds; ++round) {
        tables.clear();
        socs.clear();
        SpanBuffer& buffer = round == setup_rounds - 1 ? setup_buffer : untraced_buffer;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (inputs[i].text.empty()) {
                ScopedSpan span(buffer, "soc.generate", i);
                socs.push_back(std::make_unique<const mst::Soc>(
                    mst::make_benchmark_soc(inputs[i].name)));
            } else {
                ScopedSpan span(buffer, "soc.parse", i);
                socs.push_back(std::make_unique<const mst::Soc>(
                    mst::parse_soc_string(inputs[i].text, "<plan-grid>")));
            }
            ScopedSpan span(buffer, "tables.build", i);
            tables.push_back(std::make_unique<const mst::SocTimeTables>(
                *socs.back(), mst::TableBuild::fast, config.threads));
        }
        setups.push_back(seconds_between(start, Clock::now()));
    }
    if (config.trace) {
        for (const auto& set : tables) {
            count_tables(*set, counters);
        }
    }

    std::vector<std::string> first_outputs(scenarios.size());
    const auto run_cycle = [&](int cycle, bool traced, std::vector<double>& latencies) {
        SpanBuffer& buffer = traced ? traced_buffer : untraced_buffer;
        double busy = 0;
        for (std::size_t k = 0; k < scenarios.size(); ++k) {
            const GridScenario& scenario = scenarios[k];
            const auto op = static_cast<std::uint64_t>(cycle) * scenarios.size() + k;
            const mst::OptimizeOptions options =
                variant_options(scenario.variant, config.threads);
            const mst::SocTimeTables& soc_tables =
                *tables[static_cast<std::size_t>(scenario.soc)];
            ++result.attempted;
            const auto start = Clock::now();
            try {
                std::string json;
                {
                    ScopedSpan root(buffer, "scenario", op);
                    json = solve_on_tables(buffer, op, root.index(), soc_tables,
                                           scenario.cell, options, counters);
                }
                const double latency = seconds_between(start, Clock::now());
                latencies.push_back(latency);
                busy += latency;
                if (buffer.enabled()) {
                    probe_packing(buffer, op, soc_tables, scenario.cell, options, counters);
                }
                if (cycle == 0) {
                    first_outputs[k] = std::move(json);
                } else if (json != first_outputs[k]) {
                    result.fail("plan-grid scenario " + std::to_string(k) +
                                " differs from its first cycle");
                }
            } catch (const std::exception& e) {
                busy += seconds_between(start, Clock::now());
                latencies.push_back(std::nan(""));
                result.fail("plan-grid scenario " + std::to_string(k) + ": " + e.what());
            }
        }
        return busy;
    };
    const std::vector<CycleTiming> cycles = run_cycles(config, grid_cycle_seconds, run_cycle);

    // Reference: every scenario one-shot from its SOC, after timing.
    Digest digest;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        const GridScenario& scenario = scenarios[k];
        try {
            const std::string reference =
                one_shot_json(*socs[static_cast<std::size_t>(scenario.soc)], scenario.cell,
                              variant_options(scenario.variant, config.threads));
            if (first_outputs[k] != reference) {
                result.fail("plan-grid scenario " + std::to_string(k) +
                            " differs from the one-shot answer");
            }
        } catch (const std::exception& e) {
            result.fail("plan-grid reference " + std::to_string(k) + ": " + e.what());
        }
        digest.add(first_outputs[k]);
    }
    finish_plan(result, config, setups, cycles, {&setup_buffer, &traced_buffer}, counters,
                digest);
    return result;
}

} // namespace perfbench
