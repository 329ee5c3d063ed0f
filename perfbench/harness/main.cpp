// perfbench_harness: the in-process half of the benchmark (run.py is the
// entry point; it builds this program, starts `mst serve` for serve-mix
// and turns the result line printed here into the benchmark's output).
//
//   perfbench_harness run --workload plan-cold|plan-grid|serve-mix --seed N
//                         --seconds S --trace 0|1 --threads T
//                         [--server host:port] [--trace-out spans.jsonl]
//   perfbench_harness inputs --workload W --seed N --cycles C
//
// The last line of standard output is one JSON object; the exit status
// is 0 when every output matched its reference, 1 when one did not and
// 2 on a usage or set-up error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "inputs.hpp"
#include "soc/writer.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string describe_inputs(const std::string& workload, std::uint64_t seed, int cycles)
{
    Digest digest;
    std::set<std::uint64_t> socs;
    std::string per_cycle;
    std::size_t items = 0;
    if (workload == "plan-cold") {
        for (int cycle = 0; cycle < cycles; ++cycle) {
            for (int j = 0; j < cold_cycle_length; ++j) {
                const ColdScenario scenario = cold_scenario(seed, cycle, j, 1);
                const std::string text = mst::soc_to_string(scenario.soc);
                digest.add(text);
                // Contents only: the name lines differ from cycle to cycle.
                socs.insert(fnv1a(text.substr(text.find("\nmodule "))));
                ++items;
            }
        }
    } else if (workload == "plan-grid") {
        for (const GridSoc& soc : grid_socs(seed)) {
            digest.add(soc.name + soc.text);
            socs.insert(fnv1a(soc.name + soc.text));
        }
        items = grid_scenarios(socs.size()).size();
    } else if (workload == "serve-mix") {
        for (int cycle = 0; cycle < cycles; ++cycle) {
            const ServeCycle inputs = serve_cycle(seed, cycle);
            std::set<int> keys;
            std::set<int> cycle_socs;
            int bad = 0;
            for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
                const ServeCycle::Request& request = inputs.requests[i];
                digest.add(inputs.line(i, i + 1));
                if (request.key < 0) {
                    ++bad;
                    continue;
                }
                keys.insert(request.key);
                cycle_socs.insert(request.key / static_cast<int>(inputs.combo_count()));
            }
            for (const mst::Soc& soc : inputs.generated) {
                socs.insert(fnv1a(mst::soc_to_string(soc)));
            }
            per_cycle += std::string(per_cycle.empty() ? "" : ",") +
                         "{\"requests\":" + std::to_string(inputs.requests.size()) +
                         ",\"bad\":" + std::to_string(bad) +
                         ",\"distinct_socs\":" + std::to_string(cycle_socs.size()) +
                         ",\"distinct_keys\":" + std::to_string(keys.size()) + "}";
            items += inputs.requests.size();
        }
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
           ",\"digest\":\"" + digest.hex() + "\",\"items\":" + std::to_string(items) +
           ",\"distinct_generated_socs\":" + std::to_string(socs.size()) + ",\"cycles\":[" +
           per_cycle + "]}";
}

} // namespace perfbench

namespace {

int usage(const std::string& why)
{
    std::cerr << "perfbench_harness: " << why << "\n"
              << "usage: perfbench_harness run --workload W --seed N --seconds S --trace 0|1\n"
              << "                             --threads T [--server host:port] [--trace-out F]\n"
              << "       perfbench_harness inputs --workload W --seed N --cycles C\n";
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        return usage("missing command");
    }
    const std::string command = argv[1];
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0) {
            return usage("unexpected argument '" + flag + "'");
        }
        flags[flag.substr(2)] = argv[i + 1];
    }
    const auto flag = [&](const std::string& name, const std::string& fallback) {
        const auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    };
    try {
        const std::string workload = flag("workload", "");
        const auto seed = std::stoull(flag("seed", "1"));
        if (command == "inputs") {
            std::cout << perfbench::describe_inputs(workload, seed, std::stoi(flag("cycles", "1")))
                      << std::endl;
            return 0;
        }
        if (command != "run") {
            return usage("unknown command '" + command + "'");
        }
        perfbench::RunConfig config;
        config.workload = workload;
        config.seed = seed;
        config.seconds = std::stod(flag("seconds", "10"));
        config.trace = flag("trace", "0") == "1";
        config.threads = std::stoi(flag("threads", "4"));
        config.server = flag("server", "");
        config.trace_out = flag("trace-out", "");
        if (config.seconds <= 0 || config.threads < 1) {
            return usage("--seconds and --threads must be positive");
        }
        perfbench::Result result;
        if (workload == "plan-cold") {
            result = perfbench::run_plan_cold(config);
        } else if (workload == "plan-grid") {
            result = perfbench::run_plan_grid(config);
        } else if (workload == "serve-mix") {
            if (config.server.empty()) {
                return usage("serve-mix needs --server host:port");
            }
            result = perfbench::run_serve_mix(config);
        } else {
            return usage("unknown workload '" + workload + "'");
        }
        std::cout << result.json() << std::endl;
        return result.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 2;
    }
}
