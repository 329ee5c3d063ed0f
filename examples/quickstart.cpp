// Quickstart: load a benchmark SOC, describe the tester, run the
// two-step optimizer, and print the resulting test infrastructure.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/format.hpp"
#include "core/optimizer.hpp"
#include "soc/profiles.hpp"

int main()
{
    using namespace mst;

    // 1. The SOC under test: the ITC'02 benchmark d695 ships with the
    //    library; .soc files can be loaded with load_soc_file().
    const Soc soc = make_benchmark_soc("d695");

    // 2. The fixed test cell: a modest 256-channel ATE with 64K vectors
    //    per channel, a 5 MHz test clock, and a typical probe station.
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 64 * kibi;
    cell.ate.test_clock_hz = 5e6;
    cell.prober.index_time = 0.5;        // seconds per touchdown
    cell.prober.contact_test_time = 0.001;

    // 3. Optimize. Default options: no stimuli broadcast, no
    //    abort-on-fail, no re-testing, perfect yields.
    const Solution solution = optimize_multi_site(soc, cell);

    // 4. Read the answer.
    std::cout << "SOC " << solution.soc_name << ":\n"
              << "  optimal sites        n = " << solution.sites << "\n"
              << "  channels per site    k = " << solution.channels_per_site << "\n"
              << "  test length            = " << solution.test_cycles << " cycles ("
              << format_seconds(solution.manufacturing_time) << ")\n"
              << "  throughput           D = "
              << format_throughput(solution.best_throughput()) << " devices/hour\n\n";

    std::cout << "per-site TAM plan:\n";
    int index = 0;
    for (const GroupSummary& group : solution.groups) {
        std::cout << "  TAM " << ++index << ": " << group.wires << " wires ("
                  << channels_from_wires(group.wires) << " channels), fill " << group.fill << " cycles:";
        for (const int module_index : group.module_indices) {
            std::cout << ' ' << solution.module_name(module_index);
        }
        std::cout << '\n';
    }

    std::cout << "\nE-RPCT wrapper: " << solution.erpct.external_channels
              << " test pins in/out, " << solution.erpct.contacted_pads()
              << " pads contacted at wafer probe, ~"
              << static_cast<long>(solution.erpct.area_gate_equivalents())
              << " gate equivalents of DfT\n";
    return 0;
}
