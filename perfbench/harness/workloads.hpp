// The three workloads. Each runs in its own harness process and returns
// the result line run.py turns into the benchmark's output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One-shot planning: a fresh wide-shallow SOC text per scenario is
/// parsed, tabled, optimized and serialized.
[[nodiscard]] Result run_plan_cold(const RunConfig& config);

/// Cell-grid planning over tables built once in set-up.
[[nodiscard]] Result run_plan_grid(const RunConfig& config);

/// Closed-loop request mix against a running `mst serve --listen`.
[[nodiscard]] Result run_serve_mix(const RunConfig& config);

/// Describe the generated inputs of `cycles` cycles as one JSON object
/// (digest and working-set counts), for the benchmark's own tests.
[[nodiscard]] std::string describe_inputs(const std::string& workload, std::uint64_t seed,
                                          int cycles);

} // namespace perfbench
