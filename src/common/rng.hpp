// Deterministic random number generation for the synthetic SOC generator.
//
// All randomized components of the library draw from this wrapper rather
// than from std::random_device so that every benchmark table, example and
// property test is bit-for-bit reproducible across runs and machines.
#pragma once

#include <cstdint>
#include <random>

namespace mst {

/// A seeded, deterministic RNG with the handful of distributions the SOC
/// generator needs. Thin wrapper over std::mt19937_64 with explicit
/// helpers so call sites read as domain statements.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /// Uniform integer in [lo, hi] (inclusive). Precondition: lo <= hi.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform_real(double lo, double hi);

    /// Log-normal draw with the given underlying normal mean/sigma.
    /// Used to give module test-data volumes the heavy-tailed spread
    /// observed in the ITC'02 benchmark SOCs.
    [[nodiscard]] double log_normal(double mean, double sigma);

    /// Bernoulli draw with probability p of returning true.
    [[nodiscard]] bool chance(double p);

private:
    std::mt19937_64 engine_;
};

/// Pinned seeds for every randomized test and benchmark input. Property
/// suites run sharded under `ctest -j`, so each case must derive its SOC
/// from a fixed seed here rather than from process-local entropy --
/// otherwise two shards (or two machines) would disagree about which
/// SOCs "the random population" contains.
namespace test_seeds {

/// Parameterized property cases (tests/property_test.cpp): one random
/// SOC per seed, sized by the accompanying module count.
inline constexpr std::uint64_t property_cases[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

/// Depth-monotonicity sweep seeds (tests/property_test.cpp).
inline constexpr std::uint64_t depth_monotone[] = {31, 41, 59, 26, 53, 58, 97, 93};

/// Generator unit tests (tests/soc_generator_test.cpp): the baseline
/// config seed, a variant that must produce a different SOC, and the
/// seed of the random_soc() determinism check.
inline constexpr std::uint64_t generator_baseline = 42;
inline constexpr std::uint64_t generator_variant = 43;
inline constexpr std::uint64_t generator_random_soc = 5;

/// Incremental packing-core properties (tests/incremental_pack_test.cpp):
/// base seed of the staircase / gallop-search random SOC population.
inline constexpr std::uint64_t incremental_pack = 7100;

/// Pack-memo sharing tests (tests/pack_memo_test.cpp): the two random
/// SOCs of the solve grid.
inline constexpr std::uint64_t pack_memo[] = {8101, 8102};

} // namespace test_seeds

} // namespace mst
