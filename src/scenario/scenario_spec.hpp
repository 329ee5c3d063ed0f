// The one scenario layer: a declarative ScenarioSpec (SOC sources x
// test-cell grid x option variants, with optional exact knobs) expanded
// into concrete scenario lists.
//
// Every surface that runs "many optimizations" — the `mst bench`
// canonical suite, the certify suite, `mst batch`, `mst sweep`, and the
// sweep examples — builds its scenarios through this layer instead of
// hand-rolling its own grid loops, so a new workload family lands in
// one place and shows up everywhere.
//
// A spec is a cross product: every SOC source x every cell x every
// variant, in soc-major / cell / variant-minor order. Scenario lists
// that are not a product (the certify suite pairs each SOC with its own
// depth) are unions of single-point specs; expand_all() concatenates.
//
// Specs can be built programmatically (the bench suites do) or parsed
// from a sectioned text config (see parse_scenario_spec; format
// documented in docs/sweep.md):
//
//   [sweep]
//   name = demo
//
//   [soc]                      # one SOC per section, repeatable
//   name = d695                # benchmark name or .soc path
//
//   [soc]
//   generate = gen300x-deep    # scaled generator preset
//   modules = 3000
//   shape = narrow_deep        # classic | wide_shallow | narrow_deep
//
//   [cells]                    # channels x depths grid
//   channels = 256, 512
//   depths = 8M, 32M
//   clock = 20e6               # optional scalars for the whole grid
//
//   [cell big-mem]             # or one named cell per section
//   channels = 512
//   depth = 32M
//
//   [variant plain]            # option variants; empty body = defaults
//   [variant broadcast]
//   broadcast = true
//
// Variant keys are the protocol's option-binding JSON fields
// (service/protocol.hpp), so the spec surface cannot drift from the
// request API or the CLI flags.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ate/ate.hpp"
#include "core/problem.hpp"
#include "soc/generator.hpp"
#include "soc/soc.hpp"

namespace mst {

/// Where a scenario's SOC comes from. Exactly one kind per source; the
/// factory helpers below are the intended constructors.
struct SocSource {
    enum class Kind {
        spec,      ///< benchmark name or .soc file path (load_soc_spec)
        generator, ///< scaled_benchmark_config(label, modules, shape)
        random,    ///< random_soc(seed, modules) — property-test population
    };

    Kind kind = Kind::spec;
    std::string label; ///< scenario-name component; defaults to `spec`
    std::string spec;  ///< Kind::spec: the name|path to load
    int modules = 0;   ///< generator/random module count
    ScaledShape shape = ScaledShape::classic; ///< generator shape preset
    std::uint64_t seed = 0;                   ///< random seed
    /// Keep only the first N modules of the loaded/generated SOC
    /// (0 = whole SOC). The certify suite works 12-module prefixes of
    /// the big ITC'02 chips this way.
    int subset_modules = 0;

    [[nodiscard]] static SocSource by_spec(std::string spec, std::string label = "");
    [[nodiscard]] static SocSource generated(std::string label, int modules,
                                             ScaledShape shape);
    [[nodiscard]] static SocSource random(std::string label, std::uint64_t seed, int modules);

    /// Resolve this source to an SOC (load / generate / subset). Throws
    /// ParseError or ValidationError on unresolvable sources.
    [[nodiscard]] Soc resolve() const;
};

/// One test cell of the grid. An empty label is derived at expansion as
/// "<channels>x<depth>" (e.g. "512x7M"), matching the historical bench
/// scenario names.
struct CellPoint {
    std::string label;
    TestCell cell;
};

/// One named option set ("plain", "broadcast", "exact", ...).
struct OptionVariant {
    std::string label;
    OptimizeOptions options;
};

/// The declarative sweep spec: expand() runs the full cross product.
struct ScenarioSpec {
    std::string name; ///< sweep name; free-form, echoed into reports
    std::vector<SocSource> socs;
    std::vector<CellPoint> cells;
    std::vector<OptionVariant> variants;
};

/// One concrete scenario of an expanded spec. This is the shape every
/// runner consumes: the bench suite's BenchCase is an alias of it, and
/// run_scenario (scenario_runner.hpp) executes it for batch and sweep.
struct Scenario {
    std::string name;     ///< "<soc>/<cell>/<variant>"
    std::string soc_name; ///< SOC source label
    std::string variant;  ///< option-variant label
    std::shared_ptr<const Soc> soc;
    TestCell cell;
    OptimizeOptions options;
};

/// Expand the cross product in soc-major, cell, variant-minor order.
/// Each SocSource is resolved exactly once and shared (one Soc object
/// per source), so downstream table builds are shared too. Throws
/// ValidationError on an empty spec (no socs/cells/variants) or on
/// duplicate scenario names.
[[nodiscard]] std::vector<Scenario> expand(const ScenarioSpec& spec);

/// Concatenate the expansions of several specs (non-product scenario
/// lists). Duplicate names across specs are rejected like within one.
[[nodiscard]] std::vector<Scenario> expand_all(const std::vector<ScenarioSpec>& specs);

/// Parse the sectioned text config format (header comment above and
/// docs/sweep.md). Errors are line-accurate ValidationErrors, with
/// nearest-match suggestions for misspelled keys.
[[nodiscard]] ScenarioSpec parse_scenario_spec(std::istream& in);

/// Load and parse a spec file; the sweep name defaults to the file name
/// when the [sweep] section does not set one.
[[nodiscard]] ScenarioSpec load_scenario_spec(const std::string& path);

/// Identity fingerprint of an expanded scenario list (FNV-1a over the
/// scenario names): the sweep engine stamps it into checkpoint shard
/// files so a resumed run never mixes results from a different spec.
[[nodiscard]] std::uint64_t scenario_list_fingerprint(const std::vector<Scenario>& scenarios);

} // namespace mst
