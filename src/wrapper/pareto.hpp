// Wrapper time staircases: one module's row of the time tables.
//
// The wrapped test time t(w) produced by a list-scheduling wrapper design
// is a staircase in the TAM width w. A module's *row* records, for every
// width 1..extent, the one number the optimizers need: the *effective*
// time. A module placed on a group of width w may always leave wires
// idle and use its best width <= w, so the row keeps min over widths
// <= w of t. Because list scheduling gives no hard guarantee that t is
// monotone in w, this is what makes time(w) non-increasing by
// construction, which the architecture layer and the paper's reasoning
// both rely on.
//
// Rows have no storage of their own. SocTimeTables (arch/channel_group)
// holds every module's row in one set of flat arrays and fills each
// module's disjoint slice in place through build_time_row() and
// fill_suffix_min_areas(), the one row-building routine.
//
// The fast build skips the widths that cannot matter. Only the running
// minimum of t survives into a row, so a width w whose closed-form lower bound on t(w) is already >= the best
// time so far changes nothing in the row — it is recorded without any
// scheduling (see wrapper/time_calculator.hpp for the bound and its
// soundness argument). The rows stay identical to the reference build,
// which evaluates design_wrapper at every width.
#pragma once

#include <cstddef>

#include "soc/module.hpp"
#include "wrapper/wrapper_chain.hpp"

namespace mst {

/// How the staircase entries are computed. Both modes yield identical
/// rows; `reference` exists so benchmarks can measure the seed's
/// full-design path and tests can cross-check the fast calculator.
enum class TableBuild {
    fast,      ///< WrapperTimeCalculator: chains sorted once, bound-pruned loads-only LPT
    reference, ///< full design_wrapper materialization at every width (seed path)
};

/// Hard upper limit on considered wrapper widths; protects table size for
/// modules with very many terminals.
inline constexpr WireCount width_cap = 512;

/// Number of widths in `module`'s row: its saturation width, clamped to
/// [1, min(max_useful_width, width_cap)]. Once w covers every scan chain
/// (LPT then puts each chain alone, so the scan bottleneck is the longest
/// chain) and both water-fill ceilings have sunk to that longest chain,
/// the wrapped time is the same constant at every wider width. Ending the
/// row there changes no observable value: every query clamps into the
/// flat tail, and the suffix-min area at the cut equals the true minimum
/// over the removed widths (w * t grows with w on a constant t). The
/// extent depends only on the module, never on the build mode, so it is
/// known before any row is built.
[[nodiscard]] WireCount table_extent(const Module& module);

/// Fill `module`'s row of `count` (== table_extent(module)) widths:
/// times[i] is the effective time at width i + 1. The buffer must hold
/// `count` entries.
void build_time_row(const Module& module, TableBuild build, std::size_t count,
                    CycleCount* times);

/// areas[i] = min over widths w >= i + 1 (within the row) of
/// w * times[w - 1]: the area floor of placing the module on a group at
/// least i + 1 wide. Shared by the build and the shared-memory restore.
void fill_suffix_min_areas(const CycleCount* times, std::size_t count, CycleCount* areas);

} // namespace mst
