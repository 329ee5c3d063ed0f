#include "exact/branch_bound.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/executor.hpp"
#include "common/math.hpp"

namespace mst {

namespace {

constexpr WireCount no_limit_wires = std::numeric_limits<WireCount>::max();

/// How many subtree roots the breadth-first expansion aims for before
/// the frontier goes to the executor. A constant — never derived from
/// the thread count — so the wave schedule, and with it every node
/// count, is identical on any machine.
constexpr std::size_t frontier_target = 32;

/// Subtree roots per wave of the frontier search: 1, 1, 2, 4, then 8.
/// The first waves tighten the incumbent bound before wider waves fan
/// out. Part of the deterministic schedule: the bound is snapshot per
/// wave, so changing the extents changes the node counts.
[[nodiscard]] constexpr std::size_t wave_extent(int wave) noexcept
{
    switch (wave) {
    case 0: return 1;
    case 1: return 1;
    case 2: return 2;
    case 3: return 4;
    default: return 8;
    }
}

/// Read-only search context shared by every subtree task.
struct Context {
    const SocTimeTables* tables = nullptr;
    CycleCount depth = 0;
    std::vector<int> order;      ///< modules, largest area floor first
    std::vector<WireCount> solo; ///< per module: min_width_for(depth)
    /// Suffix sums over `order` of min_area_from(m, solo[m]): the
    /// packing floor of the not-yet-placed modules. Taking each floor at
    /// the module's depth-minimal width is sound — any group the module
    /// can join is at least that wide, and width * time(width) is
    /// non-decreasing in width — and strictly tighter than the raw
    /// min_area floor the first version of this solver used.
    std::vector<CycleCount> remaining_floor;
};

/// One node of the partition tree: the groups over order[0..position)
/// with their optimal widths and fills.
struct Node {
    std::vector<std::vector<int>> groups;
    std::vector<WireCount> widths;
    std::vector<CycleCount> fills;
    WireCount wires = 0;
    std::size_t position = 0;
};

/// Best complete partition known so far.
struct Incumbent {
    WireCount wires = no_limit_wires;
    std::vector<std::vector<int>> groups;
};

struct WidthFill {
    WireCount width = 0; ///< 0 = the member set fits at no width
    CycleCount fill = 0;
};

/// Smallest width at which the member set fits `depth`, with the fill at
/// that width. Every probe goes through the saturation-clamped TimeRow
/// accessor: a width beyond an individual member's truncated staircase
/// (PR 5) reads that member's saturated time, so probing at the group
/// maximum width is always in bounds and semantically exact.
WidthFill min_group_width(const Context& ctx, const std::vector<int>& members)
{
    SocTimeTables::TimeRow rows[exact_module_limit];
    std::size_t count = 0;
    WireCount max_width = 0;
    for (const int m : members) {
        rows[count] = ctx.tables->time_row(m);
        max_width = std::max(max_width, static_cast<WireCount>(rows[count].count));
        ++count;
    }
    const auto fill_at = [&rows, count](WireCount width) {
        CycleCount fill = 0;
        for (std::size_t i = 0; i < count; ++i) {
            fill += rows[i].at_width(width);
        }
        return fill;
    };
    if (fill_at(max_width) > ctx.depth) {
        return {0, 0};
    }
    // Fill is monotone non-increasing in width: binary search.
    WireCount lo = 1;
    WireCount hi = max_width;
    while (lo < hi) {
        const WireCount mid = lo + (hi - lo) / 2;
        if (fill_at(mid) <= ctx.depth) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return {lo, fill_at(lo)};
}

/// Wires still needed below `node`, by the suffix-area relaxation: the
/// unplaced modules' floors must fit into the open groups' free
/// capacity plus `depth` per extra wire (the bound the greedy packing
/// engine prunes with, transplanted to partitions).
WireCount relaxation_extra(const Context& ctx, const std::vector<WireCount>& widths,
                           const std::vector<CycleCount>& fills, std::size_t position)
{
    CycleCount free_capacity = 0;
    for (std::size_t g = 0; g < widths.size(); ++g) {
        free_capacity += ctx.depth * static_cast<CycleCount>(widths[g]) - fills[g];
    }
    const CycleCount still_needed = ctx.remaining_floor[position];
    if (still_needed <= free_capacity) {
        return 0;
    }
    return static_cast<WireCount>(ceil_div(still_needed - free_capacity, ctx.depth));
}

/// Invoke `child` on every feasible child of `node`, in the canonical
/// branching order: join each open group in creation order, then open a
/// new group. The fixed module order avoids symmetric states (a module
/// only ever joins groups opened by earlier modules). The depth-first
/// worker below inlines the same order with O(1) undo instead of
/// copies; the two must never disagree.
template <typename Fn>
void for_each_child(const Context& ctx, const Node& node, Fn&& child)
{
    const int module = ctx.order[node.position];
    for (std::size_t g = 0; g < node.groups.size(); ++g) {
        Node next = node;
        next.groups[g].push_back(module);
        const WidthFill fit = min_group_width(ctx, next.groups[g]);
        if (fit.width == 0) {
            continue;
        }
        next.wires += fit.width - next.widths[g];
        next.widths[g] = fit.width;
        next.fills[g] = fit.fill;
        ++next.position;
        child(std::move(next));
    }
    Node next = node;
    const WireCount solo = ctx.solo[static_cast<std::size_t>(module)];
    next.groups.push_back({module});
    next.widths.push_back(solo);
    next.fills.push_back(ctx.tables->time(module, solo));
    next.wires += solo;
    ++next.position;
    child(std::move(next));
}

/// Outcome of one sequential subtree search.
struct SubtreeResult {
    WireCount best_wires = no_limit_wires; ///< best strictly below the start bound
    std::vector<std::vector<int>> best_groups;
    std::int64_t nodes = 0;
    bool truncated = false;
};

/// Depth-first search of one subtree. Pure function of (context, root,
/// bound, node cap): no shared mutable state, which is what makes the
/// wave reduction deterministic at any thread count.
class SubtreeSearch {
public:
    SubtreeSearch(const Context& ctx, Node root, WireCount limit, std::int64_t node_cap)
        : ctx_(ctx),
          limit_(limit),
          node_cap_(node_cap),
          groups_(std::move(root.groups)),
          widths_(std::move(root.widths)),
          fills_(std::move(root.fills)),
          current_(root.wires),
          position_(root.position)
    {
    }

    [[nodiscard]] SubtreeResult run()
    {
        descend();
        return std::move(out_);
    }

private:
    void descend()
    {
        if (out_.truncated) {
            return;
        }
        if (node_cap_ != 0 && out_.nodes >= node_cap_) {
            out_.truncated = true;
            return;
        }
        ++out_.nodes;
        if (current_ >= limit_) {
            return; // cannot improve (or would bust the wire budget)
        }
        if (position_ == ctx_.order.size()) {
            out_.best_wires = current_;
            out_.best_groups = groups_;
            limit_ = current_;
            return;
        }
        const WireCount extra = relaxation_extra(ctx_, widths_, fills_, position_);
        if (extra != 0 && current_ + extra >= limit_) {
            return;
        }

        const int module = ctx_.order[position_];
        ++position_;
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            groups_[g].push_back(module);
            const WidthFill fit = min_group_width(ctx_, groups_[g]);
            if (fit.width != 0) {
                const WireCount old_width = widths_[g];
                const CycleCount old_fill = fills_[g];
                widths_[g] = fit.width;
                fills_[g] = fit.fill;
                current_ += fit.width - old_width;
                descend();
                current_ -= fit.width - old_width;
                widths_[g] = old_width;
                fills_[g] = old_fill;
            }
            groups_[g].pop_back();
        }
        const WireCount solo = ctx_.solo[static_cast<std::size_t>(module)];
        groups_.push_back({module});
        widths_.push_back(solo);
        fills_.push_back(ctx_.tables->time(module, solo));
        current_ += solo;
        descend();
        current_ -= solo;
        groups_.pop_back();
        widths_.pop_back();
        fills_.pop_back();
        --position_;
    }

    const Context& ctx_;
    WireCount limit_;
    std::int64_t node_cap_;
    SubtreeResult out_;
    std::vector<std::vector<int>> groups_;
    std::vector<WireCount> widths_;
    std::vector<CycleCount> fills_;
    WireCount current_ = 0;
    std::size_t position_ = 0;
};

/// Total wires of a caller-supplied seed partition after validating it
/// covers every module exactly once and every group fits the depth.
WireCount seed_partition_wires(const Context& ctx, const std::vector<std::vector<int>>& seed)
{
    const int module_count = ctx.tables->module_count();
    std::vector<char> seen(static_cast<std::size_t>(module_count), 0);
    WireCount total = 0;
    for (const std::vector<int>& group : seed) {
        if (group.empty()) {
            throw ValidationError("exact seed partition contains an empty group");
        }
        for (const int m : group) {
            if (m < 0 || m >= module_count || seen[static_cast<std::size_t>(m)] != 0) {
                throw ValidationError(
                    "exact seed partition must cover every module exactly once");
            }
            seen[static_cast<std::size_t>(m)] = 1;
        }
        const WidthFill fit = min_group_width(ctx, group);
        if (fit.width == 0) {
            throw ValidationError(
                "exact seed partition has a group that fits no width within the depth");
        }
        total += fit.width;
    }
    for (const char flag : seen) {
        if (flag == 0) {
            throw ValidationError("exact seed partition must cover every module exactly once");
        }
    }
    return total;
}

} // namespace

ExactResult exact_search(const SocTimeTables& tables, CycleCount depth,
                         const ExactOptions& options)
{
    if (tables.module_count() > exact_module_limit) {
        throw ValidationError("exact search accepts at most " +
                              std::to_string(exact_module_limit) + " modules");
    }
    if (depth < 1) {
        throw ValidationError("depth must be positive");
    }
    if (options.wire_budget < 0) {
        throw ValidationError("exact wire budget must be non-negative");
    }
    if (options.node_limit < 0) {
        throw ValidationError("exact node budget must be non-negative");
    }

    const int module_count = tables.module_count();
    Context ctx;
    ctx.tables = &tables;
    ctx.depth = depth;

    // Depth feasibility and the per-module minimal widths; the one-group-
    // per-module partition doubles as the fallback incumbent.
    ctx.solo.resize(static_cast<std::size_t>(module_count));
    Incumbent best;
    best.wires = 0;
    for (int m = 0; m < module_count; ++m) {
        const std::optional<WireCount> width = tables.min_width_for(m, depth);
        if (!width) {
            throw ExactInfeasibleError(
                ExactInfeasible::depth,
                "module '" + tables.soc().module(m).name() +
                    "' does not fit the vector-memory depth at any width");
        }
        ctx.solo[static_cast<std::size_t>(m)] = *width;
        best.wires += *width;
        best.groups.push_back({m});
    }
    if (!options.seed.empty()) {
        const WireCount seed_wires = seed_partition_wires(ctx, options.seed);
        // The seed wins ties so "seeding never worsens the result" holds
        // group-for-group, not just wire-for-wire.
        if (seed_wires <= best.wires) {
            best.wires = seed_wires;
            best.groups = options.seed;
        }
    }

    // Prune bound: strictly below the incumbent, and — under a wire
    // budget — never beyond budget + 1, so the search skips subtrees
    // that could only yield over-budget "improvements".
    const WireCount hard_cap = options.wire_budget > 0 && options.wire_budget < no_limit_wires - 1
                                   ? options.wire_budget + 1
                                   : no_limit_wires;
    const auto prune_limit = [&best, hard_cap]() { return std::min(best.wires, hard_cap); };

    // Largest floors first: prunes earlier. Stable sort for a
    // deterministic order on ties.
    ctx.order.resize(static_cast<std::size_t>(module_count));
    std::iota(ctx.order.begin(), ctx.order.end(), 0);
    std::stable_sort(ctx.order.begin(), ctx.order.end(), [&tables, &ctx](int a, int b) {
        return tables.min_area_from(a, ctx.solo[static_cast<std::size_t>(a)]) >
               tables.min_area_from(b, ctx.solo[static_cast<std::size_t>(b)]);
    });
    ctx.remaining_floor.assign(ctx.order.size() + 1, 0);
    for (std::size_t i = ctx.order.size(); i-- > 0;) {
        const int m = ctx.order[i];
        ctx.remaining_floor[i] =
            ctx.remaining_floor[i + 1] +
            tables.min_area_from(m, ctx.solo[static_cast<std::size_t>(m)]);
    }

    std::int64_t nodes = 0;
    bool truncated = false;

    // Phase 1: breadth-first expansion to a fixed frontier of subtree
    // roots. Sequential and deterministic; complete partitions met on
    // the way update the incumbent immediately.
    std::deque<Node> queue;
    queue.emplace_back();
    while (!queue.empty() && queue.size() < frontier_target) {
        if (options.node_limit != 0 && nodes >= options.node_limit) {
            truncated = true;
            break;
        }
        Node node = std::move(queue.front());
        queue.pop_front();
        ++nodes;
        if (node.wires >= prune_limit()) {
            continue;
        }
        if (node.position == ctx.order.size()) {
            best.wires = node.wires;
            best.groups = std::move(node.groups);
            continue;
        }
        const WireCount extra = relaxation_extra(ctx, node.widths, node.fills, node.position);
        if (extra != 0 && node.wires + extra >= prune_limit()) {
            continue;
        }
        for_each_child(ctx, node, [&queue](Node child) { queue.push_back(std::move(child)); });
    }

    // Phase 2: the frontier's sibling subtrees as adaptive waves on the
    // shared executor. The bound and
    // the per-task node caps are snapshot at each wave start, and the
    // reduction walks the wave in index order taking strict
    // improvements only (lowest-index winner), so results and node
    // counts never depend on the thread count. A task may overrun the
    // node budget by up to one wave's worth of caps; the overrun is the
    // same at any thread count.
    std::vector<Node> frontier(std::make_move_iterator(queue.begin()),
                               std::make_move_iterator(queue.end()));
    std::size_t begin = 0;
    for (int wave = 0; begin < frontier.size() && !truncated; ++wave) {
        const std::size_t end = std::min(frontier.size(), begin + wave_extent(wave));
        const std::size_t width = end - begin;
        std::int64_t cap = 0;
        if (options.node_limit != 0) {
            const std::int64_t remaining = options.node_limit - nodes;
            if (remaining <= 0) {
                truncated = true;
                break;
            }
            cap = remaining;
        }
        const WireCount wave_limit = prune_limit();
        std::vector<SubtreeResult> results(width);
        parallel_for_index(width, options.threads, [&](std::size_t i) {
            results[i] =
                SubtreeSearch(ctx, std::move(frontier[begin + i]), wave_limit, cap).run();
        });
        for (std::size_t i = 0; i < width; ++i) {
            nodes += results[i].nodes;
            truncated = truncated || results[i].truncated;
            if (results[i].best_wires < best.wires) {
                best.wires = results[i].best_wires;
                best.groups = std::move(results[i].best_groups);
            }
        }
        begin = end;
    }

    if (options.wire_budget > 0 && best.wires > options.wire_budget) {
        std::string message = "no partition tests the SOC within " +
                              std::to_string(options.wire_budget) + " wires at this depth (best " +
                              std::to_string(best.wires) + ")";
        if (truncated) {
            message += "; search truncated by the node budget, infeasibility not certified";
        }
        throw ExactInfeasibleError(ExactInfeasible::budget, message);
    }

    ExactResult result;
    result.wires = best.wires;
    result.groups = std::move(best.groups);
    result.nodes_explored = nodes;
    result.certified = !truncated;
    return result;
}

std::optional<ExactResult> exact_min_wires(const SocTimeTables& tables, CycleCount depth)
{
    try {
        return exact_search(tables, depth, ExactOptions{});
    } catch (const ExactInfeasibleError& error) {
        if (error.kind() == ExactInfeasible::depth) {
            return std::nullopt; // the historical "untestable" contract
        }
        throw; // budget failures cannot happen without a budget
    }
}

} // namespace mst
