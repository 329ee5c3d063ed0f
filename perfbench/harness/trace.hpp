// In-memory spans for the traced run.
//
// Each worker thread records into its own SpanBuffer (no locking on the
// hot path); a span names its layer, carries the id of the scenario or
// request it belongs to, and points at its parent span in the same
// buffer. A disabled buffer records nothing, so the untraced run pays
// one branch per span boundary. Spans are aggregated into per-layer self
// times and written out once the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
    const char* name;
    std::uint64_t op;  ///< scenario or request id
    int parent;        ///< index in the same buffer, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
};

class SpanBuffer {
public:
    explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Start a span; returns its index (-1 when disabled).
    int open(const char* name, std::uint64_t op, int parent)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back({name, op, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int index)
    {
        if (index >= 0) {
            spans_[static_cast<std::size_t>(index)].end = Clock::now();
        }
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    bool enabled_;
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
    ScopedSpan(SpanBuffer& buffer, const char* name, std::uint64_t op, int parent = -1)
        : buffer_(buffer), index_(buffer.open(name, op, parent))
    {
    }
    ~ScopedSpan() { buffer_.close(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int index() const noexcept { return index_; }

private:
    SpanBuffer& buffer_;
    int index_;
};

/// Per-layer totals over every span of one name.
struct LayerTime {
    std::uint64_t count = 0;
    double total_s = 0; ///< summed span durations
    double self_s = 0;  ///< summed durations minus the time child spans cover
};

[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<const SpanBuffer*>& buffers);

/// One line per layer and root layer: its share of the self time of all
/// spans under roots of that name, e.g. "share scenario/tables.build
/// 38.2% (2551.3 ms self)".
[[nodiscard]] std::vector<std::string> layer_shares(const std::vector<const SpanBuffer*>& buffers);

/// Write every span as one JSON line (name, op, thread, parent, start and
/// end in microseconds since the earliest span). Returns false when the
/// file cannot be written.
bool write_spans(const std::string& path, const std::vector<const SpanBuffer*>& buffers);

} // namespace perfbench
