#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>

namespace perfbench {

std::map<std::string, LayerTime> layer_times(const std::vector<const SpanBuffer*>& buffers)
{
    std::map<std::string, LayerTime> layers;
    for (const SpanBuffer* buffer : buffers) {
        const std::vector<Span>& spans = buffer->spans();
        std::vector<double> child_s(spans.size(), 0.0);
        for (const Span& span : spans) {
            if (span.parent >= 0) {
                child_s[static_cast<std::size_t>(span.parent)] +=
                    seconds_between(span.start, span.end);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double duration = seconds_between(spans[i].start, spans[i].end);
            LayerTime& layer = layers[spans[i].name];
            ++layer.count;
            layer.total_s += duration;
            layer.self_s += duration - child_s[i];
        }
    }
    return layers;
}

std::vector<std::string> layer_shares(const std::vector<const SpanBuffer*>& buffers)
{
    std::map<std::string, std::map<std::string, double>> self_by_root;
    for (const SpanBuffer* buffer : buffers) {
        const std::vector<Span>& spans = buffer->spans();
        std::vector<double> self(spans.size(), 0.0);
        std::vector<std::size_t> root(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self[i] += seconds_between(spans[i].start, spans[i].end);
            // A parent opens before its children, so its root is known.
            root[i] = spans[i].parent < 0 ? i : root[static_cast<std::size_t>(spans[i].parent)];
            if (spans[i].parent >= 0) {
                self[static_cast<std::size_t>(spans[i].parent)] -=
                    seconds_between(spans[i].start, spans[i].end);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self_by_root[spans[root[i]].name][spans[i].name] += self[i];
        }
    }
    std::vector<std::string> lines;
    for (const auto& [root_name, layers] : self_by_root) {
        double total = 0;
        std::vector<std::pair<double, std::string>> ordered;
        for (const auto& [name, seconds] : layers) {
            total += seconds;
            ordered.emplace_back(seconds, name);
        }
        std::sort(ordered.rbegin(), ordered.rend());
        for (const auto& [seconds, name] : ordered) {
            char line[256];
            std::snprintf(line, sizeof line, "share %s/%s %.1f%% (%.1f ms self)",
                          root_name.c_str(), name.c_str(),
                          total > 0 ? 100.0 * seconds / total : 0.0, seconds * 1e3);
            lines.emplace_back(line);
        }
    }
    return lines;
}

bool write_spans(const std::string& path, const std::vector<const SpanBuffer*>& buffers)
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    bool any = false;
    Clock::time_point origin{};
    for (const SpanBuffer* buffer : buffers) {
        for (const Span& span : buffer->spans()) {
            if (!any || span.start < origin) {
                origin = span.start;
                any = true;
            }
        }
    }
    const auto micros = [&](Clock::time_point t) { return seconds_between(origin, t) * 1e6; };
    out << std::fixed << std::setprecision(3);
    for (std::size_t thread = 0; thread < buffers.size(); ++thread) {
        for (const Span& span : buffers[thread]->spans()) {
            out << "{\"name\":\"" << span.name << "\",\"op\":" << span.op
                << ",\"thread\":" << thread << ",\"parent\":" << span.parent
                << ",\"start_us\":" << micros(span.start) << ",\"end_us\":" << micros(span.end)
                << "}\n";
        }
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
