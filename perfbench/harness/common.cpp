#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf/stopwatch.hpp"
#include "report/solution_json.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::string number(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t state = seed;
    std::uint64_t mixed = splitmix64(state);
    state = mixed ^ (a * 0xD1B54A32D192ED03ULL);
    mixed = splitmix64(state);
    state = mixed ^ (b * 0x8CB92BA72F3D8DD7ULL);
    return splitmix64(state);
}

double next_unit(std::uint64_t& state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return mst::TimingStats::percentile(samples, q);
}

void Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 1099511628211ULL;
    }
    // Separator, so ("ab","c") and ("a","bc") differ.
    hash_ ^= 0xFF;
    hash_ *= 1099511628211ULL;
}

std::string Digest::hex() const
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
}

std::uint64_t fnv1a(std::string_view bytes)
{
    Digest digest;
    digest.add(bytes);
    return digest.value();
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // reported in kB
        }
    }
    return 0;
}

void Result::fail(const std::string& why)
{
    ++failed;
    correct = false;
    if (notes.size() < 20) {
        notes.push_back("FAIL " + why);
    }
}

std::string Result::json() const
{
    std::ostringstream out;
    out << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
        << ",\"failed\":" << failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i == 0 ? "" : ",") << '"' << metrics[i].name << "\":{\"value\":"
            << number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    out << "},\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i) {
        out << (i == 0 ? "" : ",") << '"' << mst::json_escape(notes[i]) << '"';
    }
    out << "]}";
    return out.str();
}

namespace {

/// serve-mix reports the lower quartile of its cycles' latencies (the
/// upper quartile of their rates): over ten seeds it spread less from run
/// to run than the single best cycle or the median cycle.
constexpr double cycle_quartile = 0.25;

std::vector<double> answered(const std::vector<double>& latencies)
{
    std::vector<double> out;
    for (const double latency : latencies) {
        if (!std::isnan(latency)) {
            out.push_back(latency);
        }
    }
    return out;
}

} // namespace

std::vector<double> position_best(const std::vector<CycleTiming>& cycles, bool traced)
{
    std::vector<double> best;
    for (std::size_t position = 0;; ++position) {
        double fastest = std::nan("");
        bool any = false;
        for (const CycleTiming& cycle : cycles) {
            if (cycle.traced == traced && position < cycle.latencies.size()) {
                any = true;
                const double latency = cycle.latencies[position];
                if (!std::isnan(latency) && (std::isnan(fastest) || latency < fastest)) {
                    fastest = latency;
                }
            }
        }
        if (!any) {
            return best;
        }
        if (!std::isnan(fastest)) {
            best.push_back(fastest);
        }
    }
}

namespace {

void add_note(Result& result, const char* name, double value, const char* unit)
{
    char line[96];
    std::snprintf(line, sizeof line, "%s %.6g %s", name, value, unit);
    result.notes.emplace_back(line);
}

} // namespace

void add_position_metrics(Result& result, const std::vector<double>& best)
{
    double total = 0;
    for (const double latency : best) {
        total += latency;
    }
    const double p50 = percentile(best, 0.50) * 1e3;
    const double p90 = percentile(best, 0.90) * 1e3;
    const double rate = total > 0 ? static_cast<double>(best.size()) / total : 0;
    result.add("latency_p50_ms", p50, "ms");
    result.add("latency_p90_ms", p90, "ms");
    result.add("ops_per_s", rate, "1/s");
    add_note(result, "solve_p50_ms", p50, "ms");
    add_note(result, "solve_p90_ms", p90, "ms");
    add_note(result, "solves_per_s", rate, "1/s");
}

void add_cycle_metrics(Result& result, const std::vector<CycleTiming>& cycles)
{
    std::vector<double> p50, p90, p99, rate;
    for (const CycleTiming& cycle : cycles) {
        if (cycle.traced) {
            continue;
        }
        const std::vector<double> latencies = answered(cycle.latencies);
        p50.push_back(percentile(latencies, 0.50) * 1e3);
        p90.push_back(percentile(latencies, 0.90) * 1e3);
        p99.push_back(percentile(latencies, 0.99) * 1e3);
        rate.push_back(cycle.busy_s > 0 ? static_cast<double>(latencies.size()) / cycle.busy_s
                                        : 0);
        char line[160];
        std::snprintf(line, sizeof line, "cycle %zu: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.1f /s",
                      p50.size() - 1, p50.back(), p90.back(), p99.back(), rate.back());
        result.notes.emplace_back(line);
    }
    result.add("latency_p50_ms", percentile(p50, cycle_quartile), "ms");
    result.add("latency_p90_ms", percentile(p90, cycle_quartile), "ms");
    result.add("ops_per_s", percentile(rate, 1 - cycle_quartile), "1/s");
    add_note(result, "req_p50_ms", percentile(p50, cycle_quartile), "ms");
    add_note(result, "req_p90_ms", percentile(p90, cycle_quartile), "ms");
    add_note(result, "req_p99_ms", percentile(p99, cycle_quartile), "ms");
    add_note(result, "req_per_s", percentile(rate, 1 - cycle_quartile), "1/s");
}

double cycle_p50_ms(const std::vector<CycleTiming>& cycles, bool traced)
{
    std::vector<double> p50;
    for (const CycleTiming& cycle : cycles) {
        if (cycle.traced == traced) {
            p50.push_back(percentile(answered(cycle.latencies), 0.5) * 1e3);
        }
    }
    return percentile(p50, cycle_quartile);
}

void add_setup_metric(Result& result, const std::vector<double>& setups)
{
    result.add("setup_s", percentile(setups, 0.5), "s");
}

} // namespace perfbench
