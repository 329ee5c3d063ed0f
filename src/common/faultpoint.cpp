#include "common/faultpoint.hpp"

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <utility>

#include "cli/flags.hpp"
#include "common/error.hpp"

namespace mst::fault {

namespace {

struct Registry {
    std::mutex mutex;
    std::vector<Rule> rules;
    std::map<std::string, std::uint64_t> hits;
};

Registry& registry()
{
    static Registry instance;
    return instance;
}

std::atomic<int> g_attempt{0};

struct NamedErrc {
    const char* name;
    std::errc code;
};

// The errno spellings a plan may use after '='. Deliberately short: these
// are the failures the instrumented call sites actually see in the wild.
constexpr NamedErrc kErrcNames[] = {
    {"EIO", std::errc::io_error},
    {"EMFILE", std::errc::too_many_files_open},
    {"ENFILE", std::errc::too_many_files_open_in_system},
    {"ENOSPC", std::errc::no_space_on_device},
    {"ENOMEM", std::errc::not_enough_memory},
    {"ECONNABORTED", std::errc::connection_aborted},
    {"ECONNRESET", std::errc::connection_reset},
    {"EPIPE", std::errc::broken_pipe},
    {"EAGAIN", std::errc::resource_unavailable_try_again},
    {"EINTR", std::errc::interrupted},
    {"ETIMEDOUT", std::errc::timed_out},
};

std::string known_errc_names()
{
    std::string out;
    for (const auto& entry : kErrcNames) {
        if (!out.empty()) out += ", ";
        out += entry.name;
    }
    return out;
}

std::string trim(const std::string& text)
{
    std::size_t begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos) return "";
    std::size_t end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

std::uint64_t parse_ordinal(const std::string& rule_text, const std::string& what,
                            const std::string& token)
{
    if (token.empty()) {
        throw ValidationError("fault plan rule '" + rule_text + "': missing " + what);
    }
    std::uint64_t value = 0;
    for (char c : token) {
        if (c < '0' || c > '9') {
            throw ValidationError("fault plan rule '" + rule_text + "': " + what +
                                  " must be a positive integer, got '" + token + "'");
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0) {
        throw ValidationError("fault plan rule '" + rule_text + "': " + what +
                              " must be >= 1");
    }
    return value;
}

Rule parse_rule(const std::string& raw)
{
    const std::string text = trim(raw);
    Rule rule;

    std::size_t colon = text.find(':');
    if (colon == std::string::npos) {
        throw ValidationError("fault plan rule '" + text +
                              "': expected <point>:<action>[@<N>][*<R>][=<ERRNO>]");
    }
    rule.point = trim(text.substr(0, colon));

    bool known = false;
    for (const char* name : known_points()) {
        if (rule.point == name) {
            known = true;
            break;
        }
    }
    if (!known) {
        std::vector<cli::FlagSpec> candidates;
        for (const char* name : known_points()) candidates.push_back({name, false});
        std::string message =
            "fault plan names unknown fault point '" + rule.point + "'";
        const std::string suggestion = cli::nearest_flag_name(rule.point, candidates);
        if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
        throw ValidationError(message);
    }

    std::string rest = trim(text.substr(colon + 1));
    const std::size_t at = rest.find('@');
    const std::string action =
        trim(at == std::string::npos ? rest : rest.substr(0, at));
    if (action == "fail") {
        rule.action = Action::fail;
    } else if (action == "crash") {
        rule.action = Action::crash;
    } else if (action == "hang") {
        rule.action = Action::hang;
    } else {
        throw ValidationError("fault plan rule '" + text + "': unknown action '" +
                              action + "' (expected fail, crash, or hang)");
    }

    // '@<N>' is optional (default: the first hit). '*<R>' and '=<ERRNO>'
    // ride on the ordinal clause when present.
    rest = at == std::string::npos ? "" : trim(rest.substr(at + 1));
    std::string errc_name;
    std::size_t eq = rest.find('=');
    if (eq != std::string::npos) {
        errc_name = trim(rest.substr(eq + 1));
        rest = trim(rest.substr(0, eq));
    }
    std::size_t star = rest.find('*');
    if (star != std::string::npos) {
        rule.attempts = static_cast<int>(
            parse_ordinal(text, "attempt window '*<R>'", trim(rest.substr(star + 1))));
        rest = trim(rest.substr(0, star));
    }
    if (at != std::string::npos || !rest.empty()) {
        rule.at = parse_ordinal(text, "hit ordinal '@<N>'", rest);
    }

    if (!errc_name.empty()) {
        if (rule.action != Action::fail) {
            throw ValidationError("fault plan rule '" + text +
                                  "': '=<ERRNO>' only applies to the fail action");
        }
        bool found = false;
        for (const auto& entry : kErrcNames) {
            if (errc_name == entry.name) {
                rule.code = entry.code;
                found = true;
                break;
            }
        }
        if (!found) {
            throw ValidationError("fault plan rule '" + text + "': unknown errno name '" +
                                  errc_name + "' (known: " + known_errc_names() + ")");
        }
    }
    return rule;
}

} // namespace

namespace detail {

std::atomic<bool> armed{false};

std::errc fire(const char* point)
{
    Action action = Action::fail;
    std::errc code{};
    bool due = false;
    {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        const std::uint64_t hit = ++reg.hits[point];
        const int attempt = g_attempt.load(std::memory_order_relaxed);
        for (const Rule& rule : reg.rules) {
            if (rule.point == point && rule.at == hit && attempt < rule.attempts) {
                action = rule.action;
                code = rule.code;
                due = true;
                break;
            }
        }
    }
    if (!due) return std::errc{};
    switch (action) {
    case Action::fail:
        return code;
    case Action::crash:
        // Simulated worker death: no unwinding, no atexit — the closest
        // a test can get to SIGKILL while staying sanitizer-clean.
        ::_exit(70);
    case Action::hang:
        for (int i = 0; i < 36000; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        return std::errc{};
    }
    return std::errc{};
}

} // namespace detail

const std::vector<const char*>& known_points()
{
    static const std::vector<const char*> points = {
        "net.accept",             // Listener::accept, per ready connection
        "net.write",              // server response write, per delivery
        "framing.read",           // FrameReader, per decoded frame
        "cache.tables_build",     // RequestService, per optimize tables lookup
        "cache.soc_resolve",      // RequestService, per SOC parse + fingerprint
        "sweep.checkpoint_write", // ShardWriter, per result record
        "sweep.trailer_write",    // ShardWriter::finish, per shard trailer
        "sweep.worker_spawn",     // sweep supervisor, per worker fork
        "sweep.scenario",         // sweep worker, per scenario executed
        "sweep.report_write",     // sweep coordinator, per report.json write
        "shm.map",                // Segment create/attach, per mapping attempt
        "shm.publish",            // Segment::publish, between write and commit
        "shm.truncate_recover",   // torn-tail recovery, per truncation
        "shm.checksum",           // Segment::lookup, per entry validation
    };
    return points;
}

Plan parse_plan(const std::string& text)
{
    Plan plan;
    std::string current;
    auto flush = [&] {
        if (!trim(current).empty()) plan.rules.push_back(parse_rule(current));
        current.clear();
    };
    for (char c : text) {
        if (c == ',' || c == ';') {
            flush();
        } else {
            current += c;
        }
    }
    flush();
    if (plan.rules.empty()) {
        // A plan that parses to nothing is a mistake, not a no-op: the
        // chaos run it was meant to drive would silently test nothing.
        throw ValidationError("fault plan '" + text + "' contains no rules");
    }
    return plan;
}

void install_plan(Plan plan)
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.rules = std::move(plan.rules);
    reg.hits.clear();
    detail::armed.store(!reg.rules.empty(), std::memory_order_relaxed);
}

void clear_plan()
{
    install_plan(Plan{});
}

void set_attempt(int attempt) noexcept
{
    g_attempt.store(attempt, std::memory_order_relaxed);
}

int attempt() noexcept
{
    return g_attempt.load(std::memory_order_relaxed);
}

std::uint64_t hit_count(const std::string& point)
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.hits.find(point);
    return it == reg.hits.end() ? 0 : it->second;
}

} // namespace mst::fault
