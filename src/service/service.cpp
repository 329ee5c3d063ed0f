#include "service/service.hpp"

#include <istream>
#include <ostream>
#include <system_error>

#include "common/executor.hpp"
#include "common/faultpoint.hpp"
#include "core/optimizer.hpp"
#include "exact/branch_bound.hpp"
#include "report/solution_json.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"

namespace mst {

namespace {

/// The canonical protocol renditions double as the memo key: two
/// requests agree on (fingerprint, cell, options) iff they agree on
/// this string.
std::string memo_key(const std::string& fingerprint_text, const protocol::Request& request)
{
    return fingerprint_text + '|' + protocol::cell_to_json(request.cell) + '|' +
           protocol::options_to_json(request.options);
}

} // namespace

RequestService::RequestService(ServiceConfig config)
    : config_(config),
      socs_(config.tables_cache_capacity),
      tables_(config.tables_cache_capacity, config.shm),
      memo_(config.memo_capacity)
{
}

int RequestService::thread_count(std::size_t jobs) const noexcept
{
    return resolve_thread_count(config_.threads, jobs);
}

std::shared_ptr<const ResolvedSoc> RequestService::resolve(const protocol::Request& request)
{
    const auto compute = [&]() -> std::shared_ptr<const ResolvedSoc> {
        if (const std::errc fault = MST_FAULTPOINT("cache.soc_resolve"); fault != std::errc{}) {
            throw std::system_error(std::make_error_code(fault),
                                    "injected fault: SOC resolution failed");
        }
        auto resolved = std::make_shared<ResolvedSoc>();
        resolved->soc = std::make_shared<const Soc>(
            request.inline_soc ? parse_soc_string(request.soc_text, "<request>")
                               : load_soc_spec(request.soc_spec));
        resolved->fingerprint = soc_fingerprint(*resolved->soc);
        resolved->fingerprint_text = fingerprint_hex(resolved->fingerprint);
        return resolved;
    };
    // Only inline text is a pure function of its bytes. A path is re-read
    // on every request because the file may change in between; a built-in
    // name is cheap, and keying it here could collide with inline text.
    if (!request.inline_soc) {
        return compute();
    }
    try {
        return socs_.get_or_compute(request.soc_text, compute);
    } catch (const ParseError&) {
        throw; // a property of the bytes: stays cached
    } catch (const ValidationError&) {
        throw;
    } catch (...) {
        // Not a property of the bytes (bad_alloc, an injected fault):
        // the next request for this text resolves again.
        socs_.forget_failure(request.soc_text);
        throw;
    }
}

std::shared_ptr<const SolutionOutcome> RequestService::outcome_for(
    const protocol::Request& request)
{
    // Resolve the SOC outside the memo: name/path/inline forms of the
    // same content must land on one memo entry, and .soc problems are
    // request errors, not cacheable optimization outcomes.
    std::shared_ptr<const ResolvedSoc> resolved;
    try {
        resolved = resolve(request);
    } catch (const ParseError& e) {
        auto outcome = std::make_shared<SolutionOutcome>();
        outcome->error = {protocol::ErrorKind::parse, e.what(), ""};
        return outcome;
    } catch (const ValidationError& e) {
        auto outcome = std::make_shared<SolutionOutcome>();
        outcome->error = {protocol::ErrorKind::validation, e.what(), ""};
        return outcome;
    } catch (const std::exception& e) {
        // e.g. bad_alloc loading a huge .soc file: still one error
        // response, not a dead server.
        auto outcome = std::make_shared<SolutionOutcome>();
        outcome->error = {protocol::ErrorKind::internal, e.what(), ""};
        return outcome;
    }

    const std::string& fingerprint_text = resolved->fingerprint_text;
    const std::string key = memo_key(fingerprint_text, request);
    if (const std::errc fault = MST_FAULTPOINT("cache.tables_build"); fault != std::errc{}) {
        // Transient by construction, so deliberately NOT memoized: the
        // memo caches deterministic functions of the key, and poisoning
        // it with a one-shot injected failure would break that contract
        // (and every later request for this key).
        auto outcome = std::make_shared<SolutionOutcome>();
        outcome->fingerprint = fingerprint_text;
        outcome->error = {protocol::ErrorKind::internal,
                          "injected fault: tables build failed: " +
                              std::make_error_code(fault).message(),
                          ""};
        return outcome;
    }
    return memo_.get_or_compute(key, [&]() -> std::shared_ptr<const SolutionOutcome> {
        auto outcome = std::make_shared<SolutionOutcome>();
        outcome->fingerprint = fingerprint_text;
        try {
            request.cell.validate();
            const std::shared_ptr<const SocTables> shared =
                tables_.get(resolved->fingerprint, resolved->soc);
            // Shared-memory lookaside inside the single-flight compute,
            // and only after the tables fetch above: whether the outcome
            // is restored or computed, the local memo AND tables-cache
            // counters (which the stats goldens pin) are identical.
            if (config_.shm != nullptr) {
                if (std::shared_ptr<SolutionOutcome> restored =
                        config_.shm->load_outcome(key)) {
                    return restored;
                }
            }
            // The service's --threads cap applies inside each request
            // too (one flag meaning across the CLI). Not part of the
            // memo key: solutions are identical at any thread count.
            OptimizeOptions run_options = request.options;
            run_options.threads = config_.threads;
            const Solution solution =
                optimize_multi_site(shared->tables(), request.cell, run_options);
            outcome->ok = true;
            outcome->solution_json = solution_to_json(solution, JsonStyle::compact);
        } catch (const ExactInfeasibleError& e) {
            outcome->error = {protocol::ErrorKind::exact_infeasible, e.what(), ""};
        } catch (const InfeasibleError& e) {
            outcome->error = {protocol::ErrorKind::infeasible, e.what(), ""};
        } catch (const ValidationError& e) {
            outcome->error = {protocol::ErrorKind::validation, e.what(), ""};
        } catch (const std::exception& e) {
            outcome->error = {protocol::ErrorKind::internal, e.what(), ""};
        } catch (...) {
            outcome->error = {protocol::ErrorKind::internal, "unknown exception", ""};
        }
        if (config_.shm != nullptr) {
            config_.shm->publish_outcome(key, *outcome);
        }
        return outcome;
    });
}

void RequestService::fill_shm_section(protocol::ServerCounters& server) const
{
    if (config_.shm == nullptr) {
        return;
    }
    const shm::StoreCounters store = config_.shm->counters();
    const shm::SegmentCounters segment = config_.shm->segment_counters();
    server.shm.enabled = true;
    server.shm.attached = store.attached;
    server.shm.hits = store.hits;
    server.shm.misses = store.misses;
    server.shm.publishes = store.publishes;
    server.shm.fallbacks = store.fallbacks;
    server.shm.checksum_failures = store.checksum_failures;
    server.shm.generation = segment.generation;
    server.shm.committed_bytes = segment.committed_bytes;
    server.shm.arena_bytes = segment.arena_bytes;
    server.shm.recoveries = segment.recoveries;
    server.shm.truncated_bytes = segment.truncated_bytes;
}

protocol::HealthInfo RequestService::health_info() const
{
    protocol::HealthInfo health;
    // Uncapped by a job count: report what a full batch would fan out to.
    health.executor_threads = thread_count(~std::size_t{0});
    if (config_.shm != nullptr) {
        health.shm = config_.shm->attached() ? "attached" : "degraded";
        health.ok = config_.shm->attached();
    }
    return health;
}

std::string RequestService::run_optimize(const protocol::Request& request, bool& ok)
{
    const std::shared_ptr<const SolutionOutcome> outcome = outcome_for(request);
    ok = outcome->ok;
    if (!outcome->ok) {
        return protocol::error_response(request.id_json, outcome->error);
    }
    return protocol::ok_response(request.id_json, outcome->fingerprint,
                                 outcome->solution_json);
}

std::string RequestService::run_request(const protocol::Request& request)
{
    using Op = protocol::Request::Op;
    ++received_;
    // An exception escaping a request would kill its worker (or abort a
    // whole batch), so this is the last-resort net under the per-stage
    // handlers: every failure becomes that request's error response.
    try {
        if (request.error.kind != protocol::ErrorKind::none) {
            ++failed_;
            return protocol::error_response(request.id_json, request.error);
        }
        if (request.op == Op::hello) {
            ++failed_;
            return protocol::error_response(
                request.id_json, protocol::ErrorKind::validation,
                "'hello' is only accepted as the first frame of a network connection");
        }
        if (request.op == Op::stats) {
            // Defensive only: callers route stats through stats_response
            // at a barrier. A lone stats request has trivially quiesced.
            --received_; // stats_response counts itself
            return stats_response(request, nullptr);
        }
        if (request.op == Op::health) {
            ++ok_;
            return protocol::health_response(request.id_json, health_info());
        }
        bool ok = false;
        std::string response = run_optimize(request, ok);
        if (ok) {
            ++ok_;
        } else {
            ++failed_;
        }
        return response;
    } catch (const std::exception& e) {
        ++failed_;
        return protocol::error_response(request.id_json, protocol::ErrorKind::internal,
                                        e.what());
    } catch (...) {
        ++failed_;
        return protocol::error_response(request.id_json, protocol::ErrorKind::internal,
                                        "unknown exception");
    }
}

std::optional<std::string> RequestService::cached_response(const protocol::Request& request)
{
    if (request.error.kind != protocol::ErrorKind::none ||
        request.op != protocol::Request::Op::optimize) {
        return std::nullopt;
    }
    std::shared_ptr<const ResolvedSoc> resolved;
    try {
        resolved = resolve(request);
    } catch (...) {
        return std::nullopt; // not a memoized outcome; let admission decide
    }
    const std::shared_ptr<const SolutionOutcome> outcome =
        memo_.peek(memo_key(resolved->fingerprint_text, request));
    if (outcome == nullptr) {
        return std::nullopt;
    }
    ++received_;
    if (outcome->ok) {
        ++ok_;
        return protocol::ok_response(request.id_json, outcome->fingerprint,
                                     outcome->solution_json);
    }
    ++failed_;
    return protocol::error_response(request.id_json, outcome->error);
}

std::string RequestService::stats_response(const protocol::Request& request,
                                           const protocol::ServerCounters* server)
{
    // Snapshot before counting: a stats response reports the state after
    // every preceding request and before itself...
    protocol::RequestCounters counters;
    counters.received = received_.load();
    counters.ok = ok_.load();
    counters.failed = failed_.load();
    const CacheStats tables = tables_.stats();
    const CacheStats memo = memo_.stats();
    // ...and then counts itself, so a following stats request sees it.
    ++received_;
    ++ok_;
    if (server != nullptr && request.scope != protocol::StatsScope::server) {
        server = nullptr; // default scope: transport-independent sections only
    }
    return protocol::stats_response(request.id_json, counters, tables, memo, server);
}

std::vector<std::string> RequestService::execute(const std::vector<std::string>& lines)
{
    std::vector<protocol::Request> parsed;
    parsed.reserve(lines.size());
    for (const std::string& line : lines) {
        parsed.push_back(protocol::parse_request(line));
    }

    std::vector<std::string> responses(lines.size());
    std::size_t begin = 0;
    while (begin < lines.size()) {
        // A stats request is a barrier: everything before it runs (and
        // is counted) first, so its numbers are deterministic at any
        // thread count.
        std::size_t end = begin;
        while (end < lines.size() &&
               !(parsed[end].error.kind == protocol::ErrorKind::none &&
                 parsed[end].op == protocol::Request::Op::stats)) {
            ++end;
        }
        const std::size_t count = end - begin;
        parallel_for_index(count, thread_count(count), [&](std::size_t i) {
            responses[begin + i] = run_request(parsed[begin + i]);
        });
        if (end < lines.size()) {
            responses[end] = stats_response(parsed[end], nullptr);
            ++end;
        }
        begin = end;
    }
    return responses;
}

std::string RequestService::execute_one(const std::string& line)
{
    return execute(std::vector<std::string>{line}).front();
}

void RequestService::serve(std::istream& in, std::ostream& out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
        }
        out << execute_one(line) << '\n' << std::flush;
    }
}

} // namespace mst
