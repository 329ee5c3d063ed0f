#include "service/protocol.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "common/format.hpp"
#include "report/solution_json.hpp"
#include "service/json.hpp"

namespace mst::protocol {

const char* error_kind_name(ErrorKind kind) noexcept
{
    switch (kind) {
    case ErrorKind::none: return "none";
    case ErrorKind::parse: return "parse";
    case ErrorKind::validation: return "validation";
    case ErrorKind::version: return "version";
    case ErrorKind::infeasible: return "infeasible";
    case ErrorKind::exact_infeasible: return "exact_infeasible";
    case ErrorKind::overloaded: return "overloaded";
    case ErrorKind::internal: return "internal";
    }
    return "?";
}

const char* framing_name(Framing framing) noexcept
{
    switch (framing) {
    case Framing::ndjson: return "ndjson";
    case Framing::length_prefix: return "length_prefix";
    }
    return "?";
}

namespace {

/// Thrown inside parse_request to carry a full typed wire error (kind +
/// detail, not just a message); caught before the function returns.
struct WireErrorException {
    WireError error;
};

[[noreturn]] void fail(ErrorKind kind, std::string message, std::string detail = "")
{
    throw WireErrorException{WireError{kind, std::move(message), std::move(detail)}};
}

int require_int(const JsonValue& value, const std::string& field)
{
    if (!value.is_number()) {
        fail(ErrorKind::validation, "request field '" + field + "' expects an integer");
    }
    const std::int64_t wide = value.as_int();
    if (wide < std::numeric_limits<int>::min() || wide > std::numeric_limits<int>::max()) {
        fail(ErrorKind::validation,
             "request field '" + field + "' is out of range: '" + value.raw() + "'");
    }
    return static_cast<int>(wide);
}

double require_number(const JsonValue& value, const std::string& field)
{
    if (!value.is_number()) {
        fail(ErrorKind::validation, "request field '" + field + "' expects a number");
    }
    return value.as_number();
}

bool require_bool(const JsonValue& value, const std::string& field)
{
    if (!value.is_bool()) {
        fail(ErrorKind::validation, "request field '" + field + "' expects true or false");
    }
    return value.as_bool();
}

const std::string& require_string(const JsonValue& value, const std::string& field)
{
    if (!value.is_string()) {
        fail(ErrorKind::validation, "request field '" + field + "' expects a string");
    }
    return value.as_string();
}

/// A scalar token exactly as written in the request frame (the echo of
/// `id` and `v` stays byte-identical). Arrays and objects echo nothing.
std::string source_token(const std::string& frame, const JsonValue& value)
{
    if (value.is_array() || value.is_object()) {
        return "";
    }
    return frame.substr(value.source_offset(), value.source_size());
}

/// %.17g round-trips doubles exactly: two values that differ anywhere
/// differ in the canonical JSON (which doubles as the memo key).
std::string canonical_number(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// Every field any op accepts, reusing the CLI's FlagSpec so unknown
/// fields get the same nearest-match suggestions as unknown flags.
const std::vector<cli::FlagSpec>& request_fields()
{
    static const std::vector<cli::FlagSpec> fields = [] {
        std::vector<cli::FlagSpec> all = {
            {"id", true},     {"v", true},       {"op", true},
            {"soc", true},    {"soc_text", true}, {"scope", true},
            {"framing", true}, {"stream", true},
        };
        for (const CellBinding& binding : cell_bindings()) {
            all.push_back({binding.field, true});
        }
        for (const OptionBinding& binding : option_bindings()) {
            all.push_back({binding.json_field, true});
        }
        return all;
    }();
    return fields;
}

[[noreturn]] void fail_unknown(const std::string& what, const std::string& input,
                               const std::vector<cli::FlagSpec>& candidates)
{
    const std::string suggestion = cli::nearest_flag_name(input, candidates);
    fail(ErrorKind::validation, "unknown " + what + " '" + input + "'",
         suggestion.empty() ? "" : "did you mean '" + suggestion + "'?");
}

const CellBinding* find_cell_binding(const std::string& field)
{
    for (const CellBinding& binding : cell_bindings()) {
        if (field == binding.field) {
            return &binding;
        }
    }
    return nullptr;
}

const OptionBinding* find_option_binding(const std::string& field)
{
    for (const OptionBinding& binding : option_bindings()) {
        if (field == binding.json_field) {
            return &binding;
        }
    }
    return nullptr;
}

void apply_cell_field(TestCell& cell, const CellBinding& binding, const JsonValue& value)
{
    switch (binding.kind) {
    case CellBinding::Kind::integer:
        binding.apply_int(cell, require_int(value, binding.field));
        break;
    case CellBinding::Kind::depth:
        // "7M"/"48K" shorthand or a plain vector count.
        binding.apply_depth(cell, value.is_string() ? parse_depth(value.as_string())
                                                    : value.as_int());
        break;
    case CellBinding::Kind::number:
        binding.apply_number(cell, require_number(value, binding.field));
        break;
    }
}

void apply_option_field(OptimizeOptions& options, const OptionBinding& binding,
                        const JsonValue& value)
{
    switch (binding.kind) {
    case OptionBinding::Kind::toggle:
        if (require_bool(value, binding.json_field)) {
            binding.apply_toggle(options);
        }
        break;
    case OptionBinding::Kind::integer:
        binding.apply_int(options, require_int(value, binding.json_field));
        break;
    case OptionBinding::Kind::number:
        binding.apply_number(options, require_number(value, binding.json_field));
        break;
    }
}

} // namespace

Request parse_request(const std::string& frame)
{
    Request request;
    using Op = Request::Op;
    try {
        JsonValue root = JsonValue::parse(frame);
        if (!root.is_object()) {
            fail(ErrorKind::validation, "request must be a JSON object");
        }
        // id, v, and op first (member order in the frame is arbitrary):
        // later field errors echo the id, and field acceptance depends
        // on the op.
        if (const JsonValue* id = root.find("id")) {
            if (!id->is_string() && !id->is_number()) {
                fail(ErrorKind::validation, "request field 'id' expects a string or number");
            }
            request.id_json = source_token(frame, *id);
        }
        if (const JsonValue* v = root.find("v")) {
            // Any value other than the integer 1 (wrong type included)
            // is a version error, typed so clients can react.
            bool supported = false;
            if (v->is_number()) {
                try {
                    supported = v->as_int() == version;
                } catch (const ValidationError&) {
                    supported = false; // fractional / out-of-range number
                }
            }
            if (!supported) {
                fail(ErrorKind::version,
                     "unsupported protocol version " + source_token(frame, *v),
                     "supported versions: 1");
            }
        }
        if (const JsonValue* op = root.find("op")) {
            const std::string& name = require_string(*op, "op");
            if (name == "optimize") {
                request.op = Op::optimize;
            } else if (name == "stats") {
                request.op = Op::stats;
            } else if (name == "hello") {
                request.op = Op::hello;
            } else if (name == "health") {
                request.op = Op::health;
            } else {
                static const std::vector<cli::FlagSpec> ops = {{"optimize", false},
                                                               {"stats", false},
                                                               {"hello", false},
                                                               {"health", false}};
                fail_unknown("op", name, ops);
            }
        }

        for (const JsonValue::Member& member : root.as_object()) {
            const std::string& field = member.first;
            const JsonValue& value = member.second;
            if (field == "id" || field == "v" || field == "op") {
                continue;
            }
            if (field == "scope") {
                if (request.op != Op::stats) {
                    fail(ErrorKind::validation,
                         "field 'scope' is only valid on a stats request");
                }
                const std::string& scope = require_string(value, field);
                if (scope == "service") {
                    request.scope = StatsScope::service;
                } else if (scope == "server") {
                    request.scope = StatsScope::server;
                } else {
                    static const std::vector<cli::FlagSpec> scopes = {{"service", false},
                                                                      {"server", false}};
                    fail_unknown("stats scope", scope, scopes);
                }
                continue;
            }
            if (field == "framing") {
                if (request.op != Op::hello) {
                    fail(ErrorKind::validation,
                         "field 'framing' is only valid on a hello request");
                }
                const std::string& name = require_string(value, field);
                if (name == "ndjson") {
                    request.framing = Framing::ndjson;
                } else if (name == "length_prefix") {
                    request.framing = Framing::length_prefix;
                } else {
                    static const std::vector<cli::FlagSpec> framings = {
                        {"ndjson", false}, {"length_prefix", false}};
                    fail_unknown("framing", name, framings);
                }
                request.has_framing = true;
                continue;
            }
            if (field == "stream") {
                if (request.op != Op::hello) {
                    fail(ErrorKind::validation,
                         "field 'stream' is only valid on a hello request");
                }
                request.stream = require_bool(value, field);
                request.has_stream = true;
                continue;
            }
            // Everything below is optimize payload.
            if (request.op != Op::optimize) {
                fail(ErrorKind::validation,
                     std::string("field '") + field + "' is only valid on an optimize request");
            }
            if (field == "soc") {
                request.soc_spec = require_string(value, field);
            } else if (field == "soc_text") {
                require_string(value, field); // moved out below, once valid
                request.inline_soc = true;
            } else if (const CellBinding* cell = find_cell_binding(field)) {
                apply_cell_field(request.cell, *cell, value);
            } else if (const OptionBinding* option = find_option_binding(field)) {
                apply_option_field(request.options, *option, value);
            } else {
                fail_unknown("request field", field, request_fields());
            }
        }

        if (request.op == Op::optimize &&
            request.inline_soc == !request.soc_spec.empty()) {
            // both set, or neither
            fail(ErrorKind::validation,
                 "an optimize request needs exactly one of 'soc' (name or path) "
                 "and 'soc_text' (inline .soc)");
        }
        if (request.inline_soc) {
            request.soc_text = root.find("soc_text")->take_string();
        }
    } catch (const WireErrorException& e) {
        request.error = e.error;
    } catch (const JsonParseError& e) {
        request.error = {ErrorKind::parse, e.what(), ""};
    } catch (const ValidationError& e) {
        request.error = {ErrorKind::validation, e.what(), ""};
    } catch (const std::exception& e) {
        request.error = {ErrorKind::internal, e.what(), ""};
    }
    return request;
}

namespace {

/// `{"id":<id>,"v":1,` — the fixed prefix of every response.
std::string response_prefix(const std::string& id_json)
{
    std::string prefix = "{";
    if (!id_json.empty()) {
        prefix += "\"id\":" + id_json + ",";
    }
    prefix += "\"v\":" + std::to_string(version) + ",";
    return prefix;
}

std::string cache_stats_json(const char* name, const CacheStats& stats)
{
    std::ostringstream out;
    out << '"' << name << "\":{\"capacity\":" << stats.capacity << ",\"size\":" << stats.size
        << ",\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
        << ",\"evictions\":" << stats.evictions << '}';
    return out.str();
}

} // namespace

std::string ok_response(const std::string& id_json, const std::string& fingerprint,
                        const std::string& solution_json)
{
    return response_prefix(id_json) + "\"ok\":true,\"fingerprint\":\"" + fingerprint +
           "\",\"solution\":" + solution_json + "}";
}

std::string error_response(const std::string& id_json, const WireError& error)
{
    std::ostringstream out;
    out << response_prefix(id_json) << "\"ok\":false,\"error\":{\"kind\":\""
        << error_kind_name(error.kind) << "\",\"message\":\"" << json_escape(error.message)
        << '"';
    if (!error.detail.empty()) {
        out << ",\"detail\":\"" << json_escape(error.detail) << '"';
    }
    out << "}}";
    return out.str();
}

std::string error_response(const std::string& id_json, ErrorKind kind,
                           const std::string& message, const std::string& detail)
{
    return error_response(id_json, WireError{kind, message, detail});
}

std::string stats_response(const std::string& id_json, const RequestCounters& requests,
                           const CacheStats& tables, const CacheStats& memo,
                           const ServerCounters* server)
{
    std::ostringstream out;
    out << response_prefix(id_json)
        << "\"ok\":true,\"stats\":{\"requests\":{\"received\":" << requests.received
        << ",\"ok\":" << requests.ok << ",\"failed\":" << requests.failed << "},"
        << cache_stats_json("tables_cache", tables) << ','
        << cache_stats_json("solution_memo", memo);
    if (server != nullptr) {
        out << ",\"server\":{\"connections_accepted\":" << server->connections_accepted
            << ",\"connections_active\":" << server->connections_active
            << ",\"requests_admitted\":" << server->requests_admitted
            << ",\"requests_rejected\":" << server->requests_rejected
            << ",\"global_queue_high_water\":" << server->global_queue_high_water
            << ",\"connection_queue_high_water\":" << server->connection_queue_high_water
            << ",\"accept_retries\":" << server->accept_retries
            << ",\"connections_shed\":" << server->connections_shed
            << ",\"load_shed_cache_hits\":" << server->load_shed_cache_hits;
        if (server->shm.enabled) {
            const auto& shm = server->shm;
            out << ",\"shm\":{\"attached\":" << (shm.attached ? "true" : "false")
                << ",\"hits\":" << shm.hits << ",\"misses\":" << shm.misses
                << ",\"publishes\":" << shm.publishes << ",\"fallbacks\":" << shm.fallbacks
                << ",\"checksum_failures\":" << shm.checksum_failures
                << ",\"generation\":" << shm.generation
                << ",\"committed_bytes\":" << shm.committed_bytes
                << ",\"arena_bytes\":" << shm.arena_bytes
                << ",\"recoveries\":" << shm.recoveries
                << ",\"truncated_bytes\":" << shm.truncated_bytes << '}';
        }
        if (server->pool.enabled) {
            const auto& pool = server->pool;
            out << ",\"pool\":{\"workers\":" << pool.workers << ",\"ready\":" << pool.ready
                << ",\"restarts\":" << pool.restarts
                << ",\"quarantined\":" << pool.quarantined << ",\"per_worker\":[";
            for (std::size_t i = 0; i < pool.per_worker.size(); ++i) {
                const ServerCounters::PoolWorker& worker = pool.per_worker[i];
                if (i != 0) {
                    out << ',';
                }
                out << "{\"pid\":" << worker.pid << ",\"state\":\"" << worker.state
                    << "\",\"heartbeat\":" << worker.heartbeat
                    << ",\"received\":" << worker.received << ",\"ok\":" << worker.ok
                    << ",\"failed\":" << worker.failed
                    << ",\"connections_accepted\":" << worker.connections_accepted
                    << ",\"requests_admitted\":" << worker.requests_admitted
                    << ",\"requests_rejected\":" << worker.requests_rejected
                    << ",\"shm_hits\":" << worker.shm_hits
                    << ",\"shm_misses\":" << worker.shm_misses
                    << ",\"shm_publishes\":" << worker.shm_publishes
                    << ",\"shm_fallbacks\":" << worker.shm_fallbacks << '}';
            }
            std::uint64_t total_received = 0;
            std::uint64_t total_ok = 0;
            std::uint64_t total_failed = 0;
            for (const ServerCounters::PoolWorker& worker : pool.per_worker) {
                total_received += worker.received;
                total_ok += worker.ok;
                total_failed += worker.failed;
            }
            out << "],\"totals\":{\"received\":" << total_received << ",\"ok\":" << total_ok
                << ",\"failed\":" << total_failed << "}}";
        }
        out << '}'; // closes "server": shm + pool nest inside it
    }
    out << "}}";
    return out.str();
}

std::string health_response(const std::string& id_json, const HealthInfo& health)
{
    std::ostringstream out;
    out << response_prefix(id_json) << "\"ok\":true,\"health\":{\"status\":\""
        << (health.ok ? "ok" : "degraded") << "\",\"shm\":\"" << health.shm
        << "\",\"executor_threads\":" << health.executor_threads
        << ",\"inflight\":" << health.inflight << ",\"queue_limit\":" << health.queue_limit
        << "}}";
    return out.str();
}

std::string hello_response(const std::string& id_json, Framing framing, bool stream)
{
    std::ostringstream out;
    out << response_prefix(id_json) << "\"ok\":true,\"hello\":{\"framing\":\""
        << framing_name(framing) << "\",\"stream\":" << (stream ? "true" : "false") << "}}";
    return out.str();
}

const std::vector<OptionBinding>& option_bindings()
{
    using Kind = OptionBinding::Kind;
    static const std::vector<OptionBinding> bindings = {
        {"broadcast", "broadcast", Kind::toggle, nullptr,
         [](OptimizeOptions& o) { o.broadcast = BroadcastMode::stimuli; }, nullptr, nullptr,
         [](const OptimizeOptions& o) { return o.broadcast != BroadcastMode::none; }, nullptr,
         nullptr},
        {"abort_on_fail", "abort-on-fail", Kind::toggle, nullptr,
         [](OptimizeOptions& o) { o.abort = AbortOnFail::on; }, nullptr, nullptr,
         [](const OptimizeOptions& o) { return o.abort == AbortOnFail::on; }, nullptr,
         nullptr},
        {"retest", "retest", Kind::toggle, nullptr,
         [](OptimizeOptions& o) { o.retest = RetestPolicy::retest_contact_failures; }, nullptr,
         nullptr, [](const OptimizeOptions& o) { return o.retest != RetestPolicy::none; },
         nullptr, nullptr},
        {"step1_only", "step1-only", Kind::toggle, nullptr,
         [](OptimizeOptions& o) { o.step1_only = true; }, nullptr, nullptr,
         [](const OptimizeOptions& o) { return o.step1_only; }, nullptr, nullptr},
        {"exact", "exact", Kind::toggle, nullptr, [](OptimizeOptions& o) { o.exact = true; },
         nullptr, nullptr, [](const OptimizeOptions& o) { return o.exact; }, nullptr, nullptr},
        {"exact_budget_ms", "exact-budget-ms", Kind::integer, "0", nullptr,
         [](OptimizeOptions& o, int v) {
             o.exact_budget_ms = v;
             if (v > 0) {
                 o.exact = true; // a budget implies the pass
             }
         },
         nullptr, nullptr,
         [](const OptimizeOptions& o) { return static_cast<std::int64_t>(o.exact_budget_ms); },
         nullptr},
        {"pc", "pc", Kind::number, "1.0", nullptr, nullptr,
         [](OptimizeOptions& o, double v) { o.yields.contact_yield_per_terminal = v; },
         nullptr, nullptr,
         [](const OptimizeOptions& o) { return o.yields.contact_yield_per_terminal; }},
        {"pm", "pm", Kind::number, "1.0", nullptr, nullptr,
         [](OptimizeOptions& o, double v) { o.yields.manufacturing_yield = v; }, nullptr,
         nullptr, [](const OptimizeOptions& o) { return o.yields.manufacturing_yield; }},
    };
    return bindings;
}

const std::vector<CellBinding>& cell_bindings()
{
    using Kind = CellBinding::Kind;
    static const std::vector<CellBinding> bindings = {
        {"channels", Kind::integer, "512",
         [](TestCell& c, int v) { c.ate.channels = v; }, nullptr, nullptr,
         [](const TestCell& c) { return static_cast<std::int64_t>(c.ate.channels); }, nullptr},
        {"depth", Kind::depth, "7M", nullptr,
         [](TestCell& c, CycleCount v) { c.ate.vector_memory_depth = v; }, nullptr,
         [](const TestCell& c) { return static_cast<std::int64_t>(c.ate.vector_memory_depth); },
         nullptr},
        {"clock", Kind::number, "5e6", nullptr, nullptr,
         [](TestCell& c, double v) { c.ate.test_clock_hz = v; }, nullptr,
         [](const TestCell& c) { return c.ate.test_clock_hz; }},
        {"index", Kind::number, "0.5", nullptr, nullptr,
         [](TestCell& c, double v) { c.prober.index_time = v; }, nullptr,
         [](const TestCell& c) { return c.prober.index_time; }},
        {"contact", Kind::number, "0.001", nullptr, nullptr,
         [](TestCell& c, double v) { c.prober.contact_test_time = v; }, nullptr,
         [](const TestCell& c) { return c.prober.contact_test_time; }},
    };
    return bindings;
}

std::vector<cli::FlagSpec> option_flag_specs()
{
    std::vector<cli::FlagSpec> specs;
    for (const OptionBinding& binding : option_bindings()) {
        specs.push_back({binding.cli_flag, binding.kind != OptionBinding::Kind::toggle});
    }
    return specs;
}

std::vector<cli::FlagSpec> cell_flag_specs()
{
    std::vector<cli::FlagSpec> specs;
    for (const CellBinding& binding : cell_bindings()) {
        specs.push_back({binding.field, true});
    }
    return specs;
}

OptimizeOptions options_from_flags(const cli::Flags& flags)
{
    OptimizeOptions options;
    for (const OptionBinding& binding : option_bindings()) {
        switch (binding.kind) {
        case OptionBinding::Kind::toggle:
            if (flags.count(binding.cli_flag) != 0) {
                binding.apply_toggle(options);
            }
            break;
        case OptionBinding::Kind::integer:
            binding.apply_int(options,
                              cli::parse_int_flag(binding.cli_flag,
                                                  cli::flag_or(flags, binding.cli_flag,
                                                               binding.cli_default)));
            break;
        case OptionBinding::Kind::number:
            binding.apply_number(options,
                                 cli::parse_double_flag(binding.cli_flag,
                                                        cli::flag_or(flags, binding.cli_flag,
                                                                     binding.cli_default)));
            break;
        }
    }
    return options;
}

TestCell cell_from_flags(const cli::Flags& flags)
{
    TestCell cell;
    for (const CellBinding& binding : cell_bindings()) {
        const std::string text = cli::flag_or(flags, binding.field, binding.cli_default);
        switch (binding.kind) {
        case CellBinding::Kind::integer:
            binding.apply_int(cell, cli::parse_int_flag(binding.field, text));
            break;
        case CellBinding::Kind::depth:
            binding.apply_depth(cell, parse_depth(text));
            break;
        case CellBinding::Kind::number:
            binding.apply_number(cell, cli::parse_double_flag(binding.field, text));
            break;
        }
    }
    return cell;
}

std::string options_to_json(const OptimizeOptions& options)
{
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const OptionBinding& binding : option_bindings()) {
        if (!first) {
            out << ',';
        }
        first = false;
        out << '"' << binding.json_field << "\":";
        switch (binding.kind) {
        case OptionBinding::Kind::toggle:
            out << (binding.read_toggle(options) ? "true" : "false");
            break;
        case OptionBinding::Kind::integer:
            out << binding.read_int(options);
            break;
        case OptionBinding::Kind::number:
            out << canonical_number(binding.read_number(options));
            break;
        }
    }
    out << '}';
    return out.str();
}

std::string cell_to_json(const TestCell& cell)
{
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const CellBinding& binding : cell_bindings()) {
        if (!first) {
            out << ',';
        }
        first = false;
        out << '"' << binding.field << "\":";
        switch (binding.kind) {
        case CellBinding::Kind::integer:
        case CellBinding::Kind::depth:
            out << binding.read_int(cell);
            break;
        case CellBinding::Kind::number:
            out << canonical_number(binding.read_number(cell));
            break;
        }
    }
    out << '}';
    return out.str();
}

} // namespace mst::protocol
