// Integration tests for the persistent request service (service/):
// request/response schema, cross-request caching (hits, eviction),
// error isolation, and thread-count-independent response bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "core/optimizer.hpp"
#include "report/solution_json.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/tables_cache.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

/// Parse a response line back into a JSON tree (the service must emit
/// valid JSON even for errors).
JsonValue response(const std::string& line)
{
    return JsonValue::parse(line);
}

/// An optimize request carrying `text` inline; `cell` is a JSON member
/// list such as `"channels":256,"depth":"48K"`.
std::string inline_request(const std::string& id, const std::string& text,
                           const std::string& cell)
{
    return R"({"id":")" + id + R"(","soc_text":")" + json_escape(text) + R"(",)" + cell + "}";
}

double stat(const JsonValue& root, const std::string& section, const std::string& field)
{
    const JsonValue* stats = root.find("stats");
    EXPECT_NE(stats, nullptr);
    const JsonValue* group = stats->find(section);
    EXPECT_NE(group, nullptr);
    const JsonValue* value = group->find(field);
    EXPECT_NE(value, nullptr);
    return value->as_number();
}

TEST(Service, OptimizeResponseMatchesDirectLibraryCall)
{
    RequestService service;
    const std::vector<std::string> out = service.execute(
        {R"({"id":"r1","soc":"d695","channels":256,"depth":"48K","broadcast":true})"});
    ASSERT_EQ(out.size(), 1U);
    const JsonValue reply = response(out[0]);
    EXPECT_EQ(reply.find("id")->as_string(), "r1");
    EXPECT_TRUE(reply.find("ok")->as_bool());

    // The embedded solution must be the library's own answer, byte for
    // byte: "serving" may never change the optimization result.
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 48 * kibi;
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    const Solution direct = optimize_multi_site(make_benchmark_soc("d695"), cell, options);
    const std::string expected = solution_to_json(direct, JsonStyle::compact);
    const std::size_t start = out[0].find("\"solution\":");
    ASSERT_NE(start, std::string::npos);
    EXPECT_EQ(out[0].substr(start + 11, expected.size()), expected);

    const JsonValue* solution = reply.find("solution");
    ASSERT_NE(solution, nullptr);
    EXPECT_EQ(solution->find("sites")->as_int(), direct.sites);
    EXPECT_EQ(solution->find("channels_per_site")->as_int(), direct.channels_per_site);
    EXPECT_EQ(solution->find("test_cycles")->as_int(), direct.test_cycles);
}

TEST(Service, CachesAcrossRequests)
{
    RequestService service;
    const std::vector<std::string> out = service.execute({
        R"({"id":1,"soc":"d695","channels":256,"depth":"48K"})",
        R"({"id":2,"soc":"d695","channels":256,"depth":"48K"})", // memo hit
        R"({"id":3,"soc":"d695","channels":512,"depth":"7M"})",  // tables hit
        R"({"id":4,"op":"stats"})",
    });
    ASSERT_EQ(out.size(), 4U);
    EXPECT_EQ(out[0].substr(out[0].find("\"solution\"")),
              out[1].substr(out[1].find("\"solution\"")));
    const JsonValue stats = response(out[3]);
    EXPECT_EQ(stat(stats, "solution_memo", "misses"), 2.0);
    EXPECT_EQ(stat(stats, "solution_memo", "hits"), 1.0);
    EXPECT_EQ(stat(stats, "tables_cache", "misses"), 1.0);
    EXPECT_EQ(stat(stats, "tables_cache", "hits"), 1.0);
    EXPECT_EQ(stat(stats, "requests", "received"), 3.0);
    EXPECT_EQ(stat(stats, "requests", "ok"), 3.0);
}

TEST(Service, NamePathAndInlineTextShareOneFingerprint)
{
    // The cache keys on content, not on how the SOC was named.
    const std::string text = soc_to_string(make_benchmark_soc("d695"));
    RequestService service;
    const std::vector<std::string> out = service.execute({
        R"({"id":1,"soc":"d695","channels":256,"depth":"48K"})",
        inline_request("2", text, R"("channels":256,"depth":"48K")"),
        R"({"op":"stats"})",
    });
    const JsonValue first = response(out[0]);
    const JsonValue second = response(out[1]);
    ASSERT_TRUE(first.find("ok")->as_bool());
    ASSERT_TRUE(second.find("ok")->as_bool());
    EXPECT_EQ(first.find("fingerprint")->as_string(), second.find("fingerprint")->as_string());
    // Identical content + cell -> the inline request is a pure memo hit.
    const JsonValue stats = response(out[2]);
    EXPECT_EQ(stat(stats, "solution_memo", "hits"), 1.0);
    EXPECT_EQ(stat(stats, "tables_cache", "misses"), 1.0);
}

TEST(Service, TablesCacheEvicts)
{
    ServiceConfig config;
    config.threads = 1; // eviction order is only deterministic serially
    config.tables_cache_capacity = 1;
    RequestService service(config);
    const std::vector<std::string> out = service.execute({
        R"({"soc":"d695","channels":256,"depth":"48K"})",
        R"({"soc":"p22810","channels":256,"depth":"48K"})", // evicts d695
        R"({"soc":"d695","channels":512,"depth":"7M"})",    // rebuild
        R"({"op":"stats"})",
    });
    const JsonValue stats = response(out[3]);
    EXPECT_EQ(stat(stats, "tables_cache", "misses"), 3.0);
    EXPECT_EQ(stat(stats, "tables_cache", "evictions"), 2.0);
    EXPECT_EQ(stat(stats, "tables_cache", "size"), 1.0);
    EXPECT_EQ(stat(stats, "tables_cache", "capacity"), 1.0);
}

TEST(Service, IsolatesEveryRequestError)
{
    RequestService service;
    const std::vector<std::string> out = service.execute({
        "{ not json",
        R"({"id":"dup","soc":"d695","soc":"d695"})",
        R"({"id":"typo","soc":"d695","chanels":256})",
        R"({"id":"both","soc":"d695","soc_text":"soc x\nend\n"})",
        R"({"id":"none"})",
        R"({"id":"badsoc","soc_text":"soc x\nmodule m inputs 1 outputs 1 patterns 1\n"})",
        R"({"id":"nofile","soc":"/nonexistent/x.soc"})",
        R"({"id":"inf","soc":"d695","channels":2,"depth":"1K"})",
        R"({"id":"badcell","soc":"d695","channels":-4})",
        R"({"id":"good","soc":"d695","channels":256,"depth":"48K"})",
    });
    ASSERT_EQ(out.size(), 10U);
    const auto kind_of = [&](std::size_t i) {
        const JsonValue reply = response(out[i]);
        EXPECT_FALSE(reply.find("ok")->as_bool()) << out[i];
        EXPECT_EQ(reply.find("v")->as_int(), 1) << out[i];
        return reply.find("error")->find("kind")->as_string();
    };
    EXPECT_EQ(kind_of(0), "parse");       // malformed request JSON
    EXPECT_EQ(kind_of(1), "parse");       // duplicate JSON key
    EXPECT_EQ(kind_of(2), "validation");  // unknown field
    EXPECT_NE(response(out[2]).find("error")->find("detail")->as_string().find("channels"),
              std::string::npos);          // ... with a suggestion
    EXPECT_EQ(kind_of(3), "validation");  // soc and soc_text together
    EXPECT_EQ(kind_of(4), "validation");  // neither
    EXPECT_EQ(kind_of(5), "parse");       // truncated inline .soc (no 'end')
    EXPECT_EQ(kind_of(6), "parse");       // unreadable path
    EXPECT_EQ(kind_of(7), "infeasible");  // SOC does not fit that cell
    EXPECT_EQ(kind_of(8), "validation");  // invalid cell
    // ... and the good request after all that still succeeds.
    EXPECT_TRUE(response(out[9]).find("ok")->as_bool()) << out[9];
}

TEST(Service, ResponsesAreByteIdenticalAtAnyThreadCount)
{
    std::vector<std::string> lines;
    for (int i = 0; i < 3; ++i) {
        lines.push_back(R"({"id":"a","soc":"d695","channels":256,"depth":"48K"})");
        lines.push_back(R"({"id":"b","soc":"p22810","channels":512,"depth":"7M"})");
        lines.push_back(R"({"id":"c","soc":"d695","channels":512,"depth":"7M","retest":true,"pc":0.99})");
        lines.push_back(R"({"id":"bad","soc":"d695","channels":"x"})");
    }
    lines.push_back(R"({"op":"stats"})");

    ServiceConfig serial;
    serial.threads = 1;
    ServiceConfig wide;
    wide.threads = 8;
    const std::vector<std::string> one = RequestService(serial).execute(lines);
    const std::vector<std::string> eight = RequestService(wide).execute(lines);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i], eight[i]) << "response " << i;
    }
}

TEST(Service, StatsRequestsAreBarriers)
{
    RequestService service;
    const std::vector<std::string> out = service.execute({
        R"({"soc":"d695","channels":256,"depth":"48K"})",
        R"({"op":"stats"})",
        R"({"soc":"d695","channels":256,"depth":"48K"})",
        R"({"op":"stats"})",
    });
    // First stats sees exactly the one preceding request; the second
    // also counts the first stats request itself.
    EXPECT_EQ(stat(response(out[1]), "requests", "received"), 1.0);
    EXPECT_EQ(stat(response(out[3]), "requests", "received"), 3.0);
    EXPECT_EQ(stat(response(out[3]), "solution_memo", "hits"), 1.0);
}

TEST(Service, ServeLoopAnswersLineByLine)
{
    std::istringstream in(
        "\n"
        R"({"id":"r1","soc":"d695","channels":256,"depth":"48K"})" "\n"
        "   \n"
        "garbage\n"
        R"({"id":"s","op":"stats"})" "\n");
    std::ostringstream out;
    RequestService service;
    service.serve(in, out);

    std::istringstream replies(out.str());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(replies, line)) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3U); // blank lines produce no responses
    EXPECT_TRUE(response(lines[0]).find("ok")->as_bool());
    EXPECT_EQ(response(lines[1]).find("error")->find("kind")->as_string(), "parse");
    EXPECT_EQ(stat(response(lines[2]), "requests", "received"), 2.0);
}

TEST(Service, ProtocolVersionIsEchoedAndEnforced)
{
    RequestService service;
    const std::vector<std::string> out = service.execute({
        R"({"id":1,"v":1,"op":"stats"})",
        R"({"id":2,"v":2,"op":"stats"})",
        R"({"id":3,"op":"optimise","soc":"d695"})",
    });
    EXPECT_TRUE(response(out[0]).find("ok")->as_bool());
    EXPECT_EQ(response(out[0]).find("v")->as_int(), 1);
    const JsonValue bad = response(out[1]);
    EXPECT_EQ(bad.find("v")->as_int(), 1); // rejection still speaks v1
    EXPECT_EQ(bad.find("error")->find("kind")->as_string(), "version");
    EXPECT_EQ(bad.find("error")->find("detail")->as_string(), "supported versions: 1");
    const JsonValue typo = response(out[2]);
    EXPECT_EQ(typo.find("error")->find("kind")->as_string(), "validation");
    // Unknown ops come back with a nearest-match suggestion.
    EXPECT_NE(typo.find("error")->find("detail")->as_string().find("optimize"),
              std::string::npos);
}

TEST(Service, IdAndVersionTokensEchoByteForByte)
{
    RequestService service;
    const std::vector<std::string> out = service.execute({
        R"({"id":"a\u0041\"b","op":"stats"})",
        R"({"id":1.50,"op":"stats"})",
        R"({"id":"x","v":"1","op":"stats"})",
    });
    EXPECT_EQ(out[0].rfind(R"({"id":"a\u0041\"b","v":1,"ok":true,)", 0), 0U) << out[0];
    EXPECT_EQ(out[1].rfind(R"({"id":1.50,"v":1,"ok":true,)", 0), 0U) << out[1];
    const JsonValue version = response(out[2]);
    EXPECT_EQ(version.find("error")->find("kind")->as_string(), "version");
    EXPECT_EQ(version.find("error")->find("message")->as_string(),
              R"(unsupported protocol version "1")");
}

TEST(Service, HelloIsAConnectionLevelRequest)
{
    // Over stdio there is no connection to negotiate; the op is typed
    // but rejected, pointing the client at the network server.
    RequestService service;
    const std::string out = service.execute_one(R"({"id":"h","op":"hello","stream":false})");
    const JsonValue reply = response(out);
    EXPECT_FALSE(reply.find("ok")->as_bool());
    EXPECT_EQ(reply.find("error")->find("kind")->as_string(), "validation");
}

TEST(Service, CanonicalJsonCoversEveryBinding)
{
    // The canonical renditions are the solution-memo key: every binding
    // must appear, in fixed order, with round-trippable numbers.
    EXPECT_EQ(protocol::options_to_json(OptimizeOptions{}),
              R"({"broadcast":false,"abort_on_fail":false,"retest":false,)"
              R"("step1_only":false,"exact":false,"exact_budget_ms":0,"pc":1,"pm":1})");
    EXPECT_EQ(protocol::cell_to_json(TestCell{}),
              R"({"channels":512,"depth":7340032,"clock":5000000,"index":0.5,)"
              R"("contact":0.001})");
    // And the CLI flag surface is generated from the same tables.
    EXPECT_EQ(protocol::option_flag_specs().size(), protocol::option_bindings().size());
    EXPECT_EQ(protocol::cell_flag_specs().size(), protocol::cell_bindings().size());
}

TEST(Service, SocFingerprintIsContentBased)
{
    const Soc a = make_benchmark_soc("d695");
    const Soc b = make_benchmark_soc("d695");
    const Soc c = make_benchmark_soc("p22810");
    EXPECT_EQ(soc_fingerprint(a), soc_fingerprint(b));
    EXPECT_NE(soc_fingerprint(a), soc_fingerprint(c));
    EXPECT_EQ(fingerprint_hex(soc_fingerprint(a)).size(), 16U);
    // Fingerprints reach clients in every response and key the shm tier:
    // the canonical writer may get faster, but these values may not move.
    EXPECT_EQ(fingerprint_hex(soc_fingerprint(a)), "61d945ae11a041ae");
    EXPECT_EQ(fingerprint_hex(soc_fingerprint(random_soc(1, 50))), "9082e456e3f9d806");
    EXPECT_EQ(fingerprint_hex(soc_fingerprint(random_soc(1, 500))), "0ee64ed006b86068");
    EXPECT_EQ(fingerprint_hex(soc_fingerprint(random_soc(1, 2000))), "31266a8dda397279");
}

/// The iostream rendition soc_to_string used to be, kept as the oracle
/// for the canonical text (and so for every fingerprint).
std::string stream_writer_oracle(const Soc& soc)
{
    std::ostringstream out;
    out << "# " << soc.name() << ": " << soc.module_count() << " modules\n";
    out << "soc " << soc.name() << '\n';
    for (const Module& m : soc.modules()) {
        out << "module " << m.name() << " inputs " << m.inputs() << " outputs " << m.outputs()
            << " bidirs " << m.bidirs() << " patterns " << m.patterns();
        if (m.scan_chain_count() > 0) {
            out << " scan";
            for (const FlipFlopCount length : m.scan_chain_lengths()) {
                out << ' ' << length;
            }
        }
        out << '\n';
    }
    out << "end\n";
    return out.str();
}

TEST(Service, CanonicalWriterMatchesStreamWriter)
{
    std::vector<Soc> socs;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        socs.push_back(random_soc(seed, static_cast<int>(seed) * 37));
    }
    for (const std::string& name : benchmark_soc_names()) {
        socs.push_back(make_benchmark_soc(name)); // modules without scan chains
    }
    for (const Soc& soc : socs) {
        const std::string expected = stream_writer_oracle(soc);
        EXPECT_EQ(soc_to_string(soc), expected) << soc.name();
        std::ostringstream streamed;
        write_soc(streamed, soc);
        EXPECT_EQ(streamed.str(), expected) << soc.name();
    }
}

// --- inline SOC resolution cache ---

const std::string kResolveCell = R"("channels":256,"depth":"1M")";

TEST(ServiceResolution, InlineTextAcrossCellsResolvesOnce)
{
    // One text, eight cells: serially, and all at once on eight threads
    // (single-flight: the other requests join the one parse).
    const std::string text = soc_to_string(random_soc(3, 8));
    std::vector<std::string> lines;
    for (int channels = 64; channels <= 512; channels += 64) {
        lines.push_back(inline_request(std::to_string(channels), text,
                                       R"("channels":)" + std::to_string(channels) +
                                           R"(,"depth":"1M")"));
    }
    std::vector<std::string> serial;
    for (const int threads : {1, 8}) {
        ServiceConfig config;
        config.threads = threads;
        RequestService service(config);
        const std::vector<std::string> out = service.execute(lines);
        for (const std::string& line : out) {
            EXPECT_TRUE(response(line).find("ok")->as_bool()) << line;
        }
        if (threads == 1) {
            serial = out;
        }
        EXPECT_EQ(out, serial);
        const CacheStats socs = service.soc_cache_stats();
        EXPECT_EQ(socs.misses, 1U) << threads << " threads";
        EXPECT_EQ(socs.hits, 7U) << threads << " threads";
        EXPECT_EQ(socs.size, 1U);
        EXPECT_EQ(service.tables_cache_stats().misses, 1U);
    }
}

TEST(ServiceResolution, PathSpecIsReadAgainOnEveryRequest)
{
    const std::string path = testing::TempDir() + "/mst_service_resolution_" +
                             std::to_string(::getpid()) + ".soc";
    const std::string request =
        R"({"id":"p","soc":")" + json_escape(path) + R"(",)" + kResolveCell + "}";
    const Soc first = random_soc(5, 6);
    const Soc second = random_soc(6, 6);
    RequestService service;
    save_soc_file(path, first);
    const JsonValue before = response(service.execute_one(request));
    save_soc_file(path, second); // same path, new content
    const JsonValue after = response(service.execute_one(request));
    std::remove(path.c_str());

    ASSERT_TRUE(before.find("ok")->as_bool());
    ASSERT_TRUE(after.find("ok")->as_bool());
    EXPECT_EQ(before.find("fingerprint")->as_string(), fingerprint_hex(soc_fingerprint(first)));
    EXPECT_EQ(after.find("fingerprint")->as_string(), fingerprint_hex(soc_fingerprint(second)));
    const CacheStats socs = service.soc_cache_stats();
    EXPECT_EQ(socs.hits + socs.misses, 0U); // paths never enter the cache
}

TEST(ServiceResolution, MalformedTextFailsIdenticallyFromTheCache)
{
    const std::string request = inline_request(
        "bad", "soc broken\nmodule m inputs x outputs 1 patterns 1\nend\n", kResolveCell);
    RequestService service;
    const std::string first = service.execute_one(request);
    const std::string second = service.execute_one(request);
    EXPECT_EQ(first, second);
    EXPECT_EQ(response(first).find("error")->find("kind")->as_string(), "parse") << first;
    const CacheStats socs = service.soc_cache_stats();
    EXPECT_EQ(socs.misses, 1U);
    EXPECT_EQ(socs.hits, 1U); // the parse failure is cached and rethrown
}

TEST(ServiceResolution, TransientFailureIsNotCached)
{
    // A failure that is not a property of the bytes (here an injected
    // fault on the first resolution) answers one internal error; the
    // same text sent again resolves afresh and succeeds.
    const std::string request =
        inline_request("t", soc_to_string(random_soc(8, 6)), kResolveCell);
    fault::install_plan(fault::parse_plan("cache.soc_resolve:fail@1"));
    RequestService service;
    const std::string faulted = service.execute_one(request);
    const std::string healed = service.execute_one(request);
    fault::clear_plan();

    const JsonValue failed = response(faulted);
    EXPECT_FALSE(failed.find("ok")->as_bool()) << faulted;
    EXPECT_EQ(failed.find("error")->find("kind")->as_string(), "internal") << faulted;
    EXPECT_NE(faulted.find("injected fault"), std::string::npos) << faulted;
    EXPECT_EQ(healed, RequestService().execute_one(request));
    const CacheStats socs = service.soc_cache_stats();
    EXPECT_EQ(socs.misses, 2U);
    EXPECT_EQ(socs.hits, 0U);
    EXPECT_EQ(socs.size, 1U);
    EXPECT_EQ(socs.evictions, 0U);
}

TEST(ServiceResolution, ContentEqualTextsShareFingerprintAndMemoEntry)
{
    const std::string text = soc_to_string(random_soc(7, 6));
    std::string commented = "# same content, other bytes\n\n" + text;
    commented.insert(commented.find("\nmodule") + 1, "\n# a note\n\n");
    ASSERT_NE(commented, text);
    RequestService service;
    const std::vector<std::string> out = service.execute({
        inline_request("a", text, kResolveCell),
        inline_request("b", commented, kResolveCell),
        R"({"op":"stats"})",
    });
    const JsonValue a = response(out[0]);
    const JsonValue b = response(out[1]);
    ASSERT_TRUE(a.find("ok")->as_bool()) << out[0];
    ASSERT_TRUE(b.find("ok")->as_bool()) << out[1];
    EXPECT_EQ(a.find("fingerprint")->as_string(), b.find("fingerprint")->as_string());
    const JsonValue stats = response(out[2]);
    EXPECT_EQ(stat(stats, "solution_memo", "size"), 1.0);
    EXPECT_EQ(stat(stats, "solution_memo", "hits"), 1.0);
    EXPECT_EQ(service.soc_cache_stats().misses, 2U); // keyed by bytes
}

TEST(ServiceResolution, EvictionsKeepResponsesCorrect)
{
    ServiceConfig config;
    config.threads = 1;
    config.tables_cache_capacity = 2;
    RequestService service(config);
    for (int channels : {128, 256, 512}) {
        for (std::uint64_t seed = 10; seed < 15; ++seed) {
            const std::string request = inline_request(
                std::to_string(seed), soc_to_string(random_soc(seed, 6)),
                R"("channels":)" + std::to_string(channels) + R"(,"depth":"1M")");
            EXPECT_EQ(service.execute_one(request), RequestService().execute_one(request))
                << request;
        }
    }
    const CacheStats socs = service.soc_cache_stats();
    EXPECT_EQ(socs.size, 2U);
    EXPECT_EQ(socs.misses, 15U); // five texts cycled through two slots
    EXPECT_EQ(socs.evictions, 13U);
}

// --- JSON reader corner cases (service/json.hpp) ---

TEST(ServiceJson, ParsesScalarsAndStructures)
{
    const JsonValue value = JsonValue::parse(
        R"({"s":"a\nbé","n":-1.5e3,"t":true,"f":false,"z":null,"a":[1,2],"o":{"k":7}})");
    EXPECT_EQ(value.find("s")->as_string(), "a\nb\xc3\xa9");
    EXPECT_DOUBLE_EQ(value.find("n")->as_number(), -1500.0);
    EXPECT_TRUE(value.find("t")->as_bool());
    EXPECT_FALSE(value.find("f")->as_bool());
    EXPECT_TRUE(value.find("z")->is_null());
    ASSERT_EQ(value.find("a")->as_array().size(), 2U);
    EXPECT_EQ(value.find("o")->find("k")->as_int(), 7);
}

TEST(ServiceJson, RejectsMalformedDocuments)
{
    EXPECT_THROW((void)JsonValue::parse(""), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse("{} trailing"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse(R"({"a":1,"a":2})"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse(R"({"a":01})"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse(R"({"a":+1})"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":\"unterminated}"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse(R"({"a":"\q"})"), JsonParseError);
    EXPECT_THROW((void)JsonValue::parse("[1,]"), JsonParseError);
    try {
        (void)JsonValue::parse("{\"a\":nope}");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError& error) {
        EXPECT_EQ(error.offset(), 5U);
    }
}

TEST(ServiceJson, NestingIsCappedWithAParseError)
{
    const std::size_t cap = JsonValue::max_depth;
    const JsonValue deepest =
        JsonValue::parse(std::string(cap, '[') + std::string(cap, ']'));
    EXPECT_TRUE(deepest.is_array());
    for (const std::string& text :
         {std::string(cap + 1, '[') + std::string(cap + 1, ']'),
          std::string(cap, '[') + "{\"a\":1}" + std::string(cap, ']')}) {
        try {
            (void)JsonValue::parse(text);
            FAIL() << "expected JsonParseError";
        } catch (const JsonParseError& error) {
            EXPECT_EQ(error.offset(), cap); // the bracket that crossed the cap
            EXPECT_NE(std::string(error.what()).find("nesting deeper than 64 levels"),
                      std::string::npos)
                << error.what();
        }
    }
    // A line of '[' far too deep for the call stack: one parse error
    // response, not a crash.
    const protocol::Request request = protocol::parse_request(std::string(400000, '['));
    EXPECT_EQ(request.error.kind, protocol::ErrorKind::parse);
    EXPECT_EQ(request.error.message,
              "malformed JSON at offset 64: nesting deeper than 64 levels");
}

/// What a JSON string literal at the start of `text` decodes to, or the
/// parse error it raises, computed one byte at a time.
struct ReferenceString {
    std::string value;
    std::size_t end = 0; ///< offset just past the closing quote
    bool failed = false;
    std::size_t error_offset = 0;
    std::string error_message;
};

ReferenceString reference_string(const std::string& text)
{
    ReferenceString out;
    const auto fail = [&out](std::size_t offset, const std::string& message) {
        out.failed = true;
        out.error_offset = offset;
        out.error_message = message;
        return out;
    };
    const auto hex4 = [&text](std::size_t at) {
        return std::stoul(text.substr(at, 4), nullptr, 16);
    };
    std::size_t pos = 1; // past the opening quote
    for (;;) {
        if (pos >= text.size()) {
            return fail(pos, "unterminated string");
        }
        const auto byte = static_cast<unsigned char>(text[pos]);
        if (byte == '"') {
            out.end = pos + 1;
            return out;
        }
        if (byte < 0x20) {
            return fail(pos, "unescaped control character in string");
        }
        if (byte != '\\') {
            out.value.push_back(text[pos++]);
            continue;
        }
        const char escape = text[pos + 1];
        if (escape == 'n') {
            out.value.push_back('\n');
            pos += 2;
        } else if (escape == 'u' && text.compare(pos + 2, 2, "d8") == 0) {
            // The only surrogate pair the sweep below writes: U+1F600.
            const unsigned long code_point =
                0x10000 + ((hex4(pos + 2) - 0xD800) << 10) + (hex4(pos + 8) - 0xDC00);
            EXPECT_EQ(code_point, 0x1F600UL);
            out.value += "\xF0\x9F\x98\x80";
            pos += 12;
        } else if (escape == 'u') {
            out.value.push_back(static_cast<char>(hex4(pos + 2)));
            pos += 6;
        } else {
            return fail(pos + 1, std::string("invalid escape '\\") + escape + "'");
        }
    }
}

TEST(ServiceJson, StringScanMatchesAPerByteReferenceAcrossBlocks)
{
    // Plain filler that includes DEL and bytes >= 0x80 (which the
    // vectorized scan must treat as plain), cycled to any length.
    const std::string filler = "ab\x7F\xC3\xA9z\xFF" "0123456789";
    const std::vector<std::string> specials = {
        "\"", "\\n", "\\u0041", "\\ud83d\\ude00", std::string(1, '\x01'), "\\q",
    };
    std::size_t checked = 0;
    for (std::size_t length = 0; length <= 48; ++length) {
        std::string plain;
        for (std::size_t i = 0; i < length; ++i) {
            plain.push_back(filler[i % filler.size()]);
        }
        std::vector<std::string> documents = {"\"" + plain + "\"", "\"" + plain};
        for (std::size_t at = 0; at <= length; ++at) {
            for (const std::string& special : specials) {
                documents.push_back("\"" + plain.substr(0, at) + special + plain.substr(at) +
                                    "\"");
            }
        }
        for (const std::string& document : documents) {
            ReferenceString expected = reference_string(document);
            if (!expected.failed && expected.end != document.size()) {
                expected.failed = true;
                expected.error_offset = expected.end;
                expected.error_message = "trailing content after JSON value";
            }
            try {
                const JsonValue value = JsonValue::parse(document);
                EXPECT_FALSE(expected.failed) << document;
                EXPECT_EQ(value.as_string(), expected.value) << document;
            } catch (const JsonParseError& error) {
                ASSERT_TRUE(expected.failed) << document << ": " << error.what();
                EXPECT_EQ(error.offset(), expected.error_offset) << document;
                EXPECT_EQ(std::string(error.what()),
                          "malformed JSON at offset " + std::to_string(expected.error_offset) +
                              ": " + expected.error_message)
                    << document;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, 49U * 2U + 6U * (49U * 50U / 2U));
}

TEST(ServiceJson, IntegerAccessorRejectsFractions)
{
    EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
    EXPECT_THROW((void)JsonValue::parse("1.5").as_int(), ValidationError);
    EXPECT_THROW((void)JsonValue::parse("1e30").as_int(), ValidationError);
    EXPECT_THROW((void)JsonValue::parse("\"7\"").as_int(), ValidationError);
}

TEST(Service, InjectedTablesBuildFaultIsTransientNotMemoized)
{
    fault::install_plan(fault::parse_plan("cache.tables_build:fail@1"));
    RequestService service;
    const std::string request =
        R"({"id":"t1","soc":"d695","channels":256,"depth":"48K"})";

    // The injected failure surfaces as one typed internal error...
    const std::string faulted = service.execute_one(request);
    const JsonValue failed = response(faulted);
    EXPECT_FALSE(failed.find("ok")->as_bool()) << faulted;
    EXPECT_EQ(failed.find("error")->find("kind")->as_string(), "internal");
    EXPECT_NE(failed.find("error")->find("message")->as_string().find("injected fault"),
              std::string::npos)
        << faulted;

    // ...and must NOT poison the solution memo: the identical request
    // (same memo key) succeeds once the transient fault has passed.
    fault::clear_plan();
    const std::string healed = service.execute_one(request);
    EXPECT_TRUE(response(healed).find("ok")->as_bool()) << healed;
}

} // namespace
} // namespace mst
