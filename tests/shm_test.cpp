// Tests for the crash-safe shared-memory cache tier (src/shm/): segment
// round-trips, the two-phase publish protocol under injected writer
// death, torn-tail recovery, checksum fallback, degraded-store behavior,
// blob codecs, and the byte-identity contract of services sharing one
// segment.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "shm/segment.hpp"
#include "shm/store.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

using shm::Segment;
using shm::ShmStore;

/// Clears any installed fault plan on scope exit so one test's chaos
/// never leaks into the next.
struct FaultPlanGuard {
    FaultPlanGuard() { fault::clear_plan(); }
    ~FaultPlanGuard() { fault::clear_plan(); }
};

/// Per-test unique segment name (tests may run concurrently under
/// ctest -j; the pid + counter keeps their segments disjoint).
std::string unique_name(const char* suffix)
{
    static int counter = 0;
    return "/mst-test-" + std::to_string(::getpid()) + "-" + std::to_string(++counter) +
           "-" + suffix;
}

/// Unlinks the segment name on scope exit even when the test fails.
struct SegmentUnlinker {
    explicit SegmentUnlinker(std::shared_ptr<Segment> segment)
        : segment_(std::move(segment))
    {
    }
    ~SegmentUnlinker() { segment_->unlink(); }
    std::shared_ptr<Segment> segment_;
};

TEST(ShmSegment, PublishLookupRoundTripAndCounters)
{
    const std::string name = unique_name("roundtrip");
    auto segment = Segment::create_or_attach(name, 1 << 20);
    const SegmentUnlinker cleanup(segment);
    EXPECT_TRUE(segment->created());

    const std::string blob_a = "tables-payload-alpha";
    const std::string blob_b = "outcome-payload-beta";
    EXPECT_EQ(segment->publish(11, Segment::Kind::tables, blob_a.data(), blob_a.size()),
              Segment::PublishResult::published);
    EXPECT_EQ(segment->publish(22, Segment::Kind::outcome, blob_b.data(), blob_b.size()),
              Segment::PublishResult::published);

    EXPECT_EQ(segment->lookup(11, Segment::Kind::tables).value_or(""), blob_a);
    EXPECT_EQ(segment->lookup(22, Segment::Kind::outcome).value_or(""), blob_b);
    // The (key, kind) pair addresses an entry: same key, other kind misses.
    EXPECT_FALSE(segment->lookup(11, Segment::Kind::outcome).has_value());
    EXPECT_FALSE(segment->lookup(99, Segment::Kind::tables).has_value());

    const shm::SegmentCounters counters = segment->counters();
    EXPECT_EQ(counters.generation, 2U);
    EXPECT_EQ(counters.publishes, 2U);
    EXPECT_EQ(counters.recoveries, 0U);
    EXPECT_GT(counters.committed_bytes, blob_a.size() + blob_b.size());

    // A second mapping of the same name attaches and sees the entries.
    auto second = Segment::create_or_attach(name, 1 << 20);
    EXPECT_FALSE(second->created());
    EXPECT_EQ(second->lookup(11, Segment::Kind::tables).value_or(""), blob_a);
    EXPECT_EQ(second->counters().generation, 2U);
}

TEST(ShmSegment, RejectsBadNamesAndSizes)
{
    EXPECT_THROW((void)Segment::create_or_attach("no-slash", 1 << 20), ValidationError);
    EXPECT_THROW((void)Segment::create_or_attach("/mst-test-too-small", 1024),
                 ValidationError);
    EXPECT_THROW((void)Segment::attach(unique_name("absent")), Error);
}

TEST(ShmSegment, FullArenaKeepsEntriesLocalOnly)
{
    // Smallest legal segment: the arena holds 4 KiB, so an 8 KiB entry
    // can never fit; the caller keeps its local copy and moves on.
    auto segment = Segment::create_or_attach(unique_name("full"), 16384 + 4096);
    const SegmentUnlinker cleanup(segment);
    const std::string big(8192, 'x');
    EXPECT_EQ(segment->publish(7, Segment::Kind::tables, big.data(), big.size()),
              Segment::PublishResult::full);
    EXPECT_EQ(segment->counters().generation, 0U);

    const std::string small(512, 'y');
    EXPECT_EQ(segment->publish(8, Segment::Kind::tables, small.data(), small.size()),
              Segment::PublishResult::published);
}

TEST(ShmSegment, WriterCrashBetweenPhasesIsRecoveredAndReplayable)
{
    const FaultPlanGuard guard;
    const std::string name = unique_name("crash");
    auto segment = Segment::create_or_attach(name, 1 << 20);
    const SegmentUnlinker cleanup(segment);

    const std::string before = "committed-before-the-crash";
    ASSERT_EQ(segment->publish(1, Segment::Kind::tables, before.data(), before.size()),
              Segment::PublishResult::published);

    // The child dies exactly between the write and the commit: bytes are
    // in the arena, reserved_bytes has moved, nothing is committed, and
    // the dead pid sits in the writer lock.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        fault::install_plan(fault::parse_plan("shm.publish:crash"));
        const std::string torn = "torn-by-worker-death";
        (void)segment->publish(2, Segment::Kind::tables, torn.data(), torn.size());
        ::_exit(99); // unreachable: the crash action exits with 70
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 70);

    // Readers only ever see the committed prefix: the torn entry is
    // unobservable even before recovery runs.
    EXPECT_FALSE(segment->lookup(2, Segment::Kind::tables).has_value());
    EXPECT_EQ(segment->lookup(1, Segment::Kind::tables).value_or(""), before);

    // A fresh attach detects the dead writer and truncates the tail.
    auto attached = Segment::attach(name);
    const shm::SegmentCounters counters = attached->counters();
    EXPECT_EQ(counters.recoveries, 1U);
    EXPECT_GT(counters.truncated_bytes, 0U);

    // The arena is writable again; the replayed publish commits cleanly.
    const std::string retry = "republished-after-recovery";
    EXPECT_EQ(segment->publish(2, Segment::Kind::tables, retry.data(), retry.size()),
              Segment::PublishResult::published);
    EXPECT_EQ(segment->lookup(2, Segment::Kind::tables).value_or(""), retry);
    EXPECT_EQ(segment->counters().recoveries, 1U); // no double recovery
}

TEST(ShmSegment, PublishTimeLockStealAlsoRecovers)
{
    const FaultPlanGuard guard;
    auto segment = Segment::create_or_attach(unique_name("steal"), 1 << 20);
    const SegmentUnlinker cleanup(segment);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        fault::install_plan(fault::parse_plan("shm.publish:crash"));
        const std::string torn = "torn";
        (void)segment->publish(5, Segment::Kind::outcome, torn.data(), torn.size());
        ::_exit(99);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(WEXITSTATUS(status), 70);

    // No explicit attach/recover call: the next publish steals the lock
    // from the dead holder, repairs the tail, then commits its entry.
    const std::string fresh = "published-after-steal";
    EXPECT_EQ(segment->publish(6, Segment::Kind::outcome, fresh.data(), fresh.size()),
              Segment::PublishResult::published);
    EXPECT_EQ(segment->counters().recoveries, 1U);
    EXPECT_EQ(segment->lookup(6, Segment::Kind::outcome).value_or(""), fresh);
    EXPECT_FALSE(segment->lookup(5, Segment::Kind::outcome).has_value());
}

TEST(ShmSegment, InterruptedRecoveryIsRetriedByTheNextAttempt)
{
    const FaultPlanGuard guard;
    auto segment = Segment::create_or_attach(unique_name("rerecovery"), 1 << 20);
    const SegmentUnlinker cleanup(segment);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        fault::install_plan(fault::parse_plan("shm.publish:crash"));
        const std::string torn = "torn";
        (void)segment->publish(5, Segment::Kind::tables, torn.data(), torn.size());
        ::_exit(99);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(WEXITSTATUS(status), 70);

    // Recovery itself dies (both the steal-path and the explicit pass
    // hit the fault): the torn state survives, readers are unaffected.
    fault::install_plan(
        fault::parse_plan("shm.truncate_recover:fail@1,shm.truncate_recover:fail@2"));
    EXPECT_FALSE(segment->recover_if_torn());
    EXPECT_EQ(segment->counters().recoveries, 0U);

    // The next (un-faulted) attempt finishes the repair.
    fault::clear_plan();
    EXPECT_TRUE(segment->recover_if_torn());
    EXPECT_EQ(segment->counters().recoveries, 1U);
    EXPECT_GT(segment->counters().truncated_bytes, 0U);
}

TEST(ShmSegment, AttachRefusesAnotherLayoutVersion)
{
    const std::string name = unique_name("version");
    constexpr std::size_t bytes = 1 << 20;
    auto segment = Segment::create_or_attach(name, bytes);
    const SegmentUnlinker cleanup(segment);

    // Rewrite the live superblock's layout version (the u32 right after
    // the 8-byte magic) to 1 through a second, raw mapping.
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(base, MAP_FAILED);
    const std::uint32_t old_version = 1;
    std::memcpy(static_cast<char*>(base) + 8, &old_version, sizeof old_version);
    ::munmap(base, bytes);

    try {
        (void)Segment::attach(name);
        ADD_FAILURE() << "attach accepted layout version 1";
    } catch (const Error& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("layout version 1"), std::string::npos) << message;
        EXPECT_NE(message.find("speaks 2"), std::string::npos) << message;
    }
    const std::shared_ptr<ShmStore> store = ShmStore::open(name, bytes);
    EXPECT_FALSE(store->attached());
    EXPECT_EQ(store->counters().fallbacks, 1U);
}

TEST(ShmSegment, ChecksumFailureIsATypedMissNotACrash)
{
    const FaultPlanGuard guard;
    auto segment = Segment::create_or_attach(unique_name("checksum"), 1 << 20);
    const SegmentUnlinker cleanup(segment);
    const std::string blob = "validated-payload";
    ASSERT_EQ(segment->publish(3, Segment::Kind::tables, blob.data(), blob.size()),
              Segment::PublishResult::published);

    fault::install_plan(fault::parse_plan("shm.checksum:fail"));
    bool checksum_failed = false;
    EXPECT_FALSE(segment->lookup(3, Segment::Kind::tables, &checksum_failed).has_value());
    EXPECT_TRUE(checksum_failed);

    // The rule fired once; the entry itself is intact.
    EXPECT_EQ(segment->lookup(3, Segment::Kind::tables, &checksum_failed).value_or(""),
              blob);
    EXPECT_FALSE(checksum_failed);
}

TEST(ShmSegment, WorkerSlotAndPoolMetaLifecycle)
{
    auto segment = Segment::create_or_attach(unique_name("slots"), 1 << 20);
    const SegmentUnlinker cleanup(segment);

    segment->claim_slot(0, 1234);
    shm::WorkerSlotView view = segment->read_slot(0);
    EXPECT_EQ(view.pid, 1234U);
    EXPECT_EQ(view.state, shm::WorkerState::starting);
    EXPECT_EQ(view.heartbeat, 0U);

    segment->set_slot_state(0, shm::WorkerState::ready);
    shm::WorkerSlotView update;
    update.received = 7;
    update.ok = 6;
    update.failed = 1;
    segment->update_slot(0, update);
    segment->update_slot(0, update);
    view = segment->read_slot(0);
    EXPECT_EQ(view.state, shm::WorkerState::ready);
    EXPECT_EQ(view.heartbeat, 2U); // each update ticks the heartbeat
    EXPECT_EQ(view.received, 7U);
    EXPECT_EQ(view.ok, 6U);
    EXPECT_EQ(view.failed, 1U);

    segment->set_pool_meta({4, 0, 0});
    segment->add_pool_restart();
    segment->add_pool_quarantine();
    const shm::PoolMeta meta = segment->pool_meta();
    EXPECT_EQ(meta.workers, 4U);
    EXPECT_EQ(meta.restarts, 1U);
    EXPECT_EQ(meta.quarantined, 1U);

    segment->clear_slot(0);
    EXPECT_EQ(segment->read_slot(0).state, shm::WorkerState::empty);
    EXPECT_EQ(segment->read_slots().size(), 0U); // empty slots are skipped
}

TEST(ShmStore, MapFaultDegradesToLocalOnly)
{
    const FaultPlanGuard guard;
    fault::install_plan(fault::parse_plan("shm.map:fail"));
    const std::shared_ptr<ShmStore> store = ShmStore::open(unique_name("degraded"), 1 << 20);
    ASSERT_NE(store, nullptr);
    EXPECT_FALSE(store->attached());

    // Every operation on a degraded store is a safe no-op.
    const Soc soc = make_benchmark_soc("d695");
    EXPECT_EQ(store->load_tables(1, soc), nullptr);
    EXPECT_EQ(store->load_outcome("key"), nullptr);
    SolutionOutcome outcome;
    store->publish_outcome("key", outcome);

    const shm::StoreCounters counters = store->counters();
    EXPECT_TRUE(counters.enabled);
    EXPECT_FALSE(counters.attached);
    EXPECT_EQ(counters.hits, 0U);
    EXPECT_GT(counters.fallbacks, 0U);
}

TEST(ShmStore, TablesBlobRoundTripsByteIdentically)
{
    const auto soc = std::make_shared<const Soc>(make_benchmark_soc("d695"));
    const SocTimeTables built(*soc);
    const std::string blob = ShmStore::encode_tables(built);

    const std::unique_ptr<SocTimeTables> decoded = ShmStore::decode_tables(blob, *soc);
    ASSERT_NE(decoded, nullptr);
    // Codec identity: decode(encode(x)) re-encodes to the same bytes.
    EXPECT_EQ(ShmStore::encode_tables(*decoded), blob);

    EXPECT_THROW((void)ShmStore::decode_tables("garbage", *soc), ValidationError);
    EXPECT_THROW((void)ShmStore::decode_tables(std::string(), *soc), ValidationError);
}

TEST(ShmStore, TablesBlobRejectsAForeignSocAndATruncatedBlob)
{
    const Soc d695 = make_benchmark_soc("d695");
    const std::string blob = ShmStore::encode_tables(SocTimeTables(d695));
    EXPECT_THROW((void)ShmStore::decode_tables(blob, make_benchmark_soc("p22810")),
                 ValidationError);
    EXPECT_THROW((void)ShmStore::decode_tables(blob.substr(0, blob.size() - 4), d695),
                 ValidationError);
}

TEST(ShmStore, InvalidTablesBlobFallsBackToALocalBuild)
{
    auto segment = Segment::create_or_attach(unique_name("badtables"), 1 << 20);
    const SegmentUnlinker cleanup(segment);
    ShmStore store(segment);

    // A well-checksummed entry whose times do not fit the SOC's rows
    // (p22810's tables under d695's key): a counted miss, never a throw.
    const Soc d695 = make_benchmark_soc("d695");
    const std::string foreign =
        ShmStore::encode_tables(SocTimeTables(make_benchmark_soc("p22810")));
    ASSERT_EQ(segment->publish(42, Segment::Kind::tables, foreign.data(), foreign.size()),
              Segment::PublishResult::published);
    EXPECT_EQ(store.load_tables(42, d695), nullptr);

    const shm::StoreCounters counters = store.counters();
    EXPECT_EQ(counters.hits, 0U);
    EXPECT_EQ(counters.misses, 1U);
    EXPECT_EQ(counters.fallbacks, 1U);
    EXPECT_EQ(counters.checksum_failures, 0U);
}

TEST(ShmStore, OutcomeBlobRoundTripsAndGuardsAgainstCollisions)
{
    SolutionOutcome outcome;
    outcome.ok = true;
    outcome.solution_json = R"({"sites":4,"test_cycles":123})";
    outcome.fingerprint = "00baadf00dcafe99";
    const std::string blob = ShmStore::encode_outcome("memo-key-a", outcome);

    const std::shared_ptr<SolutionOutcome> decoded =
        ShmStore::decode_outcome(blob, "memo-key-a");
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->ok);
    EXPECT_EQ(decoded->solution_json, outcome.solution_json);
    EXPECT_EQ(decoded->fingerprint, outcome.fingerprint);

    // The full memo key is stored verbatim: a hash collision decodes as
    // a miss (nullptr), never as somebody else's answer.
    EXPECT_EQ(ShmStore::decode_outcome(blob, "memo-key-b"), nullptr);
    EXPECT_THROW((void)ShmStore::decode_outcome("garbage", "memo-key-a"), ValidationError);
}

TEST(ShmStore, ErrorOutcomesRoundTripThroughTheSegment)
{
    auto segment = Segment::create_or_attach(unique_name("erroutcome"), 1 << 20);
    const SegmentUnlinker cleanup(segment);
    auto store = std::make_shared<ShmStore>(segment);

    SolutionOutcome failure;
    failure.ok = false;
    failure.error.kind = protocol::ErrorKind::validation;
    failure.error.detail = "channels must be positive";
    store->publish_outcome("memo-err", failure);

    const std::shared_ptr<SolutionOutcome> restored = store->load_outcome("memo-err");
    ASSERT_NE(restored, nullptr);
    EXPECT_FALSE(restored->ok);
    EXPECT_EQ(restored->error.kind, protocol::ErrorKind::validation);
    EXPECT_EQ(restored->error.detail, failure.error.detail);
}

/// The cross-process contract, exercised in-process: two services over
/// two independent mappings of one segment answer byte-identically to a
/// local-only service, and the second service's store shows shared hits.
TEST(ShmService, ServicesSharingASegmentAreByteIdentical)
{
    const std::string name = unique_name("shared");
    auto segment = Segment::create_or_attach(name, 4 << 20);
    const SegmentUnlinker cleanup(segment);

    const std::vector<std::string> lines = {
        R"({"id":"a","soc":"d695","channels":256,"depth":"48K"})",
        R"({"id":"b","soc":"d695","channels":512,"depth":"7M"})",
        R"({"id":"c","soc":"d695","channels":256,"depth":"48K"})",
        R"({"id":"bad","soc":"d695","channels":-3})",
        R"({"op":"stats"})",
    };

    const std::vector<std::string> local = RequestService().execute(lines);

    ServiceConfig first_config;
    first_config.shm = std::make_shared<ShmStore>(segment);
    const std::vector<std::string> first = RequestService(first_config).execute(lines);

    ServiceConfig second_config;
    second_config.shm = ShmStore::open(name, 4 << 20); // second mapping attaches
    ASSERT_TRUE(second_config.shm->attached());
    const std::vector<std::string> second = RequestService(second_config).execute(lines);

    ASSERT_EQ(local.size(), first.size());
    ASSERT_EQ(local.size(), second.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(local[i], first[i]) << "shm-on response " << i;
        EXPECT_EQ(local[i], second[i]) << "shared-attach response " << i;
    }

    // The first service published its builds; the second restored them.
    EXPECT_GT(first_config.shm->counters().publishes, 0U);
    EXPECT_GT(second_config.shm->counters().hits, 0U);
}

TEST(ShmService, ReplayIsByteIdenticalAtAnyThreadCountWithShmOn)
{
    auto segment = Segment::create_or_attach(unique_name("threads"), 4 << 20);
    const SegmentUnlinker cleanup(segment);

    std::vector<std::string> lines;
    for (int i = 0; i < 3; ++i) {
        lines.push_back(R"({"id":"a","soc":"d695","channels":256,"depth":"48K"})");
        lines.push_back(R"({"id":"b","soc":"p22810","channels":512,"depth":"7M"})");
        lines.push_back(R"({"id":"bad","soc":"d695","channels":"x"})");
    }
    lines.push_back(R"({"op":"stats"})");

    ServiceConfig serial;
    serial.threads = 1;
    serial.shm = std::make_shared<ShmStore>(segment);
    ServiceConfig wide;
    wide.threads = 8;
    wide.shm = std::make_shared<ShmStore>(segment);
    const std::vector<std::string> local = RequestService().execute(lines);
    const std::vector<std::string> one = RequestService(serial).execute(lines);
    const std::vector<std::string> eight = RequestService(wide).execute(lines);
    ASSERT_EQ(one.size(), eight.size());
    ASSERT_EQ(one.size(), local.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i], eight[i]) << "response " << i;
        EXPECT_EQ(one[i], local[i]) << "response " << i;
    }
}

TEST(ShmService, HealthReportsDegradedStore)
{
    const FaultPlanGuard guard;

    // Healthy, shm-less service.
    RequestService plain;
    const std::string ok = plain.execute_one(R"({"id":"h","op":"health"})");
    const JsonValue healthy = JsonValue::parse(ok);
    EXPECT_TRUE(healthy.find("ok")->as_bool());
    EXPECT_EQ(healthy.find("health")->find("status")->as_string(), "ok");
    EXPECT_EQ(healthy.find("health")->find("shm")->as_string(), "off");
    EXPECT_GT(healthy.find("health")->find("executor_threads")->as_int(), 0);

    // A degraded store flips the health status without failing requests.
    fault::install_plan(fault::parse_plan("shm.map:fail"));
    ServiceConfig config;
    config.shm = ShmStore::open(unique_name("health"), 1 << 20);
    fault::clear_plan();
    RequestService degraded(config);
    const JsonValue bad =
        JsonValue::parse(degraded.execute_one(R"({"id":"h","op":"health"})"));
    EXPECT_TRUE(bad.find("ok")->as_bool()); // transport-level ok; status carries it
    EXPECT_EQ(bad.find("health")->find("status")->as_string(), "degraded");
    EXPECT_EQ(bad.find("health")->find("shm")->as_string(), "degraded");

    const std::string answer =
        degraded.execute_one(R"({"id":"r","soc":"d695","channels":256,"depth":"48K"})");
    EXPECT_TRUE(JsonValue::parse(answer).find("ok")->as_bool());
}

} // namespace
} // namespace mst
