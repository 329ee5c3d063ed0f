#include "shm/store.hpp"

#include <cstring>

#include "common/error.hpp"
#include "service/service.hpp"
#include "soc/soc.hpp"

namespace mst::shm {

namespace {

// Little-endian fixed-width scalar append/read. The segment is only
// ever shared between processes of one machine, but an explicit byte
// order keeps the blob format well-defined (and testable) anyway.
void put_u32(std::string& out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
}

void put_u64(std::string& out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
}

struct BlobReader {
    const std::string& blob;
    std::size_t pos = 0;

    void need(std::size_t bytes) const
    {
        if (pos + bytes > blob.size()) {
            throw ValidationError("shm blob truncated");
        }
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            value |= static_cast<std::uint32_t>(static_cast<unsigned char>(blob[pos + i]))
                     << (8 * i);
        }
        pos += 4;
        return value;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
            value |= static_cast<std::uint64_t>(static_cast<unsigned char>(blob[pos + i]))
                     << (8 * i);
        }
        pos += 8;
        return value;
    }

    std::string bytes(std::size_t count)
    {
        need(count);
        std::string value = blob.substr(pos, count);
        pos += count;
        return value;
    }
};

void put_string(std::string& out, const std::string& value)
{
    put_u32(out, static_cast<std::uint32_t>(value.size()));
    out += value;
}

std::string get_string(BlobReader& reader)
{
    const std::uint32_t size = reader.u32();
    return reader.bytes(size);
}

} // namespace

std::string ShmStore::encode_tables(const SocTimeTables& tables)
{
    // The module count, then every module's effective times back to back:
    // the complete serialized state. Row extents follow from the SOC, and
    // every other field is derived on restore (see SocTimeTables' restore
    // constructor).
    std::string blob;
    const int count = tables.module_count();
    put_u32(blob, static_cast<std::uint32_t>(count));
    for (int m = 0; m < count; ++m) {
        const SocTimeTables::TimeRow row = tables.time_row(m);
        for (std::size_t i = 0; i < row.count; ++i) {
            put_u64(blob, static_cast<std::uint64_t>(row.times[i]));
        }
    }
    return blob;
}

std::unique_ptr<SocTimeTables> ShmStore::decode_tables(const std::string& blob,
                                                       const Soc& soc)
{
    BlobReader reader{blob};
    if (reader.u32() != static_cast<std::uint32_t>(soc.module_count())) {
        throw ValidationError("shm tables blob does not match the SOC's module count");
    }
    if ((blob.size() - reader.pos) % 8 != 0) {
        throw ValidationError("shm tables blob ends inside a time");
    }
    // The restore constructor checks the length against the SOC's rows.
    TableArray<CycleCount> times((blob.size() - reader.pos) / 8);
    for (CycleCount& time : times) {
        time = static_cast<CycleCount>(reader.u64());
    }
    return std::make_unique<SocTimeTables>(soc, std::move(times));
}

std::string ShmStore::encode_outcome(const std::string& memo_key,
                                     const SolutionOutcome& outcome)
{
    // The full memo key rides in the payload: the arena addresses
    // entries by the key's 64-bit hash, and storing the key verbatim
    // turns a hash collision into a detectable miss.
    std::string blob;
    put_string(blob, memo_key);
    blob.push_back(outcome.ok ? '\1' : '\0');
    put_string(blob, outcome.solution_json);
    put_string(blob, outcome.fingerprint);
    put_u32(blob, static_cast<std::uint32_t>(outcome.error.kind));
    put_string(blob, outcome.error.message);
    put_string(blob, outcome.error.detail);
    return blob;
}

std::shared_ptr<SolutionOutcome> ShmStore::decode_outcome(const std::string& blob,
                                                          const std::string& memo_key)
{
    BlobReader reader{blob};
    if (get_string(reader) != memo_key) {
        return nullptr; // hash collision: a different request's outcome
    }
    auto outcome = std::make_shared<SolutionOutcome>();
    reader.need(1);
    outcome->ok = blob[reader.pos++] != '\0';
    outcome->solution_json = get_string(reader);
    outcome->fingerprint = get_string(reader);
    const std::uint32_t kind = reader.u32();
    if (kind > static_cast<std::uint32_t>(protocol::ErrorKind::internal)) {
        throw ValidationError("shm outcome blob has an invalid error kind");
    }
    outcome->error.kind = static_cast<protocol::ErrorKind>(kind);
    outcome->error.message = get_string(reader);
    outcome->error.detail = get_string(reader);
    if (reader.pos != blob.size()) {
        throw ValidationError("shm outcome blob has trailing bytes");
    }
    if (outcome->ok == (outcome->error.kind != protocol::ErrorKind::none)) {
        throw ValidationError("shm outcome blob is internally inconsistent");
    }
    return outcome;
}

std::shared_ptr<ShmStore> ShmStore::open(const std::string& name, std::size_t bytes)
{
    std::shared_ptr<Segment> segment;
    try {
        segment = Segment::create_or_attach(name, bytes);
    } catch (const std::exception&) {
        segment = nullptr; // degraded: local-only operation
    }
    auto store = std::make_shared<ShmStore>(std::move(segment));
    if (!store->attached()) {
        store->fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    return store;
}

ShmStore::ShmStore(std::shared_ptr<Segment> segment) : segment_(std::move(segment)) {}

std::unique_ptr<SocTimeTables> ShmStore::load_tables(std::uint64_t fingerprint,
                                                     const Soc& soc)
{
    if (segment_ == nullptr) {
        return nullptr;
    }
    bool checksum_failed = false;
    const std::optional<std::string> blob =
        segment_->lookup(fingerprint, Segment::Kind::tables, &checksum_failed);
    if (!blob) {
        if (checksum_failed) {
            checksum_failures_.fetch_add(1, std::memory_order_relaxed);
            fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    try {
        auto tables = decode_tables(*blob, soc);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return tables;
    } catch (const std::exception&) {
        // Validation rejected the blob (foreign SOC under a colliding
        // fingerprint, or damage the checksum could not see): fall back
        // to the local build, never crash the request.
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
}

void ShmStore::publish_tables(std::uint64_t fingerprint, const SocTimeTables& tables)
{
    if (segment_ == nullptr) {
        return;
    }
    const std::string blob = encode_tables(tables);
    if (segment_->publish(fingerprint, Segment::Kind::tables, blob.data(), blob.size()) ==
        Segment::PublishResult::published) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::shared_ptr<SolutionOutcome> ShmStore::load_outcome(const std::string& memo_key)
{
    if (segment_ == nullptr) {
        return nullptr;
    }
    const std::uint64_t key = Segment::fnv1a(memo_key.data(), memo_key.size());
    bool checksum_failed = false;
    const std::optional<std::string> blob =
        segment_->lookup(key, Segment::Kind::outcome, &checksum_failed);
    if (!blob) {
        if (checksum_failed) {
            checksum_failures_.fetch_add(1, std::memory_order_relaxed);
            fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    try {
        std::shared_ptr<SolutionOutcome> outcome = decode_outcome(*blob, memo_key);
        if (outcome == nullptr) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return outcome;
    } catch (const std::exception&) {
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
}

void ShmStore::publish_outcome(const std::string& memo_key, const SolutionOutcome& outcome)
{
    if (segment_ == nullptr) {
        return;
    }
    const std::uint64_t key = Segment::fnv1a(memo_key.data(), memo_key.size());
    const std::string blob = encode_outcome(memo_key, outcome);
    if (segment_->publish(key, Segment::Kind::outcome, blob.data(), blob.size()) ==
        Segment::PublishResult::published) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
    }
}

StoreCounters ShmStore::counters() const
{
    StoreCounters counters;
    counters.enabled = true;
    counters.attached = segment_ != nullptr;
    counters.hits = hits_.load(std::memory_order_relaxed);
    counters.misses = misses_.load(std::memory_order_relaxed);
    counters.publishes = publishes_.load(std::memory_order_relaxed);
    counters.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    counters.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    return counters;
}

SegmentCounters ShmStore::segment_counters() const
{
    return segment_ != nullptr ? segment_->counters() : SegmentCounters{};
}

} // namespace mst::shm
