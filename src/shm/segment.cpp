#include "shm/segment.hpp"

#include <cerrno>
#include <cstring>
#include <new>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace mst::shm {

namespace {

constexpr char kMagic[8] = {'M', 'S', 'T', 'S', 'H', 'M', '0', '1'};
constexpr std::uint32_t kLayoutVersion = 2; ///< 2: tables blobs hold times only
constexpr std::uint64_t kArenaOffset = 16384; ///< superblock + slot table pages
constexpr std::uint64_t kEntryAlign = 8;

[[noreturn]] void fail_errno(const std::string& what)
{
    throw Error(what + ": " + std::strerror(errno));
}

/// Is `pid` still alive? kill(pid, 0) probes without signaling; ESRCH
/// means the process is gone (EPERM would mean alive-but-foreign, which
/// cannot happen between a supervisor and its own workers).
bool pid_alive(std::uint32_t pid) noexcept
{
    if (pid == 0) {
        return false;
    }
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

std::uint64_t align_up(std::uint64_t value) noexcept
{
    return (value + (kEntryAlign - 1)) & ~(kEntryAlign - 1);
}

/// Index key mixing (key, kind); collisions are resolved by verifying
/// the entry header, so this only needs to spread, not to be injective.
std::uint64_t index_key(std::uint64_t key, std::uint32_t kind) noexcept
{
    return key ^ (static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ULL);
}

} // namespace

/// One committed arena entry: header then payload, 8-byte aligned.
struct EntryHeader {
    std::uint64_t key;
    std::uint32_t kind;
    std::uint32_t reserved;
    std::uint64_t payload_bytes;
    std::uint64_t checksum; ///< FNV-1a over the payload
};
static_assert(sizeof(EntryHeader) == 32, "entry header layout is part of the format");

struct Segment::WorkerSlot {
    std::atomic<std::uint32_t> pid;
    std::atomic<std::uint32_t> state;
    std::atomic<std::uint64_t> heartbeat;
    std::atomic<std::uint64_t> received;
    std::atomic<std::uint64_t> ok;
    std::atomic<std::uint64_t> failed;
    std::atomic<std::uint64_t> connections_accepted;
    std::atomic<std::uint64_t> requests_admitted;
    std::atomic<std::uint64_t> requests_rejected;
    std::atomic<std::uint64_t> shm_hits;
    std::atomic<std::uint64_t> shm_misses;
    std::atomic<std::uint64_t> shm_publishes;
    std::atomic<std::uint64_t> shm_fallbacks;
    std::uint64_t pad[4];
};

struct Segment::Superblock {
    char magic[8];
    std::uint32_t layout_version;
    std::uint32_t reserved0;
    std::uint64_t segment_bytes;
    std::uint64_t arena_offset;
    std::atomic<std::uint64_t> committed_bytes;
    std::atomic<std::uint64_t> reserved_bytes;
    std::atomic<std::uint64_t> generation;
    std::atomic<std::uint32_t> writer_pid;
    std::uint32_t reserved1;
    std::atomic<std::uint64_t> publishes;
    std::atomic<std::uint64_t> recoveries;
    std::atomic<std::uint64_t> truncated_bytes;
    std::atomic<std::uint64_t> pool_workers;
    std::atomic<std::uint64_t> pool_restarts;
    std::atomic<std::uint64_t> pool_quarantined;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "cross-process atomics must be lock-free (address-free)");

namespace {
constexpr std::uint64_t kSlotsOffset = 512;
} // namespace

std::uint64_t Segment::fnv1a(const void* data, std::size_t size) noexcept
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t hash = 1469598103934665603ULL; // FNV offset basis
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL; // FNV prime
    }
    return hash;
}

Segment::Segment(std::string name, void* base, std::size_t bytes, bool created)
    : name_(std::move(name)), base_(base), bytes_(bytes), created_(created)
{
    static_assert(sizeof(WorkerSlot) == 128, "slot layout is part of the format");
    static_assert(sizeof(Superblock) <= kSlotsOffset,
                  "superblock must fit before the slot table");
    static_assert(kSlotsOffset + max_workers * sizeof(WorkerSlot) <= kArenaOffset,
                  "slot table must fit in the header pages");
}

Segment::~Segment()
{
    if (base_ != nullptr) {
        (void)::munmap(base_, bytes_);
    }
}

void Segment::unlink() noexcept
{
    (void)::shm_unlink(name_.c_str());
}

Segment::Superblock& Segment::super() noexcept
{
    return *static_cast<Superblock*>(base_);
}

const Segment::Superblock& Segment::super() const noexcept
{
    return *static_cast<const Superblock*>(base_);
}

Segment::WorkerSlot* Segment::slots() noexcept
{
    return reinterpret_cast<WorkerSlot*>(static_cast<char*>(base_) + kSlotsOffset);
}

const Segment::WorkerSlot* Segment::slots() const noexcept
{
    return reinterpret_cast<const WorkerSlot*>(static_cast<const char*>(base_) +
                                               kSlotsOffset);
}

char* Segment::arena() noexcept
{
    return static_cast<char*>(base_) + kArenaOffset;
}

const char* Segment::arena() const noexcept
{
    return static_cast<const char*>(base_) + kArenaOffset;
}

std::uint64_t Segment::arena_capacity() const noexcept
{
    return bytes_ - kArenaOffset;
}

std::shared_ptr<Segment> Segment::create_or_attach(const std::string& name,
                                                   std::size_t bytes)
{
    if (name.empty() || name.front() != '/') {
        throw ValidationError("shm segment name must start with '/'");
    }
    if (bytes < kArenaOffset + 4096) {
        throw ValidationError("shm segment size must be at least 20 KiB");
    }
    if (const std::errc fault = MST_FAULTPOINT("shm.map"); fault != std::errc{}) {
        throw Error("injected fault: shm map failed: " +
                    std::make_error_code(fault).message());
    }
    int fd = ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    bool created = fd >= 0;
    if (!created) {
        if (errno != EEXIST) {
            fail_errno("shm_open('" + name + "')");
        }
        return attach(name);
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        const int saved = errno;
        (void)::close(fd);
        (void)::shm_unlink(name.c_str());
        errno = saved;
        fail_errno("ftruncate('" + name + "')");
    }
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    (void)::close(fd);
    if (base == MAP_FAILED) {
        (void)::shm_unlink(name.c_str());
        fail_errno("mmap('" + name + "')");
    }

    // Initialize the superblock and slot table in place. The shm object
    // is zero-filled by ftruncate; the magic is written last so a
    // concurrent attacher either sees a complete header or none.
    auto segment = std::shared_ptr<Segment>(new Segment(name, base, bytes, true));
    auto* sb = new (base) Superblock;
    sb->layout_version = kLayoutVersion;
    sb->segment_bytes = bytes;
    sb->arena_offset = kArenaOffset;
    sb->committed_bytes.store(0, std::memory_order_relaxed);
    sb->reserved_bytes.store(0, std::memory_order_relaxed);
    sb->generation.store(0, std::memory_order_relaxed);
    sb->writer_pid.store(0, std::memory_order_relaxed);
    sb->publishes.store(0, std::memory_order_relaxed);
    sb->recoveries.store(0, std::memory_order_relaxed);
    sb->truncated_bytes.store(0, std::memory_order_relaxed);
    sb->pool_workers.store(0, std::memory_order_relaxed);
    sb->pool_restarts.store(0, std::memory_order_relaxed);
    sb->pool_quarantined.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < max_workers; ++i) {
        new (segment->slots() + i) WorkerSlot{};
    }
    std::atomic_thread_fence(std::memory_order_release);
    std::memcpy(sb->magic, kMagic, sizeof kMagic);
    return segment;
}

std::shared_ptr<Segment> Segment::attach(const std::string& name)
{
    if (const std::errc fault = MST_FAULTPOINT("shm.map"); fault != std::errc{}) {
        throw Error("injected fault: shm map failed: " +
                    std::make_error_code(fault).message());
    }
    int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd < 0) {
        fail_errno("shm_open('" + name + "')");
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int saved = errno;
        (void)::close(fd);
        errno = saved;
        fail_errno("fstat('" + name + "')");
    }
    const auto bytes = static_cast<std::size_t>(st.st_size);
    if (bytes < kArenaOffset) {
        (void)::close(fd);
        throw Error("shm segment '" + name + "' is too small to hold a superblock");
    }
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    (void)::close(fd);
    if (base == MAP_FAILED) {
        fail_errno("mmap('" + name + "')");
    }
    auto segment = std::shared_ptr<Segment>(new Segment(name, base, bytes, false));
    const Superblock& sb = segment->super();
    if (std::memcmp(sb.magic, kMagic, sizeof kMagic) != 0) {
        throw Error("shm segment '" + name + "' has a foreign or incomplete header");
    }
    if (sb.layout_version != kLayoutVersion) {
        throw Error("shm segment '" + name + "' has layout version " +
                    std::to_string(sb.layout_version) + " (this build speaks " +
                    std::to_string(kLayoutVersion) + ")");
    }
    if (sb.segment_bytes != bytes || sb.arena_offset != kArenaOffset) {
        throw Error("shm segment '" + name + "' geometry does not match its header");
    }
    // A writer may have died mid-publish before this process existed:
    // detect and truncate the torn tail right away so the first lookup
    // never has to reason about it.
    (void)segment->recover_if_torn();
    return segment;
}

bool Segment::lock_writer()
{
    Superblock& sb = super();
    const auto self = static_cast<std::uint32_t>(::getpid());
    std::uint32_t expected = 0;
    if (sb.writer_pid.compare_exchange_strong(expected, self, std::memory_order_acquire)) {
        return true;
    }
    if (expected == self || pid_alive(expected)) {
        // A live writer (possibly another of our own threads) is mid-
        // publish. Never block: the caller keeps its local copy.
        return false;
    }
    // The holder is dead: steal the lock and repair whatever it left.
    if (!sb.writer_pid.compare_exchange_strong(expected, self, std::memory_order_acquire)) {
        return false; // raced with another stealer; let them recover
    }
    recover_locked();
    return true;
}

void Segment::unlock_writer() noexcept
{
    super().writer_pid.store(0, std::memory_order_release);
}

void Segment::recover_locked()
{
    Superblock& sb = super();
    const std::uint64_t committed = sb.committed_bytes.load(std::memory_order_acquire);
    const std::uint64_t reserved = sb.reserved_bytes.load(std::memory_order_acquire);
    if (reserved <= committed) {
        return; // nothing torn
    }
    if (const std::errc fault = MST_FAULTPOINT("shm.truncate_recover");
        fault != std::errc{}) {
        // Injected recovery failure: leave the torn state for the next
        // attach/steal to repair; readers never see it either way.
        return;
    }
    const std::uint64_t torn = reserved - committed;
    std::memset(arena() + committed, 0, static_cast<std::size_t>(torn));
    sb.reserved_bytes.store(committed, std::memory_order_release);
    sb.truncated_bytes.fetch_add(torn, std::memory_order_relaxed);
    sb.recoveries.fetch_add(1, std::memory_order_relaxed);
}

bool Segment::recover_if_torn()
{
    Superblock& sb = super();
    if (sb.reserved_bytes.load(std::memory_order_acquire) <=
        sb.committed_bytes.load(std::memory_order_acquire)) {
        return false;
    }
    const std::uint64_t before = sb.recoveries.load(std::memory_order_relaxed);
    const std::uint32_t holder = sb.writer_pid.load(std::memory_order_acquire);
    if (holder != 0 && pid_alive(holder)) {
        return false; // a live writer is legitimately mid-publish
    }
    if (!lock_writer()) {
        return false;
    }
    // lock_writer recovers on steal; a clean acquire recovers here.
    recover_locked();
    unlock_writer();
    return sb.recoveries.load(std::memory_order_relaxed) != before;
}

Segment::PublishResult Segment::publish(std::uint64_t key, Kind kind, const void* data,
                                        std::size_t size)
{
    Superblock& sb = super();
    const std::uint64_t need = align_up(sizeof(EntryHeader) + size);
    if (!lock_writer()) {
        return PublishResult::busy;
    }
    const std::uint64_t committed = sb.committed_bytes.load(std::memory_order_acquire);
    if (committed + need > arena_capacity()) {
        unlock_writer();
        return PublishResult::full;
    }

    // Phase 1: reserve, then write. A crash anywhere in here leaves
    // reserved_bytes > committed_bytes with our PID in the lock word —
    // exactly the torn state recovery detects and truncates.
    sb.reserved_bytes.store(committed + need, std::memory_order_release);
    char* dst = arena() + committed;
    EntryHeader header = {};
    header.key = key;
    header.kind = static_cast<std::uint32_t>(kind);
    header.payload_bytes = size;
    header.checksum = fnv1a(data, size);
    std::memcpy(dst, &header, sizeof header);
    std::memcpy(dst + sizeof header, data, size);

    // The shm.publish fault sits exactly between the phases: a `crash`
    // action here is the writer dying with bytes written but nothing
    // committed (satellite test coverage + the chaos-smoke CI plan).
    if (const std::errc fault = MST_FAULTPOINT("shm.publish"); fault != std::errc{}) {
        sb.reserved_bytes.store(committed, std::memory_order_release);
        unlock_writer();
        return PublishResult::failed;
    }

    // Phase 2: commit. The release store publishes every byte written
    // above before readers can observe the new committed size.
    sb.committed_bytes.store(committed + need, std::memory_order_release);
    sb.reserved_bytes.store(committed + need, std::memory_order_release);
    sb.generation.fetch_add(1, std::memory_order_release);
    sb.publishes.fetch_add(1, std::memory_order_relaxed);
    unlock_writer();
    return PublishResult::published;
}

void Segment::refresh_index(std::uint64_t committed)
{
    // Scan only the suffix committed since the last refresh. Committed
    // entries are immutable and well-formed (the writer committed them
    // under the lock), but the bounds checks keep a corrupted segment
    // from walking out of the mapping.
    while (scanned_ + sizeof(EntryHeader) <= committed) {
        EntryHeader header = {};
        std::memcpy(&header, arena() + scanned_, sizeof header);
        const std::uint64_t need = align_up(sizeof(EntryHeader) + header.payload_bytes);
        if (need == 0 || scanned_ + need > committed) {
            // Corrupt length: stop indexing; lookups beyond this point
            // miss and fall back. Never throw, never walk past the end.
            scanned_ = committed;
            break;
        }
        index_[index_key(header.key, header.kind)] = scanned_;
        scanned_ += need;
    }
}

std::optional<std::string> Segment::lookup(std::uint64_t key, Kind kind,
                                           bool* checksum_failed)
{
    if (checksum_failed != nullptr) {
        *checksum_failed = false;
    }
    const Superblock& sb = super();
    const std::uint64_t committed = sb.committed_bytes.load(std::memory_order_acquire);
    std::uint64_t offset = 0;
    {
        std::lock_guard<std::mutex> lock(index_mutex_);
        if (committed > scanned_) {
            refresh_index(committed);
        }
        const auto it = index_.find(index_key(key, static_cast<std::uint32_t>(kind)));
        if (it == index_.end()) {
            return std::nullopt;
        }
        offset = it->second;
    }
    EntryHeader header = {};
    std::memcpy(&header, arena() + offset, sizeof header);
    if (header.key != key || header.kind != static_cast<std::uint32_t>(kind) ||
        offset + align_up(sizeof(EntryHeader) + header.payload_bytes) > committed) {
        return std::nullopt; // index hash collision or corrupt entry
    }
    const char* payload = arena() + offset + sizeof(EntryHeader);
    std::uint64_t checksum = fnv1a(payload, static_cast<std::size_t>(header.payload_bytes));
    if (MST_FAULTPOINT("shm.checksum") != std::errc{}) {
        checksum = ~checksum; // injected corruption: must fall back cleanly
    }
    if (checksum != header.checksum) {
        if (checksum_failed != nullptr) {
            *checksum_failed = true;
        }
        return std::nullopt;
    }
    return std::string(payload, static_cast<std::size_t>(header.payload_bytes));
}

SegmentCounters Segment::counters() const
{
    const Superblock& sb = super();
    SegmentCounters counters;
    counters.generation = sb.generation.load(std::memory_order_acquire);
    counters.committed_bytes = sb.committed_bytes.load(std::memory_order_acquire);
    counters.arena_bytes = arena_capacity();
    counters.publishes = sb.publishes.load(std::memory_order_relaxed);
    counters.recoveries = sb.recoveries.load(std::memory_order_relaxed);
    counters.truncated_bytes = sb.truncated_bytes.load(std::memory_order_relaxed);
    return counters;
}

void Segment::claim_slot(std::size_t index, std::uint32_t pid)
{
    WorkerSlot& slot = slots()[index];
    slot.heartbeat.store(0, std::memory_order_relaxed);
    slot.received.store(0, std::memory_order_relaxed);
    slot.ok.store(0, std::memory_order_relaxed);
    slot.failed.store(0, std::memory_order_relaxed);
    slot.connections_accepted.store(0, std::memory_order_relaxed);
    slot.requests_admitted.store(0, std::memory_order_relaxed);
    slot.requests_rejected.store(0, std::memory_order_relaxed);
    slot.shm_hits.store(0, std::memory_order_relaxed);
    slot.shm_misses.store(0, std::memory_order_relaxed);
    slot.shm_publishes.store(0, std::memory_order_relaxed);
    slot.shm_fallbacks.store(0, std::memory_order_relaxed);
    slot.state.store(static_cast<std::uint32_t>(WorkerState::starting),
                     std::memory_order_relaxed);
    slot.pid.store(pid, std::memory_order_release);
}

void Segment::set_slot_state(std::size_t index, WorkerState state)
{
    slots()[index].state.store(static_cast<std::uint32_t>(state),
                               std::memory_order_release);
}

void Segment::update_slot(std::size_t index, const WorkerSlotView& view)
{
    WorkerSlot& slot = slots()[index];
    slot.received.store(view.received, std::memory_order_relaxed);
    slot.ok.store(view.ok, std::memory_order_relaxed);
    slot.failed.store(view.failed, std::memory_order_relaxed);
    slot.connections_accepted.store(view.connections_accepted, std::memory_order_relaxed);
    slot.requests_admitted.store(view.requests_admitted, std::memory_order_relaxed);
    slot.requests_rejected.store(view.requests_rejected, std::memory_order_relaxed);
    slot.shm_hits.store(view.shm_hits, std::memory_order_relaxed);
    slot.shm_misses.store(view.shm_misses, std::memory_order_relaxed);
    slot.shm_publishes.store(view.shm_publishes, std::memory_order_relaxed);
    slot.shm_fallbacks.store(view.shm_fallbacks, std::memory_order_relaxed);
    slot.heartbeat.fetch_add(1, std::memory_order_release);
}

void Segment::clear_slot(std::size_t index)
{
    WorkerSlot& slot = slots()[index];
    slot.state.store(static_cast<std::uint32_t>(WorkerState::empty),
                     std::memory_order_relaxed);
    slot.pid.store(0, std::memory_order_release);
}

WorkerSlotView Segment::read_slot(std::size_t index) const
{
    const WorkerSlot& slot = slots()[index];
    WorkerSlotView view;
    view.pid = slot.pid.load(std::memory_order_acquire);
    view.state = static_cast<WorkerState>(slot.state.load(std::memory_order_acquire));
    view.heartbeat = slot.heartbeat.load(std::memory_order_acquire);
    view.received = slot.received.load(std::memory_order_relaxed);
    view.ok = slot.ok.load(std::memory_order_relaxed);
    view.failed = slot.failed.load(std::memory_order_relaxed);
    view.connections_accepted = slot.connections_accepted.load(std::memory_order_relaxed);
    view.requests_admitted = slot.requests_admitted.load(std::memory_order_relaxed);
    view.requests_rejected = slot.requests_rejected.load(std::memory_order_relaxed);
    view.shm_hits = slot.shm_hits.load(std::memory_order_relaxed);
    view.shm_misses = slot.shm_misses.load(std::memory_order_relaxed);
    view.shm_publishes = slot.shm_publishes.load(std::memory_order_relaxed);
    view.shm_fallbacks = slot.shm_fallbacks.load(std::memory_order_relaxed);
    return view;
}

std::vector<WorkerSlotView> Segment::read_slots() const
{
    std::vector<WorkerSlotView> views;
    views.reserve(max_workers);
    for (std::size_t i = 0; i < max_workers; ++i) {
        WorkerSlotView view = read_slot(i);
        if (view.state == WorkerState::empty) {
            continue;
        }
        views.push_back(view);
    }
    return views;
}

void Segment::set_pool_meta(const PoolMeta& meta)
{
    Superblock& sb = super();
    sb.pool_workers.store(meta.workers, std::memory_order_relaxed);
    sb.pool_restarts.store(meta.restarts, std::memory_order_relaxed);
    sb.pool_quarantined.store(meta.quarantined, std::memory_order_relaxed);
}

void Segment::add_pool_restart()
{
    super().pool_restarts.fetch_add(1, std::memory_order_relaxed);
}

void Segment::add_pool_quarantine()
{
    super().pool_quarantined.fetch_add(1, std::memory_order_relaxed);
}

PoolMeta Segment::pool_meta() const
{
    const Superblock& sb = super();
    PoolMeta meta;
    meta.workers = sb.pool_workers.load(std::memory_order_relaxed);
    meta.restarts = sb.pool_restarts.load(std::memory_order_relaxed);
    meta.quarantined = sb.pool_quarantined.load(std::memory_order_relaxed);
    return meta;
}

} // namespace mst::shm
