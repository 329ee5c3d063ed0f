// Bounded LRU cache with single-flight computes, shared by the request
// service's SOC resolution cache (inline .soc text -> parsed SOC and
// fingerprint), TablesCache (SOC fingerprint -> wrapper time tables)
// and solution memo ((fingerprint, cell, options) -> serialized outcome).
//
// Single-flight: concurrent get_or_compute calls for one key run the
// compute once; the other callers block on the same shared_future. This
// is what makes the hit/miss counters deterministic across thread
// counts (as long as nothing is evicted): every distinct key is exactly
// one miss, every repeat - whether it joins the in-flight compute or
// finds the finished entry - is exactly one hit.
//
// A compute that throws is cached like a success (the exception is
// rethrown to every present and future caller). The service's computes
// are deterministic functions of the key, so a failure is permanent and
// re-running it would only burn time and make the counters depend on
// scheduling. A caller that sees a failure which is *not* a function of
// the key (an allocation failure, an injected fault) drops it with
// forget_failure, so the next call computes again.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

namespace mst {

/// Counter snapshot of one cache. hit + miss == lookups; eviction counts
/// entries dropped to keep the cache within capacity.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
};

template <typename Key, typename Value>
class LruCache {
public:
    using ValuePtr = std::shared_ptr<const Value>;

    /// `capacity` is clamped to at least 1.
    explicit LruCache(std::size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

    /// Return the cached value for `key`, computing it via `compute()`
    /// on first use. Blocks on an in-flight compute of the same key
    /// instead of starting a second one.
    template <typename Compute>
    ValuePtr get_or_compute(const Key& key, Compute&& compute)
    {
        std::shared_future<ValuePtr> future;
        std::shared_ptr<std::promise<ValuePtr>> promise;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                ++hits_;
                lru_.splice(lru_.begin(), lru_, it->second.lru_position);
                future = it->second.future;
            } else {
                ++misses_;
                promise = std::make_shared<std::promise<ValuePtr>>();
                future = promise->get_future().share();
                const auto added = entries_.emplace(key, Entry{future, {}}).first;
                lru_.push_front(&added->first);
                added->second.lru_position = lru_.begin();
                while (entries_.size() > capacity_) {
                    // Evicting the LRU entry is safe even mid-compute:
                    // the shared state lives on in every waiter's future.
                    ++evictions_;
                    const auto victim = entries_.find(*lru_.back());
                    lru_.pop_back();
                    entries_.erase(victim);
                }
            }
        }
        if (promise != nullptr) {
            try {
                promise->set_value(compute());
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        }
        return future.get(); // rethrows a cached compute failure
    }

    /// Read-only probe: the finished value for `key`, or nullptr when
    /// the key is absent, still computing, or computed to an exception.
    /// Deliberately touches neither the hit/miss counters nor the LRU
    /// order — peeks happen on the server's load-shedding path, whose
    /// timing is scheduling-dependent, and must not perturb the
    /// deterministic counter/eviction behavior of get_or_compute.
    [[nodiscard]] ValuePtr peek(const Key& key) const
    {
        std::shared_future<ValuePtr> future;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it == entries_.end()) {
                return nullptr;
            }
            future = it->second.future;
        }
        if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            return nullptr;
        }
        try {
            return future.get();
        } catch (...) {
            return nullptr;
        }
    }

    /// Drop `key` if its compute has finished with an exception, so the
    /// next get_or_compute runs it again. A finished value, an in-flight
    /// compute or an absent key is left alone. Not counted as an eviction.
    void forget_failure(const Key& key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end() ||
            it->second.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            return;
        }
        try {
            (void)it->second.future.get();
            return; // a value, perhaps recomputed since the caller's failure
        } catch (...) {
        }
        lru_.erase(it->second.lru_position);
        entries_.erase(it);
    }

    [[nodiscard]] CacheStats stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CacheStats stats;
        stats.hits = hits_;
        stats.misses = misses_;
        stats.evictions = evictions_;
        stats.size = entries_.size();
        stats.capacity = capacity_;
        return stats;
    }

private:
    struct Entry {
        std::shared_future<ValuePtr> future;
        typename std::list<const Key*>::iterator lru_position;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::map<Key, Entry> entries_;
    /// Front = most recently used. Points at the keys in entries_ (map
    /// nodes never move), so a key of up to a whole .soc text is held once.
    std::list<const Key*> lru_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace mst
