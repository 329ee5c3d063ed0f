// Process-wide task executor: one lazily-started thread pool shared by
// every parallel surface of the library (run_scenarios fan-out,
// RequestService request fan-out, SocTimeTables construction, the
// exact solver's subtree waves, `mst bench`).
//
// Design rules:
//   * The process owns exactly one pool (Executor::global()); explicit
//     instances exist for tests. Workers start on first use, so programs
//     that never go parallel never spawn a thread. A forked child gets a
//     fresh pool of its own: the parent's workers do not survive fork.
//   * for_index() is the blocking fan-out primitive: the calling thread
//     participates in the loop, so nesting a for_index inside a pool
//     task can never deadlock — if every worker is busy, the nested
//     caller simply runs all its own indices inline.
//   * submit() enqueues a one-off task and returns its future. Submitting
//     from inside a pool task is fine (the task is queued like any
//     other); *waiting* on a future from inside a pool task is not —
//     use for_index for nested blocking parallelism.
//   * Determinism: for_index always runs every index exactly once and
//     writes nothing itself; callers index into pre-sized output slots,
//     which makes results independent of scheduling. If callbacks throw,
//     every index still runs and the exception thrown by the *lowest*
//     index is rethrown in the caller — the same exception a serial loop
//     that defers throwing would pick, at any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mst {

/// Resolve a user-configured thread count for `jobs` work items:
/// `configured` <= 0 selects hardware_concurrency; the result is at
/// least 1 and never more than there are jobs (an empty job list
/// reports 0). Shared by run_scenarios and RequestService so both
/// surfaces pick fan-out widths identically.
[[nodiscard]] inline int resolve_thread_count(int configured, std::size_t jobs) noexcept
{
    int threads = configured;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (threads < 1) {
        threads = 1;
    }
    if (jobs < static_cast<std::size_t>(threads)) {
        threads = static_cast<int>(jobs);
    }
    return threads;
}

/// A fixed-size worker pool with a shared FIFO task queue.
class Executor {
public:
    /// Pool with exactly `workers` worker threads (0 = everything runs
    /// inline on the calling thread). Workers start lazily.
    explicit Executor(int workers);
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// The process-wide pool: hardware_concurrency - 1 workers (the
    /// calling thread is the extra lane), at least 1 so single-core
    /// machines still exercise the cross-thread paths.
    [[nodiscard]] static Executor& global();

    [[nodiscard]] int worker_count() const noexcept { return worker_target_; }

    /// Run fn(i) for every i in [0, count) on the calling thread plus up
    /// to max_threads - 1 pool workers (max_threads <= 0 means "as many
    /// as the pool has"). Blocks until every index completed; rethrows
    /// the lowest-index exception, if any.
    ///
    /// The cap is per fan-out, not per process: each nested for_index
    /// (scenario fan-out -> table build) may claim up to max_threads - 1
    /// helpers of its own, so a process running several capped loops at
    /// once can occupy more than max_threads workers in total. The pool's fixed worker count is the hard bound; the cap
    /// limits how much of it one loop may grab.
    void for_index(std::size_t count, int max_threads,
                   const std::function<void(std::size_t)>& fn);

    /// Enqueue a task; returns its future. With a zero-worker pool the
    /// task runs inline before returning.
    template <typename Fn>
    auto submit(Fn fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(std::move(fn));
        std::future<Result> future = task->get_future();
        if (worker_target_ == 0) {
            (*task)();
            return future;
        }
        enqueue([task]() { (*task)(); });
        return future;
    }

private:
    /// Shared state of one for_index call. Helper tasks hold it by
    /// shared_ptr: a helper popped after the loop already finished sees
    /// next >= count and exits without touching anything else.
    struct LoopState {
        std::function<void(std::size_t)> fn;
        std::size_t count = 0;
        /// Indices are claimed in runs of `chunk` to keep large loops of
        /// tiny callbacks off the shared counter's cache line.
        std::size_t chunk = 1;
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable all_done;
        std::size_t done = 0;
        std::exception_ptr error;
        std::size_t error_index = 0;
    };

    static void run_loop(const std::shared_ptr<LoopState>& state);
    void enqueue(std::function<void()> task);
    void worker_main();

    const int worker_target_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

/// Index-parallel fan-out on the global executor. `threads` caps the
/// concurrency (<= 0: use the whole pool); outputs must be written into
/// per-index slots so results are identical at any thread count.
template <typename Fn>
void parallel_for_index(std::size_t count, int threads, Fn&& fn)
{
    Executor::global().for_index(count, threads,
                                 std::function<void(std::size_t)>(std::forward<Fn>(fn)));
}

} // namespace mst
