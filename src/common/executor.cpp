#include "common/executor.hpp"

#include <algorithm>

#include <pthread.h>

namespace mst {

Executor::Executor(int workers) : worker_target_(std::max(workers, 0)) {}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

namespace {

/// hardware_concurrency - 1 workers: the thread calling for_index is the
/// remaining lane. At least one worker even on single-core machines, so
/// the cross-thread code paths always run.
int global_worker_count()
{
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

/// The pool of a forked child (see Executor::global).
Executor* forked_pool = nullptr;

} // namespace

Executor& Executor::global()
{
    static Executor instance(global_worker_count());
    // A forked child holds only the forking thread: the workers, and the
    // waiters that the pool's condition variable still counts, stayed in
    // the parent. Signalling that condition variable can then block for
    // good, waiting for waiters that will never leave, so a child
    // switches to a fresh pool that starts its own workers on first use.
    // The inherited pool is never touched again (nor destroyed: its
    // workers cannot be joined here).
    static const int fork_handler = ::pthread_atfork(
        nullptr, nullptr, [] { forked_pool = new Executor(global_worker_count()); });
    (void)fork_handler;
    return forked_pool != nullptr ? *forked_pool : instance;
}

void Executor::run_loop(const std::shared_ptr<LoopState>& state)
{
    for (;;) {
        const std::size_t begin =
            state->next.fetch_add(state->chunk, std::memory_order_relaxed);
        if (begin >= state->count) {
            return;
        }
        const std::size_t end = std::min(state->count, begin + state->chunk);
        std::exception_ptr error;
        std::size_t error_index = 0;
        for (std::size_t i = begin; i < end; ++i) {
            try {
                state->fn(i);
            } catch (...) {
                if (!error) {
                    error = std::current_exception();
                    error_index = i;
                }
            }
        }
        std::lock_guard<std::mutex> lock(state->mutex);
        if (error && (!state->error || error_index < state->error_index)) {
            state->error = error;
            state->error_index = error_index;
        }
        state->done += end - begin;
        if (state->done == state->count) {
            state->all_done.notify_all();
        }
    }
}

void Executor::for_index(std::size_t count, int max_threads,
                         const std::function<void(std::size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    int helpers = (max_threads <= 0) ? worker_target_
                                     : std::min(max_threads - 1, worker_target_);
    helpers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(std::max(helpers, 0)), count - 1));

    if (helpers == 0) {
        // Inline path with the same semantics as the pooled one: every
        // index runs, the lowest-index exception is rethrown afterwards.
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!error) {
                    error = std::current_exception();
                }
            }
        }
        if (error) {
            std::rethrow_exception(error);
        }
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->fn = fn;
    state->count = count;
    // Roughly eight claims per participant: coarse enough to amortize
    // the shared counter, fine enough to balance uneven callbacks.
    state->chunk = std::max<std::size_t>(
        1, count / (static_cast<std::size_t>(helpers + 1) * 8));
    for (int h = 0; h < helpers; ++h) {
        enqueue([state]() { run_loop(state); });
    }
    run_loop(state);
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->all_done.wait(lock, [&]() { return state->done == state->count; });
    }
    if (state->error) {
        std::rethrow_exception(state->error);
    }
}

void Executor::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        // Lazy start: the first task spawns the whole worker set.
        while (static_cast<int>(workers_.size()) < worker_target_) {
            workers_.emplace_back([this]() { worker_main(); });
        }
    }
    work_ready_.notify_one();
}

void Executor::worker_main()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [&]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopping
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // loop helpers never throw (run_loop captures per index)
    }
}

} // namespace mst
