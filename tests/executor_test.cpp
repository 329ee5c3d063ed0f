// Unit tests for the shared executor: index coverage at any pool size,
// chunked claiming, nested fan-out, nested submission, and the
// lowest-index exception propagation contract.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/executor.hpp"

namespace mst {
namespace {

TEST(Executor, ForIndexCoversEveryIndexExactlyOnce)
{
    for (const int workers : {0, 1, 3}) {
        Executor executor(workers);
        for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
            std::vector<std::atomic<int>> hits(count);
            executor.for_index(count, 0, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
            }
        }
    }
}

TEST(Executor, ResultsAreDeterministicViaOutputSlots)
{
    // Slot-indexed outputs make the result independent of scheduling:
    // the same vector falls out at every pool size and cap.
    std::vector<long> expected(512);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] = static_cast<long>(i * i + 1);
    }
    for (const int workers : {0, 2, 5}) {
        Executor executor(workers);
        for (const int cap : {1, 2, 0}) {
            std::vector<long> out(expected.size(), -1);
            executor.for_index(out.size(), cap, [&](std::size_t i) {
                out[i] = static_cast<long>(i * i + 1);
            });
            EXPECT_EQ(out, expected) << "workers=" << workers << " cap=" << cap;
        }
    }
}

TEST(Executor, NestedForIndexDoesNotDeadlock)
{
    // Outer tasks fan out again on the same pool; the caller-participates
    // design guarantees progress even when every worker is busy.
    Executor executor(2);
    std::atomic<long> total{0};
    executor.for_index(8, 0, [&](std::size_t outer) {
        executor.for_index(16, 0, [&](std::size_t inner) {
            total.fetch_add(static_cast<long>(outer * 16 + inner),
                            std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 128 * 127 / 2);
}

TEST(Executor, LowestIndexExceptionWinsAtAnyPoolSize)
{
    for (const int workers : {0, 1, 4}) {
        Executor executor(workers);
        std::atomic<int> ran{0};
        try {
            executor.for_index(64, 0, [&](std::size_t i) {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i == 5 || i == 41) {
                    throw std::runtime_error("boom at " + std::to_string(i));
                }
            });
            FAIL() << "expected the exception to propagate (workers=" << workers << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom at 5") << "workers=" << workers;
        }
        // Every index still runs; one failure does not cancel the rest.
        EXPECT_EQ(ran.load(), 64) << "workers=" << workers;
    }
}

TEST(Executor, SubmitReturnsFutureValue)
{
    Executor executor(1);
    std::future<int> future = executor.submit([]() { return 42; });
    EXPECT_EQ(future.get(), 42);
}

TEST(Executor, SubmitRunsInlineWithoutWorkers)
{
    Executor executor(0);
    std::future<std::string> future = executor.submit([]() { return std::string("inline"); });
    EXPECT_EQ(future.get(), "inline");
}

TEST(Executor, NestedSubmissionFromPoolTask)
{
    // A pool task may submit further work; the inner future is handed
    // back to the caller, which waits outside the pool.
    Executor executor(2);
    std::future<std::future<int>> outer = executor.submit(
        [&executor]() { return executor.submit([]() { return 7 * 6; }); });
    EXPECT_EQ(outer.get().get(), 42);
}

TEST(Executor, SubmitPropagatesExceptions)
{
    Executor executor(1);
    std::future<int> future =
        executor.submit([]() -> int { throw std::logic_error("task failed"); });
    EXPECT_THROW(future.get(), std::logic_error);
}

TEST(Executor, ResolveThreadCountContract)
{
    EXPECT_EQ(resolve_thread_count(4, 10), 4);
    EXPECT_EQ(resolve_thread_count(4, 2), 2);  // never more than jobs
    EXPECT_EQ(resolve_thread_count(4, 0), 0);  // empty job list
    EXPECT_GE(resolve_thread_count(0, 100), 1); // auto picks at least one
    EXPECT_GE(resolve_thread_count(-3, 100), 1);
}

TEST(Executor, ForkedChildGetsAFreshGlobalPool)
{
    // Start the parent's workers, then fork: the child must not signal
    // the inherited pool (its workers stayed behind) but fan out on a
    // fresh one. The alarm turns a hang in the child into a failure.
    Executor& parent = Executor::global();
    std::atomic<int> sum{0};
    parent.for_index(64, 0, [&](std::size_t i) { sum += static_cast<int>(i); });
    ASSERT_EQ(sum.load(), 2016);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(10);
        Executor& child = Executor::global();
        std::atomic<int> child_sum{0};
        for (int round = 0; round < 50; ++round) {
            child.for_index(64, 0, [&](std::size_t i) { child_sum += static_cast<int>(i); });
        }
        ::_exit(&child != &parent && child_sum.load() == 50 * 2016 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
    EXPECT_EQ(&Executor::global(), &parent);
}

TEST(Executor, GlobalParallelForIndexMatchesSerial)
{
    std::vector<int> serial(300), pooled(300);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        serial[i] = static_cast<int>(3 * i + 1);
    }
    parallel_for_index(pooled.size(), 8, [&](std::size_t i) {
        pooled[i] = static_cast<int>(3 * i + 1);
    });
    EXPECT_EQ(pooled, serial);
}

} // namespace
} // namespace mst
