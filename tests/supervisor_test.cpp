// Tests of the shared process-supervision mechanisms (common/supervisor)
// that `mst sweep` and the prefork pool are built on: every caller's
// backoff schedule, the spawn contract (attempt number, private
// shutdown pipe, signal disposition, exit status), the progress
// watchdog, and the SIGTERM-then-SIGKILL drain.
#include <gtest/gtest.h>

#include <climits>
#include <csignal>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/faultpoint.hpp"
#include "common/signals.hpp"
#include "common/supervisor.hpp"

namespace mst {
namespace {

using std::chrono::milliseconds;
using supervisor::capped_backoff;
using supervisor::ChildState;

/// Spawn a child that runs `setup`, reports readiness over a pipe, and
/// then sleeps until a signal ends it. Returns once the child is ready.
pid_t spawn_sleeper(supervisor::ChildSignals signals,
                    const std::function<void()>& setup = {})
{
    int ready[2] = {-1, -1};
    if (::pipe(ready) != 0) {
        return -1;
    }
    const pid_t pid = supervisor::spawn(
        0,
        [&]() -> int {
            if (setup) {
                setup();
            }
            const char byte = 1;
            (void)!::write(ready[1], &byte, 1);
            for (;;) {
                ::pause();
            }
        },
        signals);
    (void)::close(ready[1]);
    char byte = 0;
    (void)!::read(ready[0], &byte, 1);
    (void)::close(ready[0]);
    return pid;
}

/// True once `pid` is no longer a child of this process (it was reaped).
bool reaped(pid_t pid)
{
    int status = 0;
    return ::waitpid(pid, &status, WNOHANG) == -1 && errno == ECHILD;
}

TEST(Supervisor, CappedBackoffMatchesEveryCallersSchedule)
{
    // `mst sweep` defaults: --backoff-ms 100, cap 2000.
    const std::vector<int> sweep = {100, 200, 400, 800, 1600, 2000, 2000};
    // The prefork pool: backoff_ms 50 (passed as max(backoff_ms, 1)), cap 2000.
    const std::vector<int> prefork = {50, 100, 200, 400, 800, 1600, 2000};
    // The server's accept loop: accept_backoff_ms 10, cap 500.
    const std::vector<int> accept = {10, 20, 40, 80, 160, 320, 500};
    for (int k = 0; k < 7; ++k) {
        const auto at = static_cast<std::size_t>(k);
        EXPECT_EQ(capped_backoff(100, 2000, k), milliseconds(sweep[at])) << "k=" << k;
        EXPECT_EQ(capped_backoff(50, 2000, k), milliseconds(prefork[at])) << "k=" << k;
        EXPECT_EQ(capped_backoff(10, 500, k), milliseconds(accept[at])) << "k=" << k;
    }

    // Base 0 disables the delay (sweep --backoff-ms 0, accept_backoff_ms
    // 0); the pool's max(backoff_ms, 1) floor keeps a crash loop from
    // spinning.
    EXPECT_EQ(capped_backoff(0, 2000, 5), milliseconds(0));
    EXPECT_EQ(capped_backoff(-3, 2000, 0), milliseconds(0));
    EXPECT_EQ(capped_backoff(1, 2000, 0), milliseconds(1));
    EXPECT_EQ(capped_backoff(1, 2000, 4), milliseconds(16));

    // A cap below the base never undercuts the base.
    EXPECT_EQ(capped_backoff(300, 100, 0), milliseconds(300));
    EXPECT_EQ(capped_backoff(300, 100, 6), milliseconds(300));

    // The shift clamps at 20, so huge retry counts cannot overflow.
    EXPECT_EQ(capped_backoff(1, INT_MAX, 20), milliseconds(1 << 20));
    EXPECT_EQ(capped_backoff(1, INT_MAX, 21), milliseconds(1 << 20));
    EXPECT_EQ(capped_backoff(1000, INT_MAX, 1000), milliseconds(1000LL << 20));
}

TEST(Supervisor, ForkedChildGetsItsOwnShutdownPipe)
{
    // A child's shutdown request must not leave the parent's (and so
    // every sibling's) self-pipe readable, and the child runs under the
    // fault-injection attempt number it was spawned with.
    ShutdownLatch& latch = ShutdownLatch::global();
    latch.reset();
    fault::set_attempt(0);
    const pid_t pid = supervisor::spawn(4, [&] {
        if (fault::attempt() != 4) {
            return 2;
        }
        latch.request();
        pollfd own{latch.poll_fd(), POLLIN, 0};
        return ::poll(&own, 1, 0) == 1 ? 0 : 1;
    });
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
    pollfd parent{latch.poll_fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&parent, 1, 0), 0);
    EXPECT_FALSE(latch.requested());
    EXPECT_EQ(fault::attempt(), 0);
}

TEST(Supervisor, SpawnExitsWithTheBodysStatus)
{
    const pid_t returns = supervisor::spawn(0, [] { return 3; });
    const pid_t throws = supervisor::spawn(0, []() -> int { throw std::runtime_error("boom"); });
    ASSERT_GT(returns, 0);
    ASSERT_GT(throws, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(returns, &status, 0), returns);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3) << "status " << status;
    ASSERT_EQ(::waitpid(throws, &status, 0), throws);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << "status " << status;
}

TEST(Supervisor, ChildSignalsChooseBetweenTheLatchAndTheDefaultAction)
{
    // The supervisor routes SIGTERM into its latch, as the CLI does.
    ShutdownLatch& latch = ShutdownLatch::global();
    latch.reset();
    latch.install_handlers();

    // inherit: the child keeps the handler and drains through its own
    // latch, exiting on its own terms.
    const pid_t draining = supervisor::spawn(0, [&] {
        while (!latch.requested()) {
            pollfd own{latch.poll_fd(), POLLIN, 0};
            (void)::poll(&own, 1, 1000);
        }
        return 5;
    });
    // reset: the default action, so SIGTERM ends the child on the spot.
    const pid_t killable = spawn_sleeper(supervisor::ChildSignals::reset);
    ASSERT_GT(draining, 0);
    ASSERT_GT(killable, 0);

    ASSERT_EQ(::kill(draining, SIGTERM), 0);
    ASSERT_EQ(::kill(killable, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(draining, &status, 0), draining);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 5) << "status " << status;
    ASSERT_EQ(::waitpid(killable, &status, 0), killable);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) << "status " << status;

    EXPECT_FALSE(latch.requested());
    (void)std::signal(SIGTERM, SIG_DFL);
    (void)std::signal(SIGINT, SIG_DFL);
    latch.reset();
}

TEST(Supervisor, WatchdogKillsAStalledChildAndSparesAnAdvancingOne)
{
    constexpr int timeout_ms = 100;
    const auto now = supervisor::Clock::now();
    supervisor::Child stalled{spawn_sleeper(supervisor::ChildSignals::reset), 7, now};
    supervisor::Child advancing{spawn_sleeper(supervisor::ChildSignals::reset), 7, now};
    ASSERT_GT(stalled.pid, 0);
    ASSERT_GT(advancing.pid, 0);

    std::uint64_t progress = 7;
    ChildState stalled_state = ChildState::running;
    int stalled_status = 0;
    const auto end = supervisor::Clock::now() + milliseconds(4 * timeout_ms);
    while (supervisor::Clock::now() < end) {
        int status = 0;
        EXPECT_EQ(supervisor::check(advancing, ++progress, timeout_ms, &status),
                  ChildState::running);
        if (stalled_state == ChildState::running) {
            stalled_state = supervisor::check(stalled, 7, timeout_ms, &stalled_status);
        }
        std::this_thread::sleep_for(milliseconds(10));
    }

    EXPECT_EQ(stalled_state, ChildState::hung);
    EXPECT_TRUE(WIFSIGNALED(stalled_status) && WTERMSIG(stalled_status) == SIGKILL)
        << "status " << stalled_status;
    EXPECT_TRUE(reaped(stalled.pid));

    // Watchdog off: even a frozen value never kills.
    int status = 0;
    EXPECT_EQ(supervisor::check(advancing, progress, 0, &status), ChildState::running);
    EXPECT_FALSE(supervisor::drain({advancing.pid}, 5000));
    EXPECT_TRUE(reaped(advancing.pid));
}

TEST(Supervisor, CheckReapsAnExitedChild)
{
    const pid_t pid = supervisor::spawn(0, [] { return 9; });
    ASSERT_GT(pid, 0);
    supervisor::Child child{pid, 0, supervisor::Clock::now()};
    int status = 0;
    ChildState state = ChildState::running;
    const auto end = supervisor::Clock::now() + std::chrono::seconds(10);
    while (state == ChildState::running && supervisor::Clock::now() < end) {
        state = supervisor::check(child, 0, 0, &status);
        std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_EQ(state, ChildState::exited);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 9) << "status " << status;
    EXPECT_TRUE(reaped(pid));
}

TEST(Supervisor, DrainSigkillsAChildThatIgnoresSigterm)
{
    const pid_t polite = spawn_sleeper(supervisor::ChildSignals::reset);
    const pid_t stubborn = spawn_sleeper(supervisor::ChildSignals::reset,
                                         [] { (void)std::signal(SIGTERM, SIG_IGN); });
    ASSERT_GT(polite, 0);
    ASSERT_GT(stubborn, 0);

    const auto start = supervisor::Clock::now();
    EXPECT_TRUE(supervisor::drain({polite, stubborn}, 200));
    EXPECT_GE(supervisor::Clock::now() - start, milliseconds(200));
    EXPECT_TRUE(reaped(polite));
    EXPECT_TRUE(reaped(stubborn));
}

TEST(Supervisor, DrainOfChildrenThatHonourSigtermKillsNone)
{
    const pid_t first = spawn_sleeper(supervisor::ChildSignals::reset);
    const pid_t second = spawn_sleeper(supervisor::ChildSignals::reset);
    ASSERT_GT(first, 0);
    ASSERT_GT(second, 0);

    const auto start = supervisor::Clock::now();
    EXPECT_FALSE(supervisor::drain({first, second}, 5000));
    EXPECT_LT(supervisor::Clock::now() - start, std::chrono::seconds(1));
    EXPECT_TRUE(reaped(first));
    EXPECT_TRUE(reaped(second));
}

} // namespace
} // namespace mst
