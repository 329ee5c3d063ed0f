#include "common/signals.hpp"

#include <csignal>

#include <fcntl.h>
#include <unistd.h>

namespace mst {

namespace {

void handle_shutdown_signal(int)
{
    ShutdownLatch::global().request();
}

} // namespace

ShutdownLatch& ShutdownLatch::global()
{
    static ShutdownLatch latch;
    return latch;
}

ShutdownLatch::ShutdownLatch()
{
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0) {
        pipe_read_ = fds[0];
        pipe_write_ = fds[1];
    }
}

void ShutdownLatch::detach_after_fork() noexcept
{
    int fds[2] = {-1, -1};
    if (pipe_read_ < 0 || ::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        return;
    }
    (void)::dup3(fds[0], pipe_read_, O_CLOEXEC);
    (void)::dup3(fds[1], pipe_write_, O_CLOEXEC);
    (void)::close(fds[0]);
    (void)::close(fds[1]);
}

void ShutdownLatch::install_handlers()
{
    struct sigaction action = {};
    action.sa_handler = handle_shutdown_signal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: blocked accept/poll calls wake
    (void)::sigaction(SIGTERM, &action, nullptr);
    (void)::sigaction(SIGINT, &action, nullptr);
}

void ShutdownLatch::request() noexcept
{
    requested_.store(true, std::memory_order_release);
    if (pipe_write_ >= 0) {
        const char byte = 1;
        // Best effort: the pipe full just means it is already signaled.
        [[maybe_unused]] const auto n = ::write(pipe_write_, &byte, 1);
    }
}

void ShutdownLatch::reset() noexcept
{
    requested_.store(false, std::memory_order_release);
    if (pipe_read_ >= 0) {
        char drain[16];
        while (::read(pipe_read_, drain, sizeof drain) > 0) {
        }
    }
}

} // namespace mst
