// Graceful-shutdown latch: turns SIGTERM/SIGINT into a pollable,
// checkable "please drain and exit" request for the network server.
//
// The handler is async-signal-safe (an atomic flag plus one write() to
// a self-pipe); everything else happens on normal threads. request()
// can also be called programmatically, which is what the server tests
// use instead of delivering real signals.
#pragma once

#include <atomic>

namespace mst {

class ShutdownLatch {
public:
    /// The process-wide latch (what the signal handlers flip).
    [[nodiscard]] static ShutdownLatch& global();

    /// Route SIGTERM and SIGINT to this latch. Idempotent.
    void install_handlers();

    /// Request shutdown. Safe from signal handlers and any thread.
    void request() noexcept;

    [[nodiscard]] bool requested() const noexcept
    {
        return requested_.load(std::memory_order_acquire);
    }

    /// Readable when shutdown was requested; poll alongside sockets.
    [[nodiscard]] int poll_fd() const noexcept { return pipe_read_; }

    /// Re-arm for the next test (not used in production).
    void reset() noexcept;

    /// Give a forked child its own self-pipe. Both ends are
    /// non-blocking, so the inherited pipe can never block anyone — but
    /// it is shared with the parent and every sibling: one worker's
    /// SIGTERM byte would leave everyone else's poll() readable for
    /// good and spin their loops. The new pipe is dup'ed onto the same
    /// descriptor numbers, so a signal handler running meanwhile writes
    /// to a valid pipe either way. The requested flag is kept.
    void detach_after_fork() noexcept;

private:
    ShutdownLatch();

    std::atomic<bool> requested_{false};
    int pipe_read_ = -1;
    int pipe_write_ = -1;
};

} // namespace mst
