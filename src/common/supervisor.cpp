#include "common/supervisor.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>

#include "common/faultpoint.hpp"
#include "common/signals.hpp"

namespace mst::supervisor {

namespace {

/// EINTR-correct waitpid: a stray signal must not make a supervisor
/// misread a healthy child as dead.
pid_t waitpid_retry(pid_t pid, int* status, int flags)
{
    for (;;) {
        const pid_t result = ::waitpid(pid, status, flags);
        if (result >= 0 || errno != EINTR) {
            return result;
        }
    }
}

} // namespace

std::chrono::milliseconds capped_backoff(int base_ms, int cap_ms, int k)
{
    if (base_ms <= 0) {
        return std::chrono::milliseconds(0);
    }
    const int shift = std::clamp(k, 0, 20);
    const long long raw = static_cast<long long>(base_ms) << shift;
    return std::chrono::milliseconds(std::min<long long>(raw, std::max(cap_ms, base_ms)));
}

pid_t spawn(int attempt, const std::function<int()>& body, ChildSignals signals)
{
    sigset_t shutdown_signals;
    sigset_t previous;
    ::sigemptyset(&shutdown_signals);
    ::sigaddset(&shutdown_signals, SIGTERM);
    ::sigaddset(&shutdown_signals, SIGINT);
    (void)::pthread_sigmask(SIG_BLOCK, &shutdown_signals, &previous);
    const pid_t pid = ::fork();
    if (pid == 0) {
        fault::set_attempt(attempt);
        ShutdownLatch::global().detach_after_fork();
        if (signals == ChildSignals::reset) {
            (void)::signal(SIGTERM, SIG_DFL);
            (void)::signal(SIGINT, SIG_DFL);
        }
    }
    // In the parent, a signal that arrived meanwhile reaches its handler
    // now; in the child, one forwarded meanwhile meets the set-up above.
    (void)::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    if (pid != 0) {
        return pid;
    }
    int exit_code = 1;
    try {
        exit_code = body();
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mst worker %d: %s\n", static_cast<int>(::getpid()), error.what());
    } catch (...) {
    }
    ::_exit(exit_code);
}

ChildState check(Child& child, std::uint64_t progress, int timeout_ms, int* status)
{
    *status = -1;
    if (waitpid_retry(child.pid, status, WNOHANG) != 0) {
        return ChildState::exited;
    }
    if (progress != child.progress) {
        child.progress = progress;
        child.last_progress = Clock::now();
    } else if (timeout_ms > 0 &&
               Clock::now() - child.last_progress > std::chrono::milliseconds(timeout_ms)) {
        (void)::kill(child.pid, SIGKILL);
        (void)waitpid_retry(child.pid, status, 0);
        return ChildState::hung;
    }
    return ChildState::running;
}

bool drain(std::vector<pid_t> pids, int timeout_ms)
{
    for (const pid_t pid : pids) {
        (void)::kill(pid, SIGTERM);
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
    for (;;) {
        pids.erase(std::remove_if(pids.begin(), pids.end(),
                                  [](pid_t pid) {
                                      return waitpid_retry(pid, nullptr, WNOHANG) != 0;
                                  }),
                   pids.end());
        if (pids.empty() || Clock::now() >= deadline) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const pid_t pid : pids) {
        (void)::kill(pid, SIGKILL);
        (void)waitpid_retry(pid, nullptr, 0);
    }
    return !pids.empty();
}

bool write_file_atomic(const std::string& path, const std::string& text)
{
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp);
    out << text;
    out.close();
    if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
        (void)std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace mst::supervisor
