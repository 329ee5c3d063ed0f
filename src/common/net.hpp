// Thin POSIX TCP wrappers for the network server (service/server.hpp).
//
// Scope is deliberately small: blocking stream sockets with poll-based
// readiness waits and full-write semantics, RAII ownership of the file
// descriptor, and IPv4/IPv6 endpoint parsing. No frameworks — the repo
// serves newline-delimited JSON, not HTTP.
//
// Error model: setup failures (bind, listen, bad endpoint text) throw
// mst::Error/ValidationError with the errno text; per-connection I/O
// failures are return values (a dropped peer is a normal event for a
// server, not an exception).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace mst::net {

/// A host:port pair. `host` is a numeric IPv4/IPv6 address or a name
/// resolvable by getaddrinfo; port 0 asks the kernel for a free port.
struct Endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    [[nodiscard]] std::string to_string() const;
};

/// Parse "host:port" ("[v6]:port" for bracketed IPv6). Throws
/// ValidationError on malformed text or an out-of-range port.
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

/// One connected TCP stream. Move-only; closes on destruction.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) noexcept : fd_(fd) {}
    ~Socket();

    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// Wait until the socket is readable. timeout_ms < 0 waits forever;
    /// returns false on timeout, true on readable/EOF/error (a read
    /// will then not block).
    [[nodiscard]] bool wait_readable(int timeout_ms) const;

    /// Read up to `size` bytes. Returns the byte count, 0 at EOF, -1 on
    /// a connection error. Retries EINTR.
    [[nodiscard]] long read_some(char* data, std::size_t size) const;

    /// Write the whole buffer (handling partial writes and EINTR;
    /// SIGPIPE is suppressed). False when the peer is gone or a send
    /// timeout configured via set_write_timeout expired.
    [[nodiscard]] bool write_all(const char* data, std::size_t size) const;
    [[nodiscard]] bool write_all(const std::string& data) const
    {
        return write_all(data.data(), data.size());
    }

    /// SO_SNDTIMEO: bound how long write_all may block on a peer that
    /// stopped reading (0 disables the bound).
    void set_write_timeout(int timeout_ms) const;

    /// Half-close: no more writes, reads still drain (client side).
    void shutdown_write() const;

    /// Full shutdown: wakes a thread blocked in poll/read on this
    /// socket (it sees EOF) without closing the descriptor, so the
    /// owning thread can still run its normal teardown. Used to shed
    /// idle connections under fd exhaustion.
    void shutdown_both() const;

    void close() noexcept;

private:
    int fd_ = -1;
};

/// Outcome of one Listener::accept call. Transient failures are split
/// from resource exhaustion so the server can react differently:
/// transient errors (ECONNABORTED, EINTR, EPROTO) just mean "try
/// again"; exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM — and anything
/// unclassified, so an unexpected errno backs off instead of spinning
/// or dying) calls for shedding + backoff.
struct AcceptResult {
    enum class Status {
        accepted,  ///< `socket` holds the new connection
        timeout,   ///< nothing arrived within timeout_ms
        transient, ///< harmless race (peer vanished mid-handshake); retry now
        exhausted, ///< out of fds/buffers; shed + back off, `error` has errno
        closed,    ///< the listener was closed concurrently
    };

    Status status = Status::timeout;
    Socket socket;
    int error = 0;
};

/// A listening TCP socket. Move-only; closes on destruction.
class Listener {
public:
    Listener() = default;
    ~Listener();

    Listener(Listener&& other) noexcept;
    Listener& operator=(Listener&& other) noexcept;
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// Bind + listen on `endpoint` (SO_REUSEADDR set). Throws mst::Error
    /// with the errno text when the address is unavailable.
    [[nodiscard]] static Listener bind(const Endpoint& endpoint, int backlog = 64);

    /// The actual bound address — resolves port 0 to the kernel's pick.
    [[nodiscard]] Endpoint local_endpoint() const;

    /// Accept one connection, waiting at most timeout_ms (< 0: forever).
    /// Never throws: every errno is classified into AcceptResult::Status
    /// (probed by the `net.accept` fault point once a connection is
    /// actually ready, so injected EMFILE exercises the shed path
    /// deterministically).
    [[nodiscard]] AcceptResult accept(int timeout_ms) const;

    /// Adopt an already-listening descriptor (a forked prefork worker
    /// inherits the parent's fd; the adopting Listener owns and closes
    /// it). The underlying open file description is shared with the
    /// parent and sibling workers, so close() on an adopted listener
    /// skips the shutdown() wake — it must not tear down accepts
    /// pool-wide. The descriptor is made non-blocking, so a worker that
    /// loses the accept race to a sibling returns to its poll loop
    /// instead of blocking in accept. Throws ValidationError on a
    /// negative fd and mst::Error when the flags cannot be set.
    [[nodiscard]] static Listener adopt(int fd);

    /// Duplicate the listening descriptor (the prefork parent keeps its
    /// own copy alive for respawns while each worker adopts a dup).
    /// Throws mst::Error when dup fails or the listener is invalid.
    [[nodiscard]] int dup_fd() const;

    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// Close the listening socket (wakes a blocked accept with nullopt).
    void close() noexcept;

private:
    explicit Listener(int fd) noexcept : fd_(fd) {}

    int fd_ = -1;
    bool shared_ = false; ///< adopted: the description outlives this copy
};

/// Connect to `endpoint` (test clients; timeout_ms < 0 waits forever).
/// Throws mst::Error when the connection is refused or times out.
[[nodiscard]] Socket connect(const Endpoint& endpoint, int timeout_ms = 5000);

} // namespace mst::net
