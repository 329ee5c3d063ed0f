#include "common/net.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/faultpoint.hpp"

namespace mst::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what)
{
    throw Error(what + ": " + std::strerror(errno));
}

/// getaddrinfo for one numeric-or-named host. The caller frees with
/// freeaddrinfo.
addrinfo* resolve(const Endpoint& endpoint, bool passive)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    addrinfo* result = nullptr;
    const std::string port = std::to_string(endpoint.port);
    const int rc = ::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &result);
    if (rc != 0) {
        throw Error("cannot resolve '" + endpoint.host + "': " + ::gai_strerror(rc));
    }
    return result;
}

Endpoint endpoint_of(const sockaddr_storage& storage)
{
    Endpoint endpoint;
    char host[INET6_ADDRSTRLEN] = {};
    if (storage.ss_family == AF_INET) {
        const auto* v4 = reinterpret_cast<const sockaddr_in*>(&storage);
        ::inet_ntop(AF_INET, &v4->sin_addr, host, sizeof host);
        endpoint.port = ntohs(v4->sin_port);
    } else if (storage.ss_family == AF_INET6) {
        const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&storage);
        ::inet_ntop(AF_INET6, &v6->sin6_addr, host, sizeof host);
        endpoint.port = ntohs(v6->sin6_port);
    }
    endpoint.host = host;
    return endpoint;
}

bool poll_one(int fd, short events, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0) {
            return true;
        }
        if (rc == 0) {
            return false; // timeout
        }
        if (errno != EINTR) {
            return true; // let the subsequent syscall surface the error
        }
    }
}

} // namespace

std::string Endpoint::to_string() const
{
    if (host.find(':') != std::string::npos) {
        return "[" + host + "]:" + std::to_string(port);
    }
    return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& text)
{
    Endpoint endpoint;
    std::string port_text;
    if (!text.empty() && text.front() == '[') {
        const std::size_t close = text.find(']');
        if (close == std::string::npos || close + 1 >= text.size() || text[close + 1] != ':') {
            throw ValidationError("malformed listen address '" + text +
                                  "' (expected [host]:port)");
        }
        endpoint.host = text.substr(1, close - 1);
        port_text = text.substr(close + 2);
    } else {
        const std::size_t colon = text.rfind(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size() ||
            text.find(':') != colon) {
            throw ValidationError("malformed listen address '" + text +
                                  "' (expected host:port)");
        }
        endpoint.host = text.substr(0, colon);
        port_text = text.substr(colon + 1);
    }
    long port = -1;
    std::size_t consumed = 0;
    try {
        port = std::stol(port_text, &consumed);
    } catch (const std::exception&) {
        consumed = 0;
    }
    if (consumed != port_text.size() || port_text.empty() || port < 0 || port > 65535) {
        throw ValidationError("listen address '" + text + "' has an invalid port '" +
                              port_text + "'");
    }
    endpoint.port = static_cast<std::uint16_t>(port);
    return endpoint;
}

Socket::~Socket()
{
    close();
}

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

bool Socket::wait_readable(int timeout_ms) const
{
    return poll_one(fd_, POLLIN, timeout_ms);
}

long Socket::read_some(char* data, std::size_t size) const
{
    for (;;) {
        const ssize_t n = ::recv(fd_, data, size, 0);
        if (n >= 0) {
            return static_cast<long>(n);
        }
        if (errno != EINTR) {
            return -1;
        }
    }
}

bool Socket::write_all(const char* data, std::size_t size) const
{
    std::size_t written = 0;
    while (written < size) {
        // MSG_NOSIGNAL: a vanished peer is a false return, not SIGPIPE.
        const ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false; // peer gone, or SO_SNDTIMEO expired (EAGAIN)
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

void Socket::set_write_timeout(int timeout_ms) const
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void Socket::shutdown_write() const
{
    (void)::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() const
{
    (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept
{
    if (fd_ >= 0) {
        (void)::close(fd_);
        fd_ = -1;
    }
}

Listener::~Listener()
{
    close();
}

Listener::Listener(Listener&& other) noexcept : fd_(other.fd_), shared_(other.shared_)
{
    other.fd_ = -1;
    other.shared_ = false;
}

Listener& Listener::operator=(Listener&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        shared_ = other.shared_;
        other.fd_ = -1;
        other.shared_ = false;
    }
    return *this;
}

Listener Listener::bind(const Endpoint& endpoint, int backlog)
{
    addrinfo* addresses = resolve(endpoint, /*passive=*/true);
    int fd = -1;
    std::string error = "cannot bind " + endpoint.to_string();
    for (const addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
        fd = ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC,
                      address->ai_protocol);
        if (fd < 0) {
            continue;
        }
        const int enable = 1;
        (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
        if (::bind(fd, address->ai_addr, address->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0) {
            break;
        }
        error += std::string(": ") + std::strerror(errno);
        (void)::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addresses);
    if (fd < 0) {
        throw Error(error);
    }
    return Listener(fd);
}

Listener Listener::adopt(int fd)
{
    if (fd < 0) {
        throw ValidationError("cannot adopt a negative listener fd");
    }
    Listener listener(fd);
    listener.shared_ = true;
    // Non-blocking: one arriving connection wakes the poll() of every
    // process sharing the listener, and only one wins accept4(). A
    // blocking loser would sleep inside accept4 — through SIGTERM, since
    // an adopted listener is never shut down — until the next
    // connection; non-blocking, it gets EAGAIN (transient) and returns
    // to its poll loop. O_NONBLOCK lives on the shared open file
    // description, so setting it again per adopter is idempotent.
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        fail_errno("make adopted listener non-blocking");
    }
    return listener;
}

int Listener::dup_fd() const
{
    if (fd_ < 0) {
        throw Error("cannot dup an invalid listener");
    }
    const int copy = ::fcntl(fd_, F_DUPFD_CLOEXEC, 0);
    if (copy < 0) {
        fail_errno("dup listener fd");
    }
    return copy;
}

Endpoint Listener::local_endpoint() const
{
    sockaddr_storage storage{};
    socklen_t length = sizeof storage;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&storage), &length) != 0) {
        fail_errno("getsockname");
    }
    return endpoint_of(storage);
}

AcceptResult Listener::accept(int timeout_ms) const
{
    AcceptResult result;
    if (fd_ < 0) {
        result.status = AcceptResult::Status::closed;
        return result;
    }
    if (!poll_one(fd_, POLLIN, timeout_ms)) {
        return result; // timeout
    }
    // Probe only once a connection is actually ready: the fault fires on
    // the Nth arriving connection, not the Nth poll timeout, so injected
    // plans are independent of accept-loop timing.
    if (const std::errc fault = MST_FAULTPOINT("net.accept"); fault != std::errc{}) {
        result.status = AcceptResult::Status::exhausted;
        result.error = static_cast<int>(fault);
        return result;
    }
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
        switch (errno) {
        case EINTR:
        case ECONNABORTED:
#ifdef EPROTO
        case EPROTO:
#endif
        case EAGAIN:
#if EWOULDBLOCK != EAGAIN
        case EWOULDBLOCK:
#endif
            result.status = AcceptResult::Status::transient;
            break;
        case EBADF:
        case EINVAL:
            result.status = AcceptResult::Status::closed;
            break;
        default:
            // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything unexpected:
            // resource exhaustion semantics (shed + back off) never
            // spin hot and never kill the server.
            result.status = AcceptResult::Status::exhausted;
            break;
        }
        result.error = errno;
        return result;
    }
    int enable = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    result.status = AcceptResult::Status::accepted;
    result.socket = Socket(fd);
    return result;
}

void Listener::close() noexcept
{
    if (fd_ >= 0) {
        // shutdown() wakes a thread blocked in poll/accept on this fd —
        // but only for an exclusively owned description: an adopted
        // (fork-shared) listener must not shut down accepts pool-wide,
        // so it relies on the accept loop's poll timeout instead.
        if (!shared_) {
            (void)::shutdown(fd_, SHUT_RDWR);
        }
        (void)::close(fd_);
        fd_ = -1;
    }
}

Socket connect(const Endpoint& endpoint, int timeout_ms)
{
    addrinfo* addresses = resolve(endpoint, /*passive=*/false);
    int fd = -1;
    std::string error = "cannot connect to " + endpoint.to_string();
    for (const addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
        fd = ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC,
                      address->ai_protocol);
        if (fd < 0) {
            continue;
        }
        int rc = ::connect(fd, address->ai_addr, address->ai_addrlen);
        if (rc != 0 && errno == EINTR) {
            // EINTR on a blocking connect does NOT abort the attempt —
            // the handshake continues in the background. Retrying
            // connect() here would be wrong (EALREADY/EISCONN races);
            // the portable recovery is to wait for writability and read
            // the final status from SO_ERROR.
            (void)poll_one(fd, POLLOUT, timeout_ms);
            int so_error = 0;
            socklen_t length = sizeof so_error;
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &length) == 0 &&
                so_error == 0) {
                rc = 0;
            } else {
                errno = so_error != 0 ? so_error : ETIMEDOUT;
            }
        }
        if (rc == 0) {
            break;
        }
        error += std::string(": ") + std::strerror(errno);
        (void)::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addresses);
    if (fd < 0) {
        throw Error(error);
    }
    int enable = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    (void)timeout_ms; // blocking connect; the loopback uses are instant
    return Socket(fd);
}

} // namespace mst::net
