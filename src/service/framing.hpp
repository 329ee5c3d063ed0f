// Frame splitting/encoding for the network server's byte streams.
//
// Two encodings, negotiated per connection via the protocol's `hello`
// request (service/protocol.hpp):
//   * ndjson (default): one JSON document per '\n'-terminated line.
//     Blank/whitespace-only lines are ignored, a trailing '\r' is
//     stripped (telnet-friendly). An overlong line is reported once as
//     an oversized frame and discarded up to the next '\n', so one bad
//     request costs one error response, not the connection.
//   * length_prefix: a 4-byte big-endian payload length followed by the
//     payload bytes. An overlong frame is skipped by trusting the
//     declared length, so the stream stays in sync here too.
//
// FrameReader is push-based and transport-agnostic: feed() received
// bytes, next() pulls complete frames. This keeps the splitter unit
// testable without sockets and reusable by any future transport.
#pragma once

#include <cstddef>
#include <string>

#include "service/protocol.hpp"

namespace mst {

class FrameReader {
public:
    using Framing = protocol::Framing;

    /// Frames larger than `max_frame_bytes` are reported as oversized
    /// and skipped (capacity is clamped to at least 1).
    explicit FrameReader(std::size_t max_frame_bytes);

    /// Switch encodings. Only valid at a frame boundary (the negotiated
    /// switch happens right after the hello exchange).
    void set_framing(Framing framing);
    [[nodiscard]] Framing framing() const noexcept { return framing_; }

    /// Append bytes received from the transport.
    void feed(const char* data, std::size_t size);

    enum class Status {
        need_more, ///< no complete frame buffered; feed more bytes
        frame,     ///< `frame` holds the next payload
        oversized, ///< a frame exceeded the cap and was (or is being)
                   ///< discarded; `frame` holds a short description
    };

    /// Extract the next complete frame. Call repeatedly until it
    /// returns need_more.
    [[nodiscard]] Status next(std::string& frame);

    /// True when no partially received frame is buffered (distinguishes
    /// the idle timeout from the mid-frame read timeout).
    [[nodiscard]] bool mid_frame() const noexcept;

private:
    [[nodiscard]] Status next_ndjson(std::string& frame);
    [[nodiscard]] Status next_length_prefix(std::string& frame);
    void consume(std::size_t bytes);
    void clear();

    Framing framing_ = Framing::ndjson;
    std::size_t max_frame_bytes_;
    std::string buffer_;
    std::size_t scanned_ = 0;        ///< ndjson: buffer_ prefix known to hold no '\n'
    std::size_t skip_remaining_ = 0; ///< length_prefix: payload bytes left to discard
    bool skipping_line_ = false;     ///< ndjson: discarding until the next '\n'
};

/// Encode one response payload in the given framing (what the writer
/// sends back over the transport).
[[nodiscard]] std::string encode_frame(protocol::Framing framing, const std::string& payload);

} // namespace mst
