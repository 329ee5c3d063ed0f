#include "service/framing.hpp"

#include <cstdint>
#include <system_error>

#include "common/faultpoint.hpp"

namespace mst {

namespace {

constexpr std::size_t length_prefix_bytes = 4;

bool is_blank(const std::string& line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

} // namespace

FrameReader::FrameReader(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes < 1 ? 1 : max_frame_bytes)
{
}

void FrameReader::set_framing(Framing framing)
{
    framing_ = framing;
    scanned_ = 0;
    skipping_line_ = false;
    skip_remaining_ = 0;
}

void FrameReader::feed(const char* data, std::size_t size)
{
    buffer_.append(data, size);
}

bool FrameReader::mid_frame() const noexcept
{
    return !buffer_.empty() || skip_remaining_ != 0 || skipping_line_;
}

void FrameReader::consume(std::size_t bytes)
{
    buffer_.erase(0, bytes);
    scanned_ = 0;
}

void FrameReader::clear()
{
    buffer_.clear();
    scanned_ = 0;
}

FrameReader::Status FrameReader::next(std::string& frame)
{
    const Status status =
        framing_ == Framing::ndjson ? next_ndjson(frame) : next_length_prefix(frame);
    // Injected decode failure, probed only when a complete frame was
    // decoded (the Nth *frame*, not the Nth poll or partial read): the
    // frame degrades to a typed per-request parse error, the stream
    // stays in sync, and the connection lives on.
    if (status == Status::frame) {
        if (const std::errc fault = MST_FAULTPOINT("framing.read"); fault != std::errc{}) {
            frame = "injected framing fault: " + std::make_error_code(fault).message();
            return Status::oversized;
        }
    }
    return status;
}

FrameReader::Status FrameReader::next_ndjson(std::string& frame)
{
    for (;;) {
        // Resume the search where the last one stopped: a long line
        // arriving in many reads is scanned once, not once per read.
        const std::size_t newline = buffer_.find('\n', scanned_);
        if (skipping_line_) {
            // Discarding the remainder of an oversized line.
            if (newline == std::string::npos) {
                clear();
                return Status::need_more;
            }
            consume(newline + 1);
            skipping_line_ = false;
            continue;
        }
        if (newline == std::string::npos) {
            if (buffer_.size() > max_frame_bytes_) {
                // Longer than any acceptable line and still no
                // terminator: report now, discard until the next '\n'.
                clear();
                skipping_line_ = true;
                frame = "line exceeds " + std::to_string(max_frame_bytes_) + " bytes";
                return Status::oversized;
            }
            scanned_ = buffer_.size();
            return Status::need_more;
        }
        if (newline > max_frame_bytes_) {
            consume(newline + 1);
            frame = "line exceeds " + std::to_string(max_frame_bytes_) + " bytes";
            return Status::oversized;
        }
        if (newline + 1 == buffer_.size()) {
            // The line fills the buffer: hand the buffer itself out, and
            // keep the caller's old storage for the next bytes.
            buffer_.pop_back();
            frame.swap(buffer_);
            clear();
        } else {
            frame.assign(buffer_, 0, newline);
            consume(newline + 1);
        }
        if (!frame.empty() && frame.back() == '\r') {
            frame.pop_back();
        }
        if (is_blank(frame)) {
            continue; // blank lines are not requests (stdio serve parity)
        }
        return Status::frame;
    }
}

FrameReader::Status FrameReader::next_length_prefix(std::string& frame)
{
    for (;;) {
        if (skip_remaining_ != 0) {
            // Discarding an oversized payload; the declared length keeps
            // the stream in sync.
            const std::size_t drop =
                buffer_.size() < skip_remaining_ ? buffer_.size() : skip_remaining_;
            consume(drop);
            skip_remaining_ -= drop;
            if (skip_remaining_ != 0) {
                return Status::need_more;
            }
            continue;
        }
        if (buffer_.size() < length_prefix_bytes) {
            return Status::need_more;
        }
        const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
        const std::uint32_t length = (static_cast<std::uint32_t>(bytes[0]) << 24) |
                                     (static_cast<std::uint32_t>(bytes[1]) << 16) |
                                     (static_cast<std::uint32_t>(bytes[2]) << 8) |
                                     static_cast<std::uint32_t>(bytes[3]);
        if (length > max_frame_bytes_) {
            consume(length_prefix_bytes);
            skip_remaining_ = length;
            frame = "frame of " + std::to_string(length) + " bytes exceeds " +
                    std::to_string(max_frame_bytes_) + " bytes";
            return Status::oversized;
        }
        if (buffer_.size() < length_prefix_bytes + length) {
            return Status::need_more;
        }
        frame = buffer_.substr(length_prefix_bytes, length);
        consume(length_prefix_bytes + length);
        if (is_blank(frame)) {
            continue;
        }
        return Status::frame;
    }
}

std::string encode_frame(protocol::Framing framing, const std::string& payload)
{
    if (framing == protocol::Framing::ndjson) {
        return payload + '\n';
    }
    const auto length = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(length_prefix_bytes + payload.size());
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>(length & 0xff));
    frame += payload;
    return frame;
}

} // namespace mst
