#include "soc/writer.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace mst {

namespace {

/// Emit the canonical .soc text of `soc` to `sink`. Run twice by
/// soc_to_string: once to measure the text, once to write it.
template <typename Sink>
void render(const Soc& soc, Sink& sink)
{
    sink.text("# ");
    sink.text(soc.name());
    sink.text(": ");
    sink.number(soc.module_count());
    sink.text(" modules\nsoc ");
    sink.text(soc.name());
    sink.text("\n");
    for (const Module& m : soc.modules()) {
        sink.text("module ");
        sink.text(m.name());
        sink.text(" inputs ");
        sink.number(m.inputs());
        sink.text(" outputs ");
        sink.number(m.outputs());
        sink.text(" bidirs ");
        sink.number(m.bidirs());
        sink.text(" patterns ");
        sink.number(m.patterns());
        if (m.scan_chain_count() > 0) {
            sink.text(" scan");
            for (const FlipFlopCount length : m.scan_chain_lengths()) {
                sink.text(" ");
                sink.number(length);
            }
        }
        sink.text("\n");
    }
    sink.text("end\n");
}

/// to_chars into [first, last); nullptr when the number does not fit.
char* put_number(char* first, char* last, std::int64_t value)
{
    const std::to_chars_result result = std::to_chars(first, last, value);
    return result.ec == std::errc{} ? result.ptr : nullptr;
}

/// Sink that only counts the bytes render() emits.
struct Measure {
    std::size_t size = 0;

    void text(std::string_view s) { size += s.size(); }
    void number(std::int64_t value)
    {
        char digits[20]; // strlen("-9223372036854775808")
        size += static_cast<std::size_t>(put_number(digits, digits + sizeof digits, value) -
                                          digits);
    }
};

/// Sink that writes into the buffer Measure sized. Bounded by the buffer
/// end, so a disagreement with Measure throws instead of overrunning.
struct Write {
    char* at;
    char* end;

    void text(std::string_view s)
    {
        if (s.size() > static_cast<std::size_t>(end - at)) {
            overrun();
        }
        std::memcpy(at, s.data(), s.size());
        at += s.size();
    }
    void number(std::int64_t value)
    {
        at = put_number(at, end, value);
        if (at == nullptr) {
            overrun();
        }
    }
    [[noreturn]] static void overrun()
    {
        throw Error("canonical .soc rendition overran its measured size");
    }
};

} // namespace

void write_soc(std::ostream& out, const Soc& soc)
{
    const std::string text = soc_to_string(soc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string soc_to_string(const Soc& soc)
{
    // Measured, then written with to_chars into one exactly sized buffer:
    // the request service fingerprints every SOC it resolves by hashing
    // this text, so it sits on the serve path.
    Measure measure;
    render(soc, measure);
    std::string out(measure.size, '\0');
    Write write{out.data(), out.data() + out.size()};
    render(soc, write);
    if (write.at != write.end) {
        Write::overrun(); // Measure counted bytes render() never wrote
    }
    return out;
}

void save_soc_file(const std::string& path, const Soc& soc)
{
    std::ofstream file(path);
    if (!file) {
        throw Error("cannot create file '" + path + "'");
    }
    write_soc(file, soc);
    if (!file.good()) {
        throw Error("error while writing '" + path + "'");
    }
}

} // namespace mst
