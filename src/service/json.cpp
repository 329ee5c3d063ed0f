#include "service/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mst {

namespace {

std::string type_name(JsonValue::Type type)
{
    switch (type) {
    case JsonValue::Type::null: return "null";
    case JsonValue::Type::boolean: return "boolean";
    case JsonValue::Type::number: return "number";
    case JsonValue::Type::string: return "string";
    case JsonValue::Type::array: return "array";
    case JsonValue::Type::object: return "object";
    }
    return "?";
}

void append_utf8(std::string& out, unsigned long code_point)
{
    if (code_point < 0x80) {
        out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
        out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
        out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
}

/// The end of the run of plain string bytes starting at `pos`: the
/// offset of the first '"', '\\' or byte below 0x20, or `size`.
std::size_t plain_run_end(const char* data, std::size_t pos, std::size_t size)
{
#if defined(__SSE2__)
    // 16 bytes per step. A byte is a control byte when its unsigned min
    // with 0x1F is itself; bytes >= 0x80 stay plain.
    const __m128i quote = _mm_set1_epi8('"');
    const __m128i backslash = _mm_set1_epi8('\\');
    const __m128i control_max = _mm_set1_epi8(0x1F);
    while (pos + 16 <= size) {
        const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
        const __m128i special =
            _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(block, quote),
                                      _mm_cmpeq_epi8(block, backslash)),
                         _mm_cmpeq_epi8(_mm_min_epu8(block, control_max), block));
        const int mask = _mm_movemask_epi8(special);
        if (mask != 0) {
            return pos + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
        }
        pos += 16;
    }
#endif
    while (pos < size) {
        const auto byte = static_cast<unsigned char>(data[pos]);
        if (byte == '"' || byte == '\\' || byte < 0x20) {
            break;
        }
        ++pos;
    }
    return pos;
}

} // namespace

/// Recursive-descent parser over an in-memory document.
class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue parse_document()
    {
        JsonValue value = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing content after JSON value");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const
    {
        throw JsonParseError(pos_, message);
    }

    void skip_whitespace()
    {
        while (pos_ < text_.size()) {
            const char ch = text_[pos_];
            if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') {
                break;
            }
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char ch)
    {
        if (peek() != ch) {
            fail(std::string("expected '") + ch + "', got '" + text_[pos_] + "'");
        }
        ++pos_;
    }

    bool consume_keyword(const char* keyword)
    {
        std::size_t len = 0;
        while (keyword[len] != '\0') {
            ++len;
        }
        if (text_.compare(pos_, len, keyword) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    JsonValue parse_value()
    {
        skip_whitespace();
        const std::size_t start = pos_;
        JsonValue value;
        switch (peek()) {
        case '{':
        case '[':
            if (depth_ == JsonValue::max_depth) {
                fail("nesting deeper than " + std::to_string(JsonValue::max_depth) +
                     " levels");
            }
            ++depth_;
            value = text_[pos_] == '{' ? parse_object() : parse_array();
            --depth_;
            break;
        case '"': value = parse_string_value(); break;
        case 't':
        case 'f': value = parse_boolean(); break;
        case 'n': value = parse_null(); break;
        default: value = parse_number(); break;
        }
        value.offset_ = start;
        value.size_ = pos_ - start;
        return value;
    }

    JsonValue parse_object()
    {
        JsonValue value;
        value.type_ = JsonValue::Type::object;
        expect('{');
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            skip_whitespace();
            if (peek() != '"') {
                fail("expected a string object key");
            }
            std::string key = parse_string_literal();
            for (const JsonValue::Member& member : value.object_) {
                if (member.first == key) {
                    fail("duplicate object key \"" + key + "\"");
                }
            }
            skip_whitespace();
            expect(':');
            value.object_.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue parse_array()
    {
        JsonValue value;
        value.type_ = JsonValue::Type::array;
        expect('[');
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            value.array_.push_back(parse_value());
            skip_whitespace();
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    JsonValue parse_string_value()
    {
        JsonValue value;
        value.type_ = JsonValue::Type::string;
        value.string_ = parse_string_literal();
        return value;
    }

    std::string parse_string_literal()
    {
        expect('"');
        std::string out;
        for (;;) {
            const std::size_t run_end = plain_run_end(text_.data(), pos_, text_.size());
            out.append(text_, pos_, run_end - pos_);
            pos_ = run_end;
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char ch = text_[pos_++];
            if (ch == '"') {
                return out;
            }
            if (ch != '\\') {
                --pos_;
                fail("unescaped control character in string");
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape sequence");
            }
            const char escape = text_[pos_++];
            switch (escape) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned long code_point = parse_hex4();
                // Surrogate pair: a high surrogate must be followed by
                // an escaped low surrogate.
                if (code_point >= 0xD800 && code_point <= 0xDBFF) {
                    if (text_.compare(pos_, 2, "\\u") != 0) {
                        fail("unpaired UTF-16 surrogate");
                    }
                    pos_ += 2;
                    const unsigned long low = parse_hex4();
                    if (low < 0xDC00 || low > 0xDFFF) {
                        fail("invalid UTF-16 surrogate pair");
                    }
                    code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
                } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
                    fail("unpaired UTF-16 surrogate");
                }
                append_utf8(out, code_point);
                break;
            }
            default:
                --pos_;
                fail(std::string("invalid escape '\\") + escape + "'");
            }
        }
    }

    unsigned long parse_hex4()
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
        }
        unsigned long value = 0;
        for (int i = 0; i < 4; ++i) {
            const char ch = text_[pos_ + static_cast<std::size_t>(i)];
            value <<= 4;
            if (ch >= '0' && ch <= '9') {
                value |= static_cast<unsigned long>(ch - '0');
            } else if (ch >= 'a' && ch <= 'f') {
                value |= static_cast<unsigned long>(ch - 'a' + 10);
            } else if (ch >= 'A' && ch <= 'F') {
                value |= static_cast<unsigned long>(ch - 'A' + 10);
            } else {
                fail("invalid \\u escape digit");
            }
        }
        pos_ += 4;
        return value;
    }

    JsonValue parse_boolean()
    {
        JsonValue value;
        value.type_ = JsonValue::Type::boolean;
        if (consume_keyword("true")) {
            value.bool_ = true;
            value.raw_ = "true";
        } else if (consume_keyword("false")) {
            value.bool_ = false;
            value.raw_ = "false";
        } else {
            fail("invalid literal");
        }
        return value;
    }

    JsonValue parse_null()
    {
        if (!consume_keyword("null")) {
            fail("invalid literal");
        }
        JsonValue value;
        value.raw_ = "null";
        return value;
    }

    JsonValue parse_number()
    {
        const std::size_t start = pos_;
        // RFC 8259 grammar: -?int frac? exp?. Scan it first so strtod
        // cannot accept laxer forms (hex, inf, leading '+').
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
            pos_ = start;
            fail("invalid JSON value");
        }
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("digits required after decimal point");
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("digits required in exponent");
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
        }
        JsonValue value;
        value.type_ = JsonValue::Type::number;
        value.raw_ = text_.substr(start, pos_ - start);
        errno = 0;
        value.number_ = std::strtod(value.raw_.c_str(), nullptr);
        if (errno == ERANGE && !std::isfinite(value.number_)) {
            pos_ = start;
            fail("number out of range");
        }
        return value;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< open arrays and objects around pos_
};

JsonValue JsonValue::parse(const std::string& text)
{
    return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const
{
    if (type_ != Type::boolean) {
        throw ValidationError("expected a boolean, got " + type_name(type_));
    }
    return bool_;
}

double JsonValue::as_number() const
{
    if (type_ != Type::number) {
        throw ValidationError("expected a number, got " + type_name(type_));
    }
    return number_;
}

std::int64_t JsonValue::as_int() const
{
    const double value = as_number();
    if (std::nearbyint(value) != value ||
        value < -9007199254740992.0 || value > 9007199254740992.0) {
        throw ValidationError("expected an integer, got '" + raw_ + "'");
    }
    return static_cast<std::int64_t>(value);
}

const std::string& JsonValue::as_string() const
{
    if (type_ != Type::string) {
        throw ValidationError("expected a string, got " + type_name(type_));
    }
    return string_;
}

std::string JsonValue::take_string()
{
    (void)as_string();
    return std::move(string_);
}

const std::vector<JsonValue>& JsonValue::as_array() const
{
    if (type_ != Type::array) {
        throw ValidationError("expected an array, got " + type_name(type_));
    }
    return array_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const
{
    if (type_ != Type::object) {
        throw ValidationError("expected an object, got " + type_name(type_));
    }
    return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const
{
    if (type_ != Type::object) {
        return nullptr;
    }
    for (const Member& member : object_) {
        if (member.first == key) {
            return &member.second;
        }
    }
    return nullptr;
}

JsonValue* JsonValue::find(const std::string& key)
{
    return const_cast<JsonValue*>(static_cast<const JsonValue&>(*this).find(key));
}

} // namespace mst
