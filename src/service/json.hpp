// Minimal JSON reader for the request service's wire format.
//
// Parses one RFC 8259 document into a JsonValue tree. Scope
// is deliberately small (the repo writes JSON elsewhere by hand): no
// streaming, no comments, numbers are IEEE doubles, object key order is
// preserved for deterministic error messages. Arrays and objects nest at
// most JsonValue::max_depth deep, so a hostile document cannot exhaust
// the stack. Errors throw JsonParseError with the byte offset of the
// offending character.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mst {

/// A malformed request line (not valid JSON, or trailing garbage).
class JsonParseError : public Error {
public:
    JsonParseError(std::size_t offset, const std::string& message)
        : Error("malformed JSON at offset " + std::to_string(offset) + ": " + message),
          offset_(offset)
    {
    }

    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::size_t offset_ = 0;
};

/// One JSON value: null, boolean, number, string, array, or object.
class JsonValue {
public:
    enum class Type { null, boolean, number, string, array, object };

    using Member = std::pair<std::string, JsonValue>;

    /// Deepest array/object nesting parse() accepts; the bracket that
    /// opens level max_depth + 1 is a JsonParseError at its offset.
    static constexpr std::size_t max_depth = 64;

    JsonValue() = default;

    /// Parse a complete document; trailing non-whitespace is an error.
    [[nodiscard]] static JsonValue parse(const std::string& text);

    [[nodiscard]] Type type() const noexcept { return type_; }
    [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }
    [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::boolean; }
    [[nodiscard]] bool is_number() const noexcept { return type_ == Type::number; }
    [[nodiscard]] bool is_string() const noexcept { return type_ == Type::string; }
    [[nodiscard]] bool is_array() const noexcept { return type_ == Type::array; }
    [[nodiscard]] bool is_object() const noexcept { return type_ == Type::object; }

    /// Typed accessors; throw ValidationError on type mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    /// The number, required to be integral and in range.
    [[nodiscard]] std::int64_t as_int() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<JsonValue>& as_array() const;
    [[nodiscard]] const std::vector<Member>& as_object() const;

    /// Move the decoded string out, leaving it empty; throws
    /// ValidationError on type mismatch.
    [[nodiscard]] std::string take_string();

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const JsonValue* find(const std::string& key) const;
    [[nodiscard]] JsonValue* find(const std::string& key);

    /// Where the value's token starts in the parsed text, and its length
    /// in bytes (the whole bracketed text for arrays and objects).
    [[nodiscard]] std::size_t source_offset() const noexcept { return offset_; }
    [[nodiscard]] std::size_t source_size() const noexcept { return size_; }

    /// The token as written in the source, kept for numbers and literals
    /// only (error messages such as "got '512x'" and integer
    /// re-rendering). Strings, arrays and objects leave it empty: cut
    /// their text out of the source by the span above.
    [[nodiscard]] const std::string& raw() const noexcept { return raw_; }

private:
    friend class JsonParser;

    Type type_ = Type::null;
    bool bool_ = false;
    double number_ = 0.0;
    std::size_t offset_ = 0;
    std::size_t size_ = 0;
    std::string string_; ///< decoded string value
    std::string raw_;    ///< number and literal tokens only
    std::vector<JsonValue> array_;
    std::vector<Member> object_;
};

} // namespace mst
