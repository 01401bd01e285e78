/**
 * @file
 * Minimal JSON value and recursive-descent parser.
 *
 * Used by exp::parseResultJson, the one reader of resultToJson
 * records (result cache, jobs directories, the eve_report loader).
 * Object members keep insertion order, so ordered payloads (axes
 * maps, stat maps) survive round trips; the serializing side lives
 * in common/stats.hh (jsonEscape, jsonNumber, statsToJson).
 */

#ifndef EVE_COMMON_JSON_HH
#define EVE_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace eve
{

/** One parsed JSON value (a small tagged union over std types). */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Object, Array };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> elements;

    /** First member named @p key, or nullptr (objects only). */
    const JsonValue* find(const std::string& key) const;

    bool isObject() const { return type == Type::Object; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }
};

/**
 * Parse @p text (one complete JSON value, nothing trailing) into
 * @p out. Returns false on malformed input; @p out is then
 * unspecified. Unicode escapes above the BMP are not supported
 * (jsonEscape never emits them).
 */
bool parseJson(const std::string& text, JsonValue& out);

} // namespace eve

#endif // EVE_COMMON_JSON_HH
