#include "common/json.hh"

#include <cstdlib>

namespace eve
{

const JsonValue*
JsonValue::find(const std::string& key) const
{
    for (const auto& [k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace
{

class JsonParser
{
  public:
    /** @p text must outlive the parser (strtod needs the NUL). */
    explicit JsonParser(const std::string& text)
        : p(text.c_str()), end(text.c_str() + text.size())
    {
    }

    bool
    parse(JsonValue& out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return p == end;
    }

  private:
    const char* p;
    const char* end;

    void
    skipWs()
    {
        while (p != end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    literal(const char* s, std::size_t n)
    {
        if (std::size_t(end - p) < n)
            return false;
        for (std::size_t i = 0; i < n; ++i) {
            if (p[i] != s[i])
                return false;
        }
        p += n;
        return true;
    }

    bool
    parseValue(JsonValue& out)
    {
        if (p == end)
            return false;
        switch (*p) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.text);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false", 5);
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null", 4);
          default:
            out.type = JsonValue::Type::Number;
            return parseNumber(out.number);
        }
    }

    bool
    parseNumber(double& out)
    {
        char* num_end = nullptr;
        out = std::strtod(p, &num_end);
        if (num_end == p || num_end > end)
            return false;
        p = num_end;
        return true;
    }

    bool
    parseString(std::string& out)
    {
        if (p == end || *p != '"')
            return false;
        ++p;
        out.clear();
        while (p != end && *p != '"') {
            if (*p != '\\') {
                out += *p++;
                continue;
            }
            if (++p == end)
                return false;
            switch (*p) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (end - p < 5)
                    return false;
                unsigned code = 0;
                for (int i = 1; i <= 4; ++i) {
                    const char c = p[i];
                    code <<= 4;
                    if (c >= '0' && c <= '9')
                        code |= unsigned(c - '0');
                    else if (c >= 'a' && c <= 'f')
                        code |= unsigned(c - 'a' + 10);
                    else if (c >= 'A' && c <= 'F')
                        code |= unsigned(c - 'A' + 10);
                    else
                        return false;
                }
                // jsonEscape only emits \u00xx control characters;
                // encode anything else as UTF-8 for completeness.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
                }
                p += 4;
                break;
              }
              default: return false;
            }
            ++p;
        }
        if (p == end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    parseObject(JsonValue& out)
    {
        out.type = JsonValue::Type::Object;
        ++p; // '{'
        skipWs();
        if (p != end && *p == '}') {
            ++p;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (p == end || *p != ':')
                return false;
            ++p;
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (p == end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == '}') {
                ++p;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray(JsonValue& out)
    {
        out.type = JsonValue::Type::Array;
        ++p; // '['
        skipWs();
        if (p != end && *p == ']') {
            ++p;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.elements.push_back(std::move(value));
            skipWs();
            if (p == end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == ']') {
                ++p;
                return true;
            }
            return false;
        }
    }
};

} // namespace

bool
parseJson(const std::string& text, JsonValue& out)
{
    // Reset: parseObject/parseArray append, so a reused JsonValue
    // would otherwise keep stale members shadowing the new ones.
    out = JsonValue();
    JsonParser parser(text);
    return parser.parse(out);
}

} // namespace eve
