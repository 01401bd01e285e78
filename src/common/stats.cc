#include "common/stats.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace eve
{

StatGroup::Id
StatGroup::id(const std::string& stat)
{
    auto it = index.find(stat);
    if (it != index.end())
        return it->second;
    const Id new_id = Id(entries.size());
    entries.push_back(Entry{stat, 0, false});
    index.emplace(stat, new_id);
    return new_id;
}

double
StatGroup::get(const std::string& stat) const
{
    auto it = index.find(stat);
    if (it == index.end())
        return 0.0;
    const Entry& e = entries[it->second];
    return e.touched ? e.value : 0.0;
}

void
StatGroup::merge(const StatGroup& other)
{
    for (const Entry& e : other.entries) {
        if (e.touched)
            add(id(e.name), e.value);
    }
}

bool
StatGroup::has(const std::string& stat) const
{
    auto it = index.find(stat);
    return it != index.end() && entries[it->second].touched;
}

std::vector<std::pair<std::string, double>>
StatGroup::sorted() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(entries.size());
    // The index map is already name-sorted.
    for (const auto& [stat, stat_id] : index) {
        const Entry& e = entries[stat_id];
        if (e.touched)
            out.emplace_back(stat, e.value);
    }
    return out;
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto& [stat, value] : sorted()) {
        if (!groupName.empty())
            os << groupName << '.';
        os << stat << " = " << value << '\n';
    }
    return os.str();
}

std::string
StatGroup::toJson() const
{
    std::map<std::string, double> values;
    for (const auto& [stat, value] : sorted())
        values.emplace(stat, value);
    return statsToJson(values);
}

std::string
jsonNumber(double value)
{
    // Counters are usually integral; print them without a fraction
    // so the output is stable and diff-friendly.
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(value));
        return buf;
    }
    if (!std::isfinite(value))
        return "null"; // JSON has no NaN/Inf
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
statsToJson(const std::map<std::string, double>& values)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [stat, value] : values) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += jsonEscape(stat);
        out += "\":";
        out += jsonNumber(value);
    }
    out += "}";
    return out;
}

} // namespace eve
