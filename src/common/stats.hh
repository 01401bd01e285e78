/**
 * @file
 * A small statistics registry.
 *
 * Components own a StatGroup and register named scalar counters in it.
 * The registry supports hierarchical dumping (component.stat = value)
 * and is what the bench harnesses read to build the paper's tables.
 *
 * Counters live in a dense vector; the string name resolves to a
 * stable Id once (StatGroup::id), so hot paths that bump the same
 * counter millions of times per run pay one array index per update
 * instead of a string-keyed map lookup. The string overloads remain
 * for cold paths and tests. Output (sorted/dump/toJson) includes only
 * counters that have been touched, so pre-registering Ids in a
 * constructor does not change what a component reports — a
 * requirement of the timing-parity guard.
 */

#ifndef EVE_COMMON_STATS_HH
#define EVE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eve
{

/** A named group of scalar statistics. */
class StatGroup
{
  public:
    /** Stable handle of one counter within its group. */
    using Id = std::uint32_t;

    explicit StatGroup(std::string name = "") : groupName(std::move(name)) {}

    /**
     * Resolve @p stat to its Id, registering it (untouched, zero) on
     * first use. Ids stay valid for the group's lifetime.
     */
    Id id(const std::string& stat);

    /** Add @p delta to the counter (hot path: one array index). */
    void
    add(Id stat, double delta)
    {
        Entry& e = entries[stat];
        e.value += delta;
        e.touched = true;
    }

    /** Set the counter to @p value. */
    void
    set(Id stat, double value)
    {
        Entry& e = entries[stat];
        e.value = value;
        e.touched = true;
    }

    /** Add @p delta to the named counter (creating it at zero). */
    void
    add(const std::string& stat, double delta)
    {
        add(id(stat), delta);
    }

    /** Set the named counter to @p value. */
    void
    set(const std::string& stat, double value)
    {
        set(id(stat), value);
    }

    /** Read a counter; returns 0 for counters never touched. */
    double get(const std::string& stat) const;

    /** Accumulate every touched counter of @p other into this group. */
    void merge(const StatGroup& other);

    /** True iff the counter has been touched. */
    bool has(const std::string& stat) const;

    /** Name given at construction. */
    const std::string& name() const { return groupName; }

    /** All touched (stat, value) pairs sorted by name. */
    std::vector<std::pair<std::string, double>> sorted() const;

    /** Render as "group.stat = value" lines. */
    std::string dump() const;

    /** Render as a JSON object, {"stat": value, ...}, sorted. */
    std::string toJson() const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0;
        bool touched = false;
    };

    std::string groupName;
    std::vector<Entry> entries;
    std::map<std::string, Id> index;
};

/**
 * Render a stat map as a JSON object with deterministic number
 * formatting (integers print without a fraction). Shared by
 * StatGroup::toJson and the experiment result sinks.
 */
std::string statsToJson(const std::map<std::string, double>& values);

/** Deterministic JSON number rendering for a double. */
std::string jsonNumber(double value);

/** Escape @p s for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string& s);

} // namespace eve

#endif // EVE_COMMON_STATS_HH
