#include "report/report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/fs.hh"
#include "exp/cache.hh"
#include "exp/sink.hh"

namespace eve::report
{

namespace
{

/** The status @p r serializes as (Cached reads Ok). */
exp::JobStatus
recordStatus(const exp::JobResult& r)
{
    return recordOk(r) ? exp::JobStatus::Ok : r.status;
}

} // namespace

bool
recordOk(const exp::JobResult& r)
{
    return r.status == exp::JobStatus::Ok ||
           r.status == exp::JobStatus::Cached;
}

std::string
cellKey(const exp::JobResult& r)
{
    std::map<std::string, std::string> axes;
    for (const auto& [name, value] : r.axes)
        axes[name] = value;
    std::ostringstream os;
    os << r.source << '|' << exp::recordSystem(r) << '|' << r.workload;
    for (const auto& [name, value] : axes)
        os << '|' << name << '=' << value;
    os << '|' << (r.result.sampled ? "sampled" : "exact");
    return os.str();
}

std::vector<exp::JobResult>
loadSweepFile(const std::string& path, LoadStats* stats,
              const std::string& source)
{
    std::vector<exp::JobResult> records;
    std::string content;
    if (!readFile(path, content))
        return records;
    const std::string name =
        source.empty()
            ? std::filesystem::path(path).filename().string()
            : source;
    if (stats)
        ++stats->files;
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        exp::JobResult r;
        if (!exp::parseResultJson(line, r)) {
            if (stats)
                ++stats->skipped_lines;
            continue;
        }
        r.source = name;
        records.push_back(std::move(r));
        if (stats)
            ++stats->records;
    }
    return records;
}

std::vector<exp::JobResult>
loadSweepDir(const std::string& dir, LoadStats* stats)
{
    std::vector<exp::JobResult> records;
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() < 6 ||
            name.compare(name.size() - 6, 6, ".jsonl") != 0)
            continue;
        paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
        auto file = loadSweepFile(path, stats);
        records.insert(records.end(),
                       std::make_move_iterator(file.begin()),
                       std::make_move_iterator(file.end()));
    }
    return records;
}

std::vector<exp::JobResult>
dedupCells(const std::vector<exp::JobResult>& records)
{
    std::vector<exp::JobResult> out;
    std::unordered_map<std::string, std::size_t> index;
    for (const auto& r : records) {
        auto [it, inserted] = index.emplace(cellKey(r), out.size());
        if (inserted)
            out.push_back(r);
        else
            out[it->second] = r;
    }
    return out;
}

namespace
{

double
pctChange(double base, double current)
{
    if (base == 0)
        return 0;
    return 100.0 * (current - base) / base;
}

} // namespace

DeltaReport
compareRuns(const std::vector<exp::JobResult>& current,
            const std::vector<exp::JobResult>& baseline)
{
    DeltaReport report;
    const auto cur = dedupCells(current);
    const auto base = dedupCells(baseline);
    std::unordered_map<std::string, const exp::JobResult*> base_by_key;
    for (const auto& r : base)
        base_by_key[cellKey(r)] = &r;
    std::unordered_map<std::string, const exp::JobResult*> cur_by_key;
    for (const auto& r : cur)
        cur_by_key[cellKey(r)] = &r;

    for (const auto& b : base)
        if (!cur_by_key.count(cellKey(b)))
            report.missing_in_current.push_back(cellKey(b));
    for (const auto& c : cur) {
        const std::string key = cellKey(c);
        const auto it = base_by_key.find(key);
        if (it == base_by_key.end()) {
            report.missing_in_baseline.push_back(key);
            continue;
        }
        const exp::JobResult& b = *it->second;
        ++report.cells;
        if (recordStatus(c) != recordStatus(b)) {
            Delta d;
            d.key = key;
            d.metric = "status";
            d.status_change = true;
            report.deltas.push_back(d);
            if (recordOk(b) && !recordOk(c))
                ++report.status_degradations;
            continue;  // metric deltas are noise across a status flip
        }
        using Metric = double (*)(const RunResult&);
        const std::pair<const char*, Metric> metrics[] = {
            {"cycles", [](const RunResult& r) { return r.cycles; }},
            {"seconds", [](const RunResult& r) { return r.seconds; }},
            {"total_ticks",
             [](const RunResult& r) { return r.total_ticks; }},
            {"instrs",
             [](const RunResult& r) { return double(r.instrs); }},
            {"mismatches",
             [](const RunResult& r) { return double(r.mismatches); }},
            {"vec_instrs",
             [](const RunResult& r) { return double(r.vecInstrs); }},
            {"vec_elem_ops",
             [](const RunResult& r) { return double(r.vecElemOps); }},
        };
        for (const auto& [name, metric] : metrics) {
            const double bv = metric(b.result);
            const double cv = metric(c.result);
            if (bv == cv)
                continue;
            Delta d;
            d.key = key;
            d.metric = name;
            d.base = bv;
            d.current = cv;
            d.pct = pctChange(bv, cv);
            report.deltas.push_back(d);
            // More cycles / more simulated time is the regression
            // direction the gate cares about.
            if ((d.metric == std::string("cycles") ||
                 d.metric == std::string("seconds")) &&
                d.pct > report.worst_regress_pct)
                report.worst_regress_pct = d.pct;
        }
    }
    return report;
}

bool
gatePassed(const DeltaReport& report, double max_regress_pct)
{
    if (report.status_degradations > 0)
        return false;
    if (!report.missing_in_current.empty())
        return false;
    return report.worst_regress_pct <= max_regress_pct;
}

std::vector<std::string>
renderDeltas(const DeltaReport& report)
{
    std::vector<std::string> lines;
    char buf[512];
    for (const auto& d : report.deltas) {
        if (d.status_change) {
            std::snprintf(buf, sizeof(buf), "STATUS  %s",
                          d.key.c_str());
        } else {
            std::snprintf(buf, sizeof(buf),
                          "%+8.3f%%  %-13s %s (%.6g -> %.6g)", d.pct,
                          d.metric.c_str(), d.key.c_str(), d.base,
                          d.current);
        }
        lines.push_back(buf);
    }
    for (const auto& key : report.missing_in_current)
        lines.push_back("MISSING (was in baseline)  " + key);
    for (const auto& key : report.missing_in_baseline)
        lines.push_back("NEW (not in baseline)      " + key);
    return lines;
}

} // namespace eve::report
