#include "sim/sampling.hh"

#include <algorithm>
#include <cstdlib>

#include "common/bits.hh"
#include "cpu/timing_model.hh"
#include "mem/cache.hh"

namespace eve
{

SamplingConfig
defaultSampling()
{
    // A 2M-record period: 10% measured, 2.5% warmup. Chosen against
    // the full/paper inputs (EXPERIMENTS.md "Sampled simulation") so
    // that (a) the measured cycle error stays well under the 3%
    // acceptance bound and (b) the period is shorter than the
    // paper-scale streams (~6M records), so fast-forward boundaries
    // actually fire and checkpoints get captured.
    SamplingConfig cfg;
    cfg.interval = 200000;
    cfg.warmup = 50000;
    cfg.stride = 10;
    return cfg;
}

namespace
{

/** Valid schedule: see SamplingConfig invariants. */
bool
validSampling(const SamplingConfig& cfg)
{
    if (!cfg.enabled())
        return true;
    if (cfg.stride == 0)
        return false;
    // The warmup and measured windows must fit one period.
    return cfg.warmup + cfg.interval <= cfg.period();
}

/** "name=1234" -> value; false on malformed key or number. */
bool
parseU64Field(const std::string& tok, const char* name,
              std::uint64_t& out)
{
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || tok.substr(0, eq) != name)
        return false;
    const std::string value = tok.substr(eq + 1);
    if (value.empty())
        return false;
    char* end = nullptr;
    out = std::strtoull(value.c_str(), &end, 10);
    return end && *end == '\0';
}

std::vector<std::string>
splitOn(const std::string& text, char sep)
{
    std::vector<std::string> toks;
    std::string cur;
    for (const char c : text) {
        if (c == sep) {
            toks.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    toks.push_back(cur);
    return toks;
}

} // namespace

std::string
samplingCanonical(const SamplingConfig& cfg)
{
    if (!cfg.enabled())
        return "";
    return "interval=" + std::to_string(cfg.interval) +
           ";warmup=" + std::to_string(cfg.warmup) +
           ";stride=" + std::to_string(cfg.stride);
}

bool
parseSamplingCanonical(const std::string& text, SamplingConfig& out)
{
    if (text.empty()) {
        out = SamplingConfig{};
        return true;
    }
    const std::vector<std::string> toks = splitOn(text, ';');
    if (toks.size() != 3)
        return false;
    SamplingConfig cfg;
    if (!parseU64Field(toks[0], "interval", cfg.interval) ||
        !parseU64Field(toks[1], "warmup", cfg.warmup) ||
        !parseU64Field(toks[2], "stride", cfg.stride))
        return false;
    // The round trip must be exact: the canonical string is the
    // schedule's content-addressing identity.
    if (!cfg.enabled() || !validSampling(cfg) ||
        samplingCanonical(cfg) != text)
        return false;
    out = cfg;
    return true;
}

bool
parseSamplingFlag(const std::string& text, SamplingConfig& out)
{
    if (text == "default") {
        out = defaultSampling();
        return true;
    }
    if (text.find('=') != std::string::npos)
        return parseSamplingCanonical(text, out);

    // Shorthand: "INTERVAL[,WARMUP[,STRIDE]]". An omitted warmup
    // keeps the default schedule's warmup:interval proportion (1:5)
    // instead of its absolute value, so "1000" is a valid schedule
    // rather than one whose inherited warmup dwarfs its period.
    const std::vector<std::string> toks = splitOn(text, ',');
    if (toks.empty() || toks.size() > 3)
        return false;
    SamplingConfig cfg = defaultSampling();
    auto number = [](const std::string& tok, std::uint64_t& v) {
        if (tok.empty())
            return false;
        char* end = nullptr;
        v = std::strtoull(tok.c_str(), &end, 10);
        return end && *end == '\0';
    };
    if (!number(toks[0], cfg.interval))
        return false;
    cfg.warmup = cfg.interval / 5;
    if (toks.size() > 1 && !number(toks[1], cfg.warmup))
        return false;
    if (toks.size() > 2 && !number(toks[2], cfg.stride))
        return false;
    if (!cfg.enabled() || !validSampling(cfg))
        return false;
    out = cfg;
    return true;
}

WarmupFilter::WarmupFilter(unsigned line_bytes, std::size_t max_lines)
    : lineBytes(line_bytes ? line_bytes : 64),
      lineShift(isPow2(lineBytes) ? int(log2i(lineBytes)) : -1),
      // Node indices are 32-bit with kNone reserved.
      maxLines(std::min<std::size_t>(max_lines, kNone))
{
}

std::uint32_t&
WarmupFilter::slotFor(Addr line)
{
    const Addr key = line >> kPageShift;
    if (key != memoKey) {
        if (const Tick* found = pageIndex.find(key)) {
            memoBase = std::size_t(*found);
        } else {
            memoBase = slots.size();
            slots.resize(slots.size() + kPageLines, kNone);
            pageIndex.insertOrAssign(key, memoBase);
        }
        memoKey = key;
    }
    return slots[memoBase + (line & (kPageLines - 1))];
}

void
WarmupFilter::linkAtHead(std::uint32_t idx)
{
    Node& node = nodes[idx];
    node.prev = kNone;
    node.next = head;
    if (head != kNone)
        nodes[head].prev = idx;
    else
        tail = idx;
    head = idx;
}

void
WarmupFilter::touchLine(Addr line, bool dirty)
{
    if (maxLines == 0)
        return;
    std::uint32_t& slot = slotFor(line);
    std::uint32_t idx = slot;
    if (idx != kNone && nodes[idx].line == line) {
        Node& node = nodes[idx];
        node.dirty |= dirty;
        if (idx == head)
            return;
        nodes[node.prev].next = node.next;
        if (node.next != kNone)
            nodes[node.next].prev = node.prev;
        else
            tail = node.prev;
        linkAtHead(idx);
        return;
    }
    if (nodes.size() == maxLines) {
        // Evict the coldest line by handing its node to this one.
        idx = tail;
        tail = nodes[idx].prev;
        if (tail != kNone)
            nodes[tail].next = kNone;
        else
            head = kNone;
        nodes[idx] = Node{line, kNone, kNone, dirty};
    } else {
        idx = std::uint32_t(nodes.size());
        nodes.push_back(Node{line, kNone, kNone, dirty});
    }
    slot = idx;
    linkAtHead(idx);
}

void
WarmupFilter::observe(const Instr& instr)
{
    const bool store =
        instr.op == Op::SStore || isVecStore(instr.op);
    switch (instr.op) {
      case Op::SLoad:
      case Op::SStore:
        touchLine(lineOf(instr.addr), store);
        return;
      case Op::VLoad:
      case Op::VStore: {
        // Contiguous: walk lines, not elements.
        const Addr first = lineOf(instr.addr);
        const Addr last =
            instr.vl ? lineOf(instr.addr + Addr(instr.vl) * 4 - 1)
                     : first;
        for (Addr line = first; line <= last; ++line)
            touchLine(line, store);
        return;
      }
      case Op::VLoadStrided:
      case Op::VStoreStrided: {
        Addr addr = instr.addr;
        for (std::uint32_t i = 0; i < instr.vl; ++i) {
            touchLine(lineOf(addr), store);
            addr += Addr(instr.stride);
        }
        return;
      }
      case Op::VLoadIndexed:
      case Op::VStoreIndexed:
        if (!instr.indices)
            return;
        for (std::uint32_t i = 0; i < instr.vl; ++i)
            touchLine(lineOf(instr.addr + instr.indices[i]), store);
        return;
      default:
        return;
    }
}

void
WarmupFilter::applyTo(Cache& cache) const
{
    const std::size_t capacity =
        std::size_t(cache.numSets()) * cache.params().assoc;
    // touch() maps the byte address onto the level's own line size,
    // which may differ from the filter's granule.
    forHottest(capacity, [&](Addr line, bool dirty) {
        cache.touch(line * Addr(lineBytes), dirty);
    });
}

double
extrapolatedTicks(const SampleStats& stats, double exact_final_tick)
{
    if (stats.measured_instrs == 0 || stats.measured_ticks == 0)
        return exact_final_tick;
    return double(stats.measured_ticks) *
           (double(stats.total_instrs) /
            double(stats.measured_instrs));
}

SamplingController::SamplingController(const SamplingConfig& cfg,
                                       const TimingModel& model)
    : cfg(cfg), model(model)
{
}

void
SamplingController::closeWindow(Tick tick_now)
{
    sampleStats.measured_ticks += tick_now - windowTick0;
    sampleStats.measured_instrs += pos - windowInstr0;
    ++sampleStats.windows;
    inMeasure = false;
}

void
SamplingController::crossEdge()
{
    const std::uint64_t period = cfg.period();
    const std::uint64_t warm_from = period - cfg.warmup;
    const std::uint64_t off = pos % period;
    const bool measure = off < cfg.interval;
    const bool warm = off >= warm_from;

    if (measure && !inMeasure) {
        inMeasure = true;
        windowTick0 = model.finalTick();
        windowInstr0 = pos;
    } else if (!measure && inMeasure) {
        closeWindow(model.finalTick());
    }

    if (measure || warm) {
        if (!inDetail) {
            inDetail = true;
            // pos == 0 starts inside window 0 — there is no state to
            // install or capture at simulation start.
            if (pos != 0 && on_detail_entry)
                on_detail_entry(pos);
        }
    } else {
        inDetail = false;
    }

    // Both flags hold until the next edge: the measured window's end,
    // the warmup's start or the period's end (warm_from >= interval).
    const std::uint64_t edge = off < cfg.interval ? cfg.interval
                               : off < warm_from  ? warm_from
                                                  : period;
    nextEdge = pos + (edge - off);
}

void
SamplingController::finalize(Tick final_tick)
{
    if (inMeasure)
        closeWindow(final_tick);
    sampleStats.total_instrs = pos;
}

} // namespace eve
