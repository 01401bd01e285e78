#include "ledger.hh"

#include <algorithm>
#include <memory>

#include "common/stats.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "vector/request_gen.hh"

namespace simbench
{

using namespace eve;

namespace
{

void
emitTrace(Workload& workload, InstrSink& sink, std::uint32_t hw_vl)
{
    if (hw_vl == 0)
        workload.emitScalar(sink);
    else
        workload.emitVector(sink, hw_vl);
}

/** Adapts a WarmupFilter to the emission tee, as a sampled run does. */
class FilterSink : public InstrSink
{
  public:
    explicit FilterSink(WarmupFilter& filter) : filter(filter) {}

    void consume(const Instr& instr) override { filter.observe(instr); }

  private:
    WarmupFilter& filter;
};

/**
 * Replays the part of a job's memory stream that reaches the timing
 * model (every record of an exact run, the detailed windows of a
 * sampled one) through a standalone hierarchy: scalar accesses into
 * the L1D, vector accesses line by line into the level the system's
 * vector unit talks to. An approximation of the system's memory
 * traffic: ticks advance one nanosecond per record, not on the core
 * model's schedule, and sampled runs get no functional warming.
 */
class ReplaySink : public InstrSink
{
  public:
    ReplaySink(MemHierarchy& mem, SystemKind kind,
               const SamplingConfig& sampling)
        : mem(mem),
          vectorPort(kind == SystemKind::O3IV   ? mem.l1d()
                     : kind == SystemKind::O3DV ? mem.l2()
                                                : mem.llcPort()),
          lineBytes(mem.llc().params().line_bytes),
          sampling(sampling)
    {
    }

    void
    consume(const Instr& instr) override
    {
        if (sampling.enabled()) {
            const std::uint64_t off = pos++ % sampling.period();
            if (off >= sampling.interval &&
                off < sampling.period() - sampling.warmup)
                return;
        }
        ++detailed;
        now += ticksPerNs;
        if (!isMemOp(instr.op))
            return;
        if (!isVectorOp(instr.op)) {
            mem.l1d().access(instr.addr, instr.op == Op::SStore, now);
            ++accesses;
            return;
        }
        const bool write = isVecStore(instr.op);
        forEachRequestLine(instr, lineBytes, [&](Addr line) {
            vectorPort.access(line, write, now);
            ++accesses;
        });
    }

    std::uint64_t detailed = 0;  ///< records replayed
    std::uint64_t accesses = 0;  ///< access() calls made

  private:
    MemHierarchy& mem;
    MemObject& vectorPort;
    unsigned lineBytes;
    SamplingConfig sampling;
    std::uint64_t pos = 0;
    Tick now = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

double
Trace::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
Trace::begin(const std::string& name, int parent)
{
    Span span;
    span.id = int(spans.size());
    span.parent = parent;
    span.name = name;
    span.start_s = now();
    spans.push_back(span);
    return span.id;
}

double
Trace::end(int id)
{
    Span& span = spans.at(std::size_t(id));
    span.end_s = now();
    return span.end_s - span.start_s;
}

std::string
Trace::json() const
{
    std::string out = "[";
    for (const Span& s : spans) {
        if (s.id)
            out += ",";
        out += "{\"id\":" + std::to_string(s.id) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"name\":\"" + jsonEscape(s.name) +
               "\",\"start_s\":" + jsonNumber(s.start_s) +
               ",\"end_s\":" + jsonNumber(s.end_s) + "}";
    }
    return out + "]";
}

JobLedger
peelJob(const BenchJob& job, Trace& trace, int parent)
{
    JobLedger led;
    const int job_span = trace.begin("job " + job.key(), parent);

    // Built untimed: the hardware vector length of EVE systems comes
    // from the assembled engine, and the same System runs rung 6.
    System system(job.config);
    const std::uint32_t hw_vl = system.hwVectorLength();
    std::unique_ptr<Workload> workload = makeJobWorkload(job);

    std::vector<double> inits;
    auto reinit = [&] {
        const int s = trace.begin("init", job_span);
        workload->init();
        inits.push_back(trace.end(s));
    };
    auto rung = [&](const char* name, InstrSink& sink) {
        reinit();
        const int s = trace.begin(name, job_span);
        emitTrace(*workload, sink, hw_vl);
        return trace.end(s);
    };

    {
        CountingSink counter;
        led.emit_s = rung("emit", counter);
        led.records = counter.total;
    }

    CountingSink counter;
    Characterizer characterizer;
    TeeSink plumbing;
    plumbing.attach(&counter);
    plumbing.attach(&characterizer);
    led.plumb_s = rung("plumb", plumbing);
    led.vec_elem_ops = characterizer.vecOps;

    // One tee grows by a leg per rung, in System::run's order.
    TeeSink tee;
    tee.attach(&counter);
    tee.attach(&characterizer);
    std::unique_ptr<VecMachine> machine;
    if (hw_vl != 0) {
        machine = std::make_unique<VecMachine>(workload->memory(), hw_vl);
        tee.attach(machine.get());
        led.vecmachine_s = rung("vecmachine", tee);
    }
    WarmupFilter filter(system.memory().l1d().params().line_bytes);
    FilterSink filter_sink(filter);
    tee.attach(&filter_sink);
    led.filter_s = rung("filter", tee);

    {
        MemHierarchy mem(System::hierarchyParams(job.config));
        ReplaySink replay(mem, job.config.kind, job.sampling);
        led.replay_s = rung("mem_replay", replay);
        led.detail_records = replay.detailed;
        led.replay_accesses = replay.accesses;
    }

    int s = trace.begin("system_run", job_span);
    led.result = system.run(*workload, jobOptions(job));
    led.run_s = trace.end(s);

    s = trace.begin("serialize", job_span);
    led.serialize_bytes = jobJson(job, led.result, led.run_s).size();
    led.serialize_s = trace.end(s);

    led.init_s = median(inits);
    trace.end(job_span);
    return led;
}

std::vector<Metric>
layerMetrics(const std::vector<BenchJob>& jobs,
             const std::vector<JobLedger>& ledgers)
{
    double records = 0, elem_ops = 0, detail = 0, accesses = 0;
    double emit = 0, plumb = 0, vecmachine = 0, filter = 0, replay = 0;
    double serialize = 0;
    double l1d = 0, l1d_miss = 0, l2 = 0, l2_miss = 0, llc = 0,
           llc_miss = 0, dram_reads = 0, mshr_wait = 0, covered_ticks = 0;
    double dv_lines = 0, eve_lines = 0, eve_uops = 0;
    // Model remainder (host seconds) and its denominator, per system.
    double io_s = 0, io_n = 0, o3_s = 0, o3_n = 0, iv_s = 0, iv_n = 0,
           dv_s = 0, eve_s = 0;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const BenchJob& job = jobs[i];
        const JobLedger& l = ledgers[i];
        const RunResult& r = l.result;
        const bool vector = job.config.kind != SystemKind::IO &&
                            job.config.kind != SystemKind::O3;
        const double functional = vector ? l.vecmachine_s : l.plumb_s;
        const double mem = l.replay_s - l.emit_s;

        records += double(l.records);
        elem_ops += double(l.vec_elem_ops);
        detail += double(l.detail_records);
        accesses += double(l.replay_accesses);
        emit += l.emit_s;
        plumb += l.plumb_s - l.emit_s;
        vecmachine += vector ? l.vecmachine_s - l.plumb_s : 0;
        filter += l.filter_s - functional;
        replay += mem;
        serialize += l.serialize_s;

        l1d += r.stat("l1d.reads") + r.stat("l1d.writes");
        l1d_miss += r.stat("l1d.misses");
        l2 += r.stat("l2.reads") + r.stat("l2.writes");
        l2_miss += r.stat("l2.misses");
        llc += r.stat("llc.reads") + r.stat("llc.writes");
        llc_miss += r.stat("llc.misses");
        dram_reads += r.stat("dram.reads");
        mshr_wait += r.stat("l1d.mshr_wait_ticks") +
                     r.stat("l2.mshr_wait_ticks") +
                     r.stat("llc.mshr_wait_ticks");
        // A sampled run's stats cover only its detailed records.
        covered_ticks +=
            job.sampling.enabled()
                ? double(r.sampled_measured_ticks) *
                      ratio(double(l.detail_records),
                            double(r.sampled_measured_instrs))
                : r.total_ticks;

        // What System::run spends beyond init, the stream pipeline
        // (with the filter on sampled runs) and the memory hierarchy.
        const double pipeline =
            job.sampling.enabled() ? l.filter_s : functional;
        const double remainder = l.run_s - l.init_s - pipeline - mem;
        switch (job.config.kind) {
          case SystemKind::IO:
            io_s += remainder;
            io_n += double(l.detail_records);
            break;
          case SystemKind::O3:
            o3_s += remainder;
            o3_n += double(l.detail_records);
            break;
          case SystemKind::O3IV:
            iv_s += remainder;
            iv_n += double(l.detail_records);
            break;
          case SystemKind::O3DV:
            dv_s += remainder;
            dv_lines += r.stat("dv.vmu_lines");
            break;
          case SystemKind::O3EVE:
            eve_s += remainder;
            eve_lines += r.stat("eve.vmu_lines");
            eve_uops += r.stat("eve.vsu_uops");
            break;
        }
    }

    const double ns = 1e9;
    return {
        {"workloads.records", records, "count"},
        {"workloads.emit_ns_per_record", ratio(emit * ns, records), "ns"},
        {"isa.plumb_ns_per_record", ratio(plumb * ns, records), "ns"},
        {"isa.vec_elem_ops", elem_ops, "count"},
        {"isa.vecmachine_ns_per_elem_op", ratio(vecmachine * ns, elem_ops),
         "ns"},
        {"sim.detail_fraction", ratio(detail, records), "ratio"},
        {"sim.warmup_filter_ns_per_record", ratio(filter * ns, records),
         "ns"},
        {"mem.l1d.accesses", l1d, "count"},
        {"mem.l1d.miss_rate", ratio(l1d_miss, l1d), "ratio"},
        {"mem.l2.accesses", l2, "count"},
        {"mem.l2.miss_rate", ratio(l2_miss, l2), "ratio"},
        {"mem.llc.accesses", llc, "count"},
        {"mem.llc.miss_rate", ratio(llc_miss, llc), "ratio"},
        {"mem.dram.reads", dram_reads, "count"},
        {"mem.mshr_wait_share", ratio(mshr_wait, covered_ticks), "ratio"},
        {"mem.replay_accesses", accesses, "count"},
        {"mem.access_ns", ratio(replay * ns, accesses), "ns"},
        {"cpu.io.ns_per_record", ratio(io_s * ns, io_n), "ns"},
        {"cpu.o3.ns_per_record", ratio(o3_s * ns, o3_n), "ns"},
        {"vector.iv.ns_per_record", ratio(iv_s * ns, iv_n), "ns"},
        {"vector.dv.vmu_lines", dv_lines, "count"},
        {"vector.dv.ns_per_line", ratio(dv_s * ns, dv_lines), "ns"},
        {"core.eve.vmu_lines", eve_lines, "count"},
        {"core.eve.vsu_uops", eve_uops, "count"},
        {"core.eve.ns_per_line", ratio(eve_s * ns, eve_lines), "ns"},
        {"exp.serialize_us_per_job",
         ratio(serialize * 1e6, double(jobs.size())), "us"},
    };
}

} // namespace simbench
