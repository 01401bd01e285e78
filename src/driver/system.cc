#include "driver/system.hh"

#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "analytic/circuits.hh"
#include "common/bits.hh"
#include "common/log.hh"
#include "cpu/io_core.hh"
#include "cpu/o3_core.hh"
#include "sim/checkpoint.hh"
#include "vector/dv_engine.hh"
#include "vector/iv_engine.hh"

namespace eve
{

std::string
systemName(const SystemConfig& config)
{
    switch (config.kind) {
      case SystemKind::IO: return "IO";
      case SystemKind::O3: return "O3";
      case SystemKind::O3IV: return "O3+IV";
      case SystemKind::O3DV: return "O3+DV";
      case SystemKind::O3EVE:
        return "O3+EVE-" + std::to_string(config.eve_pf);
    }
    return "?";
}

const char*
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::IO: return "IO";
      case SystemKind::O3: return "O3";
      case SystemKind::O3IV: return "O3IV";
      case SystemKind::O3DV: return "O3DV";
      case SystemKind::O3EVE: return "O3EVE";
    }
    return "?";
}

bool
parseSystemKind(const std::string& name, SystemKind& out)
{
    for (SystemKind kind : {SystemKind::IO, SystemKind::O3,
                            SystemKind::O3IV, SystemKind::O3DV,
                            SystemKind::O3EVE}) {
        if (name == systemKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
configCanonical(const SystemConfig& config)
{
    std::string out;
    out += "kind=";
    out += systemKindName(config.kind);
    out += ";eve_pf=" + std::to_string(config.eve_pf);
    out += ";llc_mshrs=" + std::to_string(config.llc_mshrs);
    out += ";l2_mshrs=" + std::to_string(config.l2_mshrs);
    out += ";llc_prefetch_lines=" +
           std::to_string(config.llc_prefetch_lines);
    out += ";dtus=" + std::to_string(config.dtus);
    out += ";spawn_ready=" + std::to_string(config.spawn_ready);
    return out;
}

std::uint64_t
configFingerprint(const SystemConfig& config)
{
    return fnv1a64(configCanonical(config));
}

namespace
{

/** "name=1234" -> value; false on malformed key or number. */
template <typename T>
bool
parseField(const std::string& tok, const char* name, T& out)
{
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || tok.substr(0, eq) != name)
        return false;
    const std::string value = tok.substr(eq + 1);
    if (value.empty())
        return false;
    char* end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 10);
    if (!end || *end != '\0')
        return false;
    out = static_cast<T>(v);
    return static_cast<unsigned long long>(out) == v;
}

} // namespace

bool
parseConfigCanonical(const std::string& text, SystemConfig& out)
{
    std::vector<std::string> toks;
    std::string cur;
    for (const char c : text) {
        if (c == ';') {
            toks.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    toks.push_back(cur);
    if (toks.size() != 7)
        return false;

    SystemConfig cfg;
    static const std::string kKindPrefix = "kind=";
    if (toks[0].rfind(kKindPrefix, 0) != 0)
        return false;
    if (!parseSystemKind(toks[0].substr(kKindPrefix.size()), cfg.kind))
        return false;

    if (!parseField(toks[1], "eve_pf", cfg.eve_pf) ||
        !parseField(toks[2], "llc_mshrs", cfg.llc_mshrs) ||
        !parseField(toks[3], "l2_mshrs", cfg.l2_mshrs) ||
        !parseField(toks[4], "llc_prefetch_lines",
                    cfg.llc_prefetch_lines) ||
        !parseField(toks[5], "dtus", cfg.dtus) ||
        !parseField(toks[6], "spawn_ready", cfg.spawn_ready))
        return false;
    // The round trip must be exact: the canonical string is the
    // configuration's content-addressing identity.
    if (configCanonical(cfg) != text)
        return false;
    out = cfg;
    return true;
}

HierarchyParams
System::hierarchyParams(const SystemConfig& config)
{
    HierarchyParams hp;
    hp.llc_mshrs = config.llc_mshrs;
    hp.l2_mshrs = config.l2_mshrs;
    hp.llc_prefetch_lines = config.llc_prefetch_lines;
    if (config.kind == SystemKind::O3EVE) {
        hp.clock_ns = CircuitModel::cycleTimeNs(config.eve_pf);
        hp.l2_vector_mode = true;
    }
    return hp;
}

System::System(const SystemConfig& config) : cfg(config)
{
    hierarchy = std::make_unique<MemHierarchy>(hierarchyParams(config));
    buildModel();
}

System::System(const SystemConfig& config, SharedUncore& uncore,
               MemObject* llc_gate)
    : cfg(config)
{
    hierarchy = std::make_unique<MemHierarchy>(
        hierarchyParams(config), uncore.llc(), uncore.dram(),
        llc_gate);
    buildModel();
}

void
System::buildModel()
{
    const SystemConfig& config = cfg;
    switch (config.kind) {
      case SystemKind::IO: {
        IOCoreParams p;
        model = std::make_unique<IOCore>(p, *hierarchy);
        break;
      }
      case SystemKind::O3: {
        O3CoreParams p;
        model = std::make_unique<O3Core>(p, *hierarchy);
        break;
      }
      case SystemKind::O3IV: {
        IVParams p;
        model = std::make_unique<IVSystem>(p, *hierarchy);
        break;
      }
      case SystemKind::O3DV: {
        DVParams p;
        model = std::make_unique<DVSystem>(p, *hierarchy);
        break;
      }
      case SystemKind::O3EVE: {
        EveParams p;
        p.pf = config.eve_pf;
        p.dtus = config.dtus;
        p.spawn_ready = config.spawn_ready;
        auto sys = std::make_unique<EveSystem>(p, *hierarchy);
        eve = sys.get();
        model = std::move(sys);
        break;
      }
    }
}

System::~System() = default;

std::uint32_t
System::hwVectorLength() const
{
    switch (cfg.kind) {
      case SystemKind::IO:
      case SystemKind::O3:
        return 0;
      case SystemKind::O3IV:
        return 4;
      case SystemKind::O3DV:
        return 64;
      case SystemKind::O3EVE:
        return eve->hwVectorLength();
    }
    return 0;
}

namespace
{

/**
 * The one sink System::run feeds. Per record, in this order: the
 * counts RunResult reports; on sampled runs the schedule's step,
 * whose boundary hook must observe the state of records [0, pos)
 * only; the timing model, with the CMP address bias added, when the
 * record is detailed; the WarmupFilter; and the functional machine
 * from the restored checkpoint's position on. The machine runs last,
 * but the timing models are pure consumers of generator-produced
 * records, so they never miss its results.
 */
class RunSink final : public InstrSink
{
  public:
    RunSink(TimingModel& model, Addr bias) : model(model), bias(bias) {}

    void
    consume(const Instr& instr) override
    {
        ++instrs;
        if (isVectorOp(instr.op)) {
            ++vecInstrs;
            vecElemOps +=
                opClass(instr.op) == OpClass::VecCtrl ? 1 : instr.vl;
        }
        if (!controller || controller->step()) {
            if (bias != 0 && isMemOp(instr.op)) {
                Instr biased = instr;
                biased.addr += bias;
                model.consume(biased);
            } else {
                model.consume(instr);
            }
        }
        if (filter)
            filter->observe(instr);
        if (machine && instrs > machineFrom)
            machine->consume(instr);
    }

    std::uint64_t instrs = 0;     ///< every record
    std::uint64_t vecInstrs = 0;  ///< vector records
    std::uint64_t vecElemOps = 0; ///< vl per vector record, 1 if control

    SamplingController* controller = nullptr; ///< sampled runs only
    WarmupFilter* filter = nullptr;           ///< sampled runs only
    VecMachine* machine = nullptr;            ///< vector systems only
    std::uint64_t machineFrom = 0; ///< records the machine skips

  private:
    TimingModel& model;
    Addr bias;
};

} // namespace

RunResult
System::run(Workload& workload, const SimOptions& opts)
{
    workload.init();

    RunResult result;
    result.system = systemName(cfg);
    result.workload = workload.name();
    result.sampled = opts.sampling.enabled();

    const std::uint32_t hw_vl = hwVectorLength();
    std::unique_ptr<VecMachine> machine;
    if (hw_vl != 0)
        machine =
            std::make_unique<VecMachine>(workload.memory(), hw_vl);

    RunSink sink(*model, addrBias);
    sink.machine = machine.get();

    // A sampled run steps the SamplingController ahead of the model,
    // adds the WarmupFilter and gates the machine behind a restored
    // checkpoint.
    std::optional<SamplingController> controller;
    std::optional<WarmupFilter> filter;
    std::unique_ptr<CheckpointStore> store;
    std::string material;
    Checkpoint capture;
    bool captured = false;
    if (result.sampled) {
        // Checkpoint identity: everything the functional state at a
        // record position depends on — the workload and its inputs,
        // the hardware vector length (it shapes the emitted stream),
        // the sampling schedule (it decides the capture position),
        // and the memory-image size (a workload-generator change
        // shows up here even when the simulator salt did not move).
        // Scalar systems have no machine to snapshot, and "custom"-
        // scale workloads have no reproducible identity, so neither
        // uses checkpoints.
        const bool reproducible_scale = opts.scale_tag == "small" ||
                                        opts.scale_tag == "full" ||
                                        opts.scale_tag == "paper";
        if (!opts.checkpoint_dir.empty() && machine &&
            reproducible_scale) {
            material = "workload=" + workload.name() +
                       "|scale=" + opts.scale_tag +
                       "|vl=" + std::to_string(hw_vl) +
                       "|mem=" +
                       std::to_string(workload.memory().size()) + "|" +
                       samplingCanonical(opts.sampling);
            store = std::make_unique<CheckpointStore>(
                opts.checkpoint_dir, opts.salt);
        }

        std::uint64_t skip = 0;
        Checkpoint restored;
        if (store && store->load(material, restored)) {
            if (restored.mem.size() != workload.memory().size()) {
                warn("checkpoint for %s: memory image %zu bytes != "
                     "workload's %zu; ignoring",
                     workload.name().c_str(), restored.mem.size(),
                     std::size_t(workload.memory().size()));
            } else {
                // The machine is memory's only mutator, and it skips
                // every record before the snapshot position — so
                // installing the snapshot right after init()
                // reproduces the cold run's state exactly.
                skip = restored.position;
                workload.memory().data() = std::move(restored.mem);
                machine->restoreState(restored.machine);
                result.checkpoint = "restored";
            }
        }

        filter.emplace(hierarchy->l1d().params().line_bytes);
        controller.emplace(opts.sampling, *model);
        // Capture (overwriting) at every fast-forward -> detailed
        // boundary past what a restored snapshot already covers (the
        // hook never fires at pos 0); the final capture — the last
        // boundary of the stream — is what gets saved, maximizing
        // the machine work the next run skips.
        controller->on_detail_entry = [&, skip](std::uint64_t pos) {
            filter->applyTo(hierarchy->llc());
            filter->applyTo(hierarchy->l2());
            filter->applyTo(hierarchy->l1d());
            if (store && pos > skip) {
                capture.position = pos;
                capture.machine = machine->saveState();
                capture.mem = workload.memory().data();
                captured = true;
            }
        };
        sink.controller = &*controller;
        sink.filter = &*filter;
        sink.machineFrom = skip;
    }

    if (hw_vl == 0)
        workload.emitScalar(sink);
    else
        workload.emitVector(sink, hw_vl);
    result.instrs = sink.instrs;
    result.vecInstrs = sink.vecInstrs;
    result.vecElemOps = sink.vecElemOps;

    // The scalar path is timing-only; vector runs verify against the
    // functional machine's memory image.
    result.mismatches = hw_vl == 0 ? 0 : workload.verify();
    model->finish();
    result.total_ticks = double(model->finalTick());
    if (controller) {
        controller->finalize(model->finalTick());
        const SampleStats& sampled = controller->stats();
        result.sample_windows = sampled.windows;
        result.sampled_measured_instrs = sampled.measured_instrs;
        result.sampled_measured_ticks = sampled.measured_ticks;
        if (sampled.measured_instrs == 0)
            warn("%s on %s: stream too short to measure a sampling "
                 "window; reporting the detailed-path frontier",
                 result.workload.c_str(), result.system.c_str());
        result.total_ticks =
            extrapolatedTicks(sampled, result.total_ticks);
    }

    auto collect = [&](StatGroup& group) {
        for (const auto& [stat, value] : group.sorted())
            result.stats[group.name() + "." + stat] = value;
    };
    collect(model->stats());
    collect(hierarchy->l1i().stats());
    collect(hierarchy->l1d().stats());
    collect(hierarchy->l2().stats());
    if (!sharedStatsDeferred) {
        collect(hierarchy->llc().stats());
        collect(hierarchy->dram().stats());
    }
    result.cycles = result.total_ticks /
                    (model->clockNs() * ticksPerNs);
    result.seconds = result.total_ticks / (ticksPerNs * 1e9);
    if (eve) {
        result.has_breakdown = true;
        result.breakdown = eve->breakdown();
        result.vmu_cache_stall_ticks = eve->vmuCacheStallTicks();
    }
    if (result.mismatches)
        warn("%s on %s: %llu functional mismatches",
             result.workload.c_str(), result.system.c_str(),
             (unsigned long long)result.mismatches);

    // Persist the snapshot only from a clean run: a mismatching
    // functional state must never seed future runs.
    if (captured && result.mismatches == 0) {
        store->save(material, capture);
        if (result.checkpoint.empty())
            result.checkpoint = "saved";
    }
    return result;
}

RunResult
runWorkload(const SystemConfig& config, Workload& workload,
            const SimOptions& opts)
{
    System system(config);
    return system.run(workload, opts);
}

std::pair<RunResult, RunResult>
runCmpPair(const SystemConfig& cfg_a, Workload& workload_a,
           const SystemConfig& cfg_b, Workload& workload_b)
{
    HierarchyParams shared = System::hierarchyParams(cfg_a);
    shared.clock_ns = 1.025;  // the uncore runs at the baseline clock
    SharedUncore uncore(shared);
    System core_a(cfg_a, uncore);
    System core_b(cfg_b, uncore);
    // Disjoint physical footprints in the shared LLC.
    core_b.setAddressBias(Addr{1} << 32);
    RunResult a = core_a.run(workload_a);
    RunResult b = core_b.run(workload_b);
    return {std::move(a), std::move(b)};
}

} // namespace eve
