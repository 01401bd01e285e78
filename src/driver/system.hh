/**
 * @file
 * Top-level driver: assemble any Table III system configuration, run
 * a workload through it (with the functional vector machine attached,
 * so every timing run is also verified), and collect results.
 */

#ifndef EVE_DRIVER_SYSTEM_HH
#define EVE_DRIVER_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/engine/eve_engine.hh"
#include "cpu/timing_model.hh"
#include "mem/hierarchy.hh"
#include "sim/sampling.hh"
#include "workloads/workload.hh"

namespace eve
{

/** Which Table III system to simulate. */
enum class SystemKind
{
    IO,    ///< in-order scalar
    O3,    ///< out-of-order scalar
    O3IV,  ///< O3 + integrated vector unit
    O3DV,  ///< O3 + decoupled vector engine
    O3EVE, ///< O3 + EVE-n
};

/** Full system configuration. */
struct SystemConfig
{
    SystemKind kind = SystemKind::O3;
    unsigned eve_pf = 8;       ///< EVE parallelization factor
    unsigned llc_mshrs = 32;
    unsigned l2_mshrs = 32;
    unsigned llc_prefetch_lines = 0;  ///< LLC stream prefetcher depth
    unsigned dtus = 8;
    Tick spawn_ready = 0;      ///< EVE spawn completion tick
};

/** Human-readable system name ("O3+EVE-8"). */
std::string systemName(const SystemConfig& config);

/** Symbolic kind name ("O3EVE"); stable even if systemName changes. */
const char* systemKindName(SystemKind kind);

/** Inverse of systemKindName(); false on an unknown @p name. */
bool parseSystemKind(const std::string& name, SystemKind& out);

/**
 * Canonical serialization of *every* SystemConfig field, in
 * declaration order ("kind=O3EVE;eve_pf=8;..."). This is the
 * content-addressing identity of a configuration: the result cache
 * hashes it into job keys, so adding a field to SystemConfig
 * automatically invalidates all previously cached results.
 */
std::string configCanonical(const SystemConfig& config);

/** 64-bit FNV-1a fingerprint of configCanonical(). */
std::uint64_t configFingerprint(const SystemConfig& config);

/**
 * Strict inverse of configCanonical(): parses "kind=O3EVE;eve_pf=8;
 * ..." back into a SystemConfig. Every field must appear, in
 * declaration order, with nothing extra — so text produced by a
 * binary whose SystemConfig gained or lost a field is rejected
 * rather than half-applied. Returns false (leaving @p out untouched)
 * on any deviation. The distributed sweep protocol uses this to let
 * worker processes rebuild jobs from job files alone.
 */
bool parseConfigCanonical(const std::string& text, SystemConfig& out);

/**
 * How to run one simulation: the sampling schedule and (for sampled
 * runs) where functional checkpoints live. The default is an exact
 * run.
 */
struct SimOptions
{
    /** Disabled (exact) by default. */
    SamplingConfig sampling;

    /**
     * Directory for functional checkpoints ("" = none). Only used by
     * sampled vector runs whose scale_tag names a reproducible
     * workload scale (small/full/paper) — "custom" workloads have no
     * stable identity to key a snapshot by.
     */
    std::string checkpoint_dir;

    /** Workload scale for checkpoint identity (small/full/paper). */
    std::string scale_tag;

    /** Simulator salt stamped into checkpoint files (the caller
     * passes exp::kSimulatorSalt; sim/ cannot depend on exp/). */
    std::string salt;
};

/** Result of one (system, workload) simulation. */
struct RunResult
{
    std::string system;
    std::string workload;
    double cycles = 0;        ///< core clock cycles
    double seconds = 0;       ///< wall-clock simulated time
    std::uint64_t instrs = 0; ///< dynamic instructions consumed
    std::uint64_t mismatches = 0;  ///< functional check (0 = pass)
    bool has_breakdown = false;
    EveBreakdown breakdown;   ///< EVE execution categories (ticks)
    double vmu_cache_stall_ticks = 0;
    double total_ticks = 0;

    std::uint64_t vecInstrs = 0;   ///< dynamic vector instructions
    std::uint64_t vecElemOps = 0;  ///< vector element operations

    /**
     * Sampled-run provenance. When @ref sampled is set, cycles /
     * seconds / total_ticks are extrapolated from the measured
     * windows and @ref stats covers only the detailed intervals
     * (raw, unscaled — documented in EXPERIMENTS.md). Exact runs
     * leave all of this at defaults and serialize without it, so
     * their records stay byte-identical to historical ones.
     */
    bool sampled = false;
    std::uint64_t sample_windows = 0;
    std::uint64_t sampled_measured_instrs = 0;
    std::uint64_t sampled_measured_ticks = 0;

    /**
     * Checkpoint action this run took: "", "saved", or "restored".
     * Diagnostic only — never serialized, so cold and restored runs
     * produce byte-identical records.
     */
    std::string checkpoint;

    /** Flattened "<group>.<stat>" counters from every component. */
    std::map<std::string, double> stats;

    double stat(const std::string& key) const
    {
        auto it = stats.find(key);
        return it == stats.end() ? 0.0 : it->second;
    }
};

/** One assembled system. */
class System
{
  public:
    explicit System(const SystemConfig& config);

    /**
     * CMP form: a core whose private hierarchy sits on a shared
     * uncore (LLC + DRAM). Several systems built this way contend
     * for the shared resources. @p llc_gate, when non-null, is
     * interposed on every timing path into the shared LLC (the
     * threaded CMP driver's BarrierClock port).
     */
    System(const SystemConfig& config, SharedUncore& uncore,
           MemObject* llc_gate = nullptr);

    ~System();

    /** Hardware vector length (0 for scalar systems). */
    std::uint32_t hwVectorLength() const;

    /**
     * Run @p workload: init, emit the matching stream (scalar or
     * vector) through the timing model with a VecMachine attached,
     * finish, verify, and collect the result.
     *
     * With opts.sampling enabled the run is sampled: the stream
     * fast-forwards between detailed intervals, cycles/seconds/
     * total_ticks are extrapolated from the measured windows, and
     * (when opts.checkpoint_dir is set and the workload scale is
     * reproducible) the functional state at the last detailed-window
     * entry is checkpointed / restored through a CheckpointStore.
     * Restored runs are byte-identical to cold ones.
     */
    RunResult run(Workload& workload, const SimOptions& opts = {});

    TimingModel& timing() { return *model; }
    MemHierarchy& memory() { return *hierarchy; }

    /** The EVE engine view (nullptr for other systems). */
    EveSystem* eveSystem() { return eve; }

    /**
     * Bias all physical addresses seen by the *timing* model (not
     * the functional machine). CMP cores use disjoint biases so
     * their footprints do not alias in the shared LLC.
     */
    void setAddressBias(Addr bias) { addrBias = bias; }

    const SystemConfig& config() const { return cfg; }

    /** Hierarchy parameters implied by a system configuration. */
    static HierarchyParams hierarchyParams(const SystemConfig& config);

    /**
     * CMP driver hook: skip the shared llc/dram stat groups when
     * collecting this core's result (they are patched in after every
     * core joined, so concurrent cores never read stats another core
     * is still updating).
     */
    void deferSharedStats() { sharedStatsDeferred = true; }

  private:
    void buildModel();

    SystemConfig cfg;
    std::unique_ptr<MemHierarchy> hierarchy;
    std::unique_ptr<TimingModel> model;
    EveSystem* eve = nullptr;
    Addr addrBias = 0;
    bool sharedStatsDeferred = false;
};

/** Convenience: build a fresh system and run one workload. */
RunResult runWorkload(const SystemConfig& config, Workload& workload,
                      const SimOptions& opts = {});

/**
 * Run two workloads on two cores that share the LLC and the DRAM
 * channel. The second core's run observes the first core's uncore
 * traffic (reservation-model approximation of co-execution), so
 * `second` minus its solo time is the interference cost.
 */
std::pair<RunResult, RunResult> runCmpPair(const SystemConfig& cfg_a,
                                           Workload& workload_a,
                                           const SystemConfig& cfg_b,
                                           Workload& workload_b);

} // namespace eve

#endif // EVE_DRIVER_SYSTEM_HH
