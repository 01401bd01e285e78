/**
 * @file
 * The timing-parity guard, and the system and workload lists that the
 * tools, the benches and simbench share.
 *
 * Hot-path work on the timing core is only admissible if it does not
 * change a single simulated cycle. The parity guard makes that
 * mechanical: every run has a *parity fingerprint* — a 64-bit FNV-1a
 * hash of its deterministic result payload (resultToJson without host
 * time: cycles, seconds, instrs, the full stats map, the EVE
 * breakdown) — keyed by the configuration fingerprint, workload, and
 * input scale. A ParityFile stores golden fingerprints; a check run
 * re-simulates the same grid and compares byte-for-byte. If the guard
 * passes, kSimulatorSalt does not need a bump and every cached sweep
 * result stays valid. `eve_sweep --parity` runs the check and
 * `eve_sweep --update-parity` writes the goldens.
 */

#ifndef EVE_EXP_PERF_HH
#define EVE_EXP_PERF_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace eve::exp
{

/** The Table III system list (IO, O3, O3+IV, O3+DV, EVE-1..32). */
std::vector<SystemConfig> tableIIISystems();

/** The EVE-only design sweep (EVE-1..32), as used by Figures 7/8. */
std::vector<SystemConfig> eveDesignSystems();

/**
 * The systems a tool's `--systems`/`--pf` flags name: one per entry
 * of @p kinds (IO, O3, O3IV, O3DV, O3EVE), in order, except that
 * O3EVE expands to one EVE-N system per N in @p pfs — no other kind
 * has a parallelization factor. An empty @p pfs leaves O3EVE at the
 * SystemConfig default. Returns false on an unknown kind, which
 * @p unknown then names.
 */
bool namedSystems(const std::vector<std::string>& kinds,
                  const std::vector<unsigned>& pfs,
                  std::vector<SystemConfig>& out, std::string& unknown);

/** The paper's Figure 6 workload list. */
const std::vector<std::string>& paperWorkloads();

/**
 * The RiVEC-style extension kernels (axpy, blackscholes,
 * streamcluster, particlefilter): streaming MAC, mask/branch,
 * gather, and scatter/reduction shapes beyond the paper's suite.
 */
const std::vector<std::string>& rivecWorkloads();

/**
 * The canonical Table III grid: every Table III system crossed with
 * the paper's workloads, the reference sweep of the performance
 * figures. @p include_rivec appends the RiVEC extension kernels to
 * the workload axis — off by default so the grid stays the paper's
 * (and the parity goldens' when @p small); the benches opt in via
 * EVE_BENCH_RIVEC=1.
 */
SweepSpec tableIIISweep(bool small, bool include_rivec = false);

/**
 * Deterministic result payload the parity fingerprint hashes.
 * Sweep bookkeeping (index, label, axes) is normalized out so the
 * fingerprint of a grid point is identical whether it ran in the
 * full Table III grid, a slice of it, or any other sweep covering
 * the same point.
 */
std::string parityPayload(const JobResult& r);

/** 64-bit FNV-1a fingerprint of parityPayload(). */
std::uint64_t parityFingerprint(const JobResult& r);

/**
 * Stable identity of one grid point:
 * "<system>|<workload>|<scale>|cfg=<16-hex configFingerprint>".
 * Deliberately salt-free: the whole point of the guard is to compare
 * across simulator versions under the *same* salt.
 */
std::string parityKey(const SystemConfig& config,
                      const std::string& workload,
                      const std::string& scale);

/** Key of the grid point a JobResult came from. */
std::string parityKey(const JobResult& r, const std::string& scale);

/**
 * A keyed set of golden parity fingerprints with a line-oriented
 * on-disk form: "<16-hex fingerprint> <key>" per line, '#' comments.
 */
class ParityFile
{
  public:
    /** Fingerprint every Ok result of @p results. */
    static ParityFile fromResults(const std::vector<JobResult>& results,
                                  const std::string& scale);

    /** Load a golden file; fatal on I/O or parse errors. */
    static ParityFile load(const std::string& path);

    /** Write the golden file (sorted by key); fatal on I/O errors. */
    void save(const std::string& path) const;

    /**
     * Compare @p results against the goldens. Returns one
     * human-readable line per divergence: fingerprint mismatches,
     * grid points missing from the goldens, and non-Ok jobs. Empty
     * means byte-identical timing.
     */
    std::vector<std::string>
    check(const std::vector<JobResult>& results,
          const std::string& scale) const;

    std::size_t size() const { return entries.size(); }

  private:
    std::map<std::string, std::uint64_t> entries;
};

} // namespace eve::exp

#endif // EVE_EXP_PERF_HH
