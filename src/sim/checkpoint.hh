/**
 * @file
 * Functional-state checkpoints for sampled simulation.
 *
 * A sampled run's dominant cost is the functional fast-forward: the
 * VecMachine must execute the whole dynamic stream to keep memory
 * and register state exact even though the timing model only sees
 * the detailed intervals. That state depends solely on (workload,
 * scale, hardware vector length) — the timing models are pure
 * consumers of generator-produced records — so every sweep point
 * sharing those can reuse one snapshot: a checkpoint captures the
 * functional state (memory image + vector machine) at the *last*
 * detailed-window entry, and a restored run installs it up front
 * and skips the machine's leg for every record before that
 * position. The warmup filter, the timing model, and the interval
 * measurements all still run record by record, so a restored run is
 * byte-identical to a cold one — guarded by the checkpoint parity
 * test.
 *
 * On-disk format (`ck-<16 hex>.ckpt`, named by the FNV-1a hash of
 * the identity material): a line-oriented text header —
 *
 *     eve-ckpt-v1
 *     salt=<kSimulatorSalt of the writer>
 *     material=<identity material>
 *     position=<record index of the snapshot>
 *     vl=<granted vl>  scalar=<last scalar result>
 *     vlmax=<register width>  vregs=<register count>
 *     mem_bytes=<memory image size>
 *     data
 *
 * — followed by the raw little-endian register file and memory
 * image. Files are written atomically (common/fs.hh), and a file
 * whose magic, salt, material, or payload size disagrees with the
 * reader is *quarantined* (renamed to `<file>.quarantine`) rather
 * than trusted — the same salt-skew refusal the distributed sweep
 * protocol applies to its manifests.
 */

#ifndef EVE_SIM_CHECKPOINT_HH
#define EVE_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/functional.hh"

namespace eve
{

/** One functional snapshot. */
struct Checkpoint
{
    std::uint64_t position = 0; ///< records executed before capture
    VecMachineState machine;
    std::vector<std::uint8_t> mem;
};

/**
 * Directory of checkpoints keyed by an identity-material string
 * (workload, scale, hardware vl, sampling schedule — the caller
 * builds it; see System::run).
 */
class CheckpointStore
{
  public:
    /**
     * @param dir   checkpoint directory (created on first save)
     * @param salt  the writer's simulator salt; a loaded file whose
     *              salt differs is quarantined
     */
    CheckpointStore(std::string dir, std::string salt);

    /** The file a given identity material maps to. */
    std::string pathFor(const std::string& material) const;

    /**
     * Load the checkpoint for @p material. Returns false when the
     * file does not exist, and also (after quarantining the file and
     * warning) when it exists but is malformed or salt-skewed.
     */
    bool load(const std::string& material, Checkpoint& out) const;

    /** Atomically write the checkpoint for @p material. */
    void save(const std::string& material,
              const Checkpoint& ck) const;

  private:
    std::string dir;
    std::string salt;
};

} // namespace eve

#endif // EVE_SIM_CHECKPOINT_HH
