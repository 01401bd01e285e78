/**
 * @file
 * Interface of every level of the memory system.
 *
 * The memory system uses reservation-style timing (see
 * sim/resource.hh): an access is a single call that returns the tick
 * at which the requested cacheline is available (loads) or accepted
 * (stores). All contention — banks, MSHRs, the DRAM channel — is
 * captured by the per-level resources.
 */

#ifndef EVE_MEM_MEM_OBJECT_HH
#define EVE_MEM_MEM_OBJECT_HH

#include "common/stats.hh"
#include "common/types.hh"

namespace eve
{

/** One level of the memory hierarchy. */
class MemObject
{
  public:
    virtual ~MemObject() = default;

    /**
     * Access one cacheline.
     *
     * @param addr      any byte address within the target line
     * @param is_write  store (true) or load (false)
     * @param t         tick the request arrives at this level
     * @return          tick the access completes at this level
     */
    virtual Tick access(Addr addr, bool is_write, Tick t) = 0;

    /** Statistics for this level. */
    virtual StatGroup& stats() = 0;
};

} // namespace eve

#endif // EVE_MEM_MEM_OBJECT_HH
