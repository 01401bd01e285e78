/**
 * @file
 * Interface of every end-to-end timing model (a "simulated system"
 * row of Table III). Workloads stream their dynamic trace into the
 * model through InstrSink — a workload never sees the clock — and
 * after finish() the model reports how long the run took.
 */

#ifndef EVE_CPU_TIMING_MODEL_HH
#define EVE_CPU_TIMING_MODEL_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instr.hh"

namespace eve
{

/** One simulated system consuming a dynamic instruction stream. */
class TimingModel : public InstrSink
{
  public:
    /** Drain all in-flight work (pipelines, queues, engines). */
    virtual void finish() = 0;

    /** End-of-run time; valid after finish(). */
    virtual Tick finalTick() const = 0;

    /** Model statistics. */
    virtual StatGroup& stats() = 0;

    /** Cycle time of the model's core clock, in nanoseconds. */
    virtual double clockNs() const = 0;
};

} // namespace eve

#endif // EVE_CPU_TIMING_MODEL_HH
