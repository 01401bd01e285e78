#include "sim/resource.hh"

#include "common/log.hh"

namespace eve
{

PipelinedUnits::PipelinedUnits(unsigned count)
    : freeAt(std::max(count, 1u), 0)
{
}

TokenPool::TokenPool(unsigned count)
    : capacity(std::max(count, 1u)), busy(2 * std::size_t(capacity))
{
}

} // namespace eve
