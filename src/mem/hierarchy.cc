#include "mem/hierarchy.hh"

namespace eve
{

namespace
{

CacheParams
llcParams(const HierarchyParams& params)
{
    CacheParams p;
    p.name = "llc";
    p.size_bytes = 2 * 1024 * 1024;
    p.assoc = 16;
    p.hit_latency = 12;
    p.mshrs = params.llc_mshrs;
    p.banks = 8;
    p.clock_ns = params.clock_ns;
    p.prefetch_lines = params.llc_prefetch_lines;
    return p;
}

} // namespace

MemHierarchy::MemHierarchy(const HierarchyParams& params)
    : hierParams(params)
{
    dramChannel = std::make_unique<Dram>(params.dram);
    dramView = dramChannel.get();
    llcCache = std::make_unique<Cache>(llcParams(params),
                                       dramChannel.get());
    llcView = llcCache.get();
    llcTimingPort = llcView;
    buildPrivateLevels();
}

MemHierarchy::MemHierarchy(const HierarchyParams& params,
                           Cache& shared_llc, Dram& shared_dram,
                           MemObject* llc_gate)
    : hierParams(params)
{
    llcView = &shared_llc;
    dramView = &shared_dram;
    llcTimingPort = llc_gate ? llc_gate : llcView;
    buildPrivateLevels();
}

void
MemHierarchy::buildPrivateLevels()
{
    const HierarchyParams& params = hierParams;

    CacheParams l2_p;
    l2_p.name = "l2";
    l2_p.size_bytes = params.l2_vector_mode ? 256 * 1024 : 512 * 1024;
    l2_p.assoc = params.l2_vector_mode ? 4 : 8;
    l2_p.hit_latency = 8;
    l2_p.banks = 8;
    l2_p.mshrs = params.l2_mshrs;
    l2_p.clock_ns = params.clock_ns;
    l2Cache = std::make_unique<Cache>(l2_p, llcTimingPort);

    CacheParams l1d_p;
    l1d_p.name = "l1d";
    l1d_p.size_bytes = 32 * 1024;
    l1d_p.assoc = 4;
    l1d_p.hit_latency = 2;
    l1d_p.mshrs = 16;
    l1d_p.clock_ns = params.clock_ns;
    l1dCache = std::make_unique<Cache>(l1d_p, l2Cache.get());

    CacheParams l1i_p;
    l1i_p.name = "l1i";
    l1i_p.size_bytes = 32 * 1024;
    l1i_p.assoc = 4;
    l1i_p.hit_latency = 1;
    l1i_p.mshrs = 16;
    l1i_p.clock_ns = params.clock_ns;
    l1iCache = std::make_unique<Cache>(l1i_p, l2Cache.get());
}

void
MemHierarchy::warmRange(Addr begin, Addr end)
{
    const unsigned line = l1dCache->params().line_bytes;
    for (Addr a = begin; a < end; a += line) {
        l1dCache->touch(a);
        l2Cache->touch(a);
        llcView->touch(a);
    }
}

SharedUncore::SharedUncore(const HierarchyParams& params)
{
    dramChannel = std::make_unique<Dram>(params.dram);
    llcCache = std::make_unique<Cache>(llcParams(params),
                                       dramChannel.get());
}

} // namespace eve
