#ifndef DR_CORE_ENDPOINT_ENGINE_HPP
#define DR_CORE_ENDPOINT_ENGINE_HPP

/**
 * @file
 * Parallel endpoint tick engine (DESIGN.md §13). Extends the NoC's
 * spatial tick domains to the chip's endpoints: every SM core, CPU node
 * and memory node is assigned to the domain of its attach router and
 * ticked in an *endpoint compute phase* that runs after the network's
 * own two-phase cycle. During the phase each endpoint touches only its
 * own state plus its own network interface, and every send is staged in
 * the interconnect's per-node outbox (Interconnect::beginStaging); the
 * enclosing HeteroSystem then drains the outboxes and resolves the
 * staged cross-endpoint effects (locality-oracle queries, CTA refills)
 * in one canonical serial merge, so every thread count replays the
 * exact serial schedule — bit-identical by construction.
 */

#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"
#include "noc/parallel.hpp"

namespace dr
{

class CpuNode;
class MemNode;
class Network;
class SmCore;

/** Ticks the chip's endpoints, in parallel across NoC domains. */
class EndpointEngine
{
  public:
    /**
     * Partition the endpoints over `net`'s spatial domains (attach-
     * router domain, Network::domainOfNode), ticked on `pool` — the
     * pool that drives the networks. Calls setDomain() on every
     * endpoint with its partition domain.
     */
    EndpointEngine(const Network &net, TickPool &pool,
                   const std::vector<MemNode *> &mems,
                   const std::vector<SmCore *> &gpus,
                   const std::vector<CpuNode *> &cpus);

    EndpointEngine(const EndpointEngine &) = delete;
    EndpointEngine &operator=(const EndpointEngine &) = delete;

    /**
     * Run the endpoint compute phase for one cycle. The caller must
     * have staging active on the interconnect; on return every
     * endpoint has ticked and its sends sit in the per-node outboxes.
     */
    void tick(Cycle now);

    int numDomains() const { return numDomains_; }

  private:
    /** One domain's slice of the endpoints, in canonical tick order. */
    struct Partition
    {
        std::vector<MemNode *> mems;
        std::vector<SmCore *> gpus;
        std::vector<CpuNode *> cpus;
    };

    void tickDomain(int domainIdx, Cycle now) DR_ENDPOINT_PHASE;

    TickPool &pool_;
    int numDomains_ DR_SERIAL_ONLY = 1;
    std::vector<Partition> domains_ DR_SERIAL_ONLY;
};

} // namespace dr

#endif // DR_CORE_ENDPOINT_ENGINE_HPP
