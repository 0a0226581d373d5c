#include "core/endpoint_engine.hpp"

#include "cpu/cpu_node.hpp"
#include "gpu/sm_core.hpp"
#include "mem/mem_node.hpp"
#include "noc/network.hpp"

namespace dr
{

EndpointEngine::EndpointEngine(const Network &net, TickPool &pool,
                               const std::vector<MemNode *> &mems,
                               const std::vector<SmCore *> &gpus,
                               const std::vector<CpuNode *> &cpus)
    : pool_(pool), numDomains_(net.numDomains())
{
    domains_.resize(static_cast<std::size_t>(numDomains_));
    for (MemNode *m : mems) {
        const int d = net.domainOfNode(m->nodeId());
        m->setDomain(d);
        domains_[d].mems.push_back(m);
    }
    for (SmCore *g : gpus) {
        const int d = net.domainOfNode(g->nodeId());
        g->setDomain(d);
        domains_[d].gpus.push_back(g);
    }
    for (CpuNode *c : cpus) {
        const int d = net.domainOfNode(c->nodeId());
        c->setDomain(d);
        domains_[d].cpus.push_back(c);
    }
}

void
EndpointEngine::tickDomain(int domainIdx, Cycle now)
{
    // Canonical order within a domain mirrors the serial schedule
    // (memory nodes, then GPU cores, then CPU nodes); endpoints in one
    // domain are mutually independent during the compute phase, but
    // keeping the order makes serial and parallel traces line up.
    Partition &p = domains_[domainIdx];
    for (MemNode *m : p.mems)
        m->tick(now);
    for (SmCore *g : p.gpus)
        g->tick(now);
    for (CpuNode *c : p.cpus)
        c->tick(now);
}

void
EndpointEngine::tick(Cycle now)
{
    DR_PHASE_ASSERT_COMMIT();
    if (numDomains_ == 1) {
        // Serial mode (noc.threads == 1, or an L1 organization that is
        // not concurrency-safe): same staging and merge, no compute scope.
        tickDomain(0, now);
        return;
    }

    // The networks' pool, one run: domain 0 on this thread, and the
    // run's closing barrier ends the endpoint compute phase.
    pool_.run([&](int d) {
        phase::ComputeScope cs(d);
        DR_PHASE_ASSERT_COMPUTE();
        tickDomain(d, now);
    });
}

} // namespace dr
