/**
 * @file
 * Runtime truth-checking of the phase/domain ownership model
 * (DESIGN.md §12). Each seeded PhaseMutant reproduces one ownership
 * violation the static checker (tools/drlint.py) catches textually;
 * here the DR_CHECKED stamp machinery must catch the same violation
 * dynamically — a mutant that only one side sees means the other
 * side's model has drifted from the code.
 *
 * Mutants needing a foreign domain only fire on a multi-domain engine
 * (threads >= 2); on the serial engine they are inert, which the last
 * test pins down.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/invariant.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace dr
{
namespace
{

NetworkParams
phaseParams(const Topology &topo, int threads)
{
    NetworkParams p;
    p.name = "phase-net";
    p.numVcs = 2;
    p.vcDepthFlits = 4;
    p.routerStages = 4;
    p.ejBufferFlits = 18;
    p.injBufferFlits.assign(topo.nodes(), 36);
    p.routing = RoutingKind::DimOrderXY;
    p.threads = threads;
    return p;
}

Message
phaseMsg(NodeId src, NodeId dst, std::uint64_t id)
{
    Message m;
    m.type = MsgType::ReadReq;
    m.cls = TrafficClass::Gpu;
    m.src = src;
    m.dst = dst;
    m.requester = src;
    m.id = id;
    return m;
}

/**
 * A destination in a different domain than node 0, avoiding the last
 * node (the mutants' victim, whose state must stay untouched by real
 * traffic so the stamp checks see only the seeded violation).
 */
NodeId
crossDomainDst(const Network &net)
{
    const NodeId last = net.topology().nodes() - 1;
    for (NodeId n = 0; n < last; ++n) {
        if (net.domainOfNode(n) != net.domainOfNode(0))
            return n;
    }
    return 0; // single domain: caller skips
}

/**
 * Build a two-domain 4x4 mesh, arm `mutant`, and run it with traffic
 * that crosses the domain boundary. Ends with a full invariant sweep
 * so audit-style mutants (forged stamps) are also reached.
 */
void
runMutant(Network::PhaseMutant mutant, Cycle cycles)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(phaseParams(topo, 2), topo);
    net.debugInjectPhaseMutant(mutant);
    const NodeId dst = crossDomainDst(net);
    std::uint64_t id = 1;
    for (Cycle c = 0; c < cycles; ++c) {
        if (c < 8 && dst != 0 && net.canInject(0, 1))
            net.inject(phaseMsg(0, dst, id++), 1, c);
        net.tick(c);
    }
    net.checkAllInvariants();
}

#define DR_REQUIRE_CHECKED()                                          \
    do {                                                              \
        if (!checkedBuild())                                          \
            GTEST_SKIP() << "phase mutants need a DR_CHECKED build";  \
    } while (0)

TEST(PhaseOwnership, CleanMultiDomainRunPassesAllChecks)
{
    // Baseline: the same harness with no mutant armed must be silent.
    runMutant(Network::PhaseMutant::None, 60);
}

TEST(PhaseOwnershipDeath, CrossDomainWriteTrapped)
{
    DR_REQUIRE_CHECKED();
    // Domain 0's worker calls niEject on the last domain's NI; the
    // NI's writer stamp must trap the foreign compute-phase write.
    EXPECT_DEATH(runMutant(Network::PhaseMutant::CrossDomainWrite, 10),
                 "phase violation: compute-phase write");
}

TEST(PhaseOwnershipDeath, UnstagedCrossDomainFlitTrapped)
{
    DR_REQUIRE_CHECKED();
    // A cross-domain hop bypasses the SPSC staging and commits into
    // the consumer's router from the producer's worker; the router's
    // stamp must trap it the moment a flit crosses the boundary.
    EXPECT_DEATH(runMutant(Network::PhaseMutant::UnstagedCross, 60),
                 "phase violation: compute-phase write");
}

TEST(PhaseOwnershipDeath, SerialStateTouchedInComputeTrapped)
{
    DR_REQUIRE_CHECKED();
    // The packet pool free list is serial-only; alloc() asserts the
    // serial phase and must abort when entered from a compute scope.
    EXPECT_DEATH(runMutant(Network::PhaseMutant::SerialInCompute, 10),
                 "serial-only");
}

TEST(PhaseOwnershipDeath, SpscDrainedOutOfOrderTrapped)
{
    DR_REQUIRE_CHECKED();
    // Descending producer order would replay arrivals in a different
    // order than the sequential engine; the drain assertion fires on
    // the first commit.
    EXPECT_DEATH(runMutant(Network::PhaseMutant::SpscOutOfOrder, 10),
                 "drained out of order");
}

TEST(PhaseOwnershipDeath, StampBypassCaughtByAudit)
{
    DR_REQUIRE_CHECKED();
    // The forged writer record survives (no legitimate write path
    // touches the victim) until the end-of-run audit rejects it.
    EXPECT_DEATH(runMutant(Network::PhaseMutant::StampBypass, 10),
                 "phase stamp audit");
}

TEST(PhaseOwnership, MutantsInertOnSerialEngine)
{
    // With one domain there is no ownership boundary to violate: every
    // mutant must be a no-op on the sequential engine.
    const Topology topo = Topology::makeMesh(4, 4);
    for (auto mutant : {Network::PhaseMutant::CrossDomainWrite,
                        Network::PhaseMutant::UnstagedCross,
                        Network::PhaseMutant::SerialInCompute,
                        Network::PhaseMutant::SpscOutOfOrder,
                        Network::PhaseMutant::StampBypass}) {
        Network net(phaseParams(topo, 1), topo);
        net.debugInjectPhaseMutant(mutant);
        std::uint64_t id = 1;
        for (Cycle c = 0; c < 40; ++c) {
            if (c < 8)
                net.inject(phaseMsg(0, 12, id++), 1, c);
            net.tick(c);
        }
        net.checkAllInvariants();
    }
}

} // namespace
} // namespace dr
