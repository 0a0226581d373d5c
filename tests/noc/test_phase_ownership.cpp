/**
 * @file
 * Runtime truth-checking of the phase/domain ownership model
 * (DESIGN.md §12). Each death test commits one ownership violation the
 * static checker (tools/drlint.py) catches textually, through the
 * NetworkTestAccess seam from inside a compute scope; the DR_CHECKED
 * stamp machinery must catch the same violation dynamically — a
 * violation that only one side sees means the other side's model has
 * drifted from the code.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/invariant.hpp"
#include "common/ownership.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "network_test_access.hpp"

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

/** A 4x4 mesh on two domains: the smallest engine with an ownership
 *  boundary. Node 0 and router 0 are domain 0's; the last node and
 *  router are domain 1's. */
struct TwoDomainMesh
{
    Topology topo = Topology::makeMesh(4, 4);
    Network net{phaseParams(topo, 2), topo};
    NodeId lastNode = static_cast<NodeId>(topo.nodes() - 1);
    int lastRouter = topo.routers() - 1;
};

#define DR_REQUIRE_CHECKED()                                          \
    do {                                                              \
        if (!checkedBuild())                                          \
            GTEST_SKIP() << "phase checks need a DR_CHECKED build";   \
    } while (0)

TEST(PhaseOwnership, CleanMultiDomainRunPassesAllChecks)
{
    // Traffic crossing the domain boundary through the real engine
    // must leave every stamp and conservation check silent.
    TwoDomainMesh m;
    ASSERT_NE(m.net.domainOfNode(m.lastNode), m.net.domainOfNode(0));
    std::uint64_t id = 1;
    for (Cycle c = 0; c < 60; ++c) {
        if (c < 8 && m.net.canInject(0, 1))
            m.net.inject(phaseMsg(0, m.lastNode, id++), 1, c);
        m.net.tick(c);
    }
    m.net.checkAllInvariants();
}

TEST(PhaseOwnershipDeath, CrossDomainWriteTrapped)
{
    DR_REQUIRE_CHECKED();
    // Domain 0's worker calls niEject on domain 1's NI; the NI's
    // writer stamp must trap the foreign compute-phase write.
    TwoDomainMesh m;
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(0);
            NetworkTestAccess::niEject(m.net, 0, m.lastNode, 0);
        },
        "phase violation: compute-phase write");
}

TEST(PhaseOwnershipDeath, UnstagedCrossDomainFlitTrapped)
{
    DR_REQUIRE_CHECKED();
    // A cross-domain hop that skips the producer's outgoing list pushes
    // into the consumer's arrival wheel from the producer's worker; the
    // consumer domain's stamp must trap it.
    TwoDomainMesh m;
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(0);
            NetworkTestAccess::scheduleFlit(m.net, m.lastRouter, 0,
                                            Flit{}, 1);
        },
        "phase violation: compute-phase write");
}

TEST(PhaseOwnershipDeath, SerialStateTouchedInComputeTrapped)
{
    DR_REQUIRE_CHECKED();
    // The network's statistics belong to the serial merge: resetStats()
    // asserts the serial phase and must abort when entered from a
    // compute scope, whichever domain's.
    TwoDomainMesh m;
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(0);
            m.net.resetStats();
        },
        "serial-only");
}

TEST(PhaseOwnershipDeath, ForeignPoolReleaseTrapped)
{
    DR_REQUIRE_CHECKED();
    // A domain releases its own pool's slots, at the start of its
    // sweep; domain 1's worker giving back a slot of domain 0's pool
    // must trap. The owner itself may.
    TwoDomainMesh m;
    const PacketHandle h = NetworkTestAccess::allocPacket(m.net, 0);
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(1);
            NetworkTestAccess::releasePacket(m.net, h);
        },
        "phase violation: release owned by domain 0");
    phase::ComputeScope cs(0);
    NetworkTestAccess::releasePacket(m.net, h);
}

TEST(PhaseOwnershipDeath, InjectIntoForeignDomainTrapped)
{
    DR_REQUIRE_CHECKED();
    // An endpoint injects only from its own node, in its own domain's
    // slot of the compute run; domain 0's worker injecting at domain
    // 1's node must trap before touching that NI or its pool.
    TwoDomainMesh m;
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(0);
            m.net.inject(phaseMsg(m.lastNode, 0, 1), 1, 0);
        },
        "phase violation: inject owned by domain 1");
}

TEST(PhaseOwnershipDeath, StampBypassCaughtByAudit)
{
    DR_REQUIRE_CHECKED();
    // A write path that dodges DR_STAMP_WRITE leaves a writer record
    // the invariant sweep's audit rejects.
    TwoDomainMesh m;
    EXPECT_DEATH(
        {
            {
                phase::ComputeScope cs(0);
                NetworkTestAccess::forgeNiWriter(m.net, m.lastNode, 0);
            }
            m.net.checkAllInvariants();
        },
        "phase stamp audit");
}

} // namespace
} // namespace dr
