/**
 * @file
 * Unit tests for the virtual-network subsystem: message classification,
 * VC-range layout builders (legacy-equivalence and the noc.vnets
 * partition), and (class, VN) arbitration ranks.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "noc/vnet.hpp"

namespace dr
{
namespace
{

Message
msgOf(MsgType type, bool dnf = false)
{
    Message m;
    m.type = type;
    m.cls = TrafficClass::Gpu;
    m.dnf = dnf;
    return m;
}

TEST(VnetClassify, RequestsIncludingDnfRideTheRequestVn)
{
    for (const MsgType t :
         {MsgType::ReadReq, MsgType::WriteReq, MsgType::ProbeReq}) {
        EXPECT_EQ(classifyMessage(msgOf(t), false), VirtualNet::Request);
        EXPECT_EQ(classifyMessage(msgOf(t), true), VirtualNet::Request);
    }
    // DNF re-sends deliberately stay on the Request VN (vnet.hpp):
    // sharing buffering with the delegation fan-in that produced them
    // would re-create the DESIGN.md §10 cycle.
    EXPECT_EQ(classifyMessage(msgOf(MsgType::ReadReq, /*dnf=*/true), false),
              VirtualNet::Request);
}

TEST(VnetClassify, DelegationsAndRepliesSplitBySender)
{
    EXPECT_EQ(classifyMessage(msgOf(MsgType::DelegatedReq), true),
              VirtualNet::ForwardedRequest);
    // Replies from a memory node are ordinary replies; the same types
    // sent core-to-core (delegated remote hits) are DelegatedReply.
    for (const MsgType t : {MsgType::ReadReply, MsgType::WriteAck}) {
        EXPECT_EQ(classifyMessage(msgOf(t), true), VirtualNet::Reply);
        EXPECT_EQ(classifyMessage(msgOf(t), false),
                  VirtualNet::DelegatedReply);
    }
    EXPECT_EQ(classifyMessage(msgOf(MsgType::ProbeNack), false),
              VirtualNet::DelegatedReply);
    // Raw-kernel default: replies classify as memory replies.
    EXPECT_EQ(defaultVnet(msgOf(MsgType::ReadReply)), VirtualNet::Reply);
}

TEST(VnetLayoutTest, UniformGivesEveryVnEveryVc)
{
    const VnetLayout l = VnetLayout::uniform(3);
    EXPECT_FALSE(l.empty());
    for (int vn = 0; vn < numVnets; ++vn)
        EXPECT_EQ(l.mask(static_cast<VirtualNet>(vn)), 0x7);
    EXPECT_TRUE(VnetLayout{}.empty());
}

TEST(VnetLayoutTest, LegacySplitNetworksAreUniform)
{
    NocConfig noc;
    noc.vnets = false;
    noc.vcsPerNet = 2;
    for (const VnetLayout &l :
         {requestNetLayout(noc), replyNetLayout(noc)}) {
        for (int vn = 0; vn < numVnets; ++vn)
            EXPECT_EQ(l.mask(static_cast<VirtualNet>(vn)), 0x3);
    }
}

TEST(VnetLayoutTest, LegacySharedLayoutMatchesAvcpClassMask)
{
    // The old Interconnect::classMask: requests on the first
    // sharedReqVcs VCs, replies on the rest, forwards aliased with
    // requests and delegated replies with replies.
    NocConfig noc;
    noc.vnets = false;
    noc.sharedReqVcs = 1;
    noc.sharedReplyVcs = 3;
    const VnetLayout l = sharedNetLayout(noc);
    EXPECT_EQ(l.numVcs, 4);
    EXPECT_EQ(l.mask(VirtualNet::Request), 0x1);
    EXPECT_EQ(l.mask(VirtualNet::ForwardedRequest), 0x1);
    EXPECT_EQ(l.mask(VirtualNet::Reply), 0xe);
    EXPECT_EQ(l.mask(VirtualNet::DelegatedReply), 0xe);
}

TEST(VnetLayoutTest, VnetsOnPartitionsSplitNetworks)
{
    NocConfig noc;
    noc.vnets = true;
    noc.vcsPerNet = 4;
    noc.vnetRequestVcs = 3;
    noc.vnetForwardVcs = 1;
    noc.vnetReplyVcs = 2;
    noc.vnetDelegatedVcs = 2;
    const VnetLayout req = requestNetLayout(noc);
    EXPECT_EQ(req.mask(VirtualNet::Request), 0x7);
    EXPECT_EQ(req.mask(VirtualNet::ForwardedRequest), 0x8);
    const VnetLayout rep = replyNetLayout(noc);
    EXPECT_EQ(rep.mask(VirtualNet::Reply), 0x3);
    EXPECT_EQ(rep.mask(VirtualNet::DelegatedReply), 0xc);
    // The request-side ranges are disjoint, likewise the reply side.
    EXPECT_EQ(req.mask(VirtualNet::Request) &
                  req.mask(VirtualNet::ForwardedRequest),
              0);
    EXPECT_EQ(rep.mask(VirtualNet::Reply) &
                  rep.mask(VirtualNet::DelegatedReply),
              0);
}

TEST(VnetLayoutTest, VnetsOnPartitionsSharedNetworkFourWays)
{
    NocConfig noc;
    noc.vnets = true;
    noc.sharedReqVcs = 3;
    noc.sharedReplyVcs = 3;
    noc.vnetRequestVcs = 2;
    noc.vnetForwardVcs = 1;
    noc.vnetReplyVcs = 1;
    noc.vnetDelegatedVcs = 2;
    const VnetLayout l = sharedNetLayout(noc);
    EXPECT_EQ(l.numVcs, 6);
    EXPECT_EQ(l.mask(VirtualNet::Request), 0x03);
    EXPECT_EQ(l.mask(VirtualNet::ForwardedRequest), 0x04);
    EXPECT_EQ(l.mask(VirtualNet::Reply), 0x08);
    EXPECT_EQ(l.mask(VirtualNet::DelegatedReply), 0x30);
    // All four reserved ranges are pairwise disjoint.
    std::uint8_t seen = 0;
    for (int vn = 0; vn < numVnets; ++vn) {
        const std::uint8_t m = l.mask(static_cast<VirtualNet>(vn));
        EXPECT_EQ(seen & m, 0) << vnetName(static_cast<VirtualNet>(vn));
        seen |= m;
    }
}

TEST(VnetArbitration, OffModeRanksByClassAlone)
{
    for (int vn = 0; vn < numVnets; ++vn) {
        const VirtualNet v = static_cast<VirtualNet>(vn);
        EXPECT_EQ(arbRank(TrafficClass::Cpu, v, false), 0);
        EXPECT_EQ(arbRank(TrafficClass::Gpu, v, false), 1);
    }
}

TEST(VnetArbitration, OnModeDrainsDownstreamVnsFirstWithinClass)
{
    // Replies before delegated replies before forwards before fresh
    // requests — and every CPU rank above every GPU rank.
    const VirtualNet order[] = {VirtualNet::Reply,
                                VirtualNet::DelegatedReply,
                                VirtualNet::ForwardedRequest,
                                VirtualNet::Request};
    int prev = -1;
    for (const VirtualNet vn : order) {
        const int r = arbRank(TrafficClass::Cpu, vn, true);
        EXPECT_GT(r, prev);
        prev = r;
    }
    for (const VirtualNet vn : order) {
        const int r = arbRank(TrafficClass::Gpu, vn, true);
        EXPECT_GT(r, prev);
        prev = r;
    }
    // The eight ranks are 0..7: the routers' rank bitmasks rely on it.
    EXPECT_EQ(prev, 2 * numVnets - 1);
}

TEST(VnetNames, AreDistinctAndStable)
{
    EXPECT_STREQ(vnetName(VirtualNet::Request), "request");
    EXPECT_STREQ(vnetName(VirtualNet::ForwardedRequest), "forward");
    EXPECT_STREQ(vnetName(VirtualNet::Reply), "reply");
    EXPECT_STREQ(vnetName(VirtualNet::DelegatedReply), "delegated");
}

} // namespace
} // namespace dr
