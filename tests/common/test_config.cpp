#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"

namespace dr
{
namespace
{

TEST(Config, PaperDefaultsMatchTableI)
{
    const SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_EQ(cfg.gpu.numCores, 40);
    EXPECT_EQ(cfg.cpu.numCores, 16);
    EXPECT_EQ(cfg.mem.numNodes, 8);
    EXPECT_EQ(cfg.noc.meshWidth, 8);
    EXPECT_EQ(cfg.noc.meshHeight, 8);
    EXPECT_EQ(cfg.noc.channelBytes, 16);
    EXPECT_EQ(cfg.noc.vcsPerNet, 2);
    EXPECT_EQ(cfg.noc.vcDepthFlits, 4);
    EXPECT_EQ(cfg.gpu.l1SizeKB, 48);
    EXPECT_EQ(cfg.gpu.l1LineBytes, 128);
    EXPECT_EQ(cfg.mem.llcSliceKB, 1024);
    EXPECT_EQ(cfg.mem.llcAssoc, 16);
    EXPECT_EQ(cfg.mem.tCL, 12);
    EXPECT_EQ(cfg.mem.tRC, 40);
    cfg.validate();
}

TEST(Config, SmallConfigValidates)
{
    SystemConfig::makeSmall().validate();
}

TEST(Config, GpuReplyIsNineFlits)
{
    // 128 B line / 16 B channel + 1 header = 9 flits (paper Section I).
    const SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_EQ(cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu), 9);
}

TEST(Config, RequestsAreSingleFlit)
{
    const SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_EQ(cfg.flitsFor(MsgType::ReadReq, TrafficClass::Gpu), 1);
    EXPECT_EQ(cfg.flitsFor(MsgType::DelegatedReq, TrafficClass::Gpu), 1);
    EXPECT_EQ(cfg.flitsFor(MsgType::ProbeReq, TrafficClass::Gpu), 1);
    EXPECT_EQ(cfg.flitsFor(MsgType::ProbeNack, TrafficClass::Gpu), 1);
    EXPECT_EQ(cfg.flitsFor(MsgType::WriteAck, TrafficClass::Cpu), 1);
}

TEST(Config, CpuReplyUsesCpuLineSize)
{
    // 64 B CPU lines: 1 + 64/16 = 5 flits.
    const SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_EQ(cfg.flitsFor(MsgType::ReadReply, TrafficClass::Cpu), 5);
}

TEST(Config, DoubleBandwidthHalvesDataFlits)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.bandwidthScale = 2.0;
    EXPECT_EQ(cfg.noc.effectiveChannelBytes(), 32);
    EXPECT_EQ(cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu), 5);
}

TEST(Config, SharedPhysicalDoublesChannel)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.sharedPhysical = true;
    EXPECT_EQ(cfg.noc.effectiveChannelBytes(), 32);
}

TEST(Config, WriteCarriesPayload)
{
    const SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_GT(cfg.flitsFor(MsgType::WriteReq, TrafficClass::Gpu), 1);
    EXPECT_LT(cfg.flitsFor(MsgType::WriteReq, TrafficClass::Gpu),
              cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu));
}

TEST(ConfigDeath, UnbalancedNodeMixFails)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.gpu.numCores = 41;
    EXPECT_DEATH(cfg.validate(), "node mix");
}

TEST(ConfigDeath, MismatchedLineSizesFail)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.gpu.l1LineBytes = 64;
    EXPECT_DEATH(cfg.validate(), "line sizes");
}

/**
 * Settings validate() must reject, naming the key: each used to crash
 * the run (SIGFPE), retire nothing, break bit-identity across
 * noc.threads, overflow a core's 64-bit warp mask or misalign every
 * line instead of failing as a config error.
 */
struct BadSetting
{
    const char *key;
    void (*apply)(SystemConfig &);
};

const BadSetting kBadSettings[] = {
    {"gpu.warpsPerCore", [](SystemConfig &c) { c.gpu.warpsPerCore = 0; }},
    {"gpu.issueWidth", [](SystemConfig &c) { c.gpu.issueWidth = 0; }},
    {"gpu.l1Assoc", [](SystemConfig &c) { c.gpu.l1Assoc = 0; }},
    {"mem.llcAssoc", [](SystemConfig &c) { c.mem.llcAssoc = 0; }},
    {"mem.llcLatency", [](SystemConfig &c) { c.mem.llcLatency = -1; }},
    {"mem.burstCycles", [](SystemConfig &c) { c.mem.burstCycles = 0; }},
    {"noc.routerStages", [](SystemConfig &c) { c.noc.routerStages = 0; }},
    {"gpu.warpsPerCore", [](SystemConfig &c) { c.gpu.warpsPerCore = 65; }},
    {"gpu.l1LineBytes", [](SystemConfig &c) { c.gpu.l1LineBytes = 96; }},
    {"mem.lineBytes", [](SystemConfig &c) { c.mem.lineBytes = 96; }},
    {"cpu.lineBytes", [](SystemConfig &c) { c.cpu.lineBytes = 96; }},
    {"noc.coreInjBufferFlits",
     [](SystemConfig &c) { c.noc.coreInjBufferFlits = 0; }},
    // One flit short of a 9-flit GPU reply.
    {"noc.coreInjBufferFlits",
     [](SystemConfig &c) { c.noc.coreInjBufferFlits = 8; }},
};

TEST(ConfigDeath, SettingsThatBreakARunAreFatal)
{
    for (const BadSetting &bad : kBadSettings) {
        SystemConfig cfg = SystemConfig::makePaper();
        bad.apply(cfg);
        EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                    std::string("fatal: ") + bad.key)
            << bad.key;
    }
}

TEST(Config, VnetPartitionValidates)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.vnets = true;
    cfg.noc.vcsPerNet = 2;  // 1 + 1 on each split network
    cfg.validate();
    cfg.noc.sharedPhysical = true;
    cfg.noc.sharedReqVcs = 2;
    cfg.noc.sharedReplyVcs = 2;
    cfg.noc.vnetRequestVcs = 1;
    cfg.noc.vnetForwardVcs = 1;
    cfg.noc.vnetReplyVcs = 1;
    cfg.noc.vnetDelegatedVcs = 1;
    cfg.validate();
}

TEST(ConfigDeath, VnetVcCountsMustSumToNetworkVcs)
{
    // A mismatched partition must be fatal, never silently clamped:
    // a clamp would quietly hand a VN fewer VCs than the experiment
    // configured and skew every result downstream.
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.vnets = true;
    cfg.noc.vcsPerNet = 4;
    cfg.noc.vnetRequestVcs = 1;
    cfg.noc.vnetForwardVcs = 1;  // 1 + 1 != 4
    EXPECT_DEATH(cfg.validate(), "must sum");

    SystemConfig rep = SystemConfig::makePaper();
    rep.noc.vnets = true;
    rep.noc.vcsPerNet = 2;
    rep.noc.vnetReplyVcs = 2;  // reply side: 2 + 1 != 2
    EXPECT_DEATH(rep.validate(), "must sum");

    SystemConfig shared = SystemConfig::makePaper();
    shared.noc.vnets = true;
    shared.noc.sharedPhysical = true;
    shared.noc.sharedReqVcs = 3;  // 1 + 1 != 3
    EXPECT_DEATH(shared.validate(), "must sum");
}

TEST(ConfigDeath, EveryVnetNeedsAVc)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.vnets = true;
    cfg.noc.vcsPerNet = 2;
    cfg.noc.vnetForwardVcs = 0;
    cfg.noc.vnetRequestVcs = 2;
    EXPECT_DEATH(cfg.validate(), "at least one VC");
}

TEST(Config, MessageToStringMentionsType)
{
    Message m;
    m.type = MsgType::DelegatedReq;
    m.id = 42;
    EXPECT_NE(m.toString().find("DelegatedReq"), std::string::npos);
}

TEST(Config, OnRequestNetworkClassification)
{
    EXPECT_TRUE(onRequestNetwork(MsgType::ReadReq));
    EXPECT_TRUE(onRequestNetwork(MsgType::WriteReq));
    EXPECT_TRUE(onRequestNetwork(MsgType::DelegatedReq));
    EXPECT_TRUE(onRequestNetwork(MsgType::ProbeReq));
    EXPECT_FALSE(onRequestNetwork(MsgType::ReadReply));
    EXPECT_FALSE(onRequestNetwork(MsgType::WriteAck));
    EXPECT_FALSE(onRequestNetwork(MsgType::ProbeNack));
}

} // namespace
} // namespace dr
