#include <gtest/gtest.h>

#include <deque>

#include "coherence/gpu_coherence.hpp"
#include "core/hetero_system.hpp"
#include "gpu/cta_scheduler.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/shared_l1.hpp"
#include "gpu/sm_core.hpp"
#include "mem/address_map.hpp"
#include "noc/interconnect.hpp"

namespace dr
{
namespace
{

/** A trivial streaming kernel for driving one SM deterministically. */
class StubKernel : public KernelAccessPattern
{
  public:
    std::string name() const override { return "stub"; }
    int ctaCount() const override { return 64; }
    int warpsPerCta() const override { return 4; }
    int accessesPerWarp() const override { return 16; }
    int computePerMem() const override { return 2; }

    MemAccess
    access(int cta, int warp, int idx) const override
    {
        const Addr base = 0x10000000ull;
        return {base + (static_cast<Addr>(cta) * 64 + warp * 16 +
                        idx) * 128,
                false};
    }
};

/**
 * Fixture: one SM core (node 5, GPU index 0) against a scripted memory
 * node at node 0.
 */
class SmCoreTest : public ::testing::Test
{
  protected:
    SmCoreTest() : cfg(SystemConfig::makeSmall())
    {
        cfg.mechanism = Mechanism::DelegatedReplies;
        types.assign(16, NodeType::GpuCore);
        types[0] = NodeType::MemNode;
        types[1] = NodeType::MemNode;
        ic = std::make_unique<Interconnect>(cfg, types);
        // All addresses map to MC 0 (single entry list keeps it easy).
        map = std::make_unique<AddressMap>(1, cfg.mem.lineBytes,
                                           std::vector<NodeId>{0},
                                           cfg.mem.mapSeed);
        coherence = std::make_unique<GpuCoherence>(cfg.gpu.numCores);
        sched = std::make_unique<CtaScheduler>(CtaSchedule::RoundRobin,
                                               kernel.ctaCount(),
                                               cfg.gpu.numCores);
        l1 = std::make_unique<PrivateL1>(cfg.gpu);
        gpuIds = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
        core = std::make_unique<SmCore>(5, 0, cfg, *ic, *map, *coherence,
                                        *sched, kernel, *l1, gpuIds);
    }

    /** Serve memory requests at node 0 with an immediate LLC-like echo. */
    void
    serveMemory()
    {
        while (ic->hasMessage(0, NetKind::Request)) {
            const Message req = ic->popMessage(0, NetKind::Request);
            Message reply;
            reply.type = req.type == MsgType::WriteReq ? MsgType::WriteAck
                                                       : MsgType::ReadReply;
            reply.cls = req.cls;
            reply.addr = req.addr;
            reply.src = 0;
            reply.dst = req.requester;
            reply.requester = req.requester;
            reply.id = req.id;
            pendingReplies.push_back(reply);
            served.push_back(req);
        }
        while (!pendingReplies.empty() &&
               ic->canSend(pendingReplies.front())) {
            ic->send(pendingReplies.front(), now);
            pendingReplies.pop_front();
        }
    }

    void
    step(int cycles)
    {
        for (int i = 0; i < cycles; ++i) {
            core->tick(now);
            // Serial-merge half of the cycle (the HeteroSystem runs
            // these after the endpoint compute phase): resolve staged
            // oracle queries, then refill completed CTA slots.
            core->resolveOracleQueries(now);
            core->refillCtas(now);
            serveMemory();
            ic->tick(now);
            ++now;
        }
    }

    StubKernel kernel;
    SystemConfig cfg;
    std::vector<NodeType> types;
    std::unique_ptr<Interconnect> ic;
    std::unique_ptr<AddressMap> map;
    std::unique_ptr<GpuCoherence> coherence;
    std::unique_ptr<CtaScheduler> sched;
    std::unique_ptr<PrivateL1> l1;
    std::vector<NodeId> gpuIds;
    std::unique_ptr<SmCore> core;
    std::vector<Message> served;
    std::deque<Message> pendingReplies;
    Cycle now = 0;
};

TEST_F(SmCoreTest, IssuesInstructionsAndMemoryRequests)
{
    step(4000);
    EXPECT_GT(core->stats().instructions.value(), 300u);
    EXPECT_GT(core->stats().loads.value(), 80u);
    EXPECT_GT(core->stats().llcRequests.value(), 10u);
    EXPECT_GT(core->stats().repliesReceived.value(), 10u);
}

TEST_F(SmCoreTest, L1FillsProduceHits)
{
    step(4000);
    // The streaming stub never re-reads, but MSHR merges and fills mean
    // misses must not exceed loads.
    EXPECT_LE(core->stats().l1Misses.value(),
              core->stats().loads.value());
    EXPECT_EQ(core->stats().l1Hits.value() + core->stats().l1Misses.value(),
              core->stats().loads.value());
}

TEST_F(SmCoreTest, FrqRemoteHitRepliesWithData)
{
    // Install a line in the core's L1, then deliver a delegated reply
    // for it: the core must answer with a ReadReply to the requester.
    l1->fill(0, 0x7000000);
    Message delegated;
    delegated.type = MsgType::DelegatedReq;
    delegated.cls = TrafficClass::Gpu;
    delegated.addr = 0x7000000;
    delegated.src = 0;
    delegated.dst = 5;
    delegated.requester = 9;  // the core that originally missed
    delegated.id = 4242;
    ic->send(delegated, now);
    bool got = false;
    for (int i = 0; i < 300 && !got; ++i) {
        core->tick(now);
        ic->tick(now);
        while (ic->hasMessage(9, NetKind::Reply)) {
            const Message m = ic->popMessage(9, NetKind::Reply);
            EXPECT_EQ(m.type, MsgType::ReadReply);
            EXPECT_EQ(m.addr, 0x7000000u);
            EXPECT_EQ(m.id, 4242u);
            EXPECT_EQ(m.src, 5);
            got = true;
        }
        ++now;
    }
    EXPECT_TRUE(got);
    EXPECT_EQ(core->stats().frqRemoteHits.value(), 1u);
}

TEST_F(SmCoreTest, FrqRemoteMissResendsWithDnf)
{
    // Delegate a line the core does NOT have: it must re-send the
    // request to the LLC with DNF set and the original requester.
    Message delegated;
    delegated.type = MsgType::DelegatedReq;
    delegated.cls = TrafficClass::Gpu;
    delegated.addr = 0x7000000;
    delegated.src = 0;
    delegated.dst = 5;
    delegated.requester = 9;
    delegated.id = 77;
    ic->send(delegated, now);
    bool got = false;
    for (int i = 0; i < 300 && !got; ++i) {
        core->tick(now);
        ic->tick(now);
        while (ic->hasMessage(0, NetKind::Request)) {
            // The core also issues its own workload requests; the DNF
            // re-send is the one carrying the original id.
            const Message m = ic->popMessage(0, NetKind::Request);
            if (m.id != 77u)
                continue;
            EXPECT_EQ(m.type, MsgType::ReadReq);
            EXPECT_TRUE(m.dnf);
            EXPECT_EQ(m.requester, 9);
            got = true;
        }
        ++now;
    }
    EXPECT_TRUE(got);
    EXPECT_EQ(core->stats().frqRemoteMisses.value(), 1u);
}

TEST_F(SmCoreTest, FrqCapacityBackpressuresRequestNetwork)
{
    // Stuff more delegated replies than FRQ entries without letting the
    // core process them: the extras must stay in the network, not be
    // dropped.
    const int total = cfg.gpu.frqEntries + 6;
    for (int i = 0; i < total; ++i) {
        Message delegated;
        delegated.type = MsgType::DelegatedReq;
        delegated.cls = TrafficClass::Gpu;
        delegated.addr = 0x7000000 + static_cast<Addr>(i) * 128;
        delegated.src = 0;
        delegated.dst = 5;
        delegated.requester = 9;
        delegated.id = 100 + i;
        while (!ic->canSend(delegated)) {
            ic->tick(now);
            ++now;
        }
        ic->send(delegated, now);
    }
    // Process everything; every delegated reply must eventually resolve
    // (all are misses here -> DNF re-sends to node 0). The core's own
    // workload requests are filtered out by the DNF bit.
    int resolved = 0;
    for (int i = 0; i < 5000 && resolved < total; ++i) {
        core->tick(now);
        ic->tick(now);
        while (ic->hasMessage(0, NetKind::Request)) {
            if (ic->popMessage(0, NetKind::Request).dnf)
                ++resolved;
        }
        ++now;
    }
    EXPECT_EQ(resolved, total);
    EXPECT_EQ(core->frqOccupancy(), 0);
}

TEST_F(SmCoreTest, ProbesAnsweredWithNackOnMiss)
{
    Message probe;
    probe.type = MsgType::ProbeReq;
    probe.cls = TrafficClass::Gpu;
    probe.addr = 0x9000000;
    probe.src = 6;
    probe.dst = 5;
    probe.requester = 6;
    probe.id = 31;
    ic->send(probe, now);
    bool got = false;
    for (int i = 0; i < 300 && !got; ++i) {
        core->tick(now);
        ic->tick(now);
        while (ic->hasMessage(6, NetKind::Reply)) {
            const Message m = ic->popMessage(6, NetKind::Reply);
            EXPECT_EQ(m.type, MsgType::ProbeNack);
            EXPECT_EQ(m.id, 31u);
            got = true;
        }
        ++now;
    }
    EXPECT_TRUE(got);
    EXPECT_EQ(core->stats().probeNacksServed.value(), 1u);
}

TEST_F(SmCoreTest, ProbesAnsweredWithDataOnHit)
{
    l1->fill(0, 0x9000000);
    Message probe;
    probe.type = MsgType::ProbeReq;
    probe.cls = TrafficClass::Gpu;
    probe.addr = 0x9000000;
    probe.src = 6;
    probe.dst = 5;
    probe.requester = 6;
    probe.id = 32;
    ic->send(probe, now);
    bool got = false;
    for (int i = 0; i < 300 && !got; ++i) {
        core->tick(now);
        ic->tick(now);
        while (ic->hasMessage(6, NetKind::Reply)) {
            const Message m = ic->popMessage(6, NetKind::Reply);
            EXPECT_EQ(m.type, MsgType::ReadReply);
            got = true;
        }
        ++now;
    }
    EXPECT_TRUE(got);
    EXPECT_EQ(core->stats().probeHitsServed.value(), 1u);
}

TEST_F(SmCoreTest, KernelBoundaryFlushesL1AndEpoch)
{
    const std::uint32_t epochBefore = coherence->epochOf(0);
    step(30000);  // enough to finish several kernel instances
    EXPECT_GT(coherence->epochOf(0), epochBefore);
    EXPECT_GT(core->stats().ctasCompleted.value(), 10u);
}

/**
 * A retry that failed a check is not re-run until something it reads
 * changes (DESIGN.md §13). Each case stalls every warp of core 0
 * (node 5) on a request injection buffer that is full and never
 * drains, then makes the line warp 0 wants present through the L1
 * organization alone: at its next visit warp 0 must hit, although the
 * buffer is still full.
 */
class RetryMemoTest : public ::testing::Test
{
  protected:
    RetryMemoTest() : cfg(SystemConfig::makeSmall())
    {
        cfg.mechanism = Mechanism::Baseline;
        std::vector<NodeType> types(16, NodeType::GpuCore);
        types[0] = NodeType::MemNode;
        types[1] = NodeType::MemNode;
        ic = std::make_unique<Interconnect>(cfg, types);
    }

    /** Fill node 5's buffer, build core 0 on `l1`, stall every warp. */
    void
    stallAllWarps(L1Organizer &org)
    {
        l1 = &org;
        filler.type = MsgType::ReadReq;
        filler.cls = TrafficClass::Gpu;
        filler.addr = 0x7000000;
        filler.src = 5;
        filler.dst = 0;
        filler.requester = 5;
        while (ic->canSend(filler))
            ic->send(filler, now);
        core = std::make_unique<SmCore>(5, 0, cfg, *ic, map, coherence,
                                        sched, kernel, org, gpuIds);
        for (int i = 0; i < 20; ++i)
            tick();
        // Every warp has run its compute and now stalls on injection.
        const std::uint64_t stalls = core->stats().stallInject.value();
        tick();
        ASSERT_EQ(core->stats().stallInject.value(),
                  stalls + static_cast<std::uint64_t>(cfg.gpu.warpsPerCore));
        ASSERT_EQ(core->stats().loads.value(), 0u);
    }

    void
    tick()
    {
        core->tick(now);
        l1->commitCycle(now);
        core->resolveOracleQueries(now);
        core->refillCtas(now);
        ++now;
    }

    /** Warp 0 runs CTA 0 as its warp 0: line 0 of the stub's grid. */
    Addr warp0Line() const { return kernel.access(0, 0, 0).addr; }

    SystemConfig cfg;
    std::unique_ptr<Interconnect> ic;
    const AddressMap map{1, cfg.mem.lineBytes, {0}, cfg.mem.mapSeed};
    GpuCoherence coherence{cfg.gpu.numCores};
    StubKernel kernel;
    CtaScheduler sched{CtaSchedule::RoundRobin, kernel.ctaCount(),
                       cfg.gpu.numCores};
    const std::vector<NodeId> gpuIds = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
    Message filler;
    L1Organizer *l1 = nullptr;
    std::unique_ptr<SmCore> core;
    Cycle now = 0;
};

TEST_F(RetryMemoTest, LineFilledByClusterNeighbourHitsDespiteFullBuffer)
{
    cfg.gpu.l1Org = L1Organization::DcL1;
    SharedL1 shared(cfg.gpu);
    ASSERT_EQ(shared.clusterOf(0), shared.clusterOf(1));
    stallAllWarps(shared);
    // Core 1 fills the line; the fill lands at the serial merge.
    shared.fill(1, warp0Line());
    shared.commitCycle(now);
    tick();
    EXPECT_FALSE(ic->canSend(filler));
    EXPECT_EQ(core->stats().l1Hits.value(), 1u);
    EXPECT_EQ(core->stats().loads.value(), 1u);
}

TEST_F(RetryMemoTest, DynEbKernelBoundaryElsewhereHitsDespiteFullBuffer)
{
    cfg.gpu.l1Org = L1Organization::DynEB;
    DynEbL1 dyneb(cfg.gpu);
    // Shared probe window: core 0 puts the line in cluster 0's L1.
    dyneb.fill(0, warp0Line());
    dyneb.commitCycle(0);
    // Private probe window: one private hit beats the shared window's
    // zero, so DynEB commits to private L1s, which lack the line.
    dyneb.commitCycle(2000);
    dyneb.fill(2, 0x9000000);
    ASSERT_EQ(dyneb.load(2, 0x9000000, 2001), L1Result::Hit);
    dyneb.commitCycle(4000);
    ASSERT_FALSE(dyneb.sharedActive());
    ASSERT_FALSE(dyneb.contains(0, warp0Line()));
    now = 4001;
    stallAllWarps(dyneb);
    // A kernel boundary on core 8, in the other cluster, restarts
    // DynEB's probing chip-wide: core 0 now reads cluster 0's L1.
    dyneb.flush(8);
    ASSERT_TRUE(dyneb.contains(0, warp0Line()));
    tick();
    EXPECT_FALSE(ic->canSend(filler));
    EXPECT_EQ(core->stats().l1Hits.value(), 1u);
    EXPECT_EQ(core->stats().loads.value(), 1u);
}

/**
 * The stall counters of a clogged chip: drbench's fingerprint leaves
 * them out, so these literals (generated before retries were memoized)
 * are what pins that a memoized stall counts exactly as the retry it
 * replaces. makeSmall's 10 GPU cores share 2 memory nodes; 16 warps
 * over 4 MSHRs of 2 targets each stall on both injection and MSHRs.
 */
struct StallCounts
{
    std::uint64_t instructions;
    std::uint64_t stallInject;
    std::uint64_t stallNoMshr;
    std::uint64_t stallPort;

    bool operator==(const StallCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const StallCounts &c)
{
    return os << "{" << c.instructions << ", " << c.stallInject << ", "
              << c.stallNoMshr << ", " << c.stallPort << "}";
}

struct StallCase
{
    Mechanism mechanism;
    L1Organization l1Org;
    StallCounts hs;  //!< HS + bodytrack
    StallCounts bp;  //!< BP + bodytrack
};

const StallCase kStallCases[] = {
    {Mechanism::Baseline, L1Organization::Private,
     {12224, 6758, 255846, 0},
     {7151, 432072, 50187, 0}},
    {Mechanism::Baseline, L1Organization::DcL1,
     {35663, 63235, 147994, 876},
     {7444, 492806, 28114, 123}},
    {Mechanism::Baseline, L1Organization::DynEB,
     {22820, 27809, 168137, 666},
     {7148, 448597, 29016, 123}},
    {Mechanism::RealisticProbing, L1Organization::Private,
     {14484, 878, 239140, 0},
     {7136, 435858, 33003, 0}},
    {Mechanism::RealisticProbing, L1Organization::DcL1,
     {36939, 41000, 141053, 973},
     {7678, 477511, 27672, 243}},
    {Mechanism::RealisticProbing, L1Organization::DynEB,
     {23809, 21659, 140161, 636},
     {7442, 441459, 28846, 244}},
    {Mechanism::DelegatedReplies, L1Organization::Private,
     {17552, 69, 243179, 0},
     {7162, 494275, 28346, 0}},
    {Mechanism::DelegatedReplies, L1Organization::DcL1,
     {36701, 57351, 149170, 1126},
     {7224, 520917, 20040, 99}},
    {Mechanism::DelegatedReplies, L1Organization::DynEB,
     {25938, 25049, 175368, 829},
     {6954, 474268, 22828, 100}},
};

StallCounts
clogStallCounts(Mechanism mechanism, L1Organization l1Org,
                const std::string &gpu, int warpsPerCore = 16)
{
    SystemConfig cfg = SystemConfig::makeSmall();
    cfg.mechanism = mechanism;
    cfg.gpu.l1Org = l1Org;
    cfg.gpu.warpsPerCore = warpsPerCore;
    cfg.gpu.l1Mshrs = 4;
    cfg.gpu.mshrTargets = 2;
    cfg.warmupCycles = 500;
    cfg.simCycles = 4000;
    HeteroSystem sys(cfg, gpu, "bodytrack");
    sys.run();
    StallCounts sum{};
    for (int i = 0; i < sys.gpuCoreCount(); ++i) {
        const SmCoreStats &s = sys.gpuCore(i).stats();
        sum.instructions += s.instructions.value();
        sum.stallInject += s.stallInject.value();
        sum.stallNoMshr += s.stallNoMshr.value();
        sum.stallPort += s.stallPort.value();
    }
    return sum;
}

class ClogStallCounters : public ::testing::TestWithParam<StallCase>
{
};

TEST_P(ClogStallCounters, MatchPinnedLiterals)
{
    const StallCase &c = GetParam();
    EXPECT_EQ(clogStallCounts(c.mechanism, c.l1Org, "HS"), c.hs);
    EXPECT_EQ(clogStallCounts(c.mechanism, c.l1Org, "BP"), c.bp);
}

/** 64 warps fill the eligible-warp mask to its last bit. */
TEST(ClogStallCounters, SixtyFourWarpsMatchPinnedLiterals)
{
    EXPECT_EQ(clogStallCounts(Mechanism::DelegatedReplies,
                              L1Organization::Private, "HS", 64),
              (StallCounts{16887, 344, 1914580, 0}));
}

std::string
stallCaseName(const ::testing::TestParamInfo<StallCase> &info)
{
    const char *mechanism[] = {"Baseline", "RP", "DR"};
    const char *org[] = {"private", "dcl1", "dyneb"};
    return std::string(mechanism[static_cast<int>(info.param.mechanism)]) +
           "_" + org[static_cast<int>(info.param.l1Org)];
}

INSTANTIATE_TEST_SUITE_P(AllMechanismsAndL1Orgs, ClogStallCounters,
                         ::testing::ValuesIn(kStallCases), stallCaseName);

} // namespace
} // namespace dr
