#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hetero_system.hpp"
#include "core/layout.hpp"
#include "debug/progress_watchdog.hpp"
#include "noc/interconnect.hpp"

namespace dr
{
namespace
{

/** A small idle interconnect for driving the watchdog directly. */
class WatchdogTest : public ::testing::Test
{
  protected:
    WatchdogTest()
        : cfg_(SystemConfig::makeSmall()),
          layout_(buildLayout(cfg_)),
          ic_(cfg_, layout_.types)
    {
    }

    SystemConfig cfg_;
    LayoutMap layout_;
    Interconnect ic_;
};

TEST_F(WatchdogTest, NoStallWhileSignatureAdvances)
{
    WatchdogParams wp;
    wp.stallCycles = 100;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    for (Cycle c = 0; c < 2000; c += 64)
        EXPECT_FALSE(dog.observe(c, /*signature=*/c));
    EXPECT_EQ(dog.stallsDetected(), 0u);
}

TEST_F(WatchdogTest, DetectsStallOnConstantSignature)
{
    WatchdogParams wp;
    wp.stallCycles = 100;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);

    EXPECT_FALSE(dog.observe(0, 7));   // seeds the signature
    EXPECT_FALSE(dog.observe(64, 7));  // within the window
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(dog.observe(128, 7));  // window exceeded
    const std::string dump = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(dump.find("watchdog: no forward progress"),
              std::string::npos);
    EXPECT_NE(dump.find("network"), std::string::npos);
    EXPECT_EQ(dog.stallsDetected(), 1u);
}

TEST_F(WatchdogTest, ReArmsAfterReportedStall)
{
    WatchdogParams wp;
    wp.stallCycles = 100;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    ::testing::internal::CaptureStderr();
    dog.observe(0, 7);
    EXPECT_TRUE(dog.observe(128, 7));
    EXPECT_FALSE(dog.observe(192, 7));  // fresh window after re-arm
    EXPECT_TRUE(dog.observe(256, 7));   // stalls again
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(dog.stallsDetected(), 2u);
}

TEST_F(WatchdogTest, ProgressResetsTheWindow)
{
    WatchdogParams wp;
    wp.stallCycles = 100;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    dog.observe(0, 1);
    dog.observe(90, 1);
    dog.observe(99, 2);  // progress just before the deadline
    EXPECT_FALSE(dog.observe(190, 2));
    EXPECT_EQ(dog.lastProgressCycle(), 99u);
}

TEST_F(WatchdogTest, ExtraDumpIsAppendedToReport)
{
    WatchdogParams wp;
    wp.stallCycles = 50;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    dog.setExtraDump([](std::ostream &os) { os << "frq-occupancy: 3\n"; });
    ::testing::internal::CaptureStderr();
    dog.observe(0, 1);
    EXPECT_TRUE(dog.observe(64, 1));
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "frq-occupancy: 3"),
              std::string::npos);
}

TEST_F(WatchdogTest, BlockedChainDumpNamesProducingDomain)
{
    // Clog the request network: flood one destination and never pop,
    // so its ejection buffer fills and upstream heads block. The chain
    // dump must tag every router with its producing tick domain
    // (R<id>/d<domain>), localizing a stuck chain to a worker.
    const int nodes = ic_.topology().nodes();
    std::uint64_t id = 1;
    for (Cycle c = 0; c < 200; ++c) {
        for (NodeId src = 0; src < nodes - 1; ++src) {
            Message m;
            m.type = MsgType::ReadReq;
            m.cls = TrafficClass::Gpu;
            m.src = src;
            m.dst = nodes - 1;
            m.requester = src;
            m.id = id++;
            if (ic_.canSend(m))
                ic_.send(m, c);
        }
        ic_.tick(c);
    }

    WatchdogParams wp;
    wp.stallCycles = 50;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    ::testing::internal::CaptureStderr();
    dog.observe(0, 1);
    EXPECT_TRUE(dog.observe(64, 1));
    const std::string dump = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(dump.find("blocked-flit dependency chain"),
              std::string::npos);
    // The blocked chain ends at the flooded destination, so its domain
    // (d0 on one thread, d3 on four) is always in the dump.
    const int sinkDomain =
        ic_.net(NetKind::Request).domainOfNode(nodes - 1);
    EXPECT_NE(dump.find("/d" + std::to_string(sinkDomain)),
              std::string::npos)
        << dump;
}

TEST_F(WatchdogTest, BlockedChainDumpKeepsPacketIds)
{
    // Flits carry a pool slot, not their PacketId; the dump resolves
    // the id through the packet pools. Clog one destination as above
    // and check that every id in the router dump (frontPkt=) and the
    // chain (pkt=), and every blocked head, names a packet that was
    // really sent: node src's k-th packet is (src << 40) | k.
    const int nodes = ic_.topology().nodes();
    std::vector<std::uint64_t> sent(nodes, 0);
    std::uint64_t id = 1;
    for (Cycle c = 0; c < 200; ++c) {
        for (NodeId src = 0; src < nodes - 1; ++src) {
            Message m;
            m.type = MsgType::ReadReq;
            m.cls = TrafficClass::Gpu;
            m.src = src;
            m.dst = nodes - 1;
            m.requester = src;
            m.id = id++;
            if (ic_.canSend(m)) {
                ic_.send(m, c);
                ++sent[src];
            }
        }
        ic_.tick(c);
    }
    const auto wasSent = [&](std::uint64_t pkt) {
        const std::uint64_t src = pkt >> 40;
        const std::uint64_t seq = pkt & ((std::uint64_t{1} << 40) - 1);
        return src < sent.size() && seq >= 1 && seq <= sent[src];
    };

    const Network &net = ic_.net(NetKind::Request);
    int heads = 0;
    for (int r = 0; r < ic_.topology().routers(); ++r) {
        for (const BlockedHead &head : net.blockedHeads(r)) {
            EXPECT_TRUE(wasSent(head.pkt)) << "R" << r << " pkt " << head.pkt;
            ++heads;
        }
    }
    EXPECT_GT(heads, 0);

    WatchdogParams wp;
    wp.stallCycles = 50;
    wp.abortOnStall = false;
    ProgressWatchdog dog(ic_, wp);
    ::testing::internal::CaptureStderr();
    dog.observe(0, 1);
    EXPECT_TRUE(dog.observe(64, 1));
    const std::string dump = ::testing::internal::GetCapturedStderr();
    int ids = 0;
    bool otherThanNode0 = false;
    for (const std::string key : {" frontPkt=", " pkt="}) {
        for (std::size_t at = dump.find(key); at != std::string::npos;
             at = dump.find(key, at + 1)) {
            const std::uint64_t pkt =
                std::stoull(dump.substr(at + key.size()));
            EXPECT_TRUE(wasSent(pkt)) << key << pkt << " in\n" << dump;
            otherThanNode0 = otherThanNode0 || pkt >> 40 != 0;
            ++ids;
        }
    }
    EXPECT_GT(ids, 1) << dump;
    EXPECT_TRUE(otherThanNode0) << dump;
}

TEST_F(WatchdogTest, AbortModePanics)
{
    WatchdogParams wp;
    wp.stallCycles = 50;
    wp.abortOnStall = true;
    ProgressWatchdog dog(ic_, wp);
    dog.observe(0, 7);
    EXPECT_DEATH(dog.observe(64, 7), "watchdog: no forward progress");
}

TEST_F(WatchdogTest, ZeroWindowIsAConfigError)
{
    WatchdogParams wp;
    wp.stallCycles = 0;
    EXPECT_EXIT(ProgressWatchdog(ic_, wp),
                ::testing::ExitedWithCode(1), "stallCycles");
}

TEST(WatchdogSystem, HealthySystemNeverTripsTheWatchdog)
{
    SystemConfig cfg = SystemConfig::makeSmall();
    cfg.debug.watchdogCycles = 2000;  // far below the run length
    cfg.warmupCycles = 1000;
    cfg.simCycles = 5000;
    HeteroSystem sys(cfg, "HS", "bodytrack");
    ASSERT_NE(sys.watchdog(), nullptr);
    sys.run();
    EXPECT_EQ(sys.watchdog()->stallsDetected(), 0u);
}

TEST(WatchdogSystem, DisabledByDefault)
{
    SystemConfig cfg = SystemConfig::makeSmall();
    HeteroSystem sys(cfg, "HS", "bodytrack");
    EXPECT_EQ(sys.watchdog(), nullptr);
}

TEST(WatchdogSystem, SignatureAdvancesWithTheSystem)
{
    SystemConfig cfg = SystemConfig::makeSmall();
    HeteroSystem sys(cfg, "HS", "bodytrack");
    const std::uint64_t before = sys.progressSignature();
    sys.advance(500);
    EXPECT_GT(sys.progressSignature(), before);
}

TEST(WatchdogSystem, FullInvariantSweepPassesAfterARun)
{
    SystemConfig cfg = SystemConfig::makeSmall();
    cfg.warmupCycles = 500;
    cfg.simCycles = 3000;
    HeteroSystem sys(cfg, "2DCON", "canneal");
    sys.run();
    sys.checkInvariants();  // flit/credit conservation + MSHR bounds
}

} // namespace
} // namespace dr
