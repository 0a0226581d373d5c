#include "common/config.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/log.hpp"

namespace dr
{

long long
parseWhole(const char *name, std::string_view text, long long lo,
           long long hi)
{
    long long parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        parsed < lo || parsed > hi) {
        fatal(name, " must be a whole number in [", lo, ", ", hi,
              "], got '", text, "'");
    }
    return parsed;
}

long long
envWhole(const char *name, long long lo, long long hi, long long fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    return parseWhole(name, env, lo, hi);
}

int
NocConfig::effectiveChannelBytes() const
{
    int base = sharedPhysical ? 2 * channelBytes : channelBytes;
    auto scaled = static_cast<int>(std::lround(base * bandwidthScale));
    if (scaled <= 0)
        fatal("channel width scaled to zero bytes");
    return scaled;
}

int
NocConfig::interposerSerializationCycles() const
{
    if (interposerChannelBytes <= 0)
        return 1;  // full-width interposer channels
    const int channel = effectiveChannelBytes();
    return (channel + interposerChannelBytes - 1) / interposerChannelBytes;
}

void
SystemConfig::validate() const
{
    const int tiles = nodeCount();
    const int used = gpu.numCores + cpu.numCores + mem.numNodes;
    if (used != tiles) {
        fatal("node mix (", gpu.numCores, " GPU + ", cpu.numCores,
              " CPU + ", mem.numNodes, " MEM = ", used,
              ") does not fill the ", noc.meshWidth, "x", noc.meshHeight,
              " chip (", tiles, " tiles)");
    }
    // Caches and address maps align and index lines with masks and
    // shifts, which only a power-of-two line size gets right.
    const struct
    {
        const char *key;
        int value;
    } lineSizes[] = {
        {"gpu.l1LineBytes", gpu.l1LineBytes},
        {"mem.lineBytes", mem.lineBytes},
        {"cpu.lineBytes", cpu.lineBytes},
    };
    for (const auto &l : lineSizes) {
        if (l.value <= 0 ||
            !std::has_single_bit(static_cast<unsigned>(l.value)))
            fatal(l.key, " must be a power of two, got ", l.value);
    }
    if (mem.lineBytes != gpu.l1LineBytes)
        fatal("LLC and GPU L1 line sizes must match");
    if (noc.vcsPerNet < 1 || noc.vcDepthFlits < 1)
        fatal("need at least one VC with at least one flit of buffering");
    if (noc.threads < 0 || noc.threads > NocConfig::maxThreads)
        fatal("noc.threads must be in [0, ", NocConfig::maxThreads,
              "] (0 = auto via DR_NOC_THREADS), got ", noc.threads);
    // Below these floors a run divides by zero, retires nothing, or (a
    // zero-stage router) delivers flits in the cycle they were sent,
    // which breaks bit-identity across noc.threads.
    const struct
    {
        const char *key;
        int value;
        int min;
    } floors[] = {
        {"gpu.warpsPerCore", gpu.warpsPerCore, 1},
        {"gpu.issueWidth", gpu.issueWidth, 1},
        {"gpu.l1Assoc", gpu.l1Assoc, 1},
        {"mem.llcAssoc", mem.llcAssoc, 1},
        {"mem.llcLatency", mem.llcLatency, 0},
        {"mem.burstCycles", mem.burstCycles, 1},
        {"noc.routerStages", noc.routerStages, 1},
    };
    for (const auto &f : floors) {
        if (f.value < f.min)
            fatal(f.key, " must be >= ", f.min, ", got ", f.value);
    }
    if (gpu.warpsPerCore > GpuConfig::maxWarpsPerCore)
        fatal("gpu.warpsPerCore must be <= ", GpuConfig::maxWarpsPerCore,
              " (one bit per warp in a core's warp mask), got ",
              gpu.warpsPerCore);
    // Memory nodes send GPU replies, and so do GPU cores under DR
    // (delegated replies): both injection buffers must hold one.
    const int reply = flitsFor(MsgType::ReadReply, TrafficClass::Gpu);
    if (noc.memInjBufferFlits < reply) {
        fatal("noc.memInjBufferFlits (", noc.memInjBufferFlits,
              ") smaller than one reply (", reply,
              " flits); replies could never inject");
    }
    if (noc.coreInjBufferFlits < reply) {
        fatal("noc.coreInjBufferFlits (", noc.coreInjBufferFlits,
              ") smaller than one reply (", reply,
              " flits); replies could never inject");
    }
    if (noc.sharedPhysical && (noc.sharedReqVcs < 1 || noc.sharedReplyVcs < 1))
        fatal("shared network needs at least one VC per traffic type");
    if (noc.vnets) {
        // Per-VN VC counts must exactly cover the owning network's VCs;
        // anything else used to be silently clamped away by the old
        // classMask plumbing, which left a virtual network with no
        // buffering at all (and a guaranteed injection panic).
        if (noc.vnetRequestVcs < 1 || noc.vnetForwardVcs < 1 ||
            noc.vnetReplyVcs < 1 || noc.vnetDelegatedVcs < 1) {
            fatal("every virtual network needs at least one VC "
                  "(noc.vnet*Vcs)");
        }
        const int reqSide = noc.vnetRequestVcs + noc.vnetForwardVcs;
        const int repSide = noc.vnetReplyVcs + noc.vnetDelegatedVcs;
        const int reqVcs =
            noc.sharedPhysical ? noc.sharedReqVcs : noc.vcsPerNet;
        const int repVcs =
            noc.sharedPhysical ? noc.sharedReplyVcs : noc.vcsPerNet;
        if (reqSide != reqVcs) {
            fatal("virtual-network VC counts must sum to the request "
                  "network's VCs: vnetRequestVcs + vnetForwardVcs = ",
                  reqSide, " but the network has ", reqVcs);
        }
        if (repSide != repVcs) {
            fatal("virtual-network VC counts must sum to the reply "
                  "network's VCs: vnetReplyVcs + vnetDelegatedVcs = ",
                  repSide, " but the network has ", repVcs);
        }
    }
    if (gpu.frqEntries < 1)
        fatal("FRQ needs at least one entry");
    if (rp.probeCount < 1)
        fatal("RP must probe at least one remote cache");
    if (noc.topology == TopologyKind::Mesh &&
        noc.meshWidth * noc.meshHeight != tiles) {
        fatal("mesh dimensions inconsistent");
    }
    if (noc.topology == TopologyKind::ChipletMesh) {
        if (noc.chipletsX < 1 || noc.chipletsY < 1 ||
            noc.chipletSubW < 1 || noc.chipletSubH < 1)
            fatal("every chiplet dimension must be at least 1");
        if (noc.chipletsX * noc.chipletsY < 2)
            fatal("a chiplet mesh needs at least 2 chiplets "
                  "(use topology=mesh otherwise)");
        // Never derive one set of dimensions from the other: an
        // inconsistent pair is a configuration bug, not a preference.
        if (noc.meshWidth != noc.chipletsX * noc.chipletSubW ||
            noc.meshHeight != noc.chipletsY * noc.chipletSubH) {
            fatal("chiplet grid (", noc.chipletsX, "x", noc.chipletSubW,
                  " by ", noc.chipletsY, "x", noc.chipletSubH,
                  ") does not compose to the configured ", noc.meshWidth,
                  "x", noc.meshHeight, " mesh");
        }
        const int maxLinks = std::min(noc.chipletSubW, noc.chipletSubH);
        if (noc.chipletLinksPerEdge < 0 ||
            noc.chipletLinksPerEdge > maxLinks) {
            fatal("noc.chipletLinksPerEdge must be in [0, ", maxLinks,
                  "], got ", noc.chipletLinksPerEdge);
        }
    }
    if (noc.interposerChannelBytes < 0)
        fatal("noc.interposerChannelBytes must be >= 0 (0 = full width)");
    if (noc.interposerLatency < 0)
        fatal("noc.interposerLatency must be >= 0");
    if (!mem.placement.empty()) {
        if (static_cast<int>(mem.placement.size()) != mem.numNodes) {
            fatal("mem.placement lists ", mem.placement.size(),
                  " tiles but the system has ", mem.numNodes,
                  " memory nodes");
        }
        std::vector<bool> seen(static_cast<std::size_t>(tiles), false);
        for (const int tile : mem.placement) {
            if (tile < 0 || tile >= tiles)
                fatal("mem.placement tile ", tile, " outside the chip (",
                      tiles, " tiles)");
            if (seen[static_cast<std::size_t>(tile)])
                fatal("mem.placement tile ", tile, " listed twice");
            seen[static_cast<std::size_t>(tile)] = true;
        }
    }
}

namespace
{

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

} // namespace

int
SystemConfig::flitsFor(MsgType type, TrafficClass cls) const
{
    const int channel = noc.effectiveChannelBytes();
    const int line =
        cls == TrafficClass::Cpu ? cpu.lineBytes : mem.lineBytes;
    // Write-through stores carry a coalesced 32 B payload; loads and
    // control messages are metadata-only (8 B <= one flit).
    constexpr int writePayloadBytes = 32;
    switch (type) {
      case MsgType::ReadReq:
      case MsgType::DelegatedReq:
      case MsgType::ProbeReq:
      case MsgType::ProbeNack:
      case MsgType::WriteAck:
        return 1;
      case MsgType::WriteReq:
        return 1 + ceilDiv(writePayloadBytes, channel);
      case MsgType::ReadReply:
        return 1 + ceilDiv(line, channel);
    }
    panic("unreachable message type");
}

SystemConfig
SystemConfig::makeSmall()
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.gpu.numCores = 10;
    cfg.cpu.numCores = 4;
    cfg.mem.numNodes = 2;
    cfg.gpu.l1SizeKB = 4;
    cfg.gpu.warpsPerCore = 8;
    cfg.gpu.l1Mshrs = 8;
    cfg.mem.llcSliceKB = 32;
    cfg.mem.banksPerMc = 4;
    cfg.warmupCycles = 500;
    cfg.simCycles = 5000;
    return cfg;
}

SystemConfig
SystemConfig::makePaper()
{
    return SystemConfig{};  // defaults are Table I
}

} // namespace dr
