#ifndef DR_COMMON_CONFIG_HPP
#define DR_COMMON_CONFIG_HPP

/**
 * @file
 * Simulated-system configuration. Defaults reproduce Table I of the paper:
 * a 64-node chip with 40 GPU cores, 16 CPU cores and 8 memory nodes on an
 * 8x8 mesh with separate 128-bit request/reply networks.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace dr
{

/** Network-on-chip parameters. */
struct NocConfig
{
    TopologyKind topology = TopologyKind::Mesh;
    int meshWidth = 8;   //!< columns
    int meshHeight = 8;  //!< rows

    /**
     * Chiplet-mesh topology (topology == ChipletMesh): a chipletsX x
     * chipletsY grid of chipletSubW x chipletSubH sub-meshes joined by
     * interposer links. meshWidth/meshHeight must equal the composed
     * grid (chipletsX*chipletSubW by chipletsY*chipletSubH) — validate()
     * fatals on any mismatch rather than silently deriving one from the
     * other. chipletLinksPerEdge restricts how many boundary rows/
     * columns carry an interposer link (0 = every boundary router is a
     * gateway); restricted gateways require chiplet routing.
     */
    int chipletsX = 1;
    int chipletsY = 1;
    int chipletSubW = 4;
    int chipletSubH = 4;
    int chipletLinksPerEdge = 0;

    /**
     * Interposer link class. interposerChannelBytes is the physical
     * width of an interposer channel (0 = same as channelBytes); a
     * narrower channel serializes each flit over
     * ceil(effectiveChannelBytes / interposerChannelBytes) cycles.
     * interposerLatency is added to every flit hop and credit return
     * crossing an interposer link.
     */
    int interposerChannelBytes = 0;
    int interposerLatency = 4;

    int channelBytes = 16;  //!< 128-bit channels
    int vcsPerNet = 2;      //!< VCs per physical network
    int vcDepthFlits = 4;   //!< buffer depth per VC
    int routerStages = 4;   //!< router pipeline depth (cycles)

    /**
     * Worker threads ticking each physical network (spatial-domain
     * parallel engine, DESIGN.md §11). Schedules and statistics are
     * bit-identical for every value by construction. 0 = auto: take
     * DR_NOC_THREADS from the environment, else single-threaded.
     * At most maxThreads, the bound DR_NOC_THREADS has too.
     */
    int threads = 0;
    static constexpr int maxThreads = 256;

    /**
     * AVCP mode: a single physical network whose aggregate bandwidth
     * matches the two baseline networks; request and reply traffic are
     * segregated onto disjoint VC sets.
     */
    bool sharedPhysical = false;
    int sharedReqVcs = 2;    //!< VCs dedicated to requests when shared
    int sharedReplyVcs = 2;  //!< VCs dedicated to replies when shared

    /**
     * Virtual networks: partition each physical network's VCs into
     * reserved per-message-class ranges (Request, ForwardedRequest,
     * Reply, DelegatedReply — see noc/vnet.hpp) and arbitrate by
     * (class, VN) rank. Off by default: the legacy two-class split is
     * schedule-preserving. The per-VN counts must exactly cover the
     * owning network's VCs: request+forward == vcsPerNet and
     * reply+delegated == vcsPerNet for split networks, or ==
     * sharedReqVcs / sharedReplyVcs respectively in AVCP shared mode
     * (validate() enforces this; no silent clamping).
     */
    bool vnets = false;
    int vnetRequestVcs = 1;    //!< VCs reserved for ordinary requests
    int vnetForwardVcs = 1;    //!< VCs reserved for delegated forwards
    int vnetReplyVcs = 1;      //!< VCs reserved for memory replies
    int vnetDelegatedVcs = 1;  //!< VCs reserved for core-to-core replies

    RoutingKind requestRouting = RoutingKind::DimOrderYX;  //!< CDR: YX req
    RoutingKind replyRouting = RoutingKind::DimOrderXY;    //!< CDR: XY rep

    /**
     * Memory-node reply injection buffer in flits. The paper's clogging
     * mechanism hinges on this buffer filling (Figure 3); ~4 complete
     * GPU replies with the default channel width.
     */
    int memInjBufferFlits = 36;
    int coreInjBufferFlits = 36;  //!< per-core injection buffer
    int ejBufferFlits = 18;       //!< finite ejection buffer (back-pressure)

    /** Channel width multiplier; 2.0 models the double-bandwidth NoC. */
    double bandwidthScale = 1.0;

    /** Effective channel width in bytes after scaling. */
    int effectiveChannelBytes() const;

    /** Cycles one flit occupies an interposer channel (>= 1). */
    int interposerSerializationCycles() const;

    bool operator==(const NocConfig &) const = default;
};

/** GPU core (SM) parameters. */
struct GpuConfig
{
    /** A core tracks its warps in one 64-bit mask (gpu/sm_core.hpp). */
    static constexpr int maxWarpsPerCore = 64;

    int numCores = 40;
    int warpsPerCore = 48;
    int threadsPerWarp = 32;
    int issueWidth = 2;         //!< 2 GTO schedulers per core
    int computePerMem = 4;      //!< compute instructions per memory access

    int l1SizeKB = 48;
    int l1Assoc = 4;
    int l1LineBytes = 128;
    int l1HitLatency = 2;
    int l1Mshrs = 32;
    int mshrTargets = 8;        //!< merged requests per MSHR entry

    int frqEntries = 8;         //!< Forwarded Request Queue (Section IV)

    L1Organization l1Org = L1Organization::Private;
    int dcl1CoresPerCluster = 8;  //!< DC-L1: 8 cores share one L1
    int dcl1Slices = 4;           //!< ... with 4 address-interleaved slices
    CtaSchedule ctaSchedule = CtaSchedule::RoundRobin;

    bool operator==(const GpuConfig &) const = default;
};

/** CPU core parameters. */
struct CpuConfig
{
    int numCores = 16;
    int l1SizeKB = 32;
    int l1Assoc = 4;
    int lineBytes = 64;
    int maxOutstanding = 8;  //!< upper bound on per-core MLP

    bool operator==(const CpuConfig &) const = default;
};

/** Memory-node (LLC slice + memory controller) parameters. */
struct MemConfig
{
    int numNodes = 8;

    int llcSliceKB = 1024;  //!< 1 MB per memory controller, 8 MB total
    int llcAssoc = 16;
    int lineBytes = 128;
    int llcLatency = 20;    //!< tag+data access latency (cycles)
    int llcMshrs = 64;

    int banksPerMc = 16;
    // GDDR5 timing parameters (in memory cycles ~ core cycles)
    int tCL = 12;
    int tRP = 12;
    int tRC = 40;
    int tRAS = 28;
    int tRCD = 12;
    int tRRD = 6;
    int tCCD = 2;
    int tWR = 12;
    /** Core cycles the shared per-MC data bus is busy per line burst. */
    int burstCycles = 6;

    /** Randomized (PAE-like [43]) address-to-MC mapping seed. */
    std::uint64_t mapSeed = 0x5eedu;

    /**
     * Explicit memory-node tile placement: `placement[i]` is the tile
     * index of the i-th memory node. Empty keeps the ChipLayout
     * default; non-empty must list exactly numNodes distinct in-range
     * tiles (validate() fatals otherwise). This is the knob the
     * deterministic placement search (tools/run_placement.py) sweeps.
     */
    std::vector<int> placement;

    bool operator==(const MemConfig &) const = default;
};

/** Delegated Replies policy knobs. */
struct DrConfig
{
    /** Delegate even when the reply network could accept (ablation). */
    bool delegateAlways = false;
    /** FRQ remote requests beat local accesses (deadlock avoidance). */
    bool frqRemotePriority = true;

    bool operator==(const DrConfig &) const = default;
};

/** Realistic Probing configuration (best-performing per the authors). */
struct RpConfig
{
    int probeCount = 2;        //!< remote L1s probed per predicted miss
    int predictorEntries = 512;//!< per-core sharing predictor table

    bool operator==(const RpConfig &) const = default;
};

/** Correctness-toolkit knobs: progress watchdog + checked-build sweeps. */
struct DebugConfig
{
    /** No-forward-progress window before the watchdog fires (0 = off). */
    Cycle watchdogCycles = 0;
    /** panic() on a detected stall; false reports, counts, re-arms. */
    bool watchdogAbort = true;
    /** Max cycles an MSHR entry may stay outstanding (leak bound). */
    Cycle mshrLeakCycles = 200000;
    /**
     * DR_CHECKED builds: cycles between full conservation sweeps
     * (flit/credit conservation, MSHR leak check). 0 disables sweeps;
     * ignored entirely in non-checked builds.
     */
    Cycle sweepCycles = 4096;

    bool operator==(const DebugConfig &) const = default;
};

/** Complete system configuration. */
struct SystemConfig
{
    NocConfig noc;
    GpuConfig gpu;
    CpuConfig cpu;
    MemConfig mem;
    DrConfig dr;
    RpConfig rp;
    DebugConfig debug;

    Mechanism mechanism = Mechanism::Baseline;
    ChipLayout layout = ChipLayout::Baseline;

    std::uint64_t seed = 42;

    Cycle warmupCycles = 5000;
    Cycle simCycles = 50000;  //!< measured cycles after warmup

    /**
     * Event-driven idle skipping (DESIGN.md §13): when every network
     * domain is quiescent and every endpoint's next-event watermark
     * lies in the future, HeteroSystem::advance() jumps now_ to the
     * earliest watermark instead of ticking dead cycles. Results are
     * bit-identical either way; the flag exists so the equivalence
     * stays testable.
     */
    bool idleSkip = true;

    /** Total tile count. */
    int nodeCount() const { return noc.meshWidth * noc.meshHeight; }

    /** Abort with fatal() if the configuration is inconsistent. */
    void validate() const;

    /** Flits occupied by a message of the given type/class. */
    int flitsFor(MsgType type, TrafficClass cls) const;

    /**
     * A reduced configuration for unit tests: 4x4 mesh, 2 memory nodes,
     * 10 GPU cores, 4 CPU cores, small caches.
     */
    static SystemConfig makeSmall();

    /** The full Table I configuration. */
    static SystemConfig makePaper();

    /** Field-wise: a config dump must parse back to an equal config. */
    bool operator==(const SystemConfig &) const = default;
};

/**
 * `text` as a whole number in [lo, hi]. Anything else ("4x", " 4",
 * "-1", "abc", "") is fatal, naming `name` (an environment variable or
 * a command-line flag) and the accepted range — never silently
 * defaulted or clamped.
 */
long long parseWhole(const char *name, std::string_view text, long long lo,
                     long long hi);

/**
 * An environment knob as a whole number in [lo, hi]. Unset or empty
 * gives `fallback`; any other value goes through parseWhole().
 */
long long envWhole(const char *name, long long lo, long long hi,
                   long long fallback);

} // namespace dr

#endif // DR_COMMON_CONFIG_HPP
