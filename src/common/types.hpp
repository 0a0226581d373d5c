#ifndef DR_COMMON_TYPES_HPP
#define DR_COMMON_TYPES_HPP

/**
 * @file
 * Fundamental types shared by every module of the Delegated Replies
 * simulator: cycle/address integers, node identifiers, traffic classes,
 * and the memory-system message vocabulary.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace dr
{

/** Simulation time in core/NoC clock cycles. */
using Cycle = std::uint64_t;

/** Physical byte address (48-bit address space per the paper). */
using Addr = std::uint64_t;

/**
 * Sentinel for "no scheduled event": an endpoint whose next-event
 * watermark (DESIGN.md §13) is kNeverCycle generates no effect on any
 * future cycle without new input arriving first.
 */
constexpr Cycle kNeverCycle = ~static_cast<Cycle>(0);

/** Flat node identifier within the chip (0 .. nodeCount-1). */
using NodeId = std::int16_t;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = -1;

/** What a chip tile contains. */
enum class NodeType : std::uint8_t
{
    GpuCore,
    CpuCore,
    MemNode,
};

/** Traffic class: CPU traffic is prioritized end-to-end over GPU traffic. */
enum class TrafficClass : std::uint8_t
{
    Cpu,
    Gpu,
};

/** The two logical networks (physically separate in the baseline). */
enum class NetKind : std::uint8_t
{
    Request,
    Reply,
};

/**
 * Memory-system message vocabulary.
 *
 * DelegatedReq is a delegated reply: encoded as a normal request whose
 * sender ID is the *original requester* (Section IV of the paper), sent by
 * a memory node to the likely-sharer GPU core over the request network.
 * ProbeReq/ProbeNack implement Realistic Probing (RP).
 */
enum class MsgType : std::uint8_t
{
    ReadReq,       //!< 1-flit read request (core -> memory node)
    WriteReq,      //!< write-through request (carries data)
    ReadReply,     //!< data reply (memory node or remote L1 -> core)
    WriteAck,      //!< 1-flit write acknowledgement
    DelegatedReq,  //!< delegated reply (memory node -> likely sharer)
    ProbeReq,      //!< RP: probe a remote L1 for a line
    ProbeNack,     //!< RP: probed L1 does not hold the line
};

/** True for message types that travel on the request network. */
constexpr bool
onRequestNetwork(MsgType t)
{
    return t == MsgType::ReadReq || t == MsgType::WriteReq ||
           t == MsgType::DelegatedReq || t == MsgType::ProbeReq;
}

/** Printable name of a message type. */
const char *msgTypeName(MsgType t);

/**
 * Every spelling of one value of a config enum. Parsing accepts each
 * of them; the config dump writes `config`, and the enum's *Name()
 * helper (bench output, gtest parameter names) returns `display`.
 */
template <typename E>
struct Spelling
{
    E value;
    const char *config;
    const char *display;
    const char *alias = nullptr;  //!< one more accepted spelling, if any
};

/**
 * One config enum's spellings: one row per value, in enum order. Each
 * config enum `E` has an overload `SpellingTable<E> spellings(E)`.
 */
template <typename E>
struct SpellingTable
{
    const char *noun;  //!< what a value names, for error messages
    std::span<const Spelling<E>> rows;
};

/** The spelling row of `v`. */
template <typename E>
const Spelling<E> &
spellingOf(E v)
{
    return spellings(v).rows[static_cast<std::size_t>(v)];
}

/** The row that spells `name` in any of its forms, or nullptr. */
template <typename E>
const Spelling<E> *
findSpelling(std::string_view name)
{
    for (const Spelling<E> &row : spellings(E{}).rows) {
        if (name == row.config || name == row.display ||
            (row.alias && name == row.alias))
            return &row;
    }
    return nullptr;
}

/** Supported NoC topologies (Section VII). */
enum class TopologyKind : std::uint8_t
{
    Mesh,
    Crossbar,
    FlattenedButterfly,
    Dragonfly,
    ChipletMesh,  //!< chiplet sub-meshes joined by interposer links
};

SpellingTable<TopologyKind> spellings(TopologyKind);

inline const char *
topologyName(TopologyKind t)
{
    return spellingOf(t).display;
}

/** Dimension order used by CDR routing within one network. */
enum class DimOrder : std::uint8_t
{
    XY,
    YX,
};

/** Routing algorithm selector for one network. */
enum class RoutingKind : std::uint8_t
{
    DimOrderXY,     //!< deterministic X-then-Y
    DimOrderYX,     //!< deterministic Y-then-X
    DyXY,           //!< congestion-aware adaptive [45]
    Footprint,      //!< adaptiveness-regulated [22]
    Hare,           //!< history-aware adaptive [37]
    TableMinimal,   //!< precomputed minimal paths (non-mesh topologies)
    ChipletHierarchical,  //!< intra-chiplet XY + gateway transit phases
};

SpellingTable<RoutingKind> spellings(RoutingKind);

inline const char *
routingName(RoutingKind r)
{
    return spellingOf(r).display;
}

/** Chip layouts from Figure 1 of the paper. */
enum class ChipLayout : std::uint8_t
{
    Baseline,  //!< memory column between CPU and GPU cores (Fig. 1a)
    LayoutB,   //!< memory nodes at die edge (top row, Fig. 1b)
    LayoutC,   //!< clustered CPU cores (Fig. 1c)
    LayoutD,   //!< distributed core types (Fig. 1d)
};

SpellingTable<ChipLayout> spellings(ChipLayout);

inline const char *
layoutName(ChipLayout l)
{
    return spellingOf(l).display;
}

/** The mechanism under evaluation. */
enum class Mechanism : std::uint8_t
{
    Baseline,          //!< carefully tuned baseline (Section V)
    RealisticProbing,  //!< state-of-the-art RP [31]
    DelegatedReplies,  //!< this paper's contribution
};

SpellingTable<Mechanism> spellings(Mechanism);

inline const char *
mechanismName(Mechanism m)
{
    return spellingOf(m).display;
}

/** L1 organisation among GPU cores (Figure 15). */
enum class L1Organization : std::uint8_t
{
    Private,  //!< baseline private L1 per SM
    DcL1,     //!< DC-L1: 8 cores statically share a 4-slice L1 [30]
    DynEB,    //!< dynamic shared/private selection [29]
};

SpellingTable<L1Organization> spellings(L1Organization);

inline const char *
l1OrganizationName(L1Organization o)
{
    return spellingOf(o).display;
}

/** CTA (thread block) scheduling policy (Figure 15). */
enum class CtaSchedule : std::uint8_t
{
    RoundRobin,
    Distributed,
};

SpellingTable<CtaSchedule> spellings(CtaSchedule);

inline const char *
ctaScheduleName(CtaSchedule c)
{
    return spellingOf(c).display;
}

/**
 * A memory-system message as carried end-to-end by the interconnect.
 *
 * @note `src`/`dst` are the *network* endpoints of the current transfer;
 *       `requester` is the core that originated the transaction and is
 *       preserved across delegation (it is the sender ID delegated
 *       replies carry, Section IV).
 */
struct Message
{
    MsgType type = MsgType::ReadReq;
    TrafficClass cls = TrafficClass::Gpu;
    Addr addr = 0;                 //!< line-aligned address
    NodeId src = invalidNode;      //!< injecting endpoint
    NodeId dst = invalidNode;      //!< receiving endpoint
    NodeId requester = invalidNode;//!< original requesting core
    std::uint64_t id = 0;          //!< unique transaction id
    bool dnf = false;              //!< Do-Not-Forward bit (Section IV)
    Cycle created = 0;             //!< cycle the transaction was created
    Cycle injected = 0;            //!< cycle the message entered the NoC

    /** One-line description for debugging. */
    std::string toString() const;
};

} // namespace dr

#endif // DR_COMMON_TYPES_HPP
