#include "common/types.hpp"

#include <sstream>

namespace dr
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq: return "ReadReq";
      case MsgType::WriteReq: return "WriteReq";
      case MsgType::ReadReply: return "ReadReply";
      case MsgType::WriteAck: return "WriteAck";
      case MsgType::DelegatedReq: return "DelegatedReq";
      case MsgType::ProbeReq: return "ProbeReq";
      case MsgType::ProbeNack: return "ProbeNack";
    }
    return "Unknown";
}

// One row per value, in enum order: value, config name (written by the
// dump), display name (returned by the *Name() helper), alias.

SpellingTable<TopologyKind>
spellings(TopologyKind)
{
    using enum TopologyKind;
    static constexpr Spelling<TopologyKind> rows[] = {
        {Mesh, "mesh", "mesh"},
        {Crossbar, "crossbar", "crossbar"},
        {FlattenedButterfly, "flattened-butterfly", "flattened-butterfly",
         "flatfly"},
        {Dragonfly, "dragonfly", "dragonfly"},
        {ChipletMesh, "chiplet-mesh", "chiplet-mesh", "chiplet"},
    };
    return {"topology", rows};
}

SpellingTable<RoutingKind>
spellings(RoutingKind)
{
    using enum RoutingKind;
    static constexpr Spelling<RoutingKind> rows[] = {
        {DimOrderXY, "XY", "XY", "xy"},
        {DimOrderYX, "YX", "YX", "yx"},
        {DyXY, "DyXY", "DyXY", "dyxy"},
        {Footprint, "footprint", "Footprint"},
        {Hare, "HARE", "HARE", "hare"},
        {TableMinimal, "table", "table-minimal"},
        {ChipletHierarchical, "chiplet", "chiplet", "chiplet-hierarchical"},
    };
    return {"routing", rows};
}

SpellingTable<ChipLayout>
spellings(ChipLayout)
{
    using enum ChipLayout;
    static constexpr Spelling<ChipLayout> rows[] = {
        {Baseline, "baseline", "Baseline", "A"},
        {LayoutB, "B", "B"},
        {LayoutC, "C", "C"},
        {LayoutD, "D", "D"},
    };
    return {"layout", rows};
}

SpellingTable<Mechanism>
spellings(Mechanism)
{
    using enum Mechanism;
    static constexpr Spelling<Mechanism> rows[] = {
        {Baseline, "baseline", "Baseline"},
        {RealisticProbing, "realistic-probing", "RP", "rp"},
        {DelegatedReplies, "delegated-replies", "DelegatedReplies", "dr"},
    };
    return {"mechanism", rows};
}

SpellingTable<L1Organization>
spellings(L1Organization)
{
    using enum L1Organization;
    static constexpr Spelling<L1Organization> rows[] = {
        {Private, "private", "private"},
        {DcL1, "dc-l1", "DC-L1"},
        {DynEB, "dyneb", "DynEB"},
    };
    return {"L1 organization", rows};
}

SpellingTable<CtaSchedule>
spellings(CtaSchedule)
{
    using enum CtaSchedule;
    static constexpr Spelling<CtaSchedule> rows[] = {
        {RoundRobin, "round-robin", "round-robin", "rr"},
        {Distributed, "distributed", "distributed"},
    };
    return {"CTA schedule", rows};
}

std::string
Message::toString() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " id=" << id << " addr=0x" << std::hex << addr
       << std::dec << " " << src << "->" << dst << " req=" << requester
       << (cls == TrafficClass::Cpu ? " CPU" : " GPU")
       << (dnf ? " DNF" : "");
    return os.str();
}

} // namespace dr
