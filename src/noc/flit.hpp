#ifndef DR_NOC_FLIT_HPP
#define DR_NOC_FLIT_HPP

/**
 * @file
 * Flow-control units (flits) and packets. A message is fragmented into a
 * head flit plus zero or more body flits and a tail (the head may also be
 * the tail for single-flit packets). Wormhole flow control lets the flits
 * of one packet spread across multiple routers.
 */

#include <cstdint>

#include "common/types.hpp"
#include "noc/vnet.hpp"

namespace dr
{

/** Identifier of a packet in flight. */
using PacketId = std::uint64_t;

/**
 * Stable handle of an in-flight packet: a slot of the source domain's
 * PacketPool, the pool named in the low bits. Carried in every flit so
 * the NI hot paths resolve the parent packet with one array index
 * instead of a hash lookup. Handles are reused after the packet is
 * delivered; PacketId — (source node, the node's injection sequence) —
 * stays unique for diagnostics.
 */
using PacketHandle = std::int32_t;
constexpr PacketHandle invalidPacket = -1;

/**
 * Reassembly identity of a packet: its PacketId folded to 16 bits.
 * Every flit carries its packet's tag beside the pool slot, and the
 * ejecting NI compares it against the slot's packet, so a flit whose
 * slot was released and reused is caught without a 64-bit id per flit.
 */
constexpr std::uint16_t
packetTag(PacketId id)
{
    return static_cast<std::uint16_t>(id ^ id >> 16 ^ id >> 32 ^ id >> 48);
}

/**
 * One flow-control unit. Flits carry the routing state they need so that
 * routers never have to look up the parent packet; the parent's
 * PacketId is resolved from `slot` through its source domain's pool.
 */
struct Flit
{
    PacketHandle slot = invalidPacket; //!< PacketPool slot of the parent
    std::int16_t destRouter = -1; //!< router the destination NI attaches to
    std::int16_t destPort = -1;   //!< ejection port at that router
    std::uint16_t tag = 0;        //!< packetTag of the parent's PacketId
    std::uint8_t vc = 0;          //!< VC on the current link
    std::uint8_t vcMask = 0xff;   //!< VCs the packet may use
    TrafficClass cls = TrafficClass::Gpu;
    DimOrder order = DimOrder::XY;//!< dimension order chosen at injection
    VirtualNet vnet = VirtualNet::Request; //!< message class (VN)
    bool head : 1 = false;
    bool tail : 1 = false;
};

// A flit is copied into a router buffer and an arrival-wheel entry on
// every hop: keep it to a quarter of a cache line.
static_assert(sizeof(Flit) <= 16);

/**
 * A packet: a message plus its NoC-level framing. The Network owns the
 * packet pools; flits reference packets by pool slot.
 */
struct Packet
{
    Message msg;
    PacketId id = 0;
    int flits = 1;
    std::int16_t srcRouter = -1;
    std::int16_t destRouter = -1;
    std::int16_t destPort = -1;
    TrafficClass cls = TrafficClass::Gpu;
    DimOrder order = DimOrder::XY;
    std::uint8_t vcMask = 0xff;
    VirtualNet vnet = VirtualNet::Request; //!< message class (VN)
    Cycle injectedAt = 0;  //!< first flit left the NI
    Cycle queuedAt = 0;    //!< entered the NI injection buffer
};

} // namespace dr

#endif // DR_NOC_FLIT_HPP
