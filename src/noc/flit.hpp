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
 * One flow-control unit. Flits carry the routing state they need so that
 * routers never have to look up the parent packet.
 */
struct Flit
{
    PacketId pkt = 0;
    PacketHandle slot = invalidPacket; //!< PacketPool slot of the parent
    std::uint16_t seq = 0;        //!< position within the packet
    bool head = false;
    bool tail = false;
    std::uint8_t vc = 0;          //!< VC on the current link
    std::int16_t destRouter = -1; //!< router the destination NI attaches to
    std::int16_t destPort = -1;   //!< ejection port at that router
    TrafficClass cls = TrafficClass::Gpu;
    DimOrder order = DimOrder::XY;//!< dimension order chosen at injection
    std::uint8_t vcMask = 0xff;   //!< VCs the packet may use
    VirtualNet vnet = VirtualNet::Request; //!< message class (VN)
};

/**
 * A packet: a message plus its NoC-level framing. The Network owns the
 * packet table; flits reference packets by id.
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
