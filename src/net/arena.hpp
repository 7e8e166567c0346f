/**
 * @file
 * Pooled packet storage for the network datapath (DESIGN.md section 14).
 *
 * The real descendants of the Telegraphos NIC lineage (APEnet+, the FPGA
 * torus NICs) keep their datapath fast with fixed-format packet
 * descriptors living in preallocated rings; the software model mirrors
 * that shape.  A PacketArena owns every in-flight packet of one
 * simulation universe: queues, links and switches pass 32-bit
 * PacketHandle slots instead of copying the 112-byte Packet value at
 * every hop.
 *
 * Each packet lives in exactly one slot, and the slot is the packet:
 * the datapath reads and writes its fields in place through packet().
 * The fields a hop touches (src/dst/vc/payloadBytes/traceId)
 * sit in the first 24 bytes of the Packet (net/packet.hpp), so a switch
 * or link reads only the front of the slot and never the cold body
 * (addresses, operands, CRC, bulk payload).
 *
 * Storage is a LIFO free list over chunked slot storage: chunks are
 * allocated as the in-flight population grows during warm-up and then
 * recycled forever — zero heap allocations in steady state (asserted by
 * tests/net/packet_alloc_test.cpp).  Handle reuse order is LIFO and
 * acquire/release order is deterministic, so handle values themselves
 * are deterministic (they never feed the trace hash regardless).
 */

#ifndef TELEGRAPHOS_NET_ARENA_HPP
#define TELEGRAPHOS_NET_ARENA_HPP

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/invariant.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"

namespace tg::net {

/** Index of an arena slot holding one in-flight packet. */
using PacketHandle = std::uint32_t;

/** The null handle (no slot). */
inline constexpr PacketHandle kNoPacket = ~PacketHandle(0);

/** Free-list arena of packet slots; the slot is the packet. */
class PacketArena
{
  public:
    PacketArena() = default;
    explicit PacketArena(StatRegistry &reg)
    {
        reg.add("sim.arena_high_water", &_highWater);
    }
    PacketArena(const PacketArena &) = delete;
    PacketArena &operator=(const PacketArena &) = delete;

    /** Move @p p into a free slot.  Grows by one chunk when the free
     *  list is empty. */
    PacketHandle
    acquire(Packet &&p)
    {
        if (_free.empty())
            grow();
        const PacketHandle h = _free.back();
        _free.pop_back();
        TG_AUDIT(!_liveSlot[h], "arena slot %u acquired twice", h);
        _liveSlot[h] = 1;
        packet(h) = std::move(p);
        ++_live;
        if (_live > _highWater)
            _highWater = _live;
        return h;
    }

    /** Move the packet out of slot @p h and recycle the slot. */
    Packet
    release(PacketHandle h)
    {
        TG_AUDIT(_liveSlot[h], "arena slot %u released twice", h);
        _liveSlot[h] = 0;
        Packet out = std::move(packet(h));
        _free.push_back(h);
        --_live;
        return out;
    }

    /**
     * The in-flight packet in slot @p h.  The reference stays valid
     * until the slot is released (chunked storage: slots never move).
     */
    Packet &
    packet(PacketHandle h)
    {
        return _chunks[h / kChunkSlots][h % kChunkSlots];
    }

    const Packet &
    packet(PacketHandle h) const
    {
        return _chunks[h / kChunkSlots][h % kChunkSlots];
    }

    // ------------------------------------------------------------------
    // Capacity accounting (zero-alloc proofs, bounded-memory tests)
    // ------------------------------------------------------------------

    /** Slots currently holding an in-flight packet. */
    std::size_t live() const { return _live; }

    /** Total slots ever created (== chunks * kChunkSlots). */
    std::size_t capacity() const { return _chunks.size() * kChunkSlots; }

    /** Peak simultaneous in-flight population. */
    std::size_t highWater() const { return _highWater; }

    /** Chunk allocations performed (stable once warm). */
    std::uint64_t chunkAllocs() const { return _chunkAllocs; }

  private:
    static constexpr std::size_t kChunkSlots = 256;

    void
    grow()
    {
        const std::size_t base = capacity();
        if (base + kChunkSlots > std::size_t(kNoPacket))
            panic("PacketArena exhausted the handle space");
        _chunks.push_back(std::make_unique<Packet[]>(kChunkSlots));
        _liveSlot.resize(base + kChunkSlots, 0);
        // LIFO free list: push in reverse so low handles come out first.
        for (std::size_t i = kChunkSlots; i > 0; --i)
            _free.push_back(PacketHandle(base + i - 1));
        ++_chunkAllocs;
    }

    std::vector<std::unique_ptr<Packet[]>> _chunks;
    std::vector<std::uint8_t> _liveSlot; // audit: double acquire/release
    std::vector<PacketHandle> _free;
    std::size_t _live = 0;
    std::size_t _highWater = 0;
    std::uint64_t _chunkAllocs = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_ARENA_HPP
