/**
 * @file
 * Channel implementation: serialization, propagation,
 * round-robin VC arbitration and the go-back-N reliability layer.
 */

#include "net/link.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tg::net {

Channel::Channel(System &sys, const std::string &name,
                 std::vector<Lane> lanes, double bytes_per_tick, Tick delay)
    : SimObject(sys, name), _lanes(std::move(lanes)), _bw(bytes_per_tick),
      _delay(delay),
      _inj(sys.config().fault, sys.config().seed, name)
{
    if (_bw <= 0)
        fatal("%s: link bandwidth must be positive", name.c_str());
    if (_lanes.empty())
        fatal("%s: channel needs at least one lane", name.c_str());

    _reliable = sys.config().fault.enabled();
    if (_reliable) {
        _ls.resize(_lanes.size());
        auto &reg = sys.stats();
        reg.add({_name, "crc_errors"}, &_crcErrors);
        reg.add({_name, "retransmissions"}, &_retransmissions);
        reg.add({_name, "dup_discards"}, &_dupDiscards);
        reg.add({_name, "out_of_window"}, &_outOfWindow);
        reg.add({_name, "wire_failures"}, &_wireFailures);
    }

    _arena = &_lanes.front().up->arena();
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const Lane &lane = _lanes[i];
        TG_AUDIT(&lane.up->arena() == _arena &&
                     &lane.down->arena() == _arena,
                 "%s: lanes span different packet arenas", _name.c_str());
        // Lanes may share a queue (a node's down-link drains both VCs
        // into one ingress FIFO): subscribe to each queue once.
        bool up_seen = false, down_seen = false;
        for (std::size_t j = 0; j < i; ++j) {
            up_seen |= _lanes[j].up == lane.up;
            down_seen |= _lanes[j].down == lane.down;
        }
        if (!up_seen)
            lane.up->onData([this] { pump(); });
        if (!down_seen)
            lane.down->onSpace([this] { pump(); });
    }
}

Channel::Channel(System &sys, const std::string &name,
                 BoundedQueue &upstream, BoundedQueue &downstream,
                 double bytes_per_tick, Tick delay)
    : Channel(sys, name, std::vector<Lane>{Lane{&upstream, &downstream}},
              bytes_per_tick, delay)
{
}

Tick
Channel::serTicks(std::uint32_t wire_bytes, double bytes_per_tick)
{
    // Bandwidth is configured in (fractional) bytes per tick; ceil keeps
    // the serialization time integral and pessimistic, and IEEE division
    // of exact integers is bit-identical across platforms.
    // tglint: allow(tick-float)
    return static_cast<Tick>(
        std::ceil(static_cast<double>(wire_bytes) / bytes_per_tick));
}

void
Channel::pump()
{
    if (_busy)
        return;
    if (_reliable) {
        pumpReliable();
        return;
    }

    const std::size_t li = arbitrate();
    if (li == _lanes.size())
        return;

    // Claim the wire before popping: the pop fires the upstream onSpace
    // listeners, which can re-enter pump() and must find the server busy
    // (a double-send here would put two packets on one wire).
    _busy = true;

    // Zero-copy transfer: the packet stays in the arena; only its handle
    // rides the delivery event.
    const PacketHandle h = _lanes[li].up->popHandle();
    const Packet &p = _arena->packet(h);
    const Tick ser =
        startTx(p.wireBytes(config().packetHeaderBytes), p.traceId);
    // The packet lands after serialization + propagation delay; the wire
    // frees after serialization.  The arrival is scheduled first so that
    // at an equal tick (a zero-delay link) the packet is delivered before
    // the freed wire's pump decides.
    schedule(ser + _delay, [this, li, h] { land(li, h); });
    schedule(ser, [this, ser] { wireFree(ser); });
}

std::size_t
Channel::arbitrate()
{
    // Round-robin over lanes: pick the first one that has something to
    // send and a reservable downstream slot.  Lanes are independently
    // buffered, so a blocked VC never stalls the other — the property
    // the dateline deadlock-avoidance scheme needs.
    for (std::size_t i = 0, c = _rr; i < _lanes.size();
         ++i, c = nextLane(c)) {
        bool ready = !_lanes[c].up->empty();
        if (_reliable) {
            // A retransmission, or a fresh packet while the go-back-N
            // window has room.
            const LaneState &ls = _ls[c];
            ready = ls.resend < ls.unacked.size() ||
                    (ready && ls.unacked.size() < FaultSpec::windowPackets);
        }
        if (ready && _lanes[c].down->reserve()) {
            _rr = nextLane(c);
            return c;
        }
    }
    return _lanes.size();
}

Tick
Channel::startTx(std::uint32_t bytes, std::uint64_t trace_id)
{
    ++_packets;
    _bytes += bytes;
    _sys.tracer().record(trace_id, trace::Span::LinkTx, now());
    return serTicks(bytes, _bw);
}

void
Channel::land(std::size_t li, PacketHandle h)
{
    _sys.tracer().record(_arena->packet(h).traceId, trace::Span::LinkRx,
                         now());
    _lanes[li].down->pushReservedHandle(h);
}

void
Channel::wireFree(Tick ser)
{
    _busyTicks += ser;
    _busy = false;
    pump();
}

// ---------------------------------------------------------------------
// Reliable (fault-model) path
// ---------------------------------------------------------------------

void
Channel::pumpReliable()
{
    // Administrative outage: the wire transmits nothing.  Past the
    // deadline everything pending fails over to the error path; otherwise
    // wake up when the link comes back (or when the deadline passes).
    // isDown is checked regardless of active(): targeted down-windows
    // apply to matching links outside the random-fault filter too.
    if (_inj.isDown(now())) {
        if (_inj.downPastDeadline(now())) {
            failFast();
            return;
        }
        if (!_downWakeArmed) {
            _downWakeArmed = true;
            const Tick until = _inj.downUntil(now());
            const Tick deadline =
                _inj.downStart(now()) + _inj.spec().linkDownDeadline + 1;
            schedule(std::min(until, deadline) - now(), [this] {
                _downWakeArmed = false;
                pump();
            });
        }
        return;
    }

    // Give up on lane heads whose retry budget is spent, before
    // committing any downstream reservation to them.  Only after a
    // rewind (every copy of the head has been sent) and only while the
    // receiver still waits for it: an entry the receiver accepted waits
    // for its cumulative ACK instead of being reported lost.
    for (std::size_t li = 0; li < _lanes.size(); ++li) {
        LaneState &ls = _ls[li];
        while (ls.resend == 0 && !ls.unacked.empty() &&
               ls.unacked.front().tries > _inj.spec().maxRetries &&
               ls.unacked.front().lseq == ls.rxExpected)
            failEntry(li, 0);
    }

    const std::size_t li = arbitrate();
    if (li == _lanes.size())
        return;
    LaneState &ls = _ls[li];

    // Claim the wire before popping: the pop can re-enter pump() through
    // the queue's listener chain and must find the server busy.
    _busy = true;

    if (ls.resend == ls.unacked.size()) {
        // The entry holds the packet's slot; retransmissions and the
        // eventual handover downstream reuse it.
        const PacketHandle h = _lanes[li].up->popHandle();
        const Packet &p = _arena->packet(h);
        const bool was_empty = ls.unacked.empty();
        ls.unacked.push_back(TxEntry{h, ls.txNext++, p.traceId,
                                     p.wireBytes(config().packetHeaderBytes),
                                     0});
        if (was_empty)
            armTimer(li);
    }

    TxEntry &e = ls.unacked[ls.resend];
    ++ls.resend;
    if (e.tries > 0)
        ++_retransmissions;
    ++e.tries;

    bool drop = false, corrupted = false, dup = false;
    if (_inj.active()) {
        drop = _inj.dropNow();
        corrupted = !drop && _inj.corruptNow();
        dup = !drop && _inj.duplicateNow();
    }

    const Tick ser = startTx(e.wireBytes, e.traceId);
    schedule(ser, [this, ser] { wireFree(ser); });
    if (drop) {
        // The transfer vanishes on the wire; the reserved slot frees when
        // the (never-arriving) packet would have landed.
        schedule(ser + _delay,
                 [down = _lanes[li].down] { down->cancelReservation(); });
    } else {
        schedule(ser + _delay, [this, li, lseq = e.lseq, corrupted, dup] {
            deliver(li, lseq, corrupted, dup);
        });
    }
}

void
Channel::deliver(std::size_t li, std::uint64_t lseq, bool corrupted,
                 bool dup_follows)
{
    Lane &lane = _lanes[li];
    LaneState &ls = _ls[li];

    if (dup_follows) {
        // The duplicated copy lands right behind the original if the
        // downstream buffer can take it (otherwise the wire glitch is
        // absorbed by back-pressure).
        if (lane.down->reserve()) {
            schedule(1, [this, li, lseq, corrupted] {
                deliver(li, lseq, corrupted, false);
            });
        }
    }

    if (corrupted) {
        // The receiver's CRC check fails: a single flipped bit always
        // changes the CRC-32C.
        ++_crcErrors;
        lane.down->cancelReservation();
        schedule(_delay, [this, li] { onNack(li); });
        return;
    }

    if (lseq == ls.rxExpected) {
        // The one acceptance of this sequence number: the sender's slot
        // moves downstream and its entry keeps only the header.  The
        // entry is still unacked (nothing acks past rxExpected) and was
        // not given up (a give-up moves rxExpected past it).
        ++ls.rxExpected;
        const auto e =
            std::find_if(ls.unacked.begin(), ls.unacked.end(),
                         [lseq](const TxEntry &x) { return x.lseq == lseq; });
        TG_AUDIT(e != ls.unacked.end() && e->h != kNoPacket,
                 "%s: lane %zu accepts sequence %llu twice", _name.c_str(),
                 li, (unsigned long long)lseq);
        land(li, std::exchange(e->h, kNoPacket));
        schedule(_delay, [this, li, lseq] { onAck(li, lseq); });
        return;
    }

    if (lseq < ls.rxExpected) {
        // Duplicate: discard, but re-ack cumulatively so a lost ACK does
        // not stall the sender.
        ++_dupDiscards;
        lane.down->cancelReservation();
        const std::uint64_t acked = ls.rxExpected - 1;
        schedule(_delay, [this, li, acked] { onAck(li, acked); });
        return;
    }

    // Gap: an earlier transmission was lost; go-back-N discards
    // out-of-window arrivals and NACKs.
    ++_outOfWindow;
    lane.down->cancelReservation();
    schedule(_delay, [this, li] { onNack(li); });
}

void
Channel::onAck(std::size_t li, std::uint64_t lseq)
{
    LaneState &ls = _ls[li];
    // Entries are in lseq order: the acknowledged ones are a prefix.
    const auto acked =
        std::find_if(ls.unacked.begin(), ls.unacked.end(),
                     [lseq](const TxEntry &e) { return e.lseq > lseq; });
    const auto popped = static_cast<std::size_t>(acked - ls.unacked.begin());
    if (popped == 0)
        return;
    ls.unacked.erase(ls.unacked.begin(), acked);
    ls.resend = ls.resend > popped ? ls.resend - popped : 0;
    ls.backoff = 0;
    if (ls.unacked.empty())
        cancelTimer(li);
    else
        armTimer(li);
    pump();
}

void
Channel::onNack(std::size_t li)
{
    LaneState &ls = _ls[li];
    if (ls.unacked.empty())
        return;
    // One go-back per round trip: a burst of in-flight packets behind a
    // single corruption produces a NACK each, but only the first may
    // rewind the resend pointer — otherwise the head packet would be
    // retransmitted once per NACK and spuriously burn its retry budget.
    if (now() < ls.nackMuteUntil)
        return;
    ls.nackMuteUntil =
        now() + serTicks(ls.unacked.front().wireBytes, _bw) + 2 * _delay;
    ls.resend = 0;
    armTimer(li);
    pump();
}

void
Channel::armTimer(std::size_t li)
{
    LaneState &ls = _ls[li];
    const std::uint64_t gen = ++ls.timerGen;
    const std::uint32_t shift =
        std::min(ls.backoff, _inj.spec().backoffCap);
    schedule(_inj.spec().retryTimeout << shift, [this, li, gen] {
        LaneState &l = _ls[li];
        if (l.timerGen != gen || l.unacked.empty())
            return;
        // Timeout: exponential backoff, then go back to the oldest
        // unacknowledged packet.
        l.backoff = std::min(l.backoff + 1, _inj.spec().backoffCap);
        l.resend = 0;
        armTimer(li);
        pump();
    });
}

void
Channel::cancelTimer(std::size_t li)
{
    LaneState &ls = _ls[li];
    ++ls.timerGen;
    ls.backoff = 0;
}

void
Channel::failEntry(std::size_t li, std::size_t pos)
{
    LaneState &ls = _ls[li];
    const TxEntry e = ls.unacked[pos];
    TG_AUDIT(e.h != kNoPacket, "%s: lane %zu fails accepted sequence %llu",
             _name.c_str(), li, (unsigned long long)e.lseq);
    ls.unacked.erase(ls.unacked.begin() +
                     static_cast<std::ptrdiff_t>(pos));
    if (ls.resend > pos)
        --ls.resend;
    // The give-up notice on the control lines: the receiver moves past
    // this sequence number, so a copy still on the wire lands as a
    // duplicate and the lane's later packets are in window.
    ls.rxExpected = std::max(ls.rxExpected, e.lseq + 1);
    if (ls.unacked.empty())
        cancelTimer(li);
    failPacket(_arena->release(e.h));
}

void
Channel::failPacket(Packet &&pkt)
{
    ++_wireFailures;
    if (_failHandler) {
        // Deferred: the handler drains counters and may wake programs
        // that inject new traffic, which must not re-enter a pump that is
        // mid-iteration.
        schedule(0, [this, p = std::move(pkt)]() mutable {
            _failHandler(std::move(p));
        });
    }
}

void
Channel::failFast()
{
    // The link has been administratively down past the deadline: fail
    // everything queued or awaiting acknowledgement so in-flight
    // operations complete with a visible error instead of waiting out
    // the outage.
    for (std::size_t li = 0; li < _lanes.size(); ++li) {
        LaneState &ls = _ls[li];
        // Entries the receiver already accepted (a prefix) wait for
        // their cumulative ACK.
        std::size_t accepted = 0;
        while (accepted < ls.unacked.size() &&
               ls.unacked[accepted].lseq < ls.rxExpected)
            ++accepted;
        while (ls.unacked.size() > accepted)
            failEntry(li, accepted);
        ls.resend = 0;
        while (!_lanes[li].up->empty())
            failPacket(_lanes[li].up->pop());
    }
}

double
Channel::utilization() const
{
    Tick t = now();
    return t == 0 ? 0.0
                  : static_cast<double>(_busyTicks) / static_cast<double>(t);
}

} // namespace tg::net
