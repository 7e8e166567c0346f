/**
 * @file
 * Channel implementation: serialization, propagation,
 * round-robin VC arbitration and the go-back-N reliability layer.
 */

#include "net/link.hpp"

#include <algorithm>
#include <cmath>

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
    for (auto &lane : _lanes) {
        TG_AUDIT(&lane.up->arena() == _arena &&
                     &lane.down->arena() == _arena,
                 "%s: lanes span different packet arenas", _name.c_str());
        lane.up->onData([this] { pump(); });
        lane.down->onSpace([this] { pump(); });
    }
    _traceComp = sys.tracer().registerComponent(name);
}

Channel::Channel(System &sys, const std::string &name,
                 BoundedQueue &upstream, BoundedQueue &downstream,
                 double bytes_per_tick, Tick delay)
    : Channel(sys, name, std::vector<Lane>{Lane{&upstream, &downstream}},
              bytes_per_tick, delay)
{
}

Tick
Channel::serTicks(std::uint32_t wire_bytes) const
{
    // Bandwidth is configured in (fractional) bytes per tick; ceil keeps
    // the serialization time integral and pessimistic, and IEEE division
    // of exact integers is bit-identical across platforms.
    // tglint: allow(tick-float)
    return static_cast<Tick>(
        std::ceil(static_cast<double>(wire_bytes) / _bw));
}

void
Channel::pump()
{
    if (_reliable) {
        pumpReliable();
        return;
    }

    if (_busy)
        return;

    // Round-robin over lanes: pick the first one that has a packet and a
    // reservable downstream slot.  Lanes are independently buffered, so a
    // blocked VC never stalls the other — the property the dateline
    // deadlock-avoidance scheme needs.
    std::size_t li = _lanes.size();
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const std::size_t c = (_rr + i) % _lanes.size();
        Lane &cand = _lanes[c];
        if (!cand.up->empty() && cand.down->reserve()) {
            li = c;
            _rr = (c + 1) % _lanes.size();
            break;
        }
    }
    if (li == _lanes.size())
        return;

    // Claim the wire before popping: the pop fires the upstream onSpace
    // listeners, which can re-enter pump() and must find the server busy
    // (a double-send here would overwrite _wireFreeAt and break the
    // monotonicity of the pending-arrival ring).
    _busy = true;

    // Zero-copy transfer: the packet stays in the arena; only its handle
    // moves into the pending-arrival ring.
    const PacketHandle h = _lanes[li].up->popHandle();
    const std::uint32_t bytes =
        config().packetHeaderBytes + _arena->payloadBytes(h);
    const Tick ser = serTicks(bytes);
    ++_packets;
    _bytes += bytes;
    _busyTicks += ser;

    _sys.tracer().record(_arena->traceId(h), trace::Span::LinkTx, now(),
                         _traceComp, ser);
    // The wire frees after serialization; the packet lands after
    // serialization + propagation delay.  Both are processed by the one
    // armed batch event (onBatchTick) instead of per-packet closures.
    _wireFreeAt = now() + ser;
    _pending.push_back(PendingArrival{now() + ser + _delay, li, h});
    armAt(_wireFreeAt);
}

void
Channel::armAt(Tick t)
{
    // Already armed at or before t: that firing will re-arm as needed.
    if (_armedFor <= t)
        return;
    TG_AUDIT(t >= now(), "%s: batch event armed in the past (t=%llu)",
             _name.c_str(), (unsigned long long)t);
    _armedFor = t;
    schedule(t - now(), [this] { onBatchTick(); });
}

void
Channel::rearm()
{
    Tick next = _wireFreeAt;
    if (_pendingHead < _pending.size() && _pending[_pendingHead].at < next)
        next = _pending[_pendingHead].at;
    if (next != kMaxTick)
        armAt(next);
}

void
Channel::onBatchTick()
{
    const Tick t = now();
    if (t != _armedFor)
        return; // superseded by an earlier re-arm
    _armedFor = kMaxTick;

    if (_wireFreeAt == t) {
        _wireFreeAt = kMaxTick;
        _busy = false;
    }

    // Deliver (and thereby return credits for) every arrival due now —
    // the per-(link, tick) coalescing — before starting the next
    // transmission, so the pump decides against settled queue state.
    while (_pendingHead < _pending.size() &&
           _pending[_pendingHead].at == t) {
        const PendingArrival a = _pending[_pendingHead];
        ++_pendingHead;
        _sys.tracer().record(_arena->traceId(a.h), trace::Span::LinkRx, t,
                             _traceComp);
        _lanes[a.lane].down->pushReservedHandle(a.h);
    }
    if (_pendingHead == _pending.size()) {
        _pending.clear();
        _pendingHead = 0;
    }

    if (!_busy)
        pump();
    rearm();
}

// ---------------------------------------------------------------------
// Reliable (fault-model) path
// ---------------------------------------------------------------------

void
Channel::pumpReliable()
{
    if (_busy)
        return;

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

    // Fail entries whose retry budget is spent before committing any
    // downstream reservation to them.
    for (std::size_t li = 0; li < _lanes.size(); ++li) {
        LaneState &ls = _ls[li];
        while (ls.resend < ls.unacked.size() &&
               ls.unacked[ls.resend].tries > _inj.spec().maxRetries)
            failEntry(li, ls.resend);
    }

    // Round-robin lane selection: a lane is eligible when it has either a
    // retransmission pending or a fresh packet and window headroom, plus
    // a reservable downstream slot.
    std::size_t li = _lanes.size();
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const std::size_t c = (_rr + i) % _lanes.size();
        Lane &cand = _lanes[c];
        LaneState &ls = _ls[c];
        const bool retx = ls.resend < ls.unacked.size();
        const bool fresh = !cand.up->empty() &&
                           ls.unacked.size() < _inj.spec().windowPackets;
        if ((retx || fresh) && cand.down->reserve()) {
            li = c;
            _rr = (c + 1) % _lanes.size();
            break;
        }
    }
    if (li == _lanes.size())
        return;

    Lane &lane = _lanes[li];
    LaneState &ls = _ls[li];

    // Claim the wire before popping: the pop can re-enter pump() through
    // the queue's listener chain and must find the server busy.
    _busy = true;

    if (ls.resend == ls.unacked.size()) {
        TxEntry e;
        e.pkt = lane.up->pop();
        e.pkt.lseq = ls.txNext++;
        e.pkt.crc = e.pkt.computeCrc();
        const bool was_empty = ls.unacked.empty();
        ls.unacked.push_back(std::move(e));
        if (was_empty)
            armTimer(li);
    }

    TxEntry &e = ls.unacked[ls.resend];
    ++ls.resend;
    if (e.tries > 0)
        ++_retransmissions;
    ++e.tries;

    Packet wire = e.pkt;

    bool drop = false, dup = false;
    if (_inj.active()) {
        drop = _inj.dropNow();
        if (!drop && _inj.corruptNow()) {
            // Flip one wire bit across the address/value fields; the
            // stored CRC goes stale and the receiver detects it.
            const std::uint32_t bit = _inj.corruptBit(128);
            if (bit < 64)
                wire.value ^= Word(1) << bit;
            else
                wire.addr ^= Word(1) << (bit - 64);
        }
        if (!drop)
            dup = _inj.duplicateNow();
    }

    const std::uint32_t bytes = wire.wireBytes(config().packetHeaderBytes);
    const Tick ser = serTicks(bytes);

    ++_packets;
    _bytes += bytes;
    _busyTicks += ser;

    _sys.tracer().record(wire.traceId, trace::Span::LinkTx, now(),
                         _traceComp, ser);
    schedule(ser, [this] {
        _busy = false;
        pump();
    });
    if (drop) {
        // The transfer vanishes on the wire; the reserved slot frees when
        // the (never-arriving) packet would have landed.
        schedule(ser + _delay,
                 [down = lane.down] { down->cancelReservation(); });
    } else {
        schedule(ser + _delay,
                 [this, li, wire = std::move(wire), dup]() mutable {
                     deliver(li, std::move(wire), dup);
                 });
    }
}

void
Channel::deliver(std::size_t li, Packet &&wire, bool dup_follows)
{
    Lane &lane = _lanes[li];
    LaneState &ls = _ls[li];

    if (dup_follows) {
        // The duplicated copy lands right behind the original if the
        // downstream buffer can take it (otherwise the wire glitch is
        // absorbed by back-pressure).
        if (lane.down->reserve()) {
            schedule(1, [this, li, copy = wire]() mutable {
                deliver(li, std::move(copy), false);
            });
        }
    }

    if (wire.crc != wire.computeCrc()) {
        ++_crcErrors;
        lane.down->cancelReservation();
        schedule(_delay, [this, li] { onNack(li); });
        return;
    }

    if (wire.lseq == ls.rxExpected) {
        ++ls.rxExpected;
        const std::uint64_t acked = wire.lseq;
        _sys.tracer().record(wire.traceId, trace::Span::LinkRx, now(),
                             _traceComp);
        lane.down->pushReserved(std::move(wire));
        schedule(_delay, [this, li, acked] { onAck(li, acked); });
        return;
    }

    if (wire.lseq < ls.rxExpected) {
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
    std::size_t popped = 0;
    while (!ls.unacked.empty() && ls.unacked.front().pkt.lseq <= lseq) {
        ls.unacked.pop_front();
        ++popped;
    }
    if (popped == 0)
        return;
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
    const std::uint32_t head_bytes =
        ls.unacked.front().pkt.wireBytes(config().packetHeaderBytes);
    ls.nackMuteUntil = now() + serTicks(head_bytes) + 2 * _delay;
    ls.resend = 0;
    armTimer(li);
    pump();
}

void
Channel::armTimer(std::size_t li)
{
    LaneState &ls = _ls[li];
    const std::uint64_t gen = ++ls.timerGen;
    ls.timerArmed = true;
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
    ls.timerArmed = false;
    ls.backoff = 0;
}

void
Channel::failEntry(std::size_t li, std::size_t pos)
{
    LaneState &ls = _ls[li];
    Packet pkt = std::move(ls.unacked[pos].pkt);
    ls.unacked.erase(ls.unacked.begin() +
                     static_cast<std::ptrdiff_t>(pos));
    if (ls.resend > pos)
        --ls.resend;
    ++_wireFailures;
    warn("%s: giving up on %s after %u retries", _name.c_str(),
         pkt.toString().c_str(), _inj.spec().maxRetries);
    if (ls.unacked.empty())
        cancelTimer(li);
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
        while (!ls.unacked.empty())
            failEntry(li, 0);
        ls.resend = 0;
        while (!_lanes[li].up->empty()) {
            Packet pkt = _lanes[li].up->pop();
            ++_wireFailures;
            warn("%s: link down past deadline, failing %s", _name.c_str(),
                 pkt.toString().c_str());
            if (_failHandler) {
                schedule(0, [this, p = std::move(pkt)]() mutable {
                    _failHandler(std::move(p));
                });
            }
        }
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
