#include "core/wire_codecs.hpp"

#include <optional>
#include <string>
#include <vector>

#include "fault/heartbeat.hpp"
#include "net/transport.hpp"
#include "net/wire_format.hpp"
#include "recovery/resync.hpp"
#include "sync/clock.hpp"
#include "sync/wire.hpp"

namespace mvc::core {

namespace {

using Writer = bytes::Writer<std::byte>;
using bytes::Reader;

/// Smallest encodings of the list elements below, for Reader::count:
/// an AvatarWire with empty bytes and relay list, and a ResyncEntry with
/// empty bytes.
constexpr std::size_t kMinAvatarBytes = 4 + 4 + 1 + 4 + 8 + 4 + 4;
constexpr std::size_t kMinResyncEntryBytes = 4 + 4 + 8 + 4;

std::vector<std::uint8_t> get_block(Reader& r) {
    const auto b = r.bytes(r.u32());
    return {b.begin(), b.end()};
}

void put_avatar(Writer& w, const sync::AvatarWire& a) {
    w.u32(a.participant.value());
    w.u32(a.source_room.value());
    w.u8(a.keyframe ? 1 : 0);
    w.u32(a.seq);
    w.i64(a.captured_at.nanos());
    w.prefixed(a.bytes);
    w.u32(static_cast<std::uint32_t>(a.relay_to.size()));
    for (const std::uint32_t n : a.relay_to) w.u32(n);
}

sync::AvatarWire get_avatar(Reader& r) {
    sync::AvatarWire a;
    a.participant = ParticipantId{r.u32()};
    a.source_room = ClassroomId{r.u32()};
    a.keyframe = r.u8() != 0;
    a.seq = r.u32();
    a.captured_at = sim::Time::ns(r.i64());
    a.bytes = get_block(r);
    const auto relays = r.count(sizeof(std::uint32_t));
    a.relay_to.reserve(relays);
    for (std::uint32_t i = 0; i < relays; ++i) a.relay_to.push_back(r.u32());
    return a;
}

/// Register T under `tag` with a field-wise put(Writer&, const T&) and
/// get(Reader&) -> T.
template <class T, class Put, class Get>
void add(net::WireCodecs& codecs, std::uint16_t tag, Put put, Get get) {
    codecs.register_codec<T>(
        tag, [put](const net::Payload& p, Writer& w) { put(w, p.get<T>()); },
        [get](Reader& r) -> std::optional<net::Payload> { return net::Payload{get(r)}; });
}

}  // namespace

void register_wire_codecs() {
    net::WireCodecs& codecs = net::WireCodecs::instance();

    add<sync::AvatarWire>(codecs, kTagAvatar, put_avatar, get_avatar);

    add<sync::AvatarBatchWire>(
        codecs, kTagAvatarBatch,
        [](Writer& w, const sync::AvatarBatchWire& batch) {
            w.u32(static_cast<std::uint32_t>(batch.updates.size()));
            for (const sync::AvatarWire& u : batch.updates) put_avatar(w, u);
        },
        [](Reader& r) {
            sync::AvatarBatchWire batch;
            const auto count = r.count(kMinAvatarBytes);
            batch.updates.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) batch.updates.push_back(get_avatar(r));
            return batch;
        });

    add<fault::HeartbeatWire>(
        codecs, kTagHeartbeat,
        [](Writer& w, const fault::HeartbeatWire& hb) { w.u64(hb.seq); },
        [](Reader& r) { return fault::HeartbeatWire{r.u64()}; });

    sync::ClockSyncSession::register_wire_codecs(codecs, kTagClockRequest,
                                                 kTagClockReply);

    add<recovery::ResyncRequest>(
        codecs, kTagResyncRequest,
        [](Writer& w, const recovery::ResyncRequest& req) {
            w.u64(req.nonce);
            w.i64(req.requested_at.nanos());
        },
        [](Reader& r) {
            recovery::ResyncRequest req;
            req.nonce = r.u64();
            req.requested_at = sim::Time::ns(r.i64());
            return req;
        });

    add<recovery::ResyncSnapshot>(
        codecs, kTagResyncSnapshot,
        [](Writer& w, const recovery::ResyncSnapshot& snap) {
            w.u64(snap.nonce);
            w.i64(snap.served_at.nanos());
            w.u32(static_cast<std::uint32_t>(snap.entries.size()));
            for (const recovery::ResyncEntry& e : snap.entries) {
                w.u32(e.participant.value());
                w.u32(e.source_room.value());
                w.i64(e.captured_at.nanos());
                w.prefixed(e.bytes);
            }
        },
        [](Reader& r) {
            recovery::ResyncSnapshot snap;
            snap.nonce = r.u64();
            snap.served_at = sim::Time::ns(r.i64());
            const auto count = r.count(kMinResyncEntryBytes);
            snap.entries.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                recovery::ResyncEntry e;
                e.participant = ParticipantId{r.u32()};
                e.source_room = ClassroomId{r.u32()};
                e.captured_at = sim::Time::ns(r.i64());
                e.bytes = get_block(r);
                snap.entries.push_back(std::move(e));
            }
            return snap;
        });

    net::ReliableChannel::register_wire_codecs(codecs, kTagArqData);

    add<std::uint64_t>(
        codecs, kTagSeq, [](Writer& w, std::uint64_t seq) { w.u64(seq); },
        [](Reader& r) { return r.u64(); });

    add<std::string>(
        codecs, kTagText, [](Writer& w, const std::string& s) { w.prefixed(s); },
        [](Reader& r) { return r.str(r.u32()); });
}

}  // namespace mvc::core
