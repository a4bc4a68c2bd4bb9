#include "recovery/checkpoint.hpp"

#include "common/bytes.hpp"

namespace mvc::recovery {

namespace {

using Writer = bytes::Writer<std::uint8_t>;
using bytes::Reader;

// Smallest encoding of each list element (empty strings and byte blocks),
// for Reader::count.
constexpr std::size_t kPoseBytes = 7 * 8;
constexpr std::size_t kSeatBytes = 4 + 4;
constexpr std::size_t kReservationBytes = 4 + 4;
constexpr std::size_t kMemberBytes = 4 + 4 + 1 + 1 + 1 + 4 + 4 + 1;
constexpr std::size_t kContentBytes = 4 + 4 + 1 + 1 + 4 + 8 + 8 + 1 + 4 + 1;
constexpr std::size_t kReplicaBytes = 4 + 4 + 1 + 1 + 4 + 2 * kPoseBytes + 8 + 4;

void put_pose(Writer& w, const math::Pose& p) {
    w.f64(p.position.x);
    w.f64(p.position.y);
    w.f64(p.position.z);
    w.f64(p.orientation.w);
    w.f64(p.orientation.x);
    w.f64(p.orientation.y);
    w.f64(p.orientation.z);
}

math::Pose get_pose(Reader& r) {
    math::Pose p;
    p.position.x = r.f64();
    p.position.y = r.f64();
    p.position.z = r.f64();
    p.orientation.w = r.f64();
    p.orientation.x = r.f64();
    p.orientation.y = r.f64();
    p.orientation.z = r.f64();
    return p;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const ClassroomCheckpoint& cp) {
    std::vector<std::uint8_t> out;
    Writer w{out};
    w.u32(kCheckpointMagic);
    w.u16(kCheckpointVersion);
    w.prefixed(cp.node);
    w.u64(cp.sequence);
    w.i64(cp.taken_at_ns);

    w.u32(static_cast<std::uint32_t>(cp.seats.size()));
    for (const auto& s : cp.seats) {
        w.u32(s.seat_index);
        w.u32(s.occupant.value());
    }
    w.u32(static_cast<std::uint32_t>(cp.reservations.size()));
    for (const auto& r : cp.reservations) {
        w.u32(r.participant.value());
        w.u32(r.seat_index);
    }
    w.u32(static_cast<std::uint32_t>(cp.members.size()));
    for (const auto& m : cp.members) {
        w.u32(m.id.value());
        w.prefixed(m.name);
        w.u8(m.role);
        w.u8(m.device);
        w.u8(m.physical ? 1 : 0);
        w.u32(m.room.value());
        w.u32(m.seat_index);
        w.u8(m.region);
    }
    w.u32(static_cast<std::uint32_t>(cp.content.size()));
    for (const auto& c : cp.content) {
        w.u32(c.id.value());
        w.u32(c.creator.value());
        w.u8(c.kind);
        w.u8(c.scope);
        w.prefixed(c.title);
        w.u64(c.size_bytes);
        w.i64(c.created_at_ns);
        w.u8(c.anchored_to_person ? 1 : 0);
        w.u32(c.anchor_person.value());
        w.u8(c.anchor_consent ? 1 : 0);
    }
    w.u32(static_cast<std::uint32_t>(cp.replicas.size()));
    for (const auto& rr : cp.replicas) {
        w.u32(rr.participant.value());
        w.u32(rr.source_room.value());
        w.u8(rr.anchored ? 1 : 0);
        w.u8(rr.has_seat ? 1 : 0);
        w.u32(rr.seat_index);
        put_pose(w, rr.source_anchor);
        put_pose(w, rr.seat_pose);
        w.i64(rr.captured_at_ns);
        w.prefixed(rr.reference);
    }
    w.u32(bytes::crc32(out));
    return out;
}

ClassroomCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 10) throw CheckpointError("checkpoint: too short");
    const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 4);
    if (bytes::crc32(body) != Reader{bytes.last(4)}.u32())
        throw CheckpointError("checkpoint: checksum mismatch");

    Reader r{body};
    if (r.u32() != kCheckpointMagic) throw CheckpointError("checkpoint: bad magic");
    if (r.u16() != kCheckpointVersion) throw CheckpointError("checkpoint: unknown version");

    ClassroomCheckpoint cp;
    cp.node = r.str(r.u32());
    cp.sequence = r.u64();
    cp.taken_at_ns = r.i64();

    for (std::uint32_t i = 0, n = r.count(kSeatBytes); i < n; ++i) {
        SeatRecord s;
        s.seat_index = r.u32();
        s.occupant = ParticipantId{r.u32()};
        cp.seats.push_back(s);
    }
    for (std::uint32_t i = 0, n = r.count(kReservationBytes); i < n; ++i) {
        ReservationRecord res;
        res.participant = ParticipantId{r.u32()};
        res.seat_index = r.u32();
        cp.reservations.push_back(res);
    }
    for (std::uint32_t i = 0, n = r.count(kMemberBytes); i < n; ++i) {
        MemberRecord m;
        m.id = ParticipantId{r.u32()};
        m.name = r.str(r.u32());
        m.role = r.u8();
        m.device = r.u8();
        m.physical = r.u8() != 0;
        m.room = ClassroomId{r.u32()};
        m.seat_index = r.u32();
        m.region = r.u8();
        cp.members.push_back(std::move(m));
    }
    for (std::uint32_t i = 0, n = r.count(kContentBytes); i < n; ++i) {
        ContentRecord c;
        c.id = ContentId{r.u32()};
        c.creator = ParticipantId{r.u32()};
        c.kind = r.u8();
        c.scope = r.u8();
        c.title = r.str(r.u32());
        c.size_bytes = r.u64();
        c.created_at_ns = r.i64();
        c.anchored_to_person = r.u8() != 0;
        c.anchor_person = ParticipantId{r.u32()};
        c.anchor_consent = r.u8() != 0;
        cp.content.push_back(std::move(c));
    }
    for (std::uint32_t i = 0, n = r.count(kReplicaBytes); i < n; ++i) {
        ReplicaRecord rr;
        rr.participant = ParticipantId{r.u32()};
        rr.source_room = ClassroomId{r.u32()};
        rr.anchored = r.u8() != 0;
        rr.has_seat = r.u8() != 0;
        rr.seat_index = r.u32();
        rr.source_anchor = get_pose(r);
        rr.seat_pose = get_pose(r);
        rr.captured_at_ns = r.i64();
        const auto reference = r.bytes(r.u32());
        rr.reference.assign(reference.begin(), reference.end());
        cp.replicas.push_back(std::move(rr));
    }
    if (!r.ok()) throw CheckpointError("checkpoint: truncated body");
    if (!r.done()) throw CheckpointError("checkpoint: trailing bytes");
    return cp;
}

}  // namespace mvc::recovery
