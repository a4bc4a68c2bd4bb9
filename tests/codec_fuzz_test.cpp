// Seeded, structure-aware fuzzing of every decoder that reads bytes from
// outside the process: the datagram payload codecs behind wire tags 1-10,
// the checkpoint codec, trace chunk payloads, and AvatarCodec full and delta
// bodies. Each decoder gets valid seed encodings and, per seed, every
// truncation, random corruptions from scenario::mutate_trace, and a forged
// 0xFFFFFFFF / 0x0FFFFFFF count (as a little-endian u32 and as a varint)
// written at every offset. A mutated body is re-sealed (frame CRC and body
// length, checkpoint CRC, trace chunk header and CRC) so the corruption
// reaches the decoder instead of stopping at a checksum.
//
// Every mutant must end in a successful decode or the format's typed
// rejection, never an escaped exception, and one decode may allocate at
// most kAllocPerInputByte bytes per input byte plus kAllocSlack. This
// executable replaces the global operator new to count the bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "common/bytes.hpp"
#include "core/wire_codecs.hpp"
#include "fault/heartbeat.hpp"
#include "net/wire_format.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/resync.hpp"
#include "replay/trace.hpp"
#include "scenario/fuzz.hpp"
#include "sync/wire.hpp"

namespace {

// Bytes requested from operator new while armed. The tests are single
// threaded; the atomics only keep the hook well-defined if gtest is not.
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocated{0};

void* counted_alloc(std::size_t size) {
    if (g_armed.load(std::memory_order_relaxed))
        g_allocated.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mvc {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Allocation bound per decode. Decoded structures are larger than their
/// encodings (a 5-byte trace avatar becomes a 48-byte AvatarUpdate, a map
/// node per name-table entry), and the count is cumulative over the decode.
constexpr std::size_t kAllocPerInputByte = 16;
constexpr std::size_t kAllocSlack = 4 * 1024;

/// Random mutate_trace corruptions per seed.
constexpr std::uint64_t kRandomMutants = 256;

struct Tally {
    std::size_t accepted{0};
    std::size_t rejected{0};
};

/// Run one decode of `input_bytes` input bytes. `decode` returns true for a
/// successful decode and false for the format's typed rejection (it catches
/// the format's own exception type itself); anything it throws is a failure.
template <class Decode>
void check_decode(const std::string& what, std::size_t input_bytes, Decode&& decode,
                  Tally& tally) {
    g_allocated.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    bool accepted = false;
    try {
        accepted = decode();
    } catch (const std::exception& e) {
        g_armed.store(false, std::memory_order_relaxed);
        ADD_FAILURE() << what << ": exception escaped the decoder: " << e.what();
        return;
    }
    g_armed.store(false, std::memory_order_relaxed);
    ++(accepted ? tally.accepted : tally.rejected);
    const std::size_t allocated = g_allocated.load(std::memory_order_relaxed);
    EXPECT_LE(allocated, kAllocPerInputByte * input_bytes + kAllocSlack)
        << what << ": " << input_bytes << " input bytes";
}

/// Every mutant of `seed`: each truncation, kRandomMutants mutate_trace
/// corruptions, and each forged count pattern written at each offset.
template <class Fn>
void for_each_mutant(const Bytes& seed, std::uint64_t salt, Fn&& fn) {
    for (std::size_t n = 0; n < seed.size(); ++n)
        fn("truncated to " + std::to_string(n), Bytes{seed.begin(), seed.begin() + n});
    for (std::uint64_t i = 0; i < kRandomMutants; ++i)
        fn("mutate_trace salt " + std::to_string(salt + i),
           scenario::mutate_trace(seed, salt + i));
    const std::array<Bytes, 4> counts{
        Bytes{0xFF, 0xFF, 0xFF, 0xFF},        // u32 0xFFFFFFFF
        Bytes{0xFF, 0xFF, 0xFF, 0x0F},        // u32 0x0FFFFFFF
        Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0x0F},  // varint 0xFFFFFFFF
        Bytes{0xFF, 0xFF, 0xFF, 0x7F},        // varint 0x0FFFFFFF
    };
    for (std::size_t c = 0; c < counts.size(); ++c) {
        for (std::size_t at = 0; at + counts[c].size() <= seed.size(); ++at) {
            Bytes m = seed;
            std::copy(counts[c].begin(), counts[c].end(),
                      m.begin() + static_cast<std::ptrdiff_t>(at));
            fn("count pattern " + std::to_string(c) + " at " + std::to_string(at),
               std::move(m));
        }
    }
}

// ------------------------------------------------------------- wire tags

/// Fixed header plus the length field of an empty flow label: where the
/// u32 body length sits in a frame whose flow is "".
constexpr std::size_t kBodyLenAt = 40 + 2;

net::Packet packet_of(net::Payload payload) {
    net::Packet p;
    p.id = 5;
    p.src = 1;
    p.dst = 2;
    p.size_bytes = 64;
    p.payload = std::move(payload);
    return p;
}

/// The payload body encode_frame produces for `payload`.
Bytes body_of(net::Payload payload) {
    const auto frame =
        net::encode_frame(packet_of(std::move(payload)), net::Priority::Realtime);
    EXPECT_TRUE(frame.has_value());
    const auto* b = reinterpret_cast<const std::uint8_t*>(frame->data());
    return Bytes{b + kBodyLenAt + 4, b + frame->size() - 4};
}

/// A well-formed frame (valid length and CRC) carrying `body` under `tag`.
std::vector<std::byte> frame_around(std::uint16_t tag, std::span<const std::uint8_t> body) {
    std::vector<std::byte> frame =
        *net::encode_frame(packet_of(net::Payload{}), net::Priority::Realtime);
    frame.resize(kBodyLenAt);
    frame[6] = static_cast<std::byte>(tag & 0xFFU);
    frame[7] = static_cast<std::byte>(tag >> 8);
    bytes::Writer w{frame};
    w.prefixed(body);
    w.u32(bytes::crc32(frame));
    return frame;
}

sync::AvatarWire sample_avatar_wire(std::uint32_t who, Bytes state, bool keyframe) {
    sync::AvatarWire w;
    w.participant = ParticipantId{who};
    w.source_room = ClassroomId{2};
    w.keyframe = keyframe;
    w.bytes = std::move(state);
    w.captured_at = sim::Time::ms(40 + who);
    w.relay_to = {3, 4};
    w.seq = who * 10;
    return w;
}

avatar::AvatarState sample_state(std::uint32_t who) {
    avatar::AvatarState s;
    s.participant = ParticipantId{who};
    s.root.pose = {{3.2, 0.0, -7.5}, math::Quat::from_yaw_pitch_roll(0.4, 0.1, 0.0)};
    s.root.linear_velocity = {0.5, 0.0, -0.2};
    s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0}, s.root.pose.orientation};
    s.expression.assign(avatar::kExpressionChannels, 0.25);
    s.viseme = 3;
    s.captured_at = sim::Time::ms(1234.0);
    return s;
}

/// A state differing from sample_state in every delta group.
avatar::AvatarState moved_state(std::uint32_t who) {
    avatar::AvatarState s = sample_state(who);
    s.root.pose.position += math::Vec3{0.5, 0.1, 0.2};
    s.root.pose.orientation = math::Quat::from_yaw_pitch_roll(1.0, 0.2, 0.1);
    s.root.linear_velocity = {1.0, 0.5, 0.0};
    s.root.angular_velocity = {0.0, 1.0, 0.0};
    s.body.head.position += math::Vec3{0.3, 0, 0};
    s.body.left_hand.position += math::Vec3{0.3, 0.2, 0};
    s.body.right_hand.position += math::Vec3{-0.3, 0.2, 0};
    s.expression[2] = 0.9;
    s.viseme = 8;
    return s;
}

struct TagSeed {
    std::uint16_t tag;
    Bytes body;
};

std::vector<TagSeed> wire_seeds() {
    const avatar::AvatarCodec codec;
    const Bytes full = codec.encode_full(sample_state(7));
    const Bytes delta = codec.encode_delta(sample_state(7), moved_state(7));

    sync::AvatarBatchWire batch;
    batch.updates.push_back(sample_avatar_wire(7, full, true));
    batch.updates.push_back(sample_avatar_wire(8, delta, false));
    batch.updates.push_back(sample_avatar_wire(9, {}, false));

    recovery::ResyncSnapshot snap;
    snap.nonce = 99;
    snap.served_at = sim::Time::ms(5);
    snap.entries.push_back({ParticipantId{7}, ClassroomId{2}, sim::Time::ms(3), full});
    snap.entries.push_back({ParticipantId{8}, ClassroomId{2}, sim::Time::ms(4), {}});

    const Bytes avatar_body = body_of(net::Payload{sample_avatar_wire(7, full, true)});

    // Clock-sync and ARQ payload types are private to their protocols, so
    // their bodies are spelled out: t0 (i64); t0, t_server (i64 x2); and
    // seq (u64), first_sent (i64), transmission (i32), then a nested
    // tag (u16) + length (u32) + AvatarWire body.
    Bytes clock_request;
    bytes::Writer{clock_request}.i64(123456);
    Bytes clock_reply;
    bytes::Writer reply{clock_reply};
    reply.i64(123456);
    reply.i64(987654);
    Bytes arq;
    bytes::Writer a{arq};
    a.u64(17);
    a.i64(5000);
    a.i32(2);
    a.u16(core::kTagAvatar);
    a.prefixed(avatar_body);

    return {
        {core::kTagAvatar, avatar_body},
        {core::kTagAvatarBatch, body_of(net::Payload{batch})},
        {core::kTagHeartbeat, body_of(net::Payload{fault::HeartbeatWire{42}})},
        {core::kTagClockRequest, clock_request},
        {core::kTagClockReply, clock_reply},
        {core::kTagResyncRequest,
         body_of(net::Payload{recovery::ResyncRequest{77, sim::Time::ms(9)}})},
        {core::kTagResyncSnapshot, body_of(net::Payload{snap})},
        {core::kTagArqData, arq},
        {core::kTagSeq, body_of(net::Payload{std::uint64_t{31337}})},
        {core::kTagText, body_of(net::Payload{std::string{"hello fuzz"}})},
    };
}

TEST(CodecFuzzTest, CountingHookSeesDecoderAllocations) {
    // The allocation bound is only as good as the hook: a decode that
    // builds a 1 MiB vector must register at least that much.
    Tally tally;
    std::size_t seen = 0;
    check_decode(
        "hook", 1 << 20,
        [&] {
            const Bytes big(1 << 20, 0x5A);
            seen = g_allocated.load();
            return !big.empty();
        },
        tally);
    EXPECT_GE(seen, std::size_t{1} << 20);
}

TEST(CodecFuzzTest, EveryWireTagRejectsOrDecodes) {
    core::register_wire_codecs();
    const std::vector<TagSeed> seeds = wire_seeds();
    ASSERT_EQ(seeds.size(), 10u);
    for (const TagSeed& seed : seeds) {
        ASSERT_NE(net::WireCodecs::instance().decoder(seed.tag), nullptr) << seed.tag;
        // The seed itself decodes, and a body with a byte left over does not.
        ASSERT_TRUE(net::decode_frame(frame_around(seed.tag, seed.body)).has_value())
            << "tag " << seed.tag;
        Bytes padded = seed.body;
        padded.push_back(0);
        net::FrameDefect defect = net::FrameDefect::None;
        EXPECT_FALSE(net::decode_frame(frame_around(seed.tag, padded), defect).has_value());
        EXPECT_EQ(defect, net::FrameDefect::BadPayload) << "tag " << seed.tag;
        Tally tally;
        for_each_mutant(seed.body, 1000 * seed.tag, [&](const std::string& how, Bytes body) {
            const std::vector<std::byte> frame = frame_around(seed.tag, body);
            const std::string what = "tag " + std::to_string(seed.tag) + " " + how;
            check_decode(
                what, frame.size(),
                [&] {
                    net::FrameDefect defect = net::FrameDefect::None;
                    const bool ok = net::decode_frame(frame, defect).has_value();
                    // A sealed frame can only fail in its payload body.
                    EXPECT_EQ(defect, ok ? net::FrameDefect::None : net::FrameDefect::BadPayload)
                        << what;
                    return ok;
                },
                tally);
        });
        EXPECT_GT(tally.rejected, 0u) << "tag " << seed.tag;
    }
}

// ------------------------------------------------------------ checkpoint

recovery::ClassroomCheckpoint sample_checkpoint() {
    const avatar::AvatarCodec codec;
    recovery::ClassroomCheckpoint cp;
    cp.node = "edge-cwb";
    cp.sequence = 12;
    cp.taken_at_ns = 5'000'000'000;
    cp.seats = {{0, ParticipantId{1}}, {3, ParticipantId{2}}};
    cp.reservations = {{ParticipantId{9}, 5}};
    recovery::MemberRecord local;
    local.id = ParticipantId{1};
    local.name = "ana";
    local.physical = true;
    local.room = ClassroomId{1};
    recovery::MemberRecord remote;
    remote.id = ParticipantId{7};
    remote.name = "remote";
    remote.region = 2;
    cp.members = {local, remote};
    recovery::ContentRecord slides;
    slides.id = ContentId{4};
    slides.creator = ParticipantId{1};
    slides.title = "slides";
    slides.size_bytes = 4096;
    cp.content = {slides};
    recovery::ReplicaRecord rr;
    rr.participant = ParticipantId{7};
    rr.source_room = ClassroomId{2};
    rr.anchored = true;
    rr.reference = codec.encode_full(sample_state(7));
    cp.replicas = {rr};
    return cp;
}

/// Checkpoint bytes with a fresh trailing CRC over `body`.
Bytes seal_checkpoint(Bytes body) {
    const std::uint32_t crc = bytes::crc32(body);
    bytes::Writer{body}.u32(crc);
    return body;
}

TEST(CodecFuzzTest, CheckpointRejectsOrDecodes) {
    const Bytes encoded = recovery::encode_checkpoint(sample_checkpoint());
    const Bytes seed{encoded.begin(), encoded.end() - 4};
    ASSERT_EQ(seal_checkpoint(seed), encoded);
    Tally tally;
    for_each_mutant(seed, 1, [&](const std::string& how, Bytes body) {
        const Bytes sealed = seal_checkpoint(std::move(body));
        check_decode(
            "checkpoint " + how, sealed.size(),
            [&] {
                try {
                    (void)recovery::decode_checkpoint(sealed);
                    return true;
                } catch (const recovery::CheckpointError&) {
                    return false;
                }
            },
            tally);
    });
    EXPECT_GT(tally.rejected, 0u);
}

// ------------------------------------------------------------ trace chunks

constexpr std::size_t kSeedRecords = 6;

Bytes sample_chunk_payload() {
    const avatar::AvatarCodec codec;
    replay::WireRecord wire;
    wire.t_ns = 1000;
    wire.flow = 1;
    wire.src = 2;
    wire.dst = 3;
    wire.size_bytes = 120;
    wire.avatars.push_back({7, 2, true, 900, codec.encode_full(sample_state(7))});
    wire.avatars.push_back({8, 2, false, 950, {1, 2, 3}});
    Bytes payload;
    for (const replay::Record& r : std::vector<replay::Record>{
             replay::FlowDef{1, "avatar"},
             replay::NodeDef{0, 2, "edge-cwb"},
             replay::SubjectDef{1, "sim"},
             wire,
             replay::HashRecord{2000, 1, 1, 0xABCDEF},
             replay::CheckpointRecord{3000, "edge-cwb", {9, 8, 7, 6}},
         })
        replay::encode_record(payload, r);
    return payload;
}

/// A whole trace (header + one chunk with a valid header and CRC) around
/// `payload`, which claims kSeedRecords records.
Bytes seal_chunk(const Bytes& payload) {
    replay::MemorySink sink;
    replay::TraceWriter writer{sink, 3, "fuzz", 0};
    writer.append(payload, kSeedRecords, 0, false);
    writer.finish();
    return sink.take();
}

TEST(CodecFuzzTest, TraceChunkPayloadsRejectOrDecode) {
    const Bytes seed = sample_chunk_payload();
    ASSERT_TRUE(replay::Trace::verify(seal_chunk(seed)).ok);
    Tally tally;
    for_each_mutant(seed, 7, [&](const std::string& how, Bytes payload) {
        const Bytes trace = seal_chunk(payload);
        const std::string what = "trace " + how;
        check_decode(
            what, trace.size(),
            [&] {
                const bool verified = replay::Trace::verify(trace).ok;
                try {
                    const replay::Trace parsed = replay::Trace::parse(trace);
                    replay::Record record;
                    auto cursor = parsed.cursor();
                    while (cursor.next(record)) {
                    }
                    EXPECT_TRUE(verified) << what << ": parse accepted what verify rejects";
                    return true;
                } catch (const replay::TraceError&) {
                    EXPECT_FALSE(verified) << what << ": verify accepted what parse rejects";
                    return false;
                }
            },
            tally);
    });
    EXPECT_GT(tally.rejected, 0u);
}

// ----------------------------------------------------------- avatar codec

TEST(CodecFuzzTest, AvatarFullAndDeltaBodiesRejectOrDecode) {
    const avatar::AvatarCodec codec;
    const avatar::AvatarState ref = sample_state(7);
    const Bytes full = codec.encode_full(ref);
    const Bytes delta = codec.encode_delta(ref, moved_state(7));
    Tally tally;
    for_each_mutant(full, 11, [&](const std::string& how, Bytes body) {
        check_decode(
            "full " + how, body.size(),
            [&] { return codec.decode_full(body).has_value(); }, tally);
    });
    for_each_mutant(delta, 13, [&](const std::string& how, Bytes body) {
        check_decode(
            "delta " + how, body.size(),
            [&] { return codec.decode_delta(ref, body).has_value(); }, tally);
    });
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.accepted, 0u);
}

}  // namespace
}  // namespace mvc
