// Tests for the real-transport stack: the WallClock timer queue, the
// datagram wire format (round-trips, truncation, corruption, unknown tags,
// trailing garbage), the RealUdpBackend loopback path (echo, ingress loss,
// reliable delivery through the ARQ over an actual socket), and the
// open_channel spec validation shared by every backend.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "cloud/vr_client.hpp"
#include "common/bytes.hpp"
#include "core/wire_codecs.hpp"
#include "fault/heartbeat.hpp"
#include "net/real_udp.hpp"
#include "net/transport.hpp"
#include "net/wire_format.hpp"
#include "recovery/resync.hpp"
#include "sim/wall_clock.hpp"
#include "sync/replication.hpp"
#include "sync/wire.hpp"

namespace mvc::net {
namespace {

struct CodecGuard : ::testing::Test {
    CodecGuard() { core::register_wire_codecs(); }
};

// ---------------------------------------------------------------- WallClock

TEST(WallClockTest, TimeAdvancesFromZero) {
    sim::WallClock clock{7};
    const sim::Time t0 = clock.now();
    EXPECT_GE(t0.nanos(), 0);
    EXPECT_LT(t0.nanos(), sim::Time::seconds(1.0).nanos());  // fresh epoch
}

TEST(WallClockTest, PastDeadlinesFireInOrderOnRunDue) {
    sim::WallClock clock{7};
    std::vector<int> order;
    // Scheduling into the past is legal: the timer fires on the next
    // run_due(), in deadline order with FIFO tie-break among equals.
    clock.schedule_at(sim::Time::ns(5), [&] { order.push_back(1); });
    clock.schedule_at(sim::Time::ns(5), [&] { order.push_back(2); });
    clock.schedule_at(sim::Time::zero(), [&] { order.push_back(0); });
    EXPECT_EQ(clock.pending_timers(), 3u);
    const std::size_t fired = clock.run_due();
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(WallClockTest, CancelPreventsFiring) {
    sim::WallClock clock{7};
    int fired = 0;
    const sim::EventHandle h = clock.schedule_at(sim::Time::zero(), [&] { ++fired; });
    clock.cancel(h);
    clock.run_due();
    EXPECT_EQ(fired, 0);
}

TEST(WallClockTest, PeriodicTimerReArmsAndCancelsFromInsideCallback) {
    sim::WallClock clock{7};
    int ticks = 0;
    sim::EventHandle h{};
    // The callback must be able to cancel its own chain without the
    // periodic re-arm resurrecting it.
    h = clock.schedule_every(sim::Time::us(100), [&] {
        if (++ticks == 3) clock.cancel(h);
    });
    const sim::Time deadline = clock.now() + sim::Time::seconds(5.0);
    while (clock.pending_timers() > 0 && clock.now() < deadline) clock.run_due();
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(WallClockTest, NextDeadlineReflectsEarliestTimer) {
    sim::WallClock clock{7};
    EXPECT_FALSE(clock.next_deadline().has_value());
    clock.schedule_at(sim::Time::seconds(100.0), [] {});
    const sim::EventHandle soon = clock.schedule_at(sim::Time::seconds(50.0), [] {});
    ASSERT_TRUE(clock.next_deadline().has_value());
    EXPECT_EQ(clock.next_deadline()->nanos(), sim::Time::seconds(50.0).nanos());
    clock.cancel(soon);
    EXPECT_EQ(clock.next_deadline()->nanos(), sim::Time::seconds(100.0).nanos());
}

TEST(WallClockTest, NamedRngStreamsMatchSimulatorConvention) {
    sim::WallClock a{42};
    sim::WallClock b{42};
    sim::Rng ra = a.rng_stream("link/wan");
    sim::Rng rb = b.rng_stream("link/wan");
    for (int i = 0; i < 16; ++i) EXPECT_EQ(ra.uniform_int(0, 1 << 30), rb.uniform_int(0, 1 << 30));
    sim::Rng other = a.rng_stream("link/lan");
    bool all_equal = true;
    sim::Rng ra2 = a.rng_stream("link/wan");
    for (int i = 0; i < 16; ++i)
        all_equal = all_equal && (ra2.uniform_int(0, 1 << 30) == other.uniform_int(0, 1 << 30));
    EXPECT_FALSE(all_equal);
}

// -------------------------------------------------------------- wire format

using WireFormatTest = CodecGuard;

Packet make_packet(Payload payload, std::string flow = "avatar") {
    Packet p;
    p.id = 77;
    p.src = 1;
    p.dst = 2;
    p.size_bytes = 1234;
    p.sent_at = sim::Time::ms(250);
    p.flow = std::move(flow);
    p.payload = std::move(payload);
    return p;
}

TEST_F(WireFormatTest, EmptyPayloadRoundTrips) {
    const auto frame = encode_frame(make_packet(Payload{}), Priority::Control);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->priority, Priority::Control);
    EXPECT_EQ(decoded->packet.id, 77u);
    EXPECT_EQ(decoded->packet.src, 1u);
    EXPECT_EQ(decoded->packet.dst, 2u);
    EXPECT_EQ(decoded->packet.size_bytes, 1234u);
    EXPECT_EQ(decoded->packet.sent_at.nanos(), sim::Time::ms(250).nanos());
    EXPECT_EQ(decoded->packet.flow, "avatar");
    EXPECT_TRUE(decoded->packet.payload.empty());
}

TEST_F(WireFormatTest, AvatarWireRoundTripsThroughModelCodecs) {
    sync::AvatarWire w;
    w.participant = ParticipantId{9};
    w.source_room = ClassroomId{3};
    w.keyframe = true;
    w.captured_at = sim::Time::ms(41);
    w.bytes = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
    w.relay_to = {4, 5};
    const auto frame = encode_frame(make_packet(Payload{w}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    const auto& got = decoded->packet.payload.get<sync::AvatarWire>();
    EXPECT_EQ(got.participant, w.participant);
    EXPECT_EQ(got.source_room, w.source_room);
    EXPECT_TRUE(got.keyframe);
    EXPECT_EQ(got.captured_at.nanos(), w.captured_at.nanos());
    EXPECT_EQ(got.bytes, w.bytes);
    EXPECT_EQ(got.relay_to, w.relay_to);
}

TEST_F(WireFormatTest, BatchHeartbeatAndScalarPayloadsRoundTrip) {
    sync::AvatarBatchWire batch;
    batch.updates.resize(2);
    batch.updates[0].participant = ParticipantId{1};
    batch.updates[0].bytes = {1, 2, 3};
    batch.updates[1].participant = ParticipantId{2};
    batch.updates[1].keyframe = true;
    const auto f1 = encode_frame(make_packet(Payload{batch}), Priority::Realtime);
    ASSERT_TRUE(f1.has_value());
    const auto d1 = decode_frame(*f1);
    ASSERT_TRUE(d1.has_value());
    EXPECT_EQ(d1->packet.payload.get<sync::AvatarBatchWire>().updates.size(), 2u);

    const auto f2 =
        encode_frame(make_packet(Payload{fault::HeartbeatWire{99}}), Priority::Control);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(decode_frame(*f2)->packet.payload.get<fault::HeartbeatWire>().seq, 99u);

    const auto f3 =
        encode_frame(make_packet(Payload{std::uint64_t{123456}}), Priority::Bulk);
    ASSERT_TRUE(f3.has_value());
    EXPECT_EQ(decode_frame(*f3)->packet.payload.get<std::uint64_t>(), 123456u);

    const auto f4 =
        encode_frame(make_packet(Payload{std::string{"hello wire"}}), Priority::Bulk);
    ASSERT_TRUE(f4.has_value());
    EXPECT_EQ(decode_frame(*f4)->packet.payload.get<std::string>(), "hello wire");
}

TEST_F(WireFormatTest, UnregisteredPayloadTypeFailsToEncode) {
    struct Unregistered {
        int x;
    };
    EXPECT_FALSE(
        encode_frame(make_packet(Payload{Unregistered{1}}), Priority::Bulk).has_value());
}

TEST_F(WireFormatTest, TruncationAtEveryLengthIsRejected) {
    const auto frame =
        encode_frame(make_packet(Payload{std::string{"payload"}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    for (std::size_t n = 0; n < frame->size(); ++n) {
        EXPECT_FALSE(decode_frame({frame->data(), n}).has_value())
            << "truncation to " << n << " bytes decoded";
    }
}

TEST_F(WireFormatTest, EverySingleBitFlipIsRejected) {
    const auto frame =
        encode_frame(make_packet(Payload{std::uint64_t{7}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    for (std::size_t byte = 0; byte < frame->size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::byte> corrupt = *frame;
            corrupt[byte] ^= static_cast<std::byte>(1 << bit);
            const auto decoded = decode_frame(corrupt);
            // Either the CRC (or magic/version/length checks) rejects it, or
            // — never — it decodes to something different silently.
            EXPECT_FALSE(decoded.has_value())
                << "bit " << bit << " of byte " << byte << " went unnoticed";
        }
    }
}

TEST_F(WireFormatTest, TrailingGarbageIsRejected) {
    auto frame = encode_frame(make_packet(Payload{}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    frame->push_back(std::byte{0});
    EXPECT_FALSE(decode_frame(*frame).has_value());
}

/// A well-formed frame (flow "avatar", valid CRC) whose payload body holds
/// the u32 list count at `count_at` rewritten to `count` — what a hostile
/// sender can produce, since the CRC only guards against accidents.
std::vector<std::byte> forge_list_count(Payload payload, std::size_t count_at,
                                        std::uint32_t count) {
    auto frame = encode_frame(make_packet(std::move(payload), "avatar"), Priority::Realtime);
    EXPECT_TRUE(frame.has_value());
    // Fixed header (40 B) + flow length (2) + "avatar" (6) + body length (4).
    const std::size_t body = 52;
    for (std::size_t i = 0; i < 4; ++i)
        (*frame)[body + count_at + i] = static_cast<std::byte>((count >> (8 * i)) & 0xFFu);
    const std::size_t crc_at = frame->size() - 4;
    const std::uint32_t crc = bytes::crc32(std::span{*frame}.first(crc_at));
    for (std::size_t i = 0; i < 4; ++i)
        (*frame)[crc_at + i] = static_cast<std::byte>((crc >> (8 * i)) & 0xFFu);
    return *frame;
}

TEST_F(WireFormatTest, ForgedListCountsAreTypedRejectionsNotAllocations) {
    // The 60-byte datagram: an empty AvatarBatchWire whose update count
    // claims 0x0fffffff entries. Before the count was bounded by the bytes
    // left, the decoder's reserve threw std::bad_alloc.
    const auto batch = forge_list_count(Payload{sync::AvatarBatchWire{}}, 0, 0x0fffffffu);
    EXPECT_EQ(batch.size(), 60u);
    // A snapshot's entry count follows nonce (8) and served_at (8); an
    // AvatarWire's relay count follows its 21 fixed bytes and the 4-byte
    // length of its empty byte block.
    const auto snapshot =
        forge_list_count(Payload{recovery::ResyncSnapshot{}}, 16, 0x0fffffffu);
    const auto relays = forge_list_count(Payload{sync::AvatarWire{}}, 25, 0xffffffffu);
    for (const auto& frame : {batch, snapshot, relays}) {
        FrameDefect defect = FrameDefect::None;
        EXPECT_FALSE(decode_frame(frame, defect).has_value());
        EXPECT_EQ(defect, FrameDefect::BadPayload);
    }
    // A count that fits the remaining bytes still decodes.
    sync::AvatarBatchWire one;
    one.updates.push_back(sync::AvatarWire{});
    const auto ok_frame = encode_frame(make_packet(Payload{one}), Priority::Realtime);
    ASSERT_TRUE(ok_frame.has_value());
    const auto decoded = decode_frame(*ok_frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->packet.payload.get<sync::AvatarBatchWire>().updates.size(), 1u);
}

TEST_F(WireFormatTest, TagCollisionsThrowAndReRegistrationIsIdempotent) {
    core::register_wire_codecs();  // second call: idempotent
    struct Foreign {
        int x;
    };
    EXPECT_THROW(WireCodecs::instance().register_codec<Foreign>(
                     core::kTagAvatar, [](const Payload&, bytes::Writer<std::byte>&) {},
                     [](bytes::Reader&) { return std::nullopt; }),
                 std::logic_error);
}

/// A keyframe AvatarWire whose state bytes are one byte long: a well-formed,
/// CRC-valid frame that only the avatar codec can find fault with.
sync::AvatarWire short_keyframe(ParticipantId who) {
    sync::AvatarWire w;
    w.participant = who;
    w.source_room = ClassroomId{1};
    w.keyframe = true;
    w.bytes = {0x2A};
    return w;
}

TEST_F(WireFormatTest, ShortAvatarBytesAreCountedRejectsInTheReplica) {
    const auto frame =
        encode_frame(make_packet(Payload{short_keyframe(ParticipantId{7})}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    const auto& wire = decoded->packet.payload.get<sync::AvatarWire>();

    const avatar::AvatarCodec codec;
    sync::AvatarReplica replica{codec};
    const std::uint64_t fresh_digest = replica.state_digest();
    replica.ingest(wire.bytes, wire.keyframe, sim::Time::ms(1));
    // A full-length keyframe whose root quaternion index is out of range.
    std::vector<std::uint8_t> bad_quat = codec.encode_full(avatar::AvatarState{});
    bad_quat[4 + 8 + 6] = 7;
    replica.ingest(bad_quat, true, sim::Time::ms(2));
    EXPECT_EQ(replica.rejected(), 2u);
    EXPECT_EQ(replica.decoded(), 0u);
    EXPECT_FALSE(replica.latest().has_value());
    EXPECT_EQ(replica.state_digest(), fresh_digest);

    // The replica still takes a good keyframe afterwards.
    replica.ingest(codec.encode_full(avatar::AvatarState{}), true, sim::Time::ms(3));
    EXPECT_EQ(replica.decoded(), 1u);
    EXPECT_TRUE(replica.latest().has_value());
}

// ------------------------------------------------------------ RealUdpBackend

using RealUdpTest = CodecGuard;

/// Pump the loop until `done` or the deadline; returns whether `done`.
bool pump_until(RealUdpBackend& net, const std::function<bool()>& done,
                sim::Time budget = sim::Time::seconds(5.0)) {
    const sim::Time deadline = net.wall_clock().now() + budget;
    while (!done() && net.wall_clock().now() < deadline)
        net.poll_once(sim::Time::ms(10));
    return done();
}

TEST_F(RealUdpTest, LoopbackEchoRoundTrip) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    EXPECT_TRUE(net.is_local(a));
    EXPECT_GT(net.port_of(a), 0);
    EXPECT_EQ(net.node_count(), 2u);
    EXPECT_TRUE(net.node_up(a));

    std::string got_at_b;
    std::string got_at_a;
    net.set_handler(b, [&](Packet&& p) {
        got_at_b = p.payload.get<std::string>();
        // Echo straight back over the same fabric.
        (void)net.send(b, a, 32, "echo", Payload{std::string{"pong"}});
    });
    net.set_handler(a, [&](Packet&& p) { got_at_a = p.payload.get<std::string>(); });

    ASSERT_TRUE(net.send(a, b, 32, "echo", Payload{std::string{"ping"}}));
    ASSERT_TRUE(pump_until(net, [&] { return !got_at_a.empty(); }));
    EXPECT_EQ(got_at_b, "ping");
    EXPECT_EQ(got_at_a, "pong");
    EXPECT_EQ(net.datagrams_sent(), 2u);
    EXPECT_EQ(net.datagrams_received(), 2u);
    EXPECT_EQ(net.decode_errors(), 0u);
    EXPECT_EQ(net.metrics().counter("net.rx.echo"), 2u);
}

/// Fire raw bytes at a UDP port through a throwaway socket — the hostile/
/// broken-sender path no backend API can produce.
void send_raw(std::uint16_t port, std::span<const std::byte> bytes) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
    ASSERT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
}

TEST_F(RealUdpTest, CorruptAndForeignDatagramsAreCountedAndDropped) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });

    // Pure garbage, a truncated frame, and a bit-flipped frame.
    const std::vector<std::byte> junk{std::byte{0x01}, std::byte{0x02}, std::byte{0x03}};
    send_raw(net.port_of(b), junk);

    Packet p;
    p.id = 1;
    p.src = a;
    p.dst = b;
    p.size_bytes = 8;
    p.flow = "good";
    p.payload = Payload{std::uint64_t{3}};
    auto frame = encode_frame(p, Priority::Bulk);
    ASSERT_TRUE(frame.has_value());
    send_raw(net.port_of(b), std::span{*frame}.first(frame->size() - 3));
    std::vector<std::byte> flipped = *frame;
    flipped[flipped.size() / 2] ^= std::byte{0x40};
    send_raw(net.port_of(b), flipped);

    // A legitimate send must still get through amid the garbage.
    ASSERT_TRUE(net.send(a, b, 8, "good", Payload{std::uint64_t{2}}));
    ASSERT_TRUE(pump_until(net, [&] { return net.decode_errors() >= 3 && delivered >= 1; }));
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.metrics().counter("net.wire_decode_error"), 3u);
}

TEST_F(RealUdpTest, ForgedBatchCountIsRejectedAndTheLoopKeepsRunning) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });

    send_raw(net.port_of(b),
             forge_list_count(Payload{sync::AvatarBatchWire{}}, 0, 0x0fffffffu));
    ASSERT_TRUE(pump_until(net, [&] { return net.decode_errors() >= 1; }));
    EXPECT_EQ(net.ingress_rejected(FrameDefect::BadPayload), 1u);
    EXPECT_EQ(net.metrics().counter("net.ingress_rejected", {{"reason", "bad_payload"}}),
              1u);

    // The poll loop survived: a legitimate send still gets through.
    ASSERT_TRUE(net.send(a, b, 8, "good", Payload{std::uint64_t{1}}));
    ASSERT_TRUE(pump_until(net, [&] { return delivered >= 1; }));
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.decode_errors(), 1u);
}

TEST_F(RealUdpTest, ShortAvatarBytesAreDroppedByAVrClientAndTheLoopKeepsRunning) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    cloud::VrClient client{net, b, ParticipantId{2}, cloud::VrClientConfig{}};
    const ParticipantId peer{7};

    Packet p = make_packet(Payload{short_keyframe(peer)});
    p.src = a;
    p.dst = b;
    const auto hostile = encode_frame(p, Priority::Realtime);
    ASSERT_TRUE(hostile.has_value());
    send_raw(net.port_of(b), *hostile);
    ASSERT_TRUE(pump_until(net, [&] { return client.updates_received() >= 1; }));
    EXPECT_FALSE(client.view_of(peer, net.clock().now()).has_value());

    // The poll loop survived, and the same peer's next good keyframe lands.
    const avatar::AvatarCodec codec;
    avatar::AvatarState state;
    state.participant = peer;
    sync::AvatarWire good = short_keyframe(peer);
    good.bytes = codec.encode_full(state);
    ASSERT_TRUE(net.send(a, b, 128, std::string{sync::kAvatarFlow}, Payload{good}));
    ASSERT_TRUE(pump_until(net, [&] { return client.updates_received() >= 2; }));
    EXPECT_TRUE(client.view_of(peer, net.clock().now()).has_value());
    EXPECT_EQ(net.decode_errors(), 0u);
}

TEST_F(RealUdpTest, IngressDropHookCountsAndSuppressesDelivery) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });
    net.set_ingress_drop([](const Packet& p) { return p.id % 2 == 1; });

    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(net.send(a, b, 16, "lossy", Payload{i}));
    pump_until(net, [&] { return delivered >= 5; }, sim::Time::seconds(2.0));
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(net.metrics().counter("net.test_drop"), 5u);
    net.set_ingress_drop(nullptr);
}

TEST_F(RealUdpTest, ReliableChannelDeliversInOrderThroughInjectedLoss) {
    RealUdpBackend net{RealUdpBackend::Options{.seed = 0xA1}};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    Channel ch = net.open_channel(
        {.src_demux = &demux_a,
         .dst_demux = &demux_b,
         .flow = "stream",
         .options = {.reliability = Reliability::Reliable, .priority = Priority::Bulk}});
    ASSERT_NE(ch.arq(), nullptr);

    // Drop every third data segment at ingress; ACKs pass. The ARQ's
    // retransmission timers run on the WallClock.
    std::uint64_t seen = 0;
    net.set_ingress_drop([&seen](const Packet& p) {
        return p.flow == "stream" && ++seen % 3 == 0;
    });

    std::vector<std::uint64_t> delivered;
    ch.on_delivered([&](Payload payload, sim::Time, int) {
        delivered.push_back(payload.take<std::uint64_t>());
    });
    constexpr std::uint64_t kCount = 12;
    for (std::uint64_t i = 0; i < kCount; ++i) ch.send(64, i);
    ASSERT_TRUE(pump_until(net, [&] { return delivered.size() >= kCount; },
                           sim::Time::seconds(20.0)));
    ASSERT_EQ(delivered.size(), kCount);
    for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(delivered[i], i);
    EXPECT_GT(ch.arq()->retransmissions(), 0u);
    net.set_ingress_drop(nullptr);
}

TEST_F(RealUdpTest, OpenChannelSpecValidation) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    EXPECT_THROW(net.open_channel({.src = a}), std::logic_error);  // no flow
    EXPECT_THROW(net.open_channel({.flow = "x"}), std::logic_error);  // no src
    EXPECT_THROW(
        net.open_channel({.src = a,
                          .flow = "x",
                          .options = {.reliability = Reliability::Reliable}}),
        std::logic_error);  // reliable needs both demuxes
}

TEST_F(RealUdpTest, HeartbeatMonitorRunsOverRealTransport) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    fault::HeartbeatParams params;
    params.enabled = true;
    params.interval = sim::Time::ms(5);
    params.timeout = sim::Time::ms(50);
    fault::HeartbeatMonitor mon_a{net, demux_a, params, "hb.a"};
    fault::HeartbeatMonitor mon_b{net, demux_b, params, "hb.b"};
    mon_a.watch(b);
    mon_b.watch(a);
    mon_a.start();
    mon_b.start();
    ASSERT_TRUE(pump_until(
        net,
        [&] {
            return mon_a.last_seen(b).nanos() > 0 && mon_b.last_seen(a).nanos() > 0 &&
                   mon_a.alive(b) && mon_b.alive(a);
        },
        sim::Time::seconds(5.0)));
    mon_a.stop();
    mon_b.stop();
}

}  // namespace
}  // namespace mvc::net
