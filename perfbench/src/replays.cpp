// Traced per-layer replays: each calls one layer's public functions on
// inputs shaped like the workload's (ReplayShape) and times them from here,
// so the per-layer table needs no probe inside src/. A replay repeats its
// round until its time share is used and reports the median round.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "core/avatar_pool.hpp"
#include "core/wire_codecs.hpp"
#include "net/channel.hpp"
#include "net/network.hpp"
#include "net/wire_format.hpp"
#include "recovery/checkpoint.hpp"
#include "session/behaviour.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sync/aggregator.hpp"
#include "sync/interest.hpp"
#include "sync/wire.hpp"

namespace perfbench {

using namespace mvc;

namespace {

constexpr double kReplaySeconds = 0.2;
constexpr std::size_t kMinRounds = 5;

/// Replay results are folded in here so the timed work cannot be dropped.
volatile std::uint64_t g_sink = 0;

/// Run `round` (which returns the operations it did) until the replay's time
/// is used; returns the median host ns per operation over the rounds.
double per_op_ns(Tracer& tracer, const char* span, const std::function<std::size_t()>& round) {
    SpanScope s(&tracer, span);
    std::vector<double> per_op;
    const Clock::time_point start = Clock::now();
    while (per_op.size() < kMinRounds || seconds_since(start) < kReplaySeconds) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t ops = round();
        per_op.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                         static_cast<double>(ops == 0 ? 1 : ops));
    }
    return median(per_op);
}

/// Seats laid out as the pooled campus does: 100-seat classrooms on a 14 m
/// pitch, seats 1.2 m apart.
std::vector<math::Vec3> seat_anchors(std::size_t n, std::size_t per_room) {
    std::size_t room_dim = 1;
    while (room_dim * room_dim * per_room < n) ++room_dim;
    std::size_t seat_dim = 1;
    while (seat_dim * seat_dim < per_room) ++seat_dim;
    std::vector<math::Vec3> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t room = i / per_room;
        const std::size_t seat = i % per_room;
        out.push_back({static_cast<double>(room % room_dim) * 14.0 +
                           static_cast<double>(seat % seat_dim) * 1.2,
                       0.0,
                       static_cast<double>(room / room_dim) * 14.0 +
                           static_cast<double>(seat / seat_dim) * 1.2});
    }
    return out;
}

/// An avatar update carrying one core::AvatarPool record's worth of bytes.
sync::AvatarWire make_wire(std::uint32_t who, std::uint32_t seq) {
    std::vector<std::uint8_t> bytes(core::AvatarPool::kRecordBytes);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>((who * 131U + seq * 7U + i) & 0xFFU);
    return sync::AvatarWire{ParticipantId{who}, ClassroomId{1}, false, std::move(bytes),
                            sim::Time::ms(seq), {}, seq};
}

// ---------------------------------------------------------------- sim

void replay_sim(const ReplayShape& shape, Tracer& tracer, Result& out) {
    sim::Simulator s{shape.seed};
    std::uint64_t sink = 0;
    const std::size_t n = shape.events_per_slice;
    out.add("sim.dispatch_ns", per_op_ns(tracer, "replay.sim.dispatch", [&] {
                const sim::Time base = s.now();
                for (std::size_t i = 0; i < n; ++i) {
                    const sim::Time at = base + sim::Time::ns(static_cast<std::int64_t>(i % 997));
                    if (i % 4 == 3) {
                        // Capture larger than the event's inline buffer.
                        std::array<std::uint64_t, 12> big{};
                        big[i % big.size()] = i;
                        s.schedule_at(at, [&sink, big] { sink += big[0] + big[11]; });
                    } else {
                        s.schedule_at(at, [&sink, i] { sink += i; });
                    }
                }
                return s.run_until(base + sim::Time::us(1));
            }),
            "ns");

    sim::MetricsRecorder rec;
    const sim::MetricId id = rec.series_id("replay.latency_ms");
    const std::size_t m = shape.samples_per_slice;
    double v = 0.0;
    out.add("sim.record_ns", per_op_ns(tracer, "replay.sim.record", [&] {
                if (rec.series("replay.latency_ms").count() > 4'000'000) rec.reset();
                for (std::size_t i = 0; i < m; ++i) {
                    v += 0.25;
                    rec.sample(id, v);
                }
                return m;
            }),
            "ns");
    g_sink = sink;
}

// ---------------------------------------------------------------- net

void replay_net(const ReplayShape& shape, Tracer& tracer, Result& out) {
    // Channel::send_to -> Network -> Link -> handler, boxed AvatarWire payloads.
    {
        sim::Simulator s{shape.seed};
        net::Network net{s};
        const net::NodeId a = net.add_node("replay-a", net::Region::HongKong);
        const net::NodeId b = net.add_node("replay-b", net::Region::HongKong);
        net.connect(a, b, net::LinkParams{.latency = sim::Time::ms(1)});
        std::uint64_t got = 0;
        net.set_handler(b, [&got](net::Packet&& p) {
            got += p.payload.take<sync::AvatarWire>().seq;
        });
        net::Channel tx = net.open_channel({.src = a, .flow = std::string{sync::kAvatarFlow}});
        const sync::AvatarWire tmpl = make_wire(7, 0);
        constexpr std::size_t kBurst = 256;
        std::uint64_t allocs = 0;
        std::uint64_t packets = 0;
        std::uint32_t seq = 0;
        out.add("net.send_ns", per_op_ns(tracer, "replay.net.send", [&] {
                    const std::uint64_t a0 = allocations();
                    for (std::size_t i = 0; i < kBurst; ++i) {
                        sync::AvatarWire w = tmpl;
                        w.seq = ++seq;
                        tx.send_to(b, w.wire_bytes(), net::Payload{std::move(w)});
                    }
                    s.run_until(s.now() + sim::Time::ms(2));
                    allocs += allocations() - a0;
                    packets += kBurst;
                    return kBurst;
                }),
                "ns");
        out.add("net.allocs_per_packet",
                static_cast<double>(allocs) / static_cast<double>(packets), "count");
        g_sink = got;
    }

    // Wire codec: encode_frame / decode_frame on both avatar frame kinds.
    core::register_wire_codecs();
    net::Packet single{.id = 1, .src = 1, .dst = 2, .size_bytes = 64,
                       .sent_at = sim::Time::ms(5), .flow = std::string{sync::kAvatarFlow},
                       .payload = make_wire(3, 1)};
    sync::AvatarBatchWire batch;
    for (std::uint32_t i = 0; i < 32; ++i)
        batch.updates.push_back(make_wire(100 + i, i));
    net::Packet batched{.id = 2, .src = 1, .dst = 2, .size_bytes = batch.wire_bytes(),
                        .sent_at = sim::Time::ms(5),
                        .flow = std::string{sync::kAvatarBatchFlow},
                        .payload = std::move(batch)};
    const std::array<const net::Packet*, 2> kinds{&single, &batched};
    constexpr std::size_t kFrames = 64;
    out.add("net.encode_ns", per_op_ns(tracer, "replay.net.encode", [&] {
                std::size_t bytes = 0;
                for (std::size_t i = 0; i < kFrames; ++i)
                    bytes += net::encode_frame(*kinds[i % 2], net::Priority::Realtime)->size();
                return bytes == 0 ? 0 : kFrames;
            }),
            "ns");
    const std::array<std::vector<std::byte>, 2> frames{
        *net::encode_frame(single, net::Priority::Realtime),
        *net::encode_frame(batched, net::Priority::Realtime)};
    std::uint64_t decode_allocs = 0;
    std::uint64_t decodes = 0;
    out.add("net.decode_ns", per_op_ns(tracer, "replay.net.decode", [&] {
                const std::uint64_t a0 = allocations();
                std::size_t ok = 0;
                for (std::size_t i = 0; i < kFrames; ++i)
                    ok += net::decode_frame(frames[i % 2]).has_value() ? 1 : 0;
                decode_allocs += allocations() - a0;
                decodes += kFrames;
                return ok;
            }),
            "ns");
    out.add("net.decode_allocs",
            static_cast<double>(decode_allocs) / static_cast<double>(decodes), "count");
}

// ----------------------------------------------------------- sync, core

void replay_sync_core(const ReplayShape& shape, Tracer& tracer, Result& out) {
    const std::size_t n = shape.avatars_per_building;
    const std::vector<math::Vec3> anchors = seat_anchors(n, shape.avatars_per_room);
    const session::CrowdMotion motion{};
    const sync::InterestPolicy policy{};
    constexpr double kCell = 8.0;
    const double tick_s = 0.05;

    sync::InterestGrid grid{kCell};
    double t = 0.0;
    out.add("sync.grid_rebuild_ns_per_avatar",
            per_op_ns(tracer, "replay.sync.grid_rebuild", [&] {
                t += tick_s;
                for (std::size_t i = 0; i < n; ++i)
                    grid.update(EntityId{static_cast<std::uint32_t>(i)},
                                anchors[i] + motion.at(shape.seed, i, t).offset);
                grid.rebuild();
                return n;
            }),
            "ns");

    std::vector<math::Vec3> viewers;
    for (std::size_t v = 0; v < shape.viewers; ++v)
        viewers.push_back(anchors[(v * shape.avatars_per_room) % n] + math::Vec3{0.0, 1.6, 0.0});
    std::vector<EntityId> scratch;
    std::uint64_t hits = 0;
    out.add("sync.grid_query_ns", per_op_ns(tracer, "replay.sync.grid_query", [&] {
                for (const math::Vec3& c : viewers) {
                    grid.query_radius_into(c, policy.max_range(), scratch);
                    hits += scratch.size();
                }
                return viewers.size();
            }),
            "ns");

    {
        sim::Simulator s{shape.seed};
        net::Network net{s};
        const net::NodeId gw = net.add_node("replay-gw", net::Region::HongKong);
        sync::CellDeltaAggregator agg{net, gw, sim::Time::ms(50), kCell, policy};
        for (std::size_t v = 0; v < viewers.size(); ++v) {
            const net::NodeId node = net.add_node("replay-viewer", net::Region::HongKong);
            net.connect(node, gw, net::LinkParams{.latency = sim::Time::ms(1)});
            net.set_handler(node, [](net::Packet&&) {});
            agg.add_viewer(node, ParticipantId{0xF0000000U + static_cast<std::uint32_t>(v)},
                           viewers[v]);
        }
        std::vector<sync::AvatarWire> wires;
        wires.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            wires.push_back(make_wire(static_cast<std::uint32_t>(i), 1));
        out.add("sync.aggregate_ns_per_update",
                per_op_ns(tracer, "replay.sync.aggregate", [&] {
                    for (std::size_t i = 0; i < n; ++i) agg.enqueue(anchors[i], wires[i]);
                    agg.flush();
                    // One aggregation interval per round, so the tier rate
                    // clocks admit cells as they do in the campus.
                    s.run_until(s.now() + sim::Time::ms(50));
                    return n;
                }),
                "ns");
    }

    core::AvatarPool pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pool.add(EntityId{static_cast<std::uint32_t>(i)}, anchors[i]);
    std::vector<math::Vec3> last_sent(n, math::Vec3::zero());
    std::vector<std::uint8_t> record;
    record.reserve(core::AvatarPool::kRecordBytes);
    std::uint64_t bytes = 0;
    double tp = 0.0;
    out.add("core.pool_ns_per_avatar", per_op_ns(tracer, "replay.core.pool", [&] {
                tp += tick_s;
                const auto pos = pool.positions();
                const auto seqs = pool.seqs();
                const auto dirty = pool.dirty();
                for (std::size_t i = 0; i < n; ++i) {
                    pos[i] = anchors[i] + motion.at(shape.seed, i, tp).offset;
                    if (dirty[i] == 0 && (pos[i] - last_sent[i]).norm_sq() <= 0.02 * 0.02)
                        continue;
                    ++seqs[i];
                    last_sent[i] = pos[i];
                    record.clear();
                    pool.encode_record(static_cast<std::uint32_t>(i), record);
                    bytes += record.size();
                }
                pool.clear_dirty();
                return n;
            }),
            "ns");
    g_sink = hits + bytes;
}

// ----------------------------------------------------------- recovery

std::vector<std::uint8_t> synthetic_checkpoint(const ReplayShape& shape) {
    recovery::ClassroomCheckpoint cp;
    cp.node = "edge-replay";
    cp.sequence = 1;
    for (std::uint32_t i = 0; i < shape.avatars_per_room; ++i) {
        cp.seats.push_back({i, ParticipantId{i + 1}});
        cp.members.push_back({.id = ParticipantId{i + 1}, .name = "p" + std::to_string(i),
                              .physical = true, .room = ClassroomId{1}, .seat_index = i});
        recovery::ReplicaRecord r;
        r.participant = ParticipantId{i + 1};
        r.source_room = ClassroomId{2};
        r.reference.assign(4 * core::AvatarPool::kRecordBytes, static_cast<std::uint8_t>(i));
        cp.replicas.push_back(std::move(r));
    }
    return recovery::encode_checkpoint(cp);
}

void replay_recovery(const ReplayShape& shape, Tracer& tracer, Result& out) {
    const std::vector<std::uint8_t> bytes =
        shape.checkpoint.empty() ? synthetic_checkpoint(shape) : shape.checkpoint;
    std::size_t total = 0;
    out.add("recovery.codec_ns", per_op_ns(tracer, "replay.recovery.codec", [&] {
                const recovery::ClassroomCheckpoint cp = recovery::decode_checkpoint(bytes);
                total += recovery::encode_checkpoint(cp).size();
                return std::size_t{1};
            }),
            "ns");
    g_sink = total;
}

}  // namespace

void run_replays(const ReplayShape& shape, Tracer& tracer, Result& out) {
    replay_sim(shape, tracer, out);
    replay_net(shape, tracer, out);
    replay_sync_core(shape, tracer, out);
    replay_recovery(shape, tracer, out);
}

}  // namespace perfbench
