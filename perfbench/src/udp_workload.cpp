// udp-ingress: one net::RealUdpBackend with a sender and a receiver node on
// loopback, driven from one thread as a closed loop with a fixed in-flight
// window (an open loop makes tail latency and loss noise on a shared host).
// Two phases share the run: single sync::AvatarWire frames (per-datagram
// cost dominates), then 32-update AvatarBatchWire frames (codec and
// per-byte cost dominate). In both, one datagram in eight is sent from a
// plain socket as a CRC-corrupted or foreign-magic frame, which the backend
// must reject under that reason. No sim, no sync: only the wire.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "common/hash.hpp"
#include "core/avatar_pool.hpp"
#include "core/wire_codecs.hpp"
#include "net/channel.hpp"
#include "net/real_udp.hpp"
#include "net/wire_format.hpp"
#include "session/behaviour.hpp"
#include "sync/wire.hpp"

namespace perfbench {

using namespace mvc;

namespace {

constexpr std::uint32_t kAvatars = 32;   // one room, one batch frame per tick
constexpr std::size_t kTicks = 64;       // frame set length (cycled)
constexpr double kTickHz = 20.0;
constexpr std::size_t kWindow = 32;      // datagrams in flight
constexpr std::size_t kCorruptEvery = 8; // one slot in eight is corrupt

/// The frame set generated from the seed: kTicks ticks of a kAvatars room
/// moved by CrowdMotion, encoded through core::AvatarPool records, plus
/// pre-built defective datagrams for the reject path.
struct FrameSet {
    std::vector<std::vector<sync::AvatarWire>> ticks;
    std::array<std::vector<std::byte>, 2> crc_bad;    // [single, batch]
    std::array<std::vector<std::byte>, 2> magic_bad;  // [single, batch]
    std::size_t batch_frame_bytes{0};
};

FrameSet make_frames(std::uint64_t seed) {
    FrameSet fs;
    core::AvatarPool pool;
    std::vector<math::Vec3> anchors;
    for (std::uint32_t i = 0; i < kAvatars; ++i) {
        anchors.push_back({static_cast<double>(i % 6) * 1.2, 0.0,
                           static_cast<double>(i / 6) * 1.2});
        pool.add(EntityId{0x100U + i}, anchors.back());
    }
    const session::CrowdMotion motion{};
    const auto ids = pool.ids();
    for (std::size_t k = 0; k < kTicks; ++k) {
        const double t = static_cast<double>(k) / kTickHz;
        std::vector<sync::AvatarWire> tick;
        for (std::uint32_t i = 0; i < kAvatars; ++i) {
            pool.positions()[i] = anchors[i] + motion.at(seed, i, t).offset;
            std::vector<std::uint8_t> bytes;
            pool.encode_record(i, bytes);
            tick.push_back(sync::AvatarWire{ParticipantId{ids[i].value()}, ClassroomId{1},
                                            false, std::move(bytes), sim::Time::seconds(t),
                                            {}, 0});
        }
        fs.ticks.push_back(std::move(tick));
    }

    // Defective frames start from valid encodings of the same payloads.
    const std::array<net::Packet, 2> valid{
        net::Packet{.id = 1, .src = 1, .dst = 2, .size_bytes = 64,
                    .flow = std::string{sync::kAvatarFlow}, .payload = fs.ticks[0][0]},
        net::Packet{.id = 2, .src = 1, .dst = 2, .size_bytes = 64,
                    .flow = std::string{sync::kAvatarBatchFlow},
                    .payload = sync::AvatarBatchWire{fs.ticks[0]}}};
    for (std::size_t kind = 0; kind < 2; ++kind) {
        std::vector<std::byte> frame = *net::encode_frame(valid[kind], net::Priority::Realtime);
        if (kind == 1) fs.batch_frame_bytes = frame.size();
        fs.crc_bad[kind] = frame;
        fs.crc_bad[kind][frame.size() - 6] ^= std::byte{0x5A};  // body byte, not the CRC
        fs.magic_bad[kind] = frame;
        fs.magic_bad[kind][0] ^= std::byte{0xFF};
    }
    return fs;
}

std::uint64_t wire_hash(const sync::AvatarWire& w) {
    common::Hash64 h;
    h.u32(w.participant.value()).u32(w.source_room.value()).u32(w.seq);
    h.i64(w.captured_at.nanos()).bytes(w.bytes.data(), w.bytes.size());
    return h.digest();
}

/// A runnable backend: sender and receiver nodes, the two avatar channels
/// and a plain socket for the defective datagrams.
struct Rig {
    net::RealUdpBackend net{net::RealUdpBackend::Options{.seed = 0x5eed}};
    net::NodeId tx_node{};
    net::NodeId rx_node{};
    std::unique_ptr<net::Channel> single;
    std::unique_ptr<net::Channel> batch;
    int raw_fd{-1};
    sockaddr_in rx_addr{};

    Rig() {
        tx_node = net.add_node("sender", net::Region::HongKong);
        rx_node = net.add_node("receiver", net::Region::HongKong);
        single = std::make_unique<net::Channel>(net.open_channel(
            {.src = tx_node, .dst = rx_node, .flow = std::string{sync::kAvatarFlow}}));
        batch = std::make_unique<net::Channel>(net.open_channel(
            {.src = tx_node, .dst = rx_node, .flow = std::string{sync::kAvatarBatchFlow}}));
        raw_fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
        rx_addr.sin_family = AF_INET;
        rx_addr.sin_port = htons(net.port_of(rx_node));
        rx_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    }
    ~Rig() {
        if (raw_fd >= 0) ::close(raw_fd);
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    [[nodiscard]] std::uint64_t rejected() const {
        std::uint64_t total = 0;
        for (std::size_t d = 0; d < net::kFrameDefectCount; ++d)
            total += net.ingress_rejected(static_cast<net::FrameDefect>(d));
        return total;
    }
};

/// Delivery-side state shared by the handler and the loop.
struct Sink {
    std::uint64_t dgrams{0};
    std::uint64_t updates{0};
    std::uint64_t digest{0};
    // Traced batch phase: host gaps between consecutive batch frames (one
    // simulated 50 ms tick each), into a buffer reserved up front.
    bool record_gaps{false};
    Clock::time_point last{};
    std::vector<double> gap_ms;

    void take(const sync::AvatarWire& w) {
        ++updates;
        digest += wire_hash(w);
    }
};

struct PhaseStats {
    double host_s{0.0};
    std::uint64_t good_sent{0};
    std::uint64_t good_delivered{0};
    std::uint64_t updates_sent{0};
    std::uint64_t updates_delivered{0};
    std::uint64_t sent_digest{0};
    std::uint64_t delivered_digest{0};
    std::uint64_t crc_sent{0};
    std::uint64_t magic_sent{0};
    std::uint64_t lost{0};
    std::uint64_t allocs{0};
    std::uint64_t polls{0};
    std::uint64_t polled_dgrams{0};
};

/// One closed-loop phase of `seconds`: refill the window, poll, repeat.
PhaseStats run_phase(Rig& rig, Sink& sink, const FrameSet& fs, bool batched, double seconds,
                     std::uint32_t& seq, Tracer* tracer) {
    PhaseStats ps;
    const std::size_t kind = batched ? 1 : 0;
    const std::uint64_t dgrams0 = sink.dgrams;
    const std::uint64_t updates0 = sink.updates;
    const std::uint64_t digest0 = sink.digest;
    const std::uint64_t rejected0 = rig.rejected();
    std::uint64_t sent = 0;
    std::size_t slot = 0;
    std::size_t cursor = 0;
    auto in_flight = [&] {
        return sent - (sink.dgrams - dgrams0) - (rig.rejected() - rejected0) - ps.lost;
    };
    auto poll = [&](sim::Time timeout) {
        SpanScope s(tracer, "net.poll");
        ++ps.polls;
        ps.polled_dgrams += rig.net.poll_once(timeout);
    };
    // Poll until the window has room (or, when draining, until it is empty);
    // a datagram with no progress for 500 ms is counted lost.
    auto wait_below = [&](std::uint64_t limit) {
        SpanScope s(tracer, "net.window_wait");
        Clock::time_point progress_at = Clock::now();
        std::uint64_t before = in_flight();
        while (in_flight() > limit) {
            poll(sim::Time::zero());
            if (in_flight() > limit && in_flight() == before) poll(sim::Time::ms(1));
            if (const std::uint64_t now_in = in_flight(); now_in != before) {
                before = now_in;
                progress_at = Clock::now();
            } else if (seconds_since(progress_at) > 0.5) {
                ps.lost += now_in;
                before = in_flight();
            }
        }
    };

    const std::uint64_t a0 = allocations();
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < seconds) {
        while (in_flight() < kWindow) {
            if (slot++ % kCorruptEvery == kCorruptEvery - 1) {
                const bool crc = (slot / kCorruptEvery) % 2 == 0;
                const std::vector<std::byte>& frame = crc ? fs.crc_bad[kind] : fs.magic_bad[kind];
                SpanScope s(tracer, "net.send_raw");
                ::sendto(rig.raw_fd, frame.data(), frame.size(), 0,
                         reinterpret_cast<const sockaddr*>(&rig.rx_addr), sizeof rig.rx_addr);
                ++(crc ? ps.crc_sent : ps.magic_sent);
                ++sent;
                continue;
            }
            const std::vector<sync::AvatarWire>& tick = fs.ticks[(cursor / kAvatars) % kTicks];
            if (batched) {
                sync::AvatarBatchWire b{tick};
                for (sync::AvatarWire& w : b.updates) {
                    w.seq = ++seq;
                    ps.sent_digest += wire_hash(w);
                }
                ps.updates_sent += b.updates.size();
                cursor += kAvatars;
                const std::size_t size = b.wire_bytes();
                SpanScope s(tracer, "net.send");
                rig.batch->send(size, net::Payload{std::move(b)});
            } else {
                sync::AvatarWire w = tick[cursor % kAvatars];
                w.seq = ++seq;
                ps.sent_digest += wire_hash(w);
                ++ps.updates_sent;
                ++cursor;
                const std::size_t size = w.wire_bytes();
                SpanScope s(tracer, "net.send");
                rig.single->send(size, net::Payload{std::move(w)});
            }
            ++ps.good_sent;
            ++sent;
        }
        wait_below(kWindow - 1);
    }
    wait_below(0);
    ps.host_s = seconds_since(start);
    ps.allocs = allocations() - a0;
    ps.good_delivered = sink.dgrams - dgrams0;
    ps.updates_delivered = sink.updates - updates0;
    ps.delivered_digest = sink.digest - digest0;
    return ps;
}

/// A run alternates short small-frame and batch phases; rates are medians
/// over the rounds, so one stall on a shared host moves one sample only.
constexpr int kRounds = 20;

struct Totals {
    PhaseStats small;  // sums over the rounds
    PhaseStats batch;
    std::vector<double> dgram_rate;   // small-frame datagrams per host s
    std::vector<double> update_rate;  // batch updates per host s
    std::vector<double> stream_rate;  // stream s per host s, both phases
};

void accumulate(PhaseStats& into, const PhaseStats& p) {
    into.host_s += p.host_s;
    into.good_sent += p.good_sent;
    into.good_delivered += p.good_delivered;
    into.updates_sent += p.updates_sent;
    into.updates_delivered += p.updates_delivered;
    into.sent_digest += p.sent_digest;
    into.delivered_digest += p.delivered_digest;
    into.crc_sent += p.crc_sent;
    into.magic_sent += p.magic_sent;
    into.lost += p.lost;
    into.allocs += p.allocs;
    into.polls += p.polls;
    into.polled_dgrams += p.polled_dgrams;
}

Totals run_rounds(Rig& rig, Sink& sink, const FrameSet& fs, double seconds, std::uint32_t& seq,
                  Tracer* tracer) {
    Totals t;
    const double phase_s = seconds / (2 * kRounds);
    for (int r = 0; r < kRounds; ++r) {
        const PhaseStats small = run_phase(rig, sink, fs, false, phase_s, seq, tracer);
        sink.record_gaps = tracer != nullptr;
        sink.last = Clock::time_point{};
        const PhaseStats batch = run_phase(rig, sink, fs, true, phase_s, seq, tracer);
        sink.record_gaps = false;
        t.dgram_rate.push_back(static_cast<double>(small.good_delivered) / small.host_s);
        t.update_rate.push_back(static_cast<double>(batch.updates_delivered) / batch.host_s);
        t.stream_rate.push_back(
            static_cast<double>(small.updates_delivered + batch.updates_delivered) / kAvatars /
            kTickHz / (small.host_s + batch.host_s));
        accumulate(t.small, small);
        accumulate(t.batch, batch);
    }
    return t;
}

}  // namespace

Result run_udp(const Options& opt, Tracer* tracer) {
    Result out;
    SpanScope root(tracer, "run");
    core::register_wire_codecs();
    const FrameSet fs = make_frames(opt.seed);

    // Set-up: frame set in hand -> runnable backend. Several set-ups, the
    // last one is used for the run.
    std::vector<double> setups;
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < 101; ++i) {
        rig.reset();
        SpanScope s(tracer, "udp.setup");
        const Clock::time_point t0 = Clock::now();
        rig = std::make_unique<Rig>();
        setups.push_back(seconds_since(t0));
    }
    out.check(rig->raw_fd >= 0, "plain socket for defective datagrams opened");

    Sink sink;
    if (tracer) sink.gap_ms.reserve(1 << 20);
    rig->net.set_handler(rig->rx_node, [&sink](net::Packet&& p) {
        ++sink.dgrams;
        if (p.payload.holds<sync::AvatarWire>()) {
            sink.take(p.payload.get<sync::AvatarWire>());
        } else if (p.payload.holds<sync::AvatarBatchWire>()) {
            for (const sync::AvatarWire& w : p.payload.get<sync::AvatarBatchWire>().updates)
                sink.take(w);
            if (sink.record_gaps) {
                const Clock::time_point now = Clock::now();
                if (sink.last != Clock::time_point{} && sink.gap_ms.size() < sink.gap_ms.capacity())
                    sink.gap_ms.push_back(static_cast<double>(ns_between(sink.last, now)) * 1e-6);
                sink.last = now;
            }
        }
    });

    std::uint32_t seq = 0;
    const double budget = tracer ? 0.3 * opt.seconds : opt.seconds;
    const Totals plain = run_rounds(*rig, sink, fs, budget, seq, nullptr);
    Totals traced;
    if (tracer) traced = run_rounds(*rig, sink, fs, budget, seq, tracer);

    // ---- output checks
    std::uint64_t crc_sent = 0;
    std::uint64_t magic_sent = 0;
    for (const Totals* t : std::array<const Totals*, 2>{&plain, &traced}) {
        for (const PhaseStats* p : {&t->small, &t->batch}) {
            out.attempted += p->good_sent + p->crc_sent + p->magic_sent;
            out.failed += p->good_sent - std::min(p->good_sent, p->good_delivered);
            crc_sent += p->crc_sent;
            magic_sent += p->magic_sent;
            char what[200];
            std::snprintf(what, sizeof what,
                          "%s phase: %llu/%llu datagrams, %llu/%llu updates delivered, "
                          "content digest %s, %llu lost",
                          p == &t->small ? "small-frame" : "batch",
                          static_cast<unsigned long long>(p->good_delivered),
                          static_cast<unsigned long long>(p->good_sent),
                          static_cast<unsigned long long>(p->updates_delivered),
                          static_cast<unsigned long long>(p->updates_sent),
                          p->delivered_digest == p->sent_digest ? "matches" : "DIFFERS",
                          static_cast<unsigned long long>(p->lost));
            if (p->good_sent > 0)
                out.check(p->good_delivered == p->good_sent &&
                              p->updates_delivered == p->updates_sent &&
                              p->delivered_digest == p->sent_digest,
                          what);
        }
    }
    const std::uint64_t crc_got = rig->net.ingress_rejected(net::FrameDefect::CrcMismatch);
    const std::uint64_t magic_got = rig->net.ingress_rejected(net::FrameDefect::BadMagic);
    const std::uint64_t other = rig->rejected() - crc_got - magic_got;
    auto gap = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
    out.failed += gap(crc_got, crc_sent) + gap(magic_got, magic_sent) + other;
    char what[160];
    std::snprintf(what, sizeof what,
                  "rejects: crc_mismatch %llu of %llu, bad_magic %llu of %llu, other %llu",
                  static_cast<unsigned long long>(crc_got),
                  static_cast<unsigned long long>(crc_sent),
                  static_cast<unsigned long long>(magic_got),
                  static_cast<unsigned long long>(magic_sent),
                  static_cast<unsigned long long>(other));
    out.check(crc_got == crc_sent && magic_got == magic_sent && other == 0, what);
    out.check(out.failed == 0, "no failed operations");

    const double updates = static_cast<double>(plain.small.updates_delivered +
                                               plain.batch.updates_delivered);
    const double host_s = plain.small.host_s + plain.batch.host_s;
    if (tracer == nullptr) {
        out.add("setup_s", median(setups), "s");
        out.add("realtime_factor", median(plain.stream_rate), "s/s");
        out.add("updates_per_s", median(plain.update_rate), "1/s");
        out.add("dgram_per_s", median(plain.dgram_rate), "1/s");
        // Each phase's own ratio, averaged: the mix of the two phases in a
        // run depends on their speeds, the per-phase ratios do not.
        out.add("allocs_per_update",
                0.5 * (static_cast<double>(plain.small.allocs) /
                           static_cast<double>(plain.small.updates_delivered) +
                       static_cast<double>(plain.batch.allocs) /
                           static_cast<double>(plain.batch.updates_delivered)),
                "count");
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.add("bytes_per_avatar",
                static_cast<double>(fs.batch_frame_bytes) / kAvatars * kTickHz, "B/s");
        return out;
    }

    // ---- traced run: the real-wire layer from the traced phases.
    const PhaseStats& ts = traced.small;
    const PhaseStats& tb = traced.batch;
    const double t_updates = static_cast<double>(ts.updates_delivered + tb.updates_delivered);
    const double t_dgrams = static_cast<double>(ts.good_delivered + tb.good_delivered);
    double send_ms = 0.0;
    double poll_ms = 0.0;
    double wait_ms = 0.0;
    for (const Tracer::Row& r : tracer->table()) {
        if (r.name == "net.send") send_ms = r.total_ms;
        if (r.name == "net.poll") poll_ms = r.total_ms;
        if (r.name == "net.window_wait") wait_ms = r.self_ms;
    }
    const sim::MetricsRecorder& m = rig->net.metrics();
    std::uint64_t series_samples = 0;
    for (const auto& [name, series] : m.all_series()) series_samples += series->count();
    std::uint64_t tx_bytes = 0;
    std::uint64_t drops = 0;
    for (const auto& [k, v] : m.counters()) {
        if (k.starts_with("net.tx_bytes.")) tx_bytes += v;
        if (k.starts_with("net.") && k.find("drop") != std::string::npos) drops += v;
    }
    const double polls = static_cast<double>(ts.polls + tb.polls);
    const double polled = static_cast<double>(ts.polled_dgrams + tb.polled_dgrams);
    const double sent_all = static_cast<double>(rig->net.datagrams_sent());
    const double updates_all = static_cast<double>(sink.updates);

    out.add("sim.events", 0.0, "count");
    out.add("sim.events_per_update", 0.0, "count");
    out.add("sim.epochs", 0.0, "count");
    out.add("sim.cross_messages", 0.0, "count");
    out.add("sim.slice_ms_p50", quantile(sink.gap_ms, 0.5), "ms");
    out.add("sim.slice_ms_p90", quantile(sink.gap_ms, 0.9), "ms");
    out.add("sim.series_samples", static_cast<double>(series_samples), "count");
    out.add("net.packets", sent_all, "count");
    out.add("net.packets_per_update", sent_all / updates_all, "count");
    out.add("net.bytes", static_cast<double>(tx_bytes), "B");
    out.add("net.drops", static_cast<double>(drops), "count");
    for (const char* k : {"sync.updates_shipped", "sync.suppressed_aoi", "sync.suppressed_rate"})
        out.add(k, 0.0, "count");
    out.add("sync.ship_ratio", 0.0, "ratio");
    for (const char* k : {"core.viewer_updates", "core.mirror_updates"}) out.add(k, 0.0, "count");
    out.add("core.egress_bytes", 0.0, "B");
    for (const char* k : {"cloud.vr_updates", "edge.ingests"}) out.add(k, 0.0, "count");
    out.add("media.bytes", 0.0, "B");
    out.add("recovery.checkpoints", 0.0, "count");
    out.add("recovery.checkpoint_bytes", 0.0, "B");
    for (const char* k : {"edge.mr_display_p50_ms", "edge.mr_display_p99_ms",
                          "cloud.vr_display_p50_ms", "cloud.vr_display_p99_ms"})
        out.add(k, 0.0, "ms");
    out.add("net.polls", polls, "count");
    out.add("net.dgrams_per_poll", polls > 0 ? polled / polls : 0.0, "count");
    out.add("net.poll_ns_per_dgram", t_dgrams > 0 ? poll_ms * 1e6 / t_dgrams : 0.0, "ns");
    out.add("net.send_ns_per_dgram",
            static_cast<double>(ts.good_sent + tb.good_sent) > 0
                ? send_ms * 1e6 / static_cast<double>(ts.good_sent + tb.good_sent)
                : 0.0,
            "ns");
    out.add("net.window_wait_s", wait_ms * 1e-3, "s");
    out.add("net.rejected", static_cast<double>(rig->rejected()), "count");
    const double plain_s_per_update = host_s / updates;
    const double traced_s_per_update = (ts.host_s + tb.host_s) / t_updates;
    out.add("trace.overhead_pct",
            100.0 * (traced_s_per_update - plain_s_per_update) / plain_s_per_update, "%");

    ReplayShape shape;
    shape.seed = opt.seed;
    shape.avatars_per_building = kAvatars;
    shape.avatars_per_room = kAvatars;
    {
        SpanScope s(tracer, "replays");
        run_replays(shape, *tracer, out);
    }
    return out;
}

}  // namespace perfbench
