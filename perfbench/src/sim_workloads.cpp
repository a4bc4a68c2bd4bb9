// The two simulated workloads, driven through scenario::build and
// scenario::run_world from a spec generated from the seed:
//  - campus-100k: the pooled campus (core::AvatarPool sweep, InterestGrid,
//    CellDeltaAggregator); a coarse event stream carrying aggregated batches.
//  - blended-lecture: the paper's CWB + GZ MR rooms and a cloud VR room with
//    media, heartbeats, checkpoints and a fault timeline; the per-packet path.
//
// A run repeats build + run until its time is used. Host-timed metrics are
// medians over the repeats; exact metrics must repeat bit for bit, or the
// run counts as failed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "common/hash.hpp"
#include "core/campus.hpp"
#include "core/classroom.hpp"
#include "core/sharded_world.hpp"
#include "recovery/store.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/world.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace mvc;

namespace {

/// Host time probe granularity: one slice per 50 simulated ms.
constexpr sim::Time kSlice = sim::Time::ms(50);

struct SimWorkload {
    bool campus;
    double sim_seconds;
    std::size_t avatars;
    std::string spec_text;
};

// campus-100k: 8 buildings x 125 classrooms x 100 avatars, 8 viewers per
// building, 20 Hz ticks, aggregated egress every 50 ms.
SimWorkload campus_workload(std::uint64_t seed) {
    constexpr double kSimSeconds = 2.0;
    char text[1024];
    std::snprintf(text, sizeof text, R"({
  "scenario_version": 1, "name": "campus-100k", "world": "campus", "backend": "sim",
  "seed": %)" PRIu64 R"(, "duration_s": %g, "hash_ms": 100,
  "campus": {"pooled": {"buildings": 8, "classrooms_per_building": 125,
    "avatars_per_classroom": 100, "viewers_per_building": 8, "tick_rate_hz": 20,
    "aggregate": true, "aggregate_ms": 50}},
  "slos": [
    {"metric": "shard.lookahead_violations", "max": 0},
    {"metric": "scenario.hash_epochs", "min": %d},
    {"metric": "campus/viewer_updates", "min": 1},
    {"metric": "campus/mirror_updates", "min": 1},
    {"metric": "campus/digest", "min": 1}
  ]
})",
                  seed, kSimSeconds, static_cast<int>(kSimSeconds * 10));
    return {true, kSimSeconds, 100'000, text};
}

// blended-lecture: the paper's deployment (Fig. 3) for one simulated
// minute: CWB and GZ MR rooms with 24 students each plus the instructor,
// 16 remote VR students (8 Seoul, 8 London) through the cloud, lecture
// media, heartbeats, 2 s checkpoints and a lecture -> virtual-lab schedule,
// under a 30% edge-edge loss burst and an edge/1 outage.
SimWorkload lecture_workload(std::uint64_t seed) {
    constexpr double kSimSeconds = 60.0;
    char text[2048];
    std::snprintf(text, sizeof text, R"({
  "scenario_version": 1, "name": "blended-lecture", "world": "classroom", "backend": "sim",
  "seed": %)" PRIu64 R"(, "duration_s": %g, "hash_ms": 100,
  "classroom": {
    "heartbeat": {"interval_ms": 100, "timeout_ms": 350},
    "recovery": {"checkpoint_s": 2},
    "rooms": [
      {"preset": "cwb", "students": 24, "instructor": true},
      {"preset": "gz", "students": 24}
    ],
    "remote": [
      {"region": "Seoul", "count": 8},
      {"region": "London", "count": 8}
    ],
    "lecture_media_room": 0,
    "schedule": [
      {"activity": "lecture", "minutes": 0.5},
      {"activity": "virtual-lab", "minutes": 0.5}
    ]
  },
  "timeline": [
    {"kind": "loss_burst", "at_s": 15, "duration_s": 8, "a": "edge/0", "b": "edge/1",
     "loss": 0.3},
    {"kind": "node_outage", "at_s": 35, "duration_s": 5, "node": "edge/1"}
  ],
  "slos": [
    {"metric": "scenario.hash_epochs", "min": 600},
    {"metric": "mr.display_latency_ms.p99", "max": 100},
    {"metric": "vr.e2e_ms.p50", "max": 150},
    {"metric": "fault.injected{kind=loss_burst_start}", "min": 1},
    {"metric": "net.node_crashed", "min": 1},
    {"metric": "net.node_restored", "min": 1},
    {"metric": "recovery.checkpoint{owner=edge-gz}", "min": 1}
  ]
})",
                  seed, kSimSeconds);
    // 24 + 1 + 24 people in the MR rooms, 16 remote.
    return {false, kSimSeconds, 65, text};
}

/// Everything one repeat produced that must repeat bit for bit, in a fixed
/// order, plus the host-timed figures.
struct Repeat {
    double setup_s{0.0};
    double run_s{0.0};
    bool slos_passed{false};
    std::vector<std::pair<std::string, double>> exact;
    std::vector<double> slice_ms;  // traced repeats only
    std::vector<std::uint8_t> checkpoint;

    [[nodiscard]] double get(std::string_view key) const {
        for (const auto& [k, v] : exact)
            if (k == key) return v;
        return 0.0;
    }
};

std::uint64_t sum_prefixed(const std::map<std::string, std::uint64_t, std::less<>>& counters,
                           std::string_view prefix) {
    std::uint64_t total = 0;
    for (const auto& [k, v] : counters)
        if (std::string_view{k}.starts_with(prefix)) total += v;
    return total;
}

Repeat run_once(const SimWorkload& w, Tracer* tracer) {
    Repeat r;
    SpanScope repeat_span(tracer, "world.repeat");

    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<scenario::ScenarioWorld> world;
    {
        SpanScope s(tracer, "world.setup");
        world = scenario::build(scenario::scenario_from_text(w.spec_text));
    }
    r.setup_s = seconds_since(t0);

    // Read-only probe on shard 0, firing every simulated slice: on a traced
    // repeat it stamps host time into a buffer reserved up front (so it does
    // not allocate). It is scheduled on untraced repeats too, so both kinds
    // schedule the same events and make the same allocations.
    std::vector<Clock::time_point> edges;
    std::uint64_t probe_events = 0;
    if (tracer != nullptr) {
        edges.reserve(static_cast<std::size_t>(w.sim_seconds / kSlice.to_seconds()) + 4);
        edges.push_back(Clock::now());
    }
    world->simulator().schedule_every(kSlice, [&edges, &probe_events] {
        ++probe_events;
        if (edges.size() < edges.capacity()) edges.push_back(Clock::now());
    });

    const std::uint64_t a0 = allocations();
    const Clock::time_point t1 = Clock::now();
    scenario::ScenarioReport report;
    std::uint64_t allocs = 0;
    {
        SpanScope s(tracer, "world.run");
        report = scenario::run_world(*world, 1);
        r.run_s = seconds_since(t1);
        allocs = allocations() - a0;
        for (std::size_t i = 1; i < edges.size(); ++i) {
            r.slice_ms.push_back(static_cast<double>(ns_between(edges[i - 1], edges[i])) * 1e-6);
            tracer->record("sim.slice", edges[i - 1], edges[i]);
        }
    }
    r.slos_passed = report.passed;

    const sim::MetricsRecorder m = world->collect_metrics();
    const auto counters = m.counters();
    std::uint64_t hash_digest = 0;
    for (const std::uint64_t h : report.hashes) hash_digest = common::mix64(hash_digest ^ h);

    std::uint64_t series_samples = 0;
    for (const auto& [name, series] : m.all_series()) series_samples += series->count();

    std::uint64_t events = 0;
    std::uint64_t updates = 0;
    std::uint64_t egress_bytes = 0;
    if (w.campus) {
        core::CampusWorld& campus = *world->pooled_campus();
        for (std::size_t s = 0; s < campus.sharded().shard_count(); ++s)
            events += campus.simulator(s).executed_events();
        updates = campus.viewer_updates();
        egress_bytes = campus.egress_bytes();
    } else {
        events = world->simulator().executed_events();
        updates = m.counter("net.rx.avatar");
        egress_bytes = m.counter("net.tx_bytes.avatar");
    }
    events -= probe_events;
    const std::uint64_t packets = sum_prefixed(counters, "net.rx.");
    std::uint64_t drops = 0;
    for (const auto& [k, v] : counters)
        if (std::string_view{k}.starts_with("net.") &&
            std::string_view{k}.find("drop") != std::string_view::npos)
            drops += v;

    auto& e = r.exact;
    e.emplace_back("hash_epochs", static_cast<double>(report.hashes.size()));
    e.emplace_back("hash_stream", static_cast<double>(hash_digest >> 11));
    e.emplace_back("updates", static_cast<double>(updates));
    e.emplace_back("packets_delivered", static_cast<double>(packets));
    e.emplace_back("allocs", static_cast<double>(allocs));
    e.emplace_back("allocs_per_update",
                   updates ? static_cast<double>(allocs) / static_cast<double>(updates) : 0.0);
    e.emplace_back("bytes_per_avatar", static_cast<double>(egress_bytes) /
                                           static_cast<double>(w.avatars) / w.sim_seconds);
    e.emplace_back("sim.events", static_cast<double>(events));
    e.emplace_back("sim.epochs", static_cast<double>(m.counter("shard.epochs")));
    e.emplace_back("sim.cross_messages", static_cast<double>(m.counter("shard.cross_messages")));
    e.emplace_back("sim.series_samples", static_cast<double>(series_samples));
    e.emplace_back("net.packets", static_cast<double>(sum_prefixed(counters, "net.tx.")));
    e.emplace_back("net.bytes", static_cast<double>(sum_prefixed(counters, "net.tx_bytes.")));
    e.emplace_back("net.drops", static_cast<double>(drops));
    e.emplace_back("lookahead_violations",
                   static_cast<double>(m.counter("shard.lookahead_violations")));

    if (w.campus) {
        core::CampusWorld& campus = *world->pooled_campus();
        e.emplace_back("state_digest", static_cast<double>(campus.state_digest() >> 11));
        e.emplace_back("sync.updates_shipped", static_cast<double>(campus.updates_shipped()));
        e.emplace_back("sync.suppressed_aoi", static_cast<double>(campus.suppressed_by_aoi()));
        e.emplace_back("sync.suppressed_rate", static_cast<double>(campus.suppressed_by_rate()));
        e.emplace_back("core.viewer_updates", static_cast<double>(campus.viewer_updates()));
        e.emplace_back("core.mirror_updates", static_cast<double>(campus.mirror_updates()));
        e.emplace_back("core.egress_bytes", static_cast<double>(campus.egress_bytes()));
    } else {
        const auto& mr = m.series("mr.display_latency_ms");
        const auto& vr = m.series("vr.e2e_ms");
        e.emplace_back("edge.mr_display_p50_ms", mr.median());
        e.emplace_back("edge.mr_display_p99_ms", mr.p99());
        e.emplace_back("cloud.vr_display_p50_ms", vr.median());
        e.emplace_back("cloud.vr_display_p99_ms", vr.p99());
        e.emplace_back("cloud.vr_updates", static_cast<double>(vr.count()));
        std::uint64_t ingests = 0;
        double checkpoint_bytes = 0.0;
        for (const auto& [name, series] : m.all_series()) {
            if (name.starts_with("edge.") && name.ends_with(".ingest_ms"))
                ingests += series->count();
            if (name.starts_with("recovery.checkpoint_bytes"))
                checkpoint_bytes += series->mean() * static_cast<double>(series->count());
        }
        e.emplace_back("edge.ingests", static_cast<double>(ingests));
        e.emplace_back("media.bytes",
                       static_cast<double>(sum_prefixed(counters, "net.tx_bytes.media.")));
        e.emplace_back("recovery.checkpoints",
                       static_cast<double>(sum_prefixed(counters, "recovery.checkpoint{")));
        e.emplace_back("recovery.checkpoint_bytes", checkpoint_bytes);
        if (auto latest = world->classroom().checkpoint_store().latest("edge-cwb"))
            r.checkpoint = std::move(*latest);
    }
    return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Result run_sim(const SimWorkload& w, const Options& opt, Tracer* tracer) {
    Result out;
    SpanScope root(tracer, "run");

    // Untraced repeats fill the run on --trace 0; a traced run alternates
    // untraced and traced repeats in its first part (for the overhead and
    // the traced-equals-untraced check) and replays the layers after.
    const double budget = tracer ? 0.6 * opt.seconds : opt.seconds;
    constexpr std::size_t kMinRepeats = 2;
    constexpr std::size_t kMinSetups = 51;
    std::vector<Repeat> plain;
    std::vector<Repeat> traced;
    // Peak RSS is read after the first repeat: later repeats reuse the heap,
    // so their peak says more about the allocator than about the workload.
    double rss_mb = 0.0;
    const Clock::time_point start = Clock::now();
    while (plain.size() + traced.size() < kMinRepeats || seconds_since(start) < budget) {
        const bool trace_this = tracer != nullptr && plain.size() > traced.size();
        (trace_this ? traced : plain).push_back(run_once(w, trace_this ? tracer : nullptr));
        if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    }
    std::vector<double> setups;
    for (const Repeat& r : plain) setups.push_back(r.setup_s);
    for (const Repeat& r : traced) setups.push_back(r.setup_s);
    // Set-up is short next to a run: add set-up-only builds so its median
    // rests on several samples.
    while (setups.size() < kMinSetups) {
        const Clock::time_point t0 = Clock::now();
        auto world = scenario::build(scenario::scenario_from_text(w.spec_text));
        setups.push_back(seconds_since(t0));
    }

    // ---- output checks: every repeat, and bit-identical exact figures.
    const Repeat& ref = plain.front();
    out.attempted = plain.size() + traced.size();
    auto check_repeat = [&](const Repeat& r, const char* kind, std::size_t i) {
        const bool ok =
            r.slos_passed && r.exact == ref.exact && r.get("lookahead_violations") == 0;
        if (!ok) {
            ++out.failed;
            for (std::size_t k = 0; k < r.exact.size() && k < ref.exact.size(); ++k)
                if (r.exact[k] != ref.exact[k])
                    out.notes.push_back("drift in " + r.exact[k].first + ": " +
                                        std::to_string(r.exact[k].second) + " vs " +
                                        std::to_string(ref.exact[k].second));
        }
        char what[160];
        std::snprintf(what, sizeof what,
                      "%s repeat %zu: SLO gates %s, lookahead violations %.0f, "
                      "exact figures %s the first repeat",
                      kind, i, r.slos_passed ? "pass" : "FAIL", r.get("lookahead_violations"),
                      r.exact == ref.exact ? "equal" : "DIFFER from");
        out.check(ok, what);
    };
    for (std::size_t i = 0; i < plain.size(); ++i) check_repeat(plain[i], "untraced", i);
    for (std::size_t i = 0; i < traced.size(); ++i) check_repeat(traced[i], "traced", i);
    out.check(ref.get("updates") > 0, "avatar updates were delivered");

    char line[256];
    for (const auto& [k, v] : ref.exact) {
        std::snprintf(line, sizeof line, "exact: %-28s %.17g", k.c_str(), v);
        out.notes.push_back(line);
    }

    std::vector<double> rtf;
    std::vector<double> ups;
    std::vector<double> dps;
    std::vector<double> run_plain;
    for (const Repeat& r : plain) {
        rtf.push_back(w.sim_seconds / r.run_s);
        ups.push_back(ref.get("updates") / r.run_s);
        dps.push_back(ref.get("packets_delivered") / r.run_s);
        run_plain.push_back(r.run_s);
    }
    std::snprintf(line, sizeof line, "repeats: %zu untraced, %zu traced; set-ups %zu",
                  plain.size(), traced.size(), setups.size());
    out.notes.push_back(line);
    std::string runs = "untraced run s:";
    for (const double s : run_plain) runs += " " + std::to_string(s).substr(0, 5);
    out.notes.push_back(runs);

    if (tracer == nullptr) {
        out.add("setup_s", median(setups), "s");
        out.add("realtime_factor", median(rtf), "s/s");
        out.add("updates_per_s", median(ups), "1/s");
        out.add("dgram_per_s", median(dps), "1/s");
        out.add("allocs_per_update", ref.get("allocs_per_update"), "count");
        out.add("peak_rss_mb", rss_mb, "MB");
        out.add("bytes_per_avatar", ref.get("bytes_per_avatar"), "B/s");
        return out;
    }

    // ---- traced run: counters from the run, then the layer replays.
    const double updates = ref.get("updates");
    const double events = ref.get("sim.events");
    std::vector<double> slices;
    std::vector<double> run_traced;
    for (const Repeat& r : traced) {
        slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
        run_traced.push_back(r.run_s);
    }
    out.add("sim.events", events, "count");
    out.add("sim.events_per_update", ratio(events, updates), "count");
    out.add("sim.epochs", ref.get("sim.epochs"), "count");
    out.add("sim.cross_messages", ref.get("sim.cross_messages"), "count");
    out.add("sim.slice_ms_p50", quantile(slices, 0.5), "ms");
    out.add("sim.slice_ms_p90", quantile(slices, 0.9), "ms");
    out.add("sim.series_samples", ref.get("sim.series_samples"), "count");
    out.add("net.packets", ref.get("net.packets"), "count");
    out.add("net.packets_per_update", ratio(ref.get("net.packets"), updates), "count");
    out.add("net.bytes", ref.get("net.bytes"), "B");
    out.add("net.drops", ref.get("net.drops"), "count");
    for (const char* k : {"sync.updates_shipped", "sync.suppressed_aoi", "sync.suppressed_rate"})
        out.add(k, ref.get(k), "count");
    out.add("sync.ship_ratio",
            ratio(ref.get("sync.updates_shipped"),
                  ref.get("sync.updates_shipped") + ref.get("sync.suppressed_aoi") +
                      ref.get("sync.suppressed_rate")),
            "ratio");
    out.add("core.viewer_updates", ref.get("core.viewer_updates"), "count");
    out.add("core.mirror_updates", ref.get("core.mirror_updates"), "count");
    out.add("core.egress_bytes", ref.get("core.egress_bytes"), "B");
    out.add("cloud.vr_updates", ref.get("cloud.vr_updates"), "count");
    out.add("edge.ingests", ref.get("edge.ingests"), "count");
    out.add("media.bytes", ref.get("media.bytes"), "B");
    out.add("recovery.checkpoints", ref.get("recovery.checkpoints"), "count");
    out.add("recovery.checkpoint_bytes", ref.get("recovery.checkpoint_bytes"), "B");
    out.add("edge.mr_display_p50_ms", ref.get("edge.mr_display_p50_ms"), "ms");
    out.add("edge.mr_display_p99_ms", ref.get("edge.mr_display_p99_ms"), "ms");
    out.add("cloud.vr_display_p50_ms", ref.get("cloud.vr_display_p50_ms"), "ms");
    out.add("cloud.vr_display_p99_ms", ref.get("cloud.vr_display_p99_ms"), "ms");
    // No real wire on a simulated workload: the Network never serialises.
    for (const char* k : {"net.polls", "net.dgrams_per_poll", "net.rejected"})
        out.add(k, 0.0, "count");
    out.add("net.poll_ns_per_dgram", 0.0, "ns");
    out.add("net.send_ns_per_dgram", 0.0, "ns");
    out.add("net.window_wait_s", 0.0, "s");
    out.add("trace.overhead_pct",
            100.0 * (median(run_traced) - median(run_plain)) / median(run_plain), "%");

    ReplayShape shape;
    shape.seed = opt.seed;
    const double slices_per_run = w.sim_seconds / kSlice.to_seconds();
    shape.events_per_slice =
        std::max<std::size_t>(64, static_cast<std::size_t>(events / slices_per_run));
    shape.samples_per_slice = std::max<std::size_t>(
        64, static_cast<std::size_t>(ref.get("sim.series_samples") / slices_per_run));
    if (w.campus) {
        shape.avatars_per_building = 125 * 100;
        shape.avatars_per_room = 100;
        shape.viewers = 8;
    } else {
        shape.avatars_per_building = w.avatars;
        shape.avatars_per_room = 25;
        shape.viewers = 16;
        shape.checkpoint = ref.checkpoint;
    }
    {
        SpanScope s(tracer, "replays");
        run_replays(shape, *tracer, out);
    }
    return out;
}

}  // namespace

// Spec seeds travel as JSON numbers, which hold integers exactly up to 2^53.
constexpr std::uint64_t kSpecSeedMask = (std::uint64_t{1} << 53) - 1;

Result run_campus(const Options& opt, Tracer* tracer) {
    return run_sim(campus_workload(opt.seed & kSpecSeedMask), opt, tracer);
}

Result run_lecture(const Options& opt, Tracer* tracer) {
    return run_sim(lecture_workload(opt.seed & kSpecSeedMask), opt, tracer);
}

}  // namespace perfbench
