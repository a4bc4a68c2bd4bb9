// E22: campus-scale dense hot path. Builds a CampusWorld — B building
// shards, each sweeping its avatars through the SoA AvatarPool, the flat
// InterestGrid, and cell-delta aggregated egress — and sweeps worker
// threads at 100k+ avatars. Reports events/sec and client-bound bytes per
// avatar, byte-compares the merged metrics across thread counts (the E16
// determinism bar extended to the aggregated egress path), and runs the
// aggregation-off ablation the bytes/avatar claim is measured against.
//
// E22_QUICK=1 shrinks the campus and the sweep for CI smoke runs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/campus.hpp"

namespace {

using namespace mvc;

constexpr std::uint64_t kSeed = 42;

struct RunResult {
    std::string metrics_json;
    std::size_t events{0};
    double wall_seconds{0.0};
    std::size_t avatars{0};
    std::uint64_t egress_bytes{0};
    std::uint64_t viewer_updates{0};
    std::uint64_t mirror_updates{0};
    std::uint64_t violations{0};
};

RunResult run(const core::CampusConfig& config, std::size_t threads, double seconds) {
    core::CampusWorld world{config};
    const auto start = std::chrono::steady_clock::now();
    const std::size_t events = world.run_until(sim::Time::seconds(seconds), threads);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

    RunResult out;
    out.metrics_json = world.metrics_json();
    out.events = events;
    out.wall_seconds = wall.count();
    out.avatars = world.avatar_count();
    out.egress_bytes = world.egress_bytes();
    out.viewer_updates = world.viewer_updates();
    out.mirror_updates = world.mirror_updates();
    out.violations = world.lookahead_violations();
    return out;
}

double bytes_per_avatar(const RunResult& r) {
    return r.avatars > 0 ? static_cast<double>(r.egress_bytes) /
                               static_cast<double>(r.avatars)
                         : 0.0;
}

}  // namespace

int main() {
    bench::Harness harness{"e22"};
    bench::Session& session = harness.session();
    session.set_seed(kSeed);

    const bool quick = std::getenv("E22_QUICK") != nullptr;
    const double seconds = quick ? 0.5 : 2.0;
    const std::vector<std::size_t> thread_counts =
        quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

    // The headline campus: 8 buildings x 125 classrooms x 100 avatars = 100k.
    core::CampusConfig campus;
    campus.seed = kSeed;
    if (quick) {
        campus.buildings = 2;
        campus.classrooms_per_building = 10;
        campus.avatars_per_classroom = 50;
    } else {
        campus.buildings = 8;
        campus.classrooms_per_building = 125;
        campus.avatars_per_classroom = 100;
    }

    bool identical = true;
    bool violation_free = true;

    // "sim events/s" counts the few coarse tick/flush/batch events; the
    // work those events do shows in "updates/s": avatar updates delivered
    // to viewers per wall second.
    std::printf("\n%8s %8s %12s %10s %14s %14s %12s %12s\n", "avatars", "threads",
                "events", "wall s", "sim events/s", "updates/s", "B/avatar", "deliveries");
    std::string baseline_json;
    double baseline_rate = 0.0;
    double baseline_update_rate = 0.0;
    for (const std::size_t t : thread_counts) {
        const RunResult r = run(campus, t, seconds);
        const double rate =
            r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds : 0.0;
        const double update_rate =
            r.wall_seconds > 0.0 ? static_cast<double>(r.viewer_updates) / r.wall_seconds
                                 : 0.0;
        if (t == thread_counts.front()) {
            baseline_json = r.metrics_json;
            baseline_rate = rate;
            baseline_update_rate = update_rate;
            session.count("campus / avatars", r.avatars);
            session.count("campus / events", r.events);
            session.count("campus / egress_bytes", r.egress_bytes);
            session.count("campus / viewer_updates", r.viewer_updates);
            session.count("campus / mirror_updates", r.mirror_updates);
            session.record("campus / bytes_per_avatar", bytes_per_avatar(r));
        } else if (r.metrics_json != baseline_json) {
            identical = false;
        }
        if (r.violations != 0) violation_free = false;
        std::printf("%8zu %8zu %12zu %10.3f %14.0f %14.0f %12.1f %12llu\n", r.avatars, t,
                    r.events, r.wall_seconds, rate, update_rate, bytes_per_avatar(r),
                    static_cast<unsigned long long>(r.viewer_updates));
    }
    // 1-thread figures; the sweep is printed above.
    session.record("campus / events_per_sec_best", baseline_rate);
    session.record("campus / viewer_updates_per_sec", baseline_update_rate);

    // Aggregation ablation at a reduced size: identical campus, egress
    // aggregated vs per-update fan-out. The per-pair baseline is the
    // expensive thing being demonstrated, so it runs on the smaller world.
    core::CampusConfig small = campus;
    if (!quick) {
        small.buildings = 2;
        small.classrooms_per_building = 50;
        small.avatars_per_classroom = 100;
    }
    const double ablation_seconds = quick ? 0.5 : 1.0;
    core::CampusConfig baseline_cfg = small;
    baseline_cfg.aggregate_interval = sim::Time::zero();
    const RunResult aggregated = run(small, 1, ablation_seconds);
    const RunResult fanout = run(baseline_cfg, 1, ablation_seconds);
    const double agg_bpa = bytes_per_avatar(aggregated);
    const double fan_bpa = bytes_per_avatar(fanout);
    const bool reduces = agg_bpa < fan_bpa;
    session.count("ablation / avatars", aggregated.avatars);
    session.count("ablation / egress_bytes_aggregated", aggregated.egress_bytes);
    session.count("ablation / egress_bytes_fanout", fanout.egress_bytes);
    session.record("ablation / bytes_per_avatar_aggregated", agg_bpa);
    session.record("ablation / bytes_per_avatar_fanout", fan_bpa);
    std::printf("\naggregation at %zu avatars: client egress %.1f -> %.1f B/avatar "
                "(%.1fx fewer bytes)\n",
                aggregated.avatars, fan_bpa, agg_bpa,
                agg_bpa > 0.0 ? fan_bpa / agg_bpa : 0.0);

    session.count("determinism_identical_json", identical ? 1 : 0);
    session.count("lookahead_violation_free", violation_free ? 1 : 0);
    session.count("aggregation_reduces_bytes", reduces ? 1 : 0);

    std::printf("\nexpected shape: merged metrics byte-identical across thread "
                "counts -> %s; aggregated egress below fan-out baseline -> %s\n",
                identical ? "yes" : "NO", reduces ? "yes" : "NO");
    return identical && violation_free && reduces ? 0 : 1;
}
