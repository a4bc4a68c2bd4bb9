// metaclass_perfbench — one workload per process:
//
//   metaclass_perfbench --workload <campus-100k|blended-lecture|udp-ingress>
//                       --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints the run's checks and figures, then (with --trace 1) the per-layer
// span table, and as the last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "metaclass_perfbench: %s\nusage: metaclass_perfbench --workload "
                 "<campus-100k|blended-lecture|udp-ingress> --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc) usage("missing value");
        const char* v = argv[++i];
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            o.trace = std::string_view{v} == "1";
        } else if (arg == "--spans-out") {
            o.spans_out = v;
        } else {
            usage("unknown argument");
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

void print_result(const Result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    Result (*run)(const Options&, Tracer*) = nullptr;
    if (opt.workload == "campus-100k") run = run_campus;
    if (opt.workload == "blended-lecture") run = run_lecture;
    if (opt.workload == "udp-ingress") run = run_udp;
    if (run == nullptr) usage("unknown workload");

    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>(opt.workload);

    Result result;
    try {
        result = run(opt, tracer.get());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "metaclass_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    if (result.attempted == 0) result.attempted = 1;

    std::printf("== %s seed %llu, %g s, trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    for (const std::string& line : result.notes) std::printf("  %s\n", line.c_str());
    if (tracer) {
        std::printf("  %-32s %10s %12s %12s\n", "span", "count", "total ms", "self ms");
        for (const Tracer::Row& row : tracer->table())
            std::printf("  %-32s %10llu %12.3f %12.3f\n", row.name.c_str(),
                        static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms);
        std::printf("  spans: %llu recorded, %zu kept\n",
                    static_cast<unsigned long long>(tracer->spans_seen()), tracer->spans_kept());
        if (!opt.spans_out.empty() && !tracer->write(opt.spans_out))
            std::printf("  spans: could not write %s\n", opt.spans_out.c_str());
    }
    std::printf("  %-32s %24s %s\n", "metric", "value", "unit");
    for (const Metric& m : result.metrics)
        std::printf("  %-32s %24.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    print_result(result);
    return 0;
}
