#pragma once
// Shared pieces of the metaclass end-to-end benchmark: run options, the
// result a workload hands back, host timing, the allocation counter and the
// span tracer. Everything here lives in the benchmark binary; the program
// under test (src/) is only called through its public entry points.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    /// Where the traced run writes its spans (JSON lines); empty = nowhere.
    std::string spans_out;
};

struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
};

struct Result {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<Metric> metrics;
    /// Human-readable lines printed above the JSON result (checks, exact
    /// values, workload-only figures).
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Record an output check; a failed check makes the run incorrect.
    void check(bool ok, const std::string& what);
};

// ------------------------------------------------------------ host time

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Median of a sample (by value; empty -> 0).
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1] (empty -> 0).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------ allocation counting

/// Global operator new calls made by this process so far (alloc_count.cpp
/// replaces the global allocation functions of the benchmark binary).
[[nodiscard]] std::uint64_t allocations();

// ------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans carry (name, start,
/// end, parent, workload); per-name totals are exact, and the first
/// kMaxKept spans are kept verbatim for the span file written at the end.
class Tracer {
public:
    static constexpr std::size_t kMaxKept = 100'000;

    explicit Tracer(std::string workload);

    /// Open a span under the innermost open one; returns its id.
    std::uint32_t begin(const char* name);
    void end(std::uint32_t id);
    /// Record an already-measured interval as a closed child of the
    /// innermost open span (for spans timed outside begin/end, such as
    /// simulator probes).
    void record(const char* name, Clock::time_point start, Clock::time_point stop);

    /// Per-name rows: count, total and self time (total minus the part of
    /// the interval covered by direct child spans).
    struct Row {
        std::string name;
        std::uint64_t count{0};
        double total_ms{0.0};
        double self_ms{0.0};
    };
    [[nodiscard]] std::vector<Row> table() const;
    [[nodiscard]] std::uint64_t spans_seen() const { return seen_; }
    [[nodiscard]] std::size_t spans_kept() const { return spans_.size(); }

    /// Write kept spans as JSON lines; returns false when the file cannot be
    /// written.
    bool write(const std::string& path) const;

private:
    struct Span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::uint32_t parent;  // 0 = root
        std::uint32_t id;
    };
    struct Open {
        std::uint32_t id;
        const char* name;
        Clock::time_point start;
        std::int64_t child_ns;
        std::size_t kept_index;  // SIZE_MAX when not kept
    };
    struct Totals {
        std::uint64_t count{0};
        std::int64_t total_ns{0};
        std::int64_t self_ns{0};
    };

    std::string workload_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<Open> open_;
    std::vector<std::pair<const char*, Totals>> totals_;
    std::uint32_t next_id_{1};
    std::uint64_t seen_{0};

    Totals& totals_for(const char* name);
    void close(const char* name, Clock::time_point start, Clock::time_point stop,
               std::int64_t child_ns, std::size_t kept_index);
};

/// Scoped span; a null tracer makes it free apart from one branch.
class SpanScope {
public:
    SpanScope(Tracer* t, const char* name) : t_(t), id_(t ? t->begin(name) : 0) {}
    ~SpanScope() {
        if (t_) t_->end(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* t_;
    std::uint32_t id_;
};

// ----------------------------------------------------------- workloads

/// Each returns the run's result; end-to-end metrics on an untraced run,
/// per-layer metrics (plus trace.overhead_pct) on a traced one.
Result run_campus(const Options& opt, Tracer* tracer);
Result run_lecture(const Options& opt, Tracer* tracer);
Result run_udp(const Options& opt, Tracer* tracer);

/// Shape of the traced per-layer replays, taken from the workload.
struct ReplayShape {
    std::uint64_t seed{1};
    std::size_t events_per_slice{64};     ///< sim dispatch batch
    std::size_t samples_per_slice{64};    ///< MetricsRecorder samples per batch
    std::size_t avatars_per_building{32}; ///< grid / pool population
    std::size_t avatars_per_room{32};     ///< checkpoint replica count
    std::size_t viewers{8};               ///< aggregator viewers
    /// Encoded checkpoint of the workload, when it takes them; otherwise a
    /// synthetic one of avatars_per_room replicas is used.
    std::vector<std::uint8_t> checkpoint;
};

/// Run every layer replay, adding its traced per-layer metrics to `out`.
void run_replays(const ReplayShape& shape, Tracer& tracer, Result& out);

}  // namespace perfbench
