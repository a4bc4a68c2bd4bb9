#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kNotKept = std::numeric_limits<std::size_t>::max();
}

Tracer::Tracer(std::string workload) : workload_(std::move(workload)), epoch_(Clock::now()) {
    spans_.reserve(kMaxKept);
    open_.reserve(16);
    totals_.reserve(64);
}

Tracer::Totals& Tracer::totals_for(const char* name) {
    // Names are string literals; compare by content so one name from two
    // translation units still lands in one row.
    for (auto& [n, t] : totals_)
        if (n == name || std::strcmp(n, name) == 0) return t;
    totals_.emplace_back(name, Totals{});
    return totals_.back().second;
}

std::uint32_t Tracer::begin(const char* name) {
    const std::uint32_t id = next_id_++;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    std::size_t kept = kNotKept;
    if (spans_.size() < kMaxKept) {
        kept = spans_.size();
        spans_.push_back({name, 0, 0, parent, id});
    }
    open_.push_back({id, name, Clock::now(), 0, kept});
    return id;
}

void Tracer::end(std::uint32_t id) {
    const Clock::time_point stop = Clock::now();
    // Spans close in LIFO order (SpanScope); tolerate a mismatched id by
    // closing everything opened after it.
    while (!open_.empty()) {
        const Open o = open_.back();
        open_.pop_back();
        close(o.name, o.start, stop, o.child_ns, o.kept_index);
        if (o.id == id) break;
    }
}

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point stop) {
    const std::uint32_t id = next_id_++;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    std::size_t kept = kNotKept;
    if (spans_.size() < kMaxKept) {
        kept = spans_.size();
        spans_.push_back({name, 0, 0, parent, id});
    }
    close(name, start, stop, 0, kept);
}

void Tracer::close(const char* name, Clock::time_point start, Clock::time_point stop,
                   std::int64_t child_ns, std::size_t kept_index) {
    const std::int64_t dur = ns_between(start, stop);
    ++seen_;
    Totals& t = totals_for(name);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (kept_index != kNotKept) {
        spans_[kept_index].start_ns = ns_between(epoch_, start);
        spans_[kept_index].end_ns = ns_between(epoch_, stop);
    }
}

std::vector<Tracer::Row> Tracer::table() const {
    std::vector<Row> rows;
    rows.reserve(totals_.size());
    for (const auto& [name, t] : totals_)
        rows.push_back({name, t.count, static_cast<double>(t.total_ns) * 1e-6,
                        static_cast<double>(t.self_ns) * 1e-6});
    return rows;
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_)
        std::fprintf(f,
                     "{\"id\":%u,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%u,\"workload\":\"%s\"}\n",
                     s.id, s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent, workload_.c_str());
    return std::fclose(f) == 0;
}

}  // namespace perfbench
