#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "session/activity.hpp"

namespace mvc::scenario {

namespace {

// Round-trip-stable time parsing: spec_to_json emits Time as a double via
// to_seconds()/to_ms(), and Time::seconds()/ms() TRUNCATE the product, so
// ns -> double -> ns-1 is possible. Rounding recovers the exact nanosecond
// count, which the fuzzer's lossless round-trip contract depends on.
[[nodiscard]] sim::Time seconds_of(double v) {
    return sim::Time::ns(std::llround(v * 1e9));
}
[[nodiscard]] sim::Time millis_of(double v) {
    return sim::Time::ns(std::llround(v * 1e6));
}

// Strict object walker: every read marks its key as consumed, and done()
// rejects anything left over with the full dotted path. All type errors
// carry the path too, which is what makes typos in a 200-line spec file
// debuggable instead of silently ignored.
class Obj {
public:
    Obj(const common::Json& j, std::string path) : path_(std::move(path)) {
        if (!j.is_object()) throw SpecError(path_, "must be an object");
        obj_ = &j.as_object();
    }

    [[nodiscard]] const common::Json* find(std::string_view key) {
        seen_.insert(std::string{key});
        const auto it = obj_->find(std::string{key});
        return it == obj_->end() ? nullptr : &it->second;
    }

    [[nodiscard]] double number(std::string_view key, double fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_number()) throw SpecError(child(key), "must be a number");
        return v->as_number();
    }

    [[nodiscard]] std::size_t count(std::string_view key, std::size_t fallback) {
        const double d = number(key, static_cast<double>(fallback));
        if (d < 0.0 || d != static_cast<double>(static_cast<std::uint64_t>(d)))
            throw SpecError(child(key), "must be a non-negative integer");
        return static_cast<std::size_t>(d);
    }

    [[nodiscard]] bool boolean(std::string_view key, bool fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_bool()) throw SpecError(child(key), "must be a boolean");
        return v->as_bool();
    }

    [[nodiscard]] std::string str(std::string_view key, std::string fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_string()) throw SpecError(child(key), "must be a string");
        return v->as_string();
    }

    [[nodiscard]] sim::Time seconds(std::string_view key, sim::Time fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_number()) throw SpecError(child(key), "must be a number (seconds)");
        if (v->as_number() < 0.0) throw SpecError(child(key), "must be >= 0");
        return seconds_of(v->as_number());
    }

    [[nodiscard]] sim::Time millis(std::string_view key, sim::Time fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_number()) throw SpecError(child(key), "must be a number (ms)");
        if (v->as_number() < 0.0) throw SpecError(child(key), "must be >= 0");
        return millis_of(v->as_number());
    }

    [[nodiscard]] net::Region region(std::string_view key, net::Region fallback) {
        const common::Json* v = find(key);
        if (!v) return fallback;
        if (!v->is_string()) throw SpecError(child(key), "must be a region name string");
        const auto r = region_from_name(v->as_string());
        if (!r) throw SpecError(child(key), "unknown region '" + v->as_string() + "'");
        return *r;
    }

    [[nodiscard]] const common::JsonArray* array(std::string_view key) {
        const common::Json* v = find(key);
        if (!v) return nullptr;
        if (!v->is_array()) throw SpecError(child(key), "must be an array");
        return &v->as_array();
    }

    void done() {
        for (const auto& [key, value] : *obj_) {
            if (!seen_.contains(key))
                throw SpecError(child(key), "unknown key");
        }
    }

    [[nodiscard]] std::string child(std::string_view key) const {
        return path_.empty() ? std::string{key} : path_ + "." + std::string{key};
    }

private:
    const common::JsonObject* obj_;
    std::string path_;
    std::set<std::string, std::less<>> seen_;
};

[[nodiscard]] std::string elem(const std::string& path, std::size_t i) {
    return path + "[" + std::to_string(i) + "]";
}

HeartbeatSpec parse_heartbeat(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    HeartbeatSpec hb;
    hb.enabled = true;  // presence enables
    hb.interval = o.millis("interval_ms", hb.interval);
    hb.timeout = o.millis("timeout_ms", hb.timeout);
    o.done();
    return hb;
}

fault::DegradationParams parse_degradation_params(Obj& o) {
    fault::DegradationParams p;
    p.enter_loss = o.number("enter_loss", p.enter_loss);
    p.exit_loss = o.number("exit_loss", p.exit_loss);
    p.enter_rtt_ms = o.number("enter_rtt_ms", p.enter_rtt_ms);
    p.exit_rtt_ms = o.number("exit_rtt_ms", p.exit_rtt_ms);
    p.max_level = static_cast<int>(o.count("max_level", static_cast<std::size_t>(p.max_level)));
    return p;
}

ClassroomSpec parse_classroom(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    ClassroomSpec c;
    c.course = o.str("course", c.course);
    c.regional_mesh = o.boolean("regional_mesh", c.regional_mesh);
    c.lightweight_remote = o.boolean("lightweight_remote", c.lightweight_remote);
    c.event_bus = o.boolean("event_bus", c.event_bus);
    c.probe_rate_hz = o.number("probe_rate_hz", c.probe_rate_hz);

    if (const common::Json* hb = o.find("heartbeat"))
        c.heartbeat = parse_heartbeat(*hb, o.child("heartbeat"));
    if (const common::Json* dg = o.find("degradation")) {
        Obj d{*dg, o.child("degradation")};
        c.degradation.enabled = true;
        c.degradation.params = parse_degradation_params(d);
        c.degradation.params.hold = d.seconds("hold_s", c.degradation.params.hold);
        d.done();
    }
    if (const common::Json* rc = o.find("recovery")) {
        Obj r{*rc, o.child("recovery")};
        c.recovery.enabled = true;
        c.recovery.checkpoint_interval =
            r.seconds("checkpoint_s", c.recovery.checkpoint_interval);
        r.done();
    }
    if (const common::Json* ad = o.find("admission")) {
        Obj a{*ad, o.child("admission")};
        c.admission.enabled = true;
        c.admission.params.enabled = true;
        c.admission.params.queue_capacity =
            a.count("queue_capacity", c.admission.params.queue_capacity);
        c.admission.params.shed_enter_depth =
            a.count("shed_enter_depth", c.admission.params.shed_enter_depth);
        c.admission.params.shed_exit_depth =
            a.count("shed_exit_depth", c.admission.params.shed_exit_depth);
        c.admission.params.hold = a.millis("hold_ms", c.admission.params.hold);
        a.done();
    }

    if (const common::JsonArray* rooms = o.array("rooms")) {
        for (std::size_t i = 0; i < rooms->size(); ++i) {
            const std::string rp = elem(o.child("rooms"), i);
            Obj r{(*rooms)[i], rp};
            RoomSpec room;
            room.preset = r.str("preset", "");
            if (!room.preset.empty() && room.preset != "cwb" && room.preset != "gz")
                throw SpecError(rp + ".preset", "must be \"cwb\" or \"gz\"");
            if (room.preset.empty()) {
                // Custom room: full geometry required/derivable.
                room.name = r.str("name", "room" + std::to_string(i + 1));
                room.region = r.region("region", room.region);
                room.rows = r.count("rows", room.rows);
                room.cols = r.count("cols", room.cols);
                if (room.rows == 0 || room.cols == 0)
                    throw SpecError(rp + ".rows", "rows/cols must be positive");
            }
            // Preset rooms take the paper config verbatim: geometry keys are
            // left unconsumed so done() rejects them.
            room.students = r.count("students", 0);
            room.instructor = r.boolean("instructor", false);
            r.done();
            c.rooms.push_back(std::move(room));
        }
    }

    if (const common::JsonArray* remote = o.array("remote")) {
        for (std::size_t i = 0; i < remote->size(); ++i) {
            Obj r{(*remote)[i], elem(o.child("remote"), i)};
            RemoteCohort cohort;
            cohort.region = r.region("region", cohort.region);
            cohort.count = r.count("count", cohort.count);
            cohort.join_at = r.seconds("join_at_s", cohort.join_at);
            cohort.guest = r.boolean("guest", cohort.guest);
            r.done();
            c.remote.push_back(cohort);
        }
    }

    if (const common::Json* media = o.find("lecture_media_room")) {
        if (!media->is_number())
            throw SpecError(o.child("lecture_media_room"), "must be a room index");
        c.lecture_media_room = static_cast<std::size_t>(media->as_number());
    }

    if (const common::JsonArray* schedule = o.array("schedule")) {
        for (std::size_t i = 0; i < schedule->size(); ++i) {
            const std::string bp = elem(o.child("schedule"), i);
            Obj b{(*schedule)[i], bp};
            ScheduleBlock block;
            const std::string name = b.str("activity", "lecture");
            const auto kind = activity_from_name(name);
            if (!kind) throw SpecError(bp + ".activity", "unknown activity '" + name + "'");
            block.kind = *kind;
            block.duration = seconds_of(b.number("minutes", 10.0) * 60.0);
            block.team_size = b.count("team_size", 0);
            b.done();
            c.schedule.push_back(block);
        }
    }
    o.done();
    return c;
}

RelaySpec parse_relay(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    RelaySpec r;
    r.region = o.region("region", r.region);
    r.serve_resync = o.boolean("serve_resync", r.serve_resync);
    r.resync_freshness = o.seconds("resync_freshness_s", r.resync_freshness);
    r.access_latency = o.millis("access_ms", r.access_latency);
    r.batch_interval = o.millis("batch_ms", r.batch_interval);

    if (const common::Json* ctrl = o.find("control")) {
        Obj c{*ctrl, o.child("control")};
        r.control.enabled = true;
        r.control.interval = c.millis("interval_ms", r.control.interval);
        r.control.region_a = c.region("region_a", r.control.region_a);
        r.control.region_b = c.region("region_b", r.control.region_b);
        c.done();
    }

    if (const common::JsonArray* clients = o.array("clients")) {
        for (std::size_t i = 0; i < clients->size(); ++i) {
            const std::string cp = elem(o.child("clients"), i);
            Obj c{(*clients)[i], cp};
            ClientCohort cohort;
            cohort.count = c.count("count", cohort.count);
            cohort.region = c.region("region", cohort.region);
            cohort.join_at = c.seconds("join_at_s", cohort.join_at);
            if (const common::Json* rec = c.find("reconnect")) {
                Obj rr{*rec, cp + ".reconnect"};
                cohort.reconnect.enabled = true;
                cohort.reconnect.liveness_timeout =
                    rr.seconds("liveness_s", cohort.reconnect.liveness_timeout);
                cohort.reconnect.check_interval =
                    rr.millis("check_ms", cohort.reconnect.check_interval);
                cohort.reconnect.probe_timeout =
                    rr.millis("probe_ms", cohort.reconnect.probe_timeout);
                cohort.reconnect.backoff_base =
                    rr.millis("backoff_base_ms", cohort.reconnect.backoff_base);
                cohort.reconnect.backoff_cap =
                    rr.seconds("backoff_cap_s", cohort.reconnect.backoff_cap);
                rr.done();
            }
            if (const common::Json* ad = c.find("self_adapt")) {
                Obj aa{*ad, cp + ".self_adapt"};
                cohort.adapt.enabled = true;
                cohort.adapt.params = parse_degradation_params(aa);
                cohort.adapt.params.hold = aa.millis("hold_ms", cohort.adapt.params.hold);
                aa.done();
            }
            cohort.priority = c.str("priority", cohort.priority);
            if (cohort.priority != "high" && cohort.priority != "low")
                throw SpecError(cp + ".priority", "must be \"high\" or \"low\"");
            c.done();
            r.clients.push_back(cohort);
        }
    }
    o.done();
    return r;
}

QoeSpec parse_qoe(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    QoeSpec q;
    q.enabled = true;  // presence enables
    q.feedback_interval = o.millis("feedback_ms", q.feedback_interval);
    q.aggregate_interval = o.millis("aggregate_ms", q.aggregate_interval);
    q.playout_delay = o.millis("playout_ms", q.playout_delay);
    q.abr.safety = o.number("safety", q.abr.safety);
    q.abr.reserve_bps = o.number("reserve_bps", q.abr.reserve_bps);
    q.abr.down_loss = o.number("down_loss", q.abr.down_loss);
    q.abr.up_loss = o.number("up_loss", q.abr.up_loss);
    q.abr.hold_down = o.millis("hold_down_ms", q.abr.hold_down);
    q.abr.hold_up = o.millis("hold_up_ms", q.abr.hold_up);
    q.abr.min_dwell = o.millis("dwell_ms", q.abr.min_dwell);
    q.budget.safety = q.abr.safety;
    q.budget.avatar_full_bps = o.number("avatar_full_bps", q.budget.avatar_full_bps);
    q.budget.floor_scale = o.number("floor_scale", q.budget.floor_scale);
    q.budget.fovea_cos = o.number("fovea_cos", q.budget.fovea_cos);
    o.done();
    if (q.abr.down_loss <= q.abr.up_loss)
        throw SpecError(path + ".down_loss", "must exceed up_loss (hysteresis gap)");
    return q;
}

CampusSpec parse_campus(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    CampusSpec c;
    if (const common::JsonArray* regions = o.array("regions")) {
        for (std::size_t i = 0; i < regions->size(); ++i) {
            const common::Json& v = (*regions)[i];
            const std::string rp = elem(o.child("regions"), i);
            if (!v.is_string()) throw SpecError(rp, "must be a region name string");
            const auto r = region_from_name(v.as_string());
            if (!r) throw SpecError(rp, "unknown region '" + v.as_string() + "'");
            c.regions.push_back(*r);
        }
    }
    c.clients_per_region = o.count("clients_per_region", c.clients_per_region);
    c.batch_interval = o.millis("batch_ms", c.batch_interval);
    c.lightweight = o.boolean("lightweight", c.lightweight);
    if (const common::Json* pooled = o.find("pooled")) {
        Obj p{*pooled, o.child("pooled")};
        c.pooled.buildings = p.count("buildings", c.pooled.buildings);
        c.pooled.classrooms_per_building =
            p.count("classrooms_per_building", c.pooled.classrooms_per_building);
        c.pooled.avatars_per_classroom =
            p.count("avatars_per_classroom", c.pooled.avatars_per_classroom);
        c.pooled.viewers_per_building =
            p.count("viewers_per_building", c.pooled.viewers_per_building);
        c.pooled.tick_rate_hz = p.number("tick_rate_hz", c.pooled.tick_rate_hz);
        c.pooled.aggregate = p.boolean("aggregate", c.pooled.aggregate);
        c.pooled.aggregate_interval =
            p.millis("aggregate_ms", c.pooled.aggregate_interval);
        p.done();
    }
    o.done();
    return c;
}

net::ChaosProfile parse_profile(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    net::ChaosProfile p;
    p.drop = o.number("drop", p.drop);
    p.ge_p_bad = o.number("ge_p_bad", p.ge_p_bad);
    p.ge_p_good = o.number("ge_p_good", p.ge_p_good);
    p.ge_loss_bad = o.number("ge_loss_bad", p.ge_loss_bad);
    p.ge_loss_good = o.number("ge_loss_good", p.ge_loss_good);
    p.duplicate = o.number("duplicate", p.duplicate);
    p.reorder = o.number("reorder", p.reorder);
    p.reorder_hold = o.millis("reorder_hold_ms", p.reorder_hold);
    p.delay = o.millis("delay_ms", p.delay);
    p.jitter = o.millis("jitter_ms", p.jitter);
    p.corrupt = o.number("corrupt", p.corrupt);
    p.throttle_bps = o.number("throttle_bps", p.throttle_bps);
    p.throttle_backlog = o.millis("throttle_backlog_ms", p.throttle_backlog);
    o.done();
    return p;
}

fault::FaultModel parse_fault_model(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    fault::FaultModel m;
    m.link_flaps_per_min = o.number("flaps_per_min", m.link_flaps_per_min);
    m.mean_outage = o.seconds("mean_outage_s", m.mean_outage);
    m.loss_bursts_per_min = o.number("bursts_per_min", m.loss_bursts_per_min);
    m.mean_burst = o.seconds("mean_burst_s", m.mean_burst);
    m.burst_loss = o.number("burst_loss", m.burst_loss);
    m.latency_spikes_per_min = o.number("spikes_per_min", m.latency_spikes_per_min);
    m.mean_spike = o.seconds("mean_spike_s", m.mean_spike);
    m.spike_extra_latency = o.millis("spike_extra_ms", m.spike_extra_latency);
    m.node_crashes_per_min = o.number("crashes_per_min", m.node_crashes_per_min);
    m.mean_downtime = o.seconds("mean_downtime_s", m.mean_downtime);
    o.done();
    return m;
}

[[nodiscard]] std::string required_str(Obj& o, std::string_view key) {
    const std::string v = o.str(key, "");
    if (v.empty()) throw SpecError(o.child(key), "required");
    return v;
}

TimelineEntry parse_timeline_entry(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    TimelineEntry e;
    const std::string kind_name = required_str(o, "kind");
    const auto kind = timeline_kind_from_name(kind_name);
    if (!kind) throw SpecError(o.child("kind"), "unknown kind '" + kind_name + "'");
    e.kind = *kind;

    switch (e.kind) {
        case TimelineKind::LinkOutage:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "a");
            e.b = required_str(o, "b");
            break;
        case TimelineKind::LossBurst:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "a");
            e.b = required_str(o, "b");
            e.loss = o.number("loss", e.loss);
            if (e.loss < 0.0 || e.loss > 1.0)
                throw SpecError(o.child("loss"), "must be in [0, 1]");
            break;
        case TimelineKind::LatencySpike:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "a");
            e.b = required_str(o, "b");
            e.extra_latency = o.millis("extra_ms", sim::Time::ms(80));
            break;
        case TimelineKind::NodeOutage:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "node");
            break;
        case TimelineKind::ChaosWindow: {
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "a");
            e.b = required_str(o, "b");
            const common::Json* profile = o.find("profile");
            if (!profile) throw SpecError(o.child("profile"), "required");
            e.profile = parse_profile(*profile, o.child("profile"));
            if (!e.profile.active())
                throw SpecError(o.child("profile"), "profile injects nothing");
            break;
        }
        case TimelineKind::Blackhole:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "from");
            e.b = required_str(o, "to");
            break;
        case TimelineKind::Partition:
            e.at = o.seconds("at_s", e.at);
            e.duration = o.seconds("duration_s", e.duration);
            e.a = required_str(o, "a");
            e.b = required_str(o, "b");
            break;
        case TimelineKind::Random: {
            e.from = o.seconds("from_s", e.from);
            e.until = o.seconds("until_s", e.until);
            if (e.until <= e.from)
                throw SpecError(o.child("until_s"), "must exceed from_s");
            e.stream = o.str("stream", e.stream);
            const common::Json* model = o.find("model");
            if (!model) throw SpecError(o.child("model"), "required");
            e.model = parse_fault_model(*model, o.child("model"));
            if (const common::JsonArray* links = o.array("links")) {
                for (std::size_t i = 0; i < links->size(); ++i) {
                    const common::Json& pair = (*links)[i];
                    const std::string lp = elem(o.child("links"), i);
                    if (!pair.is_array() || pair.as_array().size() != 2 ||
                        !pair.as_array()[0].is_string() || !pair.as_array()[1].is_string())
                        throw SpecError(lp, "must be a [a, b] node-ref pair");
                    e.links.emplace_back(pair.as_array()[0].as_string(),
                                         pair.as_array()[1].as_string());
                }
            }
            if (const common::JsonArray* nodes = o.array("nodes")) {
                for (std::size_t i = 0; i < nodes->size(); ++i) {
                    const common::Json& node = (*nodes)[i];
                    if (!node.is_string())
                        throw SpecError(elem(o.child("nodes"), i),
                                        "must be a node-ref string");
                    e.nodes.push_back(node.as_string());
                }
            }
            if (e.links.empty() && e.nodes.empty())
                throw SpecError(path, "random entry needs links and/or nodes");
            break;
        }
    }
    o.done();
    // Every scheduled (non-Random) kind is a window; zero-length windows are
    // always spec bugs.
    if (e.kind != TimelineKind::Random && e.duration <= sim::Time::zero())
        throw SpecError(o.child("duration_s"), "must be > 0");
    return e;
}

SloGate parse_slo(const common::Json& j, const std::string& path) {
    Obj o{j, path};
    SloGate g;
    g.metric = required_str(o, "metric");
    if (const common::Json* v = o.find("min")) {
        if (!v->is_number()) throw SpecError(o.child("min"), "must be a number");
        g.min = v->as_number();
    }
    if (const common::Json* v = o.find("max")) {
        if (!v->is_number()) throw SpecError(o.child("max"), "must be a number");
        g.max = v->as_number();
    }
    o.done();
    if (!g.min && !g.max) throw SpecError(path, "needs min and/or max");
    if (g.min && g.max && *g.min > *g.max)
        throw SpecError(o.child("min"), "min exceeds max");
    return g;
}

}  // namespace

std::string_view world_name(WorldKind kind) {
    switch (kind) {
        case WorldKind::Classroom: return "classroom";
        case WorldKind::Relay: return "relay";
        case WorldKind::Campus: return "campus";
    }
    return "?";
}

std::optional<WorldKind> world_from_name(std::string_view name) {
    for (const WorldKind k : {WorldKind::Classroom, WorldKind::Relay, WorldKind::Campus})
        if (world_name(k) == name) return k;
    return std::nullopt;
}

std::string_view backend_name(BackendKind kind) {
    switch (kind) {
        case BackendKind::Sim: return "sim";
        case BackendKind::Chaos: return "chaos";
        case BackendKind::RealUdp: return "real_udp";
    }
    return "?";
}

std::optional<BackendKind> backend_from_name(std::string_view name) {
    for (const BackendKind k :
         {BackendKind::Sim, BackendKind::Chaos, BackendKind::RealUdp})
        if (backend_name(k) == name) return k;
    return std::nullopt;
}

std::string_view timeline_kind_name(TimelineKind kind) {
    switch (kind) {
        case TimelineKind::LinkOutage: return "link_outage";
        case TimelineKind::LossBurst: return "loss_burst";
        case TimelineKind::LatencySpike: return "latency_spike";
        case TimelineKind::NodeOutage: return "node_outage";
        case TimelineKind::ChaosWindow: return "chaos";
        case TimelineKind::Blackhole: return "blackhole";
        case TimelineKind::Partition: return "partition";
        case TimelineKind::Random: return "random";
    }
    return "?";
}

std::optional<TimelineKind> timeline_kind_from_name(std::string_view name) {
    for (const TimelineKind k :
         {TimelineKind::LinkOutage, TimelineKind::LossBurst, TimelineKind::LatencySpike,
          TimelineKind::NodeOutage, TimelineKind::ChaosWindow, TimelineKind::Blackhole,
          TimelineKind::Partition, TimelineKind::Random})
        if (timeline_kind_name(k) == name) return k;
    return std::nullopt;
}

std::optional<net::Region> region_from_name(std::string_view name) {
    for (const net::Region r : net::all_regions())
        if (net::region_name(r) == name) return r;
    return std::nullopt;
}

std::optional<session::ActivityKind> activity_from_name(std::string_view name) {
    using session::ActivityKind;
    for (const ActivityKind k :
         {ActivityKind::Lecture, ActivityKind::Qa, ActivityKind::GamifiedBreakout,
          ActivityKind::LearnerPresentation, ActivityKind::VirtualLab})
        if (session::activity_name(k) == name) return k;
    return std::nullopt;
}

ScenarioSpec scenario_from_json(const common::Json& doc) {
    Obj o{doc, ""};
    ScenarioSpec s;

    const common::Json* version = o.find("scenario_version");
    if (!version) throw SpecError("scenario_version", "required");
    if (!version->is_number() || version->as_number() != kSpecVersion)
        throw SpecError("scenario_version",
                        "unsupported (this build understands version " +
                            std::to_string(kSpecVersion) + ")");
    s.version = kSpecVersion;

    s.name = o.str("name", s.name);
    const std::string world = o.str("world", std::string{world_name(s.world)});
    const auto wk = world_from_name(world);
    if (!wk) throw SpecError("world", "unknown world '" + world + "'");
    s.world = *wk;

    const std::string backend = o.str("backend", std::string{backend_name(s.backend)});
    const auto bk = backend_from_name(backend);
    if (!bk) throw SpecError("backend", "unknown backend '" + backend + "'");
    s.backend = *bk;

    s.seed = static_cast<std::uint64_t>(o.count("seed", static_cast<std::size_t>(s.seed)));
    s.duration = o.seconds("duration_s", s.duration);
    s.hash_interval = o.millis("hash_ms", s.hash_interval);

    for (const WorldKind k : {WorldKind::Classroom, WorldKind::Relay, WorldKind::Campus}) {
        const std::string key{world_name(k)};
        const common::Json* section = o.find(key);
        if (!section) continue;
        if (k != s.world)
            throw SpecError(key, "section present but world is '" +
                                     std::string{world_name(s.world)} + "'");
        switch (k) {
            case WorldKind::Classroom: s.classroom = parse_classroom(*section, key); break;
            case WorldKind::Relay: s.relay = parse_relay(*section, key); break;
            case WorldKind::Campus: s.campus = parse_campus(*section, key); break;
        }
    }

    if (const common::Json* q = o.find("qoe")) s.qoe = parse_qoe(*q, "qoe");

    if (const common::JsonArray* timeline = o.array("timeline")) {
        for (std::size_t i = 0; i < timeline->size(); ++i)
            s.timeline.push_back(parse_timeline_entry((*timeline)[i], elem("timeline", i)));
    }
    if (const common::JsonArray* slos = o.array("slos")) {
        for (std::size_t i = 0; i < slos->size(); ++i)
            s.slos.push_back(parse_slo((*slos)[i], elem("slos", i)));
    }
    o.done();
    validate_spec(s);
    return s;
}

ScenarioSpec scenario_from_text(std::string_view text) {
    common::Json doc;
    try {
        doc = common::Json::parse(text);
    } catch (const common::JsonParseError& err) {
        // Re-throw with line/column context so a broken spec file points at
        // the offending line, not a byte offset.
        const std::size_t offset = std::min(err.offset(), text.size());
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < offset; ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream msg;
        msg << "invalid JSON at line " << line << ", column " << col << ": "
            << err.what();
        throw SpecError("", msg.str());
    }
    return scenario_from_json(doc);
}

void validate_spec(const ScenarioSpec& spec) {
    using common::Json;
    if (spec.version != kSpecVersion)
        throw SpecError("scenario_version", "unsupported");
    if (spec.duration <= sim::Time::zero())
        throw SpecError("duration_s", "must be > 0");
    if (spec.name.empty()) throw SpecError("name", "must not be empty");

    const bool chaos_ok = spec.world == WorldKind::Relay;
    switch (spec.world) {
        case WorldKind::Classroom:
            if (spec.backend != BackendKind::Sim)
                throw SpecError("backend",
                                "classroom world runs on the sim backend only "
                                "(the classroom owns its net::Network)");
            break;
        case WorldKind::Relay:
            if (spec.relay.clients.empty())
                throw SpecError("relay.clients", "needs at least one cohort");
            if (spec.backend == BackendKind::RealUdp && !spec.timeline.empty())
                throw SpecError("timeline",
                                "real_udp backend cannot schedule faults "
                                "(no simulated links to fail)");
            break;
        case WorldKind::Campus:
            if (spec.backend != BackendKind::Sim)
                throw SpecError("backend", "campus world runs on the sim backend only");
            if (spec.campus.pooled.buildings > 0) {
                if (!spec.campus.regions.empty())
                    throw SpecError("campus.regions",
                                    "pooled campus declares buildings, not regions");
                if (!spec.timeline.empty())
                    throw SpecError("timeline",
                                    "faults are not supported on the pooled campus");
                const PooledCampusSpec& p = spec.campus.pooled;
                if (p.classrooms_per_building == 0 || p.avatars_per_classroom == 0)
                    throw SpecError("campus.pooled", "buildings must hold avatars");
                if (p.tick_rate_hz <= 0.0)
                    throw SpecError("campus.pooled.tick_rate_hz", "must be > 0");
                if (p.aggregate && p.aggregate_interval <= sim::Time::zero())
                    throw SpecError("campus.pooled.aggregate_ms",
                                    "must be > 0 when aggregate is true");
            } else if (spec.campus.regions.empty()) {
                throw SpecError("campus.regions", "needs at least one region");
            }
            break;
    }

    if (spec.qoe.enabled) {
        if (spec.world != WorldKind::Relay)
            throw SpecError("qoe", "the QoE control loop runs on the relay world only");
        if (spec.backend == BackendKind::RealUdp)
            throw SpecError("qoe",
                            "qoe payloads have no real-wire codecs (sim/chaos only)");
        if (spec.qoe.feedback_interval <= sim::Time::zero())
            throw SpecError("qoe.feedback_ms", "must be > 0");
        if (spec.qoe.aggregate_interval <= sim::Time::zero())
            throw SpecError("qoe.aggregate_ms", "must be > 0");
    }

    if (spec.world == WorldKind::Classroom) {
        const std::size_t room_count =
            spec.classroom.rooms.empty() ? 2 : spec.classroom.rooms.size();
        for (std::size_t i = 0; i < spec.classroom.rooms.size(); ++i) {
            const RoomSpec& room = spec.classroom.rooms[i];
            // Preset rooms defer capacity to the paper config (the seats
            // counter reports exhaustion at run time).
            if (room.preset.empty() && room.students > room.rows * room.cols)
                throw SpecError(elem("classroom.rooms", i) + ".students",
                                "exceed seat capacity");
        }
        if (spec.classroom.lecture_media_room &&
            *spec.classroom.lecture_media_room >= room_count)
            throw SpecError("classroom.lecture_media_room", "out of range");
    }

    for (std::size_t i = 0; i < spec.timeline.size(); ++i) {
        const TimelineEntry& e = spec.timeline[i];
        const std::string path = elem("timeline", i);
        switch (e.kind) {
            case TimelineKind::ChaosWindow:
            case TimelineKind::Blackhole:
            case TimelineKind::Partition:
                if (!chaos_ok || spec.backend != BackendKind::Chaos)
                    throw SpecError(path, std::string{timeline_kind_name(e.kind)} +
                                              " needs world=relay, backend=chaos");
                break;
            case TimelineKind::Random:
                if (spec.world == WorldKind::Campus)
                    throw SpecError(path, "random faults are not supported on the "
                                          "sharded campus world");
                break;
            default:
                break;
        }
    }
}

namespace {

common::Json time_s(sim::Time t) { return common::Json{t.to_seconds()}; }
common::Json time_ms(sim::Time t) { return common::Json{t.to_ms()}; }

common::Json degradation_to_json(const fault::DegradationParams& p) {
    common::JsonObject o;
    o["enter_loss"] = common::Json{p.enter_loss};
    o["exit_loss"] = common::Json{p.exit_loss};
    o["enter_rtt_ms"] = common::Json{p.enter_rtt_ms};
    o["exit_rtt_ms"] = common::Json{p.exit_rtt_ms};
    o["max_level"] = common::Json{p.max_level};
    return common::Json{std::move(o)};
}

common::Json classroom_to_json(const ClassroomSpec& c) {
    common::JsonObject o;
    o["course"] = common::Json{c.course};
    o["regional_mesh"] = common::Json{c.regional_mesh};
    o["lightweight_remote"] = common::Json{c.lightweight_remote};
    o["event_bus"] = common::Json{c.event_bus};
    o["probe_rate_hz"] = common::Json{c.probe_rate_hz};
    if (c.heartbeat.enabled) {
        common::JsonObject hb;
        hb["interval_ms"] = time_ms(c.heartbeat.interval);
        hb["timeout_ms"] = time_ms(c.heartbeat.timeout);
        o["heartbeat"] = common::Json{std::move(hb)};
    }
    if (c.degradation.enabled) {
        common::Json d = degradation_to_json(c.degradation.params);
        d.as_object()["hold_s"] = time_s(c.degradation.params.hold);
        o["degradation"] = std::move(d);
    }
    if (c.recovery.enabled) {
        common::JsonObject r;
        r["checkpoint_s"] = time_s(c.recovery.checkpoint_interval);
        o["recovery"] = common::Json{std::move(r)};
    }
    if (c.admission.enabled) {
        common::JsonObject a;
        a["queue_capacity"] = common::Json{static_cast<double>(c.admission.params.queue_capacity)};
        a["shed_enter_depth"] = common::Json{static_cast<double>(c.admission.params.shed_enter_depth)};
        a["shed_exit_depth"] = common::Json{static_cast<double>(c.admission.params.shed_exit_depth)};
        a["hold_ms"] = time_ms(c.admission.params.hold);
        o["admission"] = common::Json{std::move(a)};
    }
    if (!c.rooms.empty()) {
        common::JsonArray rooms;
        for (const RoomSpec& room : c.rooms) {
            common::JsonObject r;
            if (!room.preset.empty()) {
                r["preset"] = common::Json{room.preset};
            } else {
                r["name"] = common::Json{room.name};
                r["region"] = common::Json{std::string{net::region_name(room.region)}};
                r["rows"] = common::Json{static_cast<double>(room.rows)};
                r["cols"] = common::Json{static_cast<double>(room.cols)};
            }
            r["students"] = common::Json{static_cast<double>(room.students)};
            r["instructor"] = common::Json{room.instructor};
            rooms.push_back(common::Json{std::move(r)});
        }
        o["rooms"] = common::Json{std::move(rooms)};
    }
    if (!c.remote.empty()) {
        common::JsonArray remote;
        for (const RemoteCohort& cohort : c.remote) {
            common::JsonObject r;
            r["region"] = common::Json{std::string{net::region_name(cohort.region)}};
            r["count"] = common::Json{static_cast<double>(cohort.count)};
            if (cohort.join_at > sim::Time::zero()) r["join_at_s"] = time_s(cohort.join_at);
            if (cohort.guest) r["guest"] = common::Json{true};
            remote.push_back(common::Json{std::move(r)});
        }
        o["remote"] = common::Json{std::move(remote)};
    }
    if (c.lecture_media_room)
        o["lecture_media_room"] =
            common::Json{static_cast<double>(*c.lecture_media_room)};
    if (!c.schedule.empty()) {
        common::JsonArray schedule;
        for (const ScheduleBlock& block : c.schedule) {
            common::JsonObject b;
            b["activity"] = common::Json{std::string{session::activity_name(block.kind)}};
            b["minutes"] = common::Json{block.duration.to_seconds() / 60.0};
            if (block.team_size > 0)
                b["team_size"] = common::Json{static_cast<double>(block.team_size)};
            schedule.push_back(common::Json{std::move(b)});
        }
        o["schedule"] = common::Json{std::move(schedule)};
    }
    return common::Json{std::move(o)};
}

common::Json relay_to_json(const RelaySpec& r) {
    common::JsonObject o;
    o["region"] = common::Json{std::string{net::region_name(r.region)}};
    o["serve_resync"] = common::Json{r.serve_resync};
    o["resync_freshness_s"] = time_s(r.resync_freshness);
    o["access_ms"] = time_ms(r.access_latency);
    o["batch_ms"] = time_ms(r.batch_interval);
    if (r.control.enabled) {
        common::JsonObject c;
        c["interval_ms"] = time_ms(r.control.interval);
        c["region_a"] = common::Json{std::string{net::region_name(r.control.region_a)}};
        c["region_b"] = common::Json{std::string{net::region_name(r.control.region_b)}};
        o["control"] = common::Json{std::move(c)};
    }
    common::JsonArray clients;
    for (const ClientCohort& cohort : r.clients) {
        common::JsonObject c;
        c["count"] = common::Json{static_cast<double>(cohort.count)};
        c["region"] = common::Json{std::string{net::region_name(cohort.region)}};
        if (cohort.join_at > sim::Time::zero()) c["join_at_s"] = time_s(cohort.join_at);
        if (cohort.reconnect.enabled) {
            common::JsonObject rr;
            rr["liveness_s"] = time_s(cohort.reconnect.liveness_timeout);
            rr["check_ms"] = time_ms(cohort.reconnect.check_interval);
            rr["probe_ms"] = time_ms(cohort.reconnect.probe_timeout);
            rr["backoff_base_ms"] = time_ms(cohort.reconnect.backoff_base);
            rr["backoff_cap_s"] = time_s(cohort.reconnect.backoff_cap);
            c["reconnect"] = common::Json{std::move(rr)};
        }
        if (cohort.adapt.enabled) {
            common::Json a = degradation_to_json(cohort.adapt.params);
            a.as_object()["hold_ms"] = time_ms(cohort.adapt.params.hold);
            c["self_adapt"] = std::move(a);
        }
        if (cohort.priority != "high") c["priority"] = common::Json{cohort.priority};
        clients.push_back(common::Json{std::move(c)});
    }
    o["clients"] = common::Json{std::move(clients)};
    return common::Json{std::move(o)};
}

common::Json campus_to_json(const CampusSpec& c) {
    common::JsonObject o;
    common::JsonArray regions;
    for (const net::Region r : c.regions)
        regions.push_back(common::Json{std::string{net::region_name(r)}});
    o["regions"] = common::Json{std::move(regions)};
    o["clients_per_region"] = common::Json{static_cast<double>(c.clients_per_region)};
    o["batch_ms"] = time_ms(c.batch_interval);
    o["lightweight"] = common::Json{c.lightweight};
    common::JsonObject p;
    p["buildings"] = common::Json{static_cast<double>(c.pooled.buildings)};
    p["classrooms_per_building"] =
        common::Json{static_cast<double>(c.pooled.classrooms_per_building)};
    p["avatars_per_classroom"] =
        common::Json{static_cast<double>(c.pooled.avatars_per_classroom)};
    p["viewers_per_building"] =
        common::Json{static_cast<double>(c.pooled.viewers_per_building)};
    p["tick_rate_hz"] = common::Json{c.pooled.tick_rate_hz};
    p["aggregate"] = common::Json{c.pooled.aggregate};
    p["aggregate_ms"] = time_ms(c.pooled.aggregate_interval);
    o["pooled"] = common::Json{std::move(p)};
    return common::Json{std::move(o)};
}

common::Json qoe_to_json(const QoeSpec& q) {
    common::JsonObject o;
    o["feedback_ms"] = time_ms(q.feedback_interval);
    o["aggregate_ms"] = time_ms(q.aggregate_interval);
    o["playout_ms"] = time_ms(q.playout_delay);
    o["safety"] = common::Json{q.abr.safety};
    o["reserve_bps"] = common::Json{q.abr.reserve_bps};
    o["down_loss"] = common::Json{q.abr.down_loss};
    o["up_loss"] = common::Json{q.abr.up_loss};
    o["hold_down_ms"] = time_ms(q.abr.hold_down);
    o["hold_up_ms"] = time_ms(q.abr.hold_up);
    o["dwell_ms"] = time_ms(q.abr.min_dwell);
    o["avatar_full_bps"] = common::Json{q.budget.avatar_full_bps};
    o["floor_scale"] = common::Json{q.budget.floor_scale};
    o["fovea_cos"] = common::Json{q.budget.fovea_cos};
    return common::Json{std::move(o)};
}

common::Json profile_to_json(const net::ChaosProfile& p) {
    common::JsonObject o;
    if (p.drop > 0.0) o["drop"] = common::Json{p.drop};
    if (p.ge_p_bad > 0.0) o["ge_p_bad"] = common::Json{p.ge_p_bad};
    if (p.ge_p_good > 0.0) o["ge_p_good"] = common::Json{p.ge_p_good};
    if (p.ge_loss_bad != 1.0) o["ge_loss_bad"] = common::Json{p.ge_loss_bad};
    if (p.ge_loss_good != 0.0) o["ge_loss_good"] = common::Json{p.ge_loss_good};
    if (p.duplicate > 0.0) o["duplicate"] = common::Json{p.duplicate};
    if (p.reorder > 0.0) {
        o["reorder"] = common::Json{p.reorder};
        o["reorder_hold_ms"] = time_ms(p.reorder_hold);
    }
    if (p.delay > sim::Time::zero()) o["delay_ms"] = time_ms(p.delay);
    if (p.jitter > sim::Time::zero()) o["jitter_ms"] = time_ms(p.jitter);
    if (p.corrupt > 0.0) o["corrupt"] = common::Json{p.corrupt};
    if (p.throttle_bps > 0.0) {
        o["throttle_bps"] = common::Json{p.throttle_bps};
        o["throttle_backlog_ms"] = time_ms(p.throttle_backlog);
    }
    return common::Json{std::move(o)};
}

common::Json model_to_json(const fault::FaultModel& m) {
    common::JsonObject o;
    o["flaps_per_min"] = common::Json{m.link_flaps_per_min};
    o["mean_outage_s"] = time_s(m.mean_outage);
    o["bursts_per_min"] = common::Json{m.loss_bursts_per_min};
    o["mean_burst_s"] = time_s(m.mean_burst);
    o["burst_loss"] = common::Json{m.burst_loss};
    o["spikes_per_min"] = common::Json{m.latency_spikes_per_min};
    o["mean_spike_s"] = time_s(m.mean_spike);
    o["spike_extra_ms"] = time_ms(m.spike_extra_latency);
    o["crashes_per_min"] = common::Json{m.node_crashes_per_min};
    o["mean_downtime_s"] = time_s(m.mean_downtime);
    return common::Json{std::move(o)};
}

common::Json timeline_entry_to_json(const TimelineEntry& e) {
    common::JsonObject o;
    o["kind"] = common::Json{std::string{timeline_kind_name(e.kind)}};
    switch (e.kind) {
        case TimelineKind::LinkOutage:
        case TimelineKind::Partition:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["a"] = common::Json{e.a};
            o["b"] = common::Json{e.b};
            break;
        case TimelineKind::LossBurst:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["a"] = common::Json{e.a};
            o["b"] = common::Json{e.b};
            o["loss"] = common::Json{e.loss};
            break;
        case TimelineKind::LatencySpike:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["a"] = common::Json{e.a};
            o["b"] = common::Json{e.b};
            o["extra_ms"] = time_ms(e.extra_latency);
            break;
        case TimelineKind::NodeOutage:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["node"] = common::Json{e.a};
            break;
        case TimelineKind::ChaosWindow:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["a"] = common::Json{e.a};
            o["b"] = common::Json{e.b};
            o["profile"] = profile_to_json(e.profile);
            break;
        case TimelineKind::Blackhole:
            o["at_s"] = time_s(e.at);
            o["duration_s"] = time_s(e.duration);
            o["from"] = common::Json{e.a};
            o["to"] = common::Json{e.b};
            break;
        case TimelineKind::Random: {
            o["from_s"] = time_s(e.from);
            o["until_s"] = time_s(e.until);
            o["stream"] = common::Json{e.stream};
            o["model"] = model_to_json(e.model);
            if (!e.links.empty()) {
                common::JsonArray links;
                for (const auto& [a, b] : e.links) {
                    common::JsonArray pair;
                    pair.push_back(common::Json{a});
                    pair.push_back(common::Json{b});
                    links.push_back(common::Json{std::move(pair)});
                }
                o["links"] = common::Json{std::move(links)};
            }
            if (!e.nodes.empty()) {
                common::JsonArray nodes;
                for (const std::string& n : e.nodes) nodes.push_back(common::Json{n});
                o["nodes"] = common::Json{std::move(nodes)};
            }
            break;
        }
    }
    return common::Json{std::move(o)};
}

}  // namespace

common::Json spec_to_json(const ScenarioSpec& spec) {
    common::JsonObject o;
    o["scenario_version"] = common::Json{spec.version};
    o["name"] = common::Json{spec.name};
    o["world"] = common::Json{std::string{world_name(spec.world)}};
    o["backend"] = common::Json{std::string{backend_name(spec.backend)}};
    o["seed"] = common::Json{static_cast<double>(spec.seed)};
    o["duration_s"] = time_s(spec.duration);
    o["hash_ms"] = time_ms(spec.hash_interval);
    switch (spec.world) {
        case WorldKind::Classroom:
            o["classroom"] = classroom_to_json(spec.classroom);
            break;
        case WorldKind::Relay:
            o["relay"] = relay_to_json(spec.relay);
            break;
        case WorldKind::Campus:
            o["campus"] = campus_to_json(spec.campus);
            break;
    }
    if (spec.qoe.enabled) o["qoe"] = qoe_to_json(spec.qoe);
    if (!spec.timeline.empty()) {
        common::JsonArray timeline;
        for (const TimelineEntry& e : spec.timeline)
            timeline.push_back(timeline_entry_to_json(e));
        o["timeline"] = common::Json{std::move(timeline)};
    }
    if (!spec.slos.empty()) {
        common::JsonArray slos;
        for (const SloGate& g : spec.slos) {
            common::JsonObject s;
            s["metric"] = common::Json{g.metric};
            if (g.min) s["min"] = common::Json{*g.min};
            if (g.max) s["max"] = common::Json{*g.max};
            slos.push_back(common::Json{std::move(s)});
        }
        o["slos"] = common::Json{std::move(slos)};
    }
    return common::Json{std::move(o)};
}

std::string spec_stamp(const ScenarioSpec& spec) {
    std::ostringstream out;
    out << "scenario:" << spec.name << " v" << spec.version << " world="
        << world_name(spec.world) << " backend=" << backend_name(spec.backend)
        << " seed=" << spec.seed << " dur_s=" << spec.duration.to_seconds();
    return out.str();
}

}  // namespace mvc::scenario
