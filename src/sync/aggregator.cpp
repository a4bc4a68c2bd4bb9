#include "sync/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mvc::sync {

CellDeltaAggregator::CellDeltaAggregator(net::Backend& net, net::NodeId src,
                                         sim::Time interval, double cell_size,
                                         InterestPolicy policy)
    : net_(net),
      policy_(std::move(policy)),
      cell_size_(cell_size),
      interval_(interval),
      batcher_(net, src, interval) {
    if (cell_size <= 0.0)
        throw std::invalid_argument("CellDeltaAggregator: cell size > 0");
}

std::vector<CellDeltaAggregator::ViewerState>::iterator
CellDeltaAggregator::find_viewer(net::NodeId node) {
    return std::lower_bound(
        viewers_.begin(), viewers_.end(), node,
        [](const ViewerState& v, net::NodeId n) { return v.node < n; });
}

void CellDeltaAggregator::add_viewer(net::NodeId node, ParticipantId self,
                                     const math::Vec3& position) {
    auto it = find_viewer(node);
    if (it != viewers_.end() && it->node == node) {
        it->self = self;
        it->position = position;
        return;
    }
    ViewerState v{.node = node, .self = self, .position = position};
    v.next_due.assign(policy_.tiers().size(), sim::Time{});
    v.admitted.assign(policy_.tiers().size(), 0);
    v.shipped.assign(policy_.tiers().size(), 0);
    viewers_.insert(it, std::move(v));
}

void CellDeltaAggregator::set_viewer_qoe(net::NodeId node, const math::Vec3& gaze,
                                         double fovea_cos, std::vector<double> foveal,
                                         std::vector<double> peripheral) {
    auto it = find_viewer(node);
    if (it == viewers_.end() || it->node != node) return;
    ViewerState& v = *it;
    const std::size_t tiers = policy_.tiers().size();
    v.gaze = gaze.normalized();
    v.fovea_cos = fovea_cos;
    v.foveal_scale = std::move(foveal);
    v.peripheral_scale = std::move(peripheral);
    v.foveal_scale.resize(tiers, 1.0);
    v.peripheral_scale.resize(tiers, 1.0);
    if (!v.qoe) {
        // The foveal bank starts due now, like a freshly added viewer's.
        v.qoe = true;
        v.next_due_fov.assign(tiers, sim::Time{});
        v.admitted_fov.assign(tiers, 0);
        v.shipped_fov.assign(tiers, 0);
    }
}

void CellDeltaAggregator::clear_viewer_qoe(net::NodeId node) {
    auto it = find_viewer(node);
    if (it == viewers_.end() || it->node != node) return;
    it->qoe = false;
    it->foveal_scale.clear();
    it->peripheral_scale.clear();
    it->next_due_fov.clear();
    it->admitted_fov.clear();
    it->shipped_fov.clear();
}

void CellDeltaAggregator::remove_viewer(net::NodeId node) {
    auto it = find_viewer(node);
    if (it != viewers_.end() && it->node == node) viewers_.erase(it);
}

void CellDeltaAggregator::enqueue(const math::Vec3& position, AvatarWire wire) {
    const auto cell = InterestGrid::Cell{
        static_cast<std::int32_t>(std::floor(position.x / cell_size_)),
        static_cast<std::int32_t>(std::floor(position.y / cell_size_)),
        static_cast<std::int32_t>(std::floor(position.z / cell_size_))};
    keys_.push_back(DeltaKey{cell, wire.participant, wire.seq,
                             static_cast<std::uint32_t>(pending_.size())});
    pending_.push_back(std::move(wire));
    ++updates_enqueued_;
    if (armed_) return;
    armed_ = true;
    net_.clock().schedule_after(interval_, [this] {
        armed_ = false;
        flush();
    });
}

void CellDeltaAggregator::flush() {
    if (pending_.empty()) return;
    const sim::Time now = net_.clock().now();
    const auto& tiers = policy_.tiers();
    // Admission is decided once per (viewer, tier) per flush: a tier whose
    // clock is due drains every cell it selects this flush, then re-arms.
    for (ViewerState& v : viewers_) {
        for (std::size_t t = 0; t < tiers.size(); ++t) {
            v.admitted[t] = now >= v.next_due[t] ? 1 : 0;
            v.shipped[t] = 0;
        }
        if (v.qoe) {
            for (std::size_t t = 0; t < tiers.size(); ++t) {
                v.admitted_fov[t] = now >= v.next_due_fov[t] ? 1 : 0;
                v.shipped_fov[t] = 0;
            }
        }
    }
    std::sort(keys_.begin(), keys_.end(), [](const DeltaKey& a, const DeltaKey& b) {
        if (a.cell != b.cell) return a.cell < b.cell;
        if (a.participant != b.participant) return a.participant < b.participant;
        return a.seq < b.seq;
    });
    std::size_t i = 0;
    while (i < keys_.size()) {
        const InterestGrid::Cell cell = keys_[i].cell;
        std::size_t j = i + 1;
        while (j < keys_.size() && keys_[j].cell == cell) ++j;
        const std::uint64_t run = j - i;
        const math::Vec3 lo{cell.x * cell_size_, cell.y * cell_size_,
                            cell.z * cell_size_};
        const math::Vec3 hi{lo.x + cell_size_, lo.y + cell_size_, lo.z + cell_size_};
        receivers_.clear();
        for (std::uint32_t vi = 0; vi < viewers_.size(); ++vi) {
            ViewerState& v = viewers_[vi];
            // Distance from the viewer to the nearest point of the cell's
            // AABB: conservative, so a cell is never dropped for a viewer
            // one of its entities is actually in range of.
            const double dx = std::max({lo.x - v.position.x, 0.0, v.position.x - hi.x});
            const double dy = std::max({lo.y - v.position.y, 0.0, v.position.y - hi.y});
            const double dz = std::max({lo.z - v.position.z, 0.0, v.position.z - hi.z});
            const int t = policy_.tier_index_for(std::sqrt(dx * dx + dy * dy + dz * dz));
            if (t < 0) {
                suppressed_aoi_ += run;
                continue;
            }
            const auto ti = static_cast<std::size_t>(t);
            // QoE viewers pick a clock bank by attention: the cell is foveal
            // when its centre lies inside the viewer's gaze cone (a viewer
            // standing inside the cell is always foveal — the cell surrounds
            // them). Each bank's rate is the tier's native rate times the
            // bank's scale for this tier.
            bool foveal = false;
            if (v.qoe) {
                const math::Vec3 centre = lerp(lo, hi, 0.5);
                const math::Vec3 dir = centre - v.position;
                const double n = dir.norm();
                foveal = v.gaze != math::Vec3::zero() &&
                         (n <= 0.0 || dir.dot(v.gaze) >= v.fovea_cos * n);
                const double scale =
                    foveal ? v.foveal_scale[ti] : v.peripheral_scale[ti];
                if (scale <= 0.0) {
                    suppressed_budget_ += run;
                    continue;
                }
            }
            std::vector<std::uint8_t>& admitted =
                v.qoe && foveal ? v.admitted_fov : v.admitted;
            std::vector<std::uint8_t>& shipped =
                v.qoe && foveal ? v.shipped_fov : v.shipped;
            if (!admitted[ti]) {
                suppressed_rate_ += run;
                continue;
            }
            shipped[ti] = 1;
            receivers_.push_back(vi);
        }
        for (std::size_t k = i; k < j; ++k) {
            const DeltaKey& key = keys_[k];
            // The last admitted viewer that is not the delta's own sender
            // takes the wire by move; every earlier one gets a copy.
            std::size_t last = receivers_.size();
            while (last > 0 && viewers_[receivers_[last - 1]].self == key.participant)
                --last;
            if (last == 0) continue;
            AvatarWire& wire = pending_[key.index];
            for (std::size_t r = 0; r + 1 < last; ++r) {
                const ViewerState& v = viewers_[receivers_[r]];
                if (v.self == key.participant) continue;
                batcher_.enqueue(v.node, wire);
                ++updates_shipped_;
            }
            batcher_.enqueue(viewers_[receivers_[last - 1]].node, std::move(wire));
            ++updates_shipped_;
        }
        i = j;
    }
    for (ViewerState& v : viewers_) {
        for (std::size_t t = 0; t < tiers.size(); ++t) {
            if (v.shipped[t]) {
                const double scale = v.qoe ? v.peripheral_scale[t] : 1.0;
                v.next_due[t] =
                    now + sim::Time::seconds(1.0 / (tiers[t].update_rate_hz * scale));
            }
            if (v.qoe && v.shipped_fov[t]) {
                v.next_due_fov[t] =
                    now + sim::Time::seconds(
                              1.0 / (tiers[t].update_rate_hz * v.foveal_scale[t]));
            }
        }
    }
    pending_.clear();
    keys_.clear();
    batcher_.flush();
}

}  // namespace mvc::sync
