#pragma once
// Interest-grid-driven delta aggregation at egress. Per-client fan-out asks
// "who should see this update?" once per update per viewer — O(updates x
// viewers) tier checks and one enqueue per pair. The aggregator inverts the
// loop: dirty deltas accumulate for one aggregation interval, are grouped by
// interest-grid cell once, and each viewer's packet is assembled from the
// cells its interest tiers select — the tier test runs per (cell, viewer),
// not per (update, viewer), and the per-viewer rate clock collapses from
// per-entity to per-tier. Shipped batches ride the existing WireBatcher, so
// every destination still receives one coalesced AvatarBatchWire per flush.
//
// Flush cost: the sort orders compact {cell, participant, seq, index} keys,
// not the pending wires themselves. Per cell, the admitted viewers are
// decided once; each delta then walks those viewers, copied into every
// receiving batch but the last, which takes the wire by move — so a delta
// with one receiver is never copied. The self-echo skip applies before the
// last receiver is picked.
//
// Determinism: pending deltas are sorted by (cell, participant, seq),
// viewers are kept sorted by node id, and the batcher flushes destinations
// in NodeId order — aggregated egress is byte-identical for any thread
// count, same as the rest of the sharded engine. Each destination's batch
// holds its updates in (cell, participant, seq) order whichever loop nests
// outside.

#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "sync/batcher.hpp"
#include "sync/interest.hpp"
#include "sync/wire.hpp"

namespace mvc::sync {

class CellDeltaAggregator {
public:
    /// Deltas enqueued on this aggregator are grouped by `cell_size` cells
    /// and shipped from `src` every `interval` to the viewers whose `policy`
    /// tiers select their cell.
    CellDeltaAggregator(net::Backend& net, net::NodeId src, sim::Time interval,
                        double cell_size, InterestPolicy policy = {});

    CellDeltaAggregator(const CellDeltaAggregator&) = delete;
    CellDeltaAggregator& operator=(const CellDeltaAggregator&) = delete;

    /// Register / re-position / drop a receiving viewer. `self` suppresses
    /// echoing a viewer's own avatar back to it.
    void add_viewer(net::NodeId node, ParticipantId self, const math::Vec3& position);
    void remove_viewer(net::NodeId node);
    void clear_viewers() { viewers_.clear(); }
    [[nodiscard]] std::size_t viewer_count() const { return viewers_.size(); }

    /// Attach QoE-driven attention state to a viewer (see qoe::BudgetAllocator):
    /// `gaze` is the world-space view direction (zero = no gaze signal, the
    /// whole view is peripheral), `fovea_cos` the gaze-cone threshold, and the
    /// two banks are per-tier rate scales multiplied into this viewer's tier
    /// clocks — foveal for cells inside the cone, peripheral outside — so
    /// avatar update rates degrade by attention rather than uniformly.
    /// Viewers without QoE state take the exact legacy path (byte-identical).
    void set_viewer_qoe(net::NodeId node, const math::Vec3& gaze, double fovea_cos,
                        std::vector<double> foveal, std::vector<double> peripheral);
    void clear_viewer_qoe(net::NodeId node);

    /// Queue one dirty delta; `position` decides its cell. Arms the flush
    /// timer if idle.
    void enqueue(const math::Vec3& position, AvatarWire wire);

    /// Group pending deltas by cell, select each viewer's cells by tier
    /// distance (nearest point of the cell's AABB) and per-tier rate clock,
    /// and ship one batch per destination now.
    void flush();

    [[nodiscard]] const WireBatcher& batcher() const { return batcher_; }
    [[nodiscard]] std::uint64_t updates_enqueued() const { return updates_enqueued_; }
    [[nodiscard]] std::uint64_t updates_shipped() const { return updates_shipped_; }
    [[nodiscard]] std::uint64_t suppressed_by_aoi() const { return suppressed_aoi_; }
    [[nodiscard]] std::uint64_t suppressed_by_rate() const { return suppressed_rate_; }
    /// Runs suppressed because a QoE rate scale was zero for the tier.
    [[nodiscard]] std::uint64_t suppressed_by_budget() const { return suppressed_budget_; }

private:
    /// Sort key of one pending delta; `index` is its slot in `pending_`.
    struct DeltaKey {
        InterestGrid::Cell cell;
        ParticipantId participant;
        std::uint32_t seq;
        std::uint32_t index;
    };
    struct ViewerState {
        net::NodeId node{net::kInvalidNode};
        ParticipantId self;
        math::Vec3 position;
        /// Per-tier rate clocks + per-flush admission/shipped scratch. For a
        /// QoE viewer these arrays are the *peripheral* bank (scales applied);
        /// without QoE state they run at the tiers' native rates, unchanged.
        std::vector<sim::Time> next_due;
        std::vector<std::uint8_t> admitted;
        std::vector<std::uint8_t> shipped;
        /// QoE attention state (set_viewer_qoe): gaze cone + per-tier scale
        /// banks, with a second clock bank for cells inside the cone.
        bool qoe{false};
        math::Vec3 gaze;
        double fovea_cos{0.866};
        std::vector<double> foveal_scale;
        std::vector<double> peripheral_scale;
        std::vector<sim::Time> next_due_fov;
        std::vector<std::uint8_t> admitted_fov;
        std::vector<std::uint8_t> shipped_fov;
    };

    net::Backend& net_;
    InterestPolicy policy_;
    double cell_size_;
    sim::Time interval_;
    WireBatcher batcher_;
    std::vector<ViewerState> viewers_;  // sorted by node id
    std::vector<AvatarWire> pending_;
    std::vector<DeltaKey> keys_;
    std::vector<std::uint32_t> receivers_;  // flush scratch: one cell's admitted viewers
    bool armed_{false};
    std::uint64_t updates_enqueued_{0};
    std::uint64_t updates_shipped_{0};
    std::uint64_t suppressed_aoi_{0};
    std::uint64_t suppressed_rate_{0};
    std::uint64_t suppressed_budget_{0};

    [[nodiscard]] std::vector<ViewerState>::iterator find_viewer(net::NodeId node);
};

}  // namespace mvc::sync
