#pragma once
// The one egress decision of every server that passes avatar updates on
// (cloud, relay, edge, campus gateway): who gets a copy of an update, by
// which path, and how it is counted (DESIGN §8.5).
//  - to_viewers: client-bound. Per-update InterestFanout packets sharing one
//    payload box, or, with an aggregation interval, a CellDeltaAggregator.
//  - to_node: server-bound. One packet per update, or, with a batch
//    interval, a WireBatcher.
// An AvatarWire rvalue is moved into the aggregator, batcher or payload box;
// a shared net::Payload is copied by aggregator and batcher. Each verb
// returns the copies it put in flight (one per aggregator hand-off), so an
// owner charges copies x process_out in one call.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "sync/aggregator.hpp"
#include "sync/batcher.hpp"
#include "sync/fanout.hpp"
#include "sync/wire.hpp"

namespace mvc::sync {

struct EgressParams {
    InterestPolicy interest{};
    /// false: every viewer but the entity itself gets every update (E4).
    bool interest_enabled{true};
    /// Server-bound coalescing; zero sends each update in its own packet.
    sim::Time batch_interval{};
    /// Client-bound aggregation; zero keeps per-update fan-out.
    sim::Time aggregate_interval{};
    /// Aggregation cell edge (metres).
    double cell_size{8.0};
};

class Egress {
public:
    Egress(net::Backend& net, net::NodeId src, EgressParams params);

    Egress(const Egress&) = delete;
    Egress& operator=(const Egress&) = delete;

    /// Register or re-position a viewer with the active client policy;
    /// `self` suppresses echoing the viewer's own avatar back to it.
    void add_viewer(net::NodeId node, ParticipantId self, const math::Vec3& position);
    void remove_viewer(net::NodeId node);
    /// Drop every viewer (a server crash); rate clocks are kept.
    void clear_viewers();

    void upsert_entity(ParticipantId who, const math::Vec3& position) {
        fanout_.upsert_entity(who, position);
    }
    void remove_entity(ParticipantId who) { fanout_.remove_entity(who); }
    /// Tracked position of `who`, or the origin when untracked.
    [[nodiscard]] math::Vec3 entity_position(ParticipantId who) const {
        return fanout_.entity_position(who);
    }

    std::size_t to_viewers(const math::Vec3& position, AvatarWire&& wire) {
        // Inline: the campus tick hands every dirty avatar over here.
        if (aggregator_) {
            aggregator_->enqueue(position, std::move(wire));
            return 1;
        }
        return to_viewers(position, net::Payload{std::move(wire)});
    }
    std::size_t to_viewers(const math::Vec3& position, const net::Payload& update);
    std::size_t to_node(net::NodeId dst, AvatarWire&& wire);
    std::size_t to_node(net::NodeId dst, const net::Payload& update);

    /// Per-update copies (fan-out packets and server-bound copies) and their
    /// update bytes, headers excluded; aggregated deltas are not counted.
    [[nodiscard]] std::uint64_t messages_out() const { return viewer_copies_ + node_copies_; }
    [[nodiscard]] std::uint64_t egress_bytes() const { return viewer_bytes_ + node_bytes_; }
    /// Client-bound updates shipped and their wire bytes, headers included.
    [[nodiscard]] std::uint64_t updates_shipped() const;
    [[nodiscard]] std::uint64_t client_bytes() const;
    [[nodiscard]] std::uint64_t suppressed_by_aoi() const;
    [[nodiscard]] std::uint64_t suppressed_by_rate() const;

    /// Client-bound aggregator (QoE hooks); nullptr under per-update fan-out.
    [[nodiscard]] CellDeltaAggregator* aggregator() { return aggregator_.get(); }

private:
    net::Backend& net_;
    InterestFanout fanout_;
    /// Per-packet avatar sends; absent when both policies coalesce.
    std::optional<net::Channel> tx_;
    std::unique_ptr<WireBatcher> batcher_;
    std::unique_ptr<CellDeltaAggregator> aggregator_;
    std::vector<net::NodeId> targets_;
    std::uint64_t viewer_copies_{0};
    std::uint64_t viewer_bytes_{0};
    std::uint64_t node_copies_{0};
    std::uint64_t node_bytes_{0};
};

}  // namespace mvc::sync
