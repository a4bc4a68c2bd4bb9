#include "sync/egress.hpp"

#include <string>

namespace mvc::sync {

Egress::Egress(net::Backend& net, net::NodeId src, EgressParams params)
    : net_(net), fanout_(params.interest, params.interest_enabled) {
    const bool batched = params.batch_interval > sim::Time::zero();
    const bool aggregated = params.aggregate_interval > sim::Time::zero();
    if (!batched || !aggregated) {
        tx_.emplace(net.open_channel({.src = src,
                                      .flow = std::string{kAvatarFlow},
                                      .options = {.priority = net::Priority::Realtime}}));
    }
    if (batched) batcher_ = std::make_unique<WireBatcher>(net, src, params.batch_interval);
    if (aggregated) {
        aggregator_ = std::make_unique<CellDeltaAggregator>(
            net, src, params.aggregate_interval, params.cell_size, std::move(params.interest));
    }
}

void Egress::add_viewer(net::NodeId node, ParticipantId self, const math::Vec3& position) {
    if (aggregator_) return aggregator_->add_viewer(node, self, position);
    fanout_.add_viewer(Viewer{node, self, position});
}

void Egress::remove_viewer(net::NodeId node) {
    if (aggregator_) return aggregator_->remove_viewer(node);
    fanout_.remove_viewer(node);
}

void Egress::clear_viewers() {
    if (aggregator_) return aggregator_->clear_viewers();
    fanout_.clear_viewers();
}

std::size_t Egress::to_viewers(const math::Vec3& position, const net::Payload& update) {
    const auto& wire = update.get<AvatarWire>();
    if (aggregator_) {
        aggregator_->enqueue(position, wire);
        return 1;
    }
    fanout_.due_targets_into(wire.participant, position, net_.clock().now(), targets_);
    const std::size_t size = wire.wire_bytes();
    for (const net::NodeId target : targets_) tx_->send_to(target, size, update);
    viewer_copies_ += targets_.size();
    viewer_bytes_ += targets_.size() * size;
    return targets_.size();
}

std::size_t Egress::to_node(net::NodeId dst, AvatarWire&& wire) {
    // Sized before the move empties `wire`.
    const std::size_t size = wire.wire_bytes();
    ++node_copies_;
    node_bytes_ += size;
    if (batcher_)
        batcher_->enqueue(dst, std::move(wire));
    else
        tx_->send_to(dst, size, std::move(wire));
    return 1;
}

std::size_t Egress::to_node(net::NodeId dst, const net::Payload& update) {
    const auto& wire = update.get<AvatarWire>();
    ++node_copies_;
    node_bytes_ += wire.wire_bytes();
    if (batcher_)
        batcher_->enqueue(dst, wire);
    else
        tx_->send_to(dst, wire.wire_bytes(), update);
    return 1;
}

std::uint64_t Egress::updates_shipped() const {
    return aggregator_ ? aggregator_->updates_shipped() : viewer_copies_;
}

std::uint64_t Egress::client_bytes() const {
    if (!aggregator_) return viewer_bytes_ + viewer_copies_ * net::kHeaderBytes;
    const WireBatcher& wb = aggregator_->batcher();
    return wb.bytes_sent() + wb.batches_sent() * net::kHeaderBytes;
}

std::uint64_t Egress::suppressed_by_aoi() const {
    return aggregator_ ? aggregator_->suppressed_by_aoi() : fanout_.suppressed_by_aoi();
}

std::uint64_t Egress::suppressed_by_rate() const {
    return aggregator_ ? aggregator_->suppressed_by_rate() : fanout_.suppressed_by_rate();
}

}  // namespace mvc::sync
