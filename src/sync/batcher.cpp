#include "sync/batcher.hpp"

#include <utility>

namespace mvc::sync {

WireBatcher::WireBatcher(net::Backend& net, net::NodeId src, sim::Time interval)
    : net_(net),
      tx_(net.open_channel({.src = src,
                            .flow = std::string{kAvatarBatchFlow},
                            .options = {.priority = net::Priority::Realtime}})),
      interval_(interval) {}

void WireBatcher::enqueue(net::NodeId dst, AvatarWire wire) {
    pending_[dst].updates.push_back(std::move(wire));
    ++updates_batched_;
    if (armed_) return;
    armed_ = true;
    net_.clock().schedule_after(interval_, [this] {
        armed_ = false;
        flush();
    });
}

void WireBatcher::flush() {
    // Map nodes are kept between flushes: erasing them would make the first
    // post-flush enqueue for each destination re-allocate its node every
    // interval. Destinations with nothing queued are skipped.
    for (auto& [dst, batch] : pending_) {
        if (batch.updates.empty()) continue;
        const std::size_t size = batch.wire_bytes();
        bytes_sent_ += size;
        ++batches_sent_;
        tx_.send_to(dst, size, std::move(batch));
        batch = AvatarBatchWire{};
    }
}

}  // namespace mvc::sync
