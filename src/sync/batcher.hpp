#pragma once
// Per-destination coalescing of avatar updates. A fan-out sender (cloud
// origin, relay, edge) enqueues each outbound update with its destination;
// the batcher holds them for one batch interval and then ships one
// AvatarBatchWire packet per destination. On WAN and cross-shard paths this
// turns N per-tick packets into one, cutting per-packet header overhead and
// — in sharded runs — boundary messages, at the cost of up to one interval
// of added latency.
//
// Determinism: the flush event is scheduled through the owning shard's
// simulator and destinations are flushed in NodeId order, so batched runs
// are as reproducible as unbatched ones.

#include <cstdint>
#include <map>

#include "net/channel.hpp"
#include "sync/wire.hpp"

namespace mvc::sync {

class WireBatcher {
public:
    /// Batches are sent from `src` on kAvatarBatchFlow (realtime priority)
    /// every `interval`.
    WireBatcher(net::Backend& net, net::NodeId src, sim::Time interval);

    WireBatcher(const WireBatcher&) = delete;
    WireBatcher& operator=(const WireBatcher&) = delete;

    /// Queue one update for `dst`; arms the flush timer if idle.
    void enqueue(net::NodeId dst, AvatarWire wire);
    /// Ship all pending batches now (also runs on every timer expiry).
    void flush();

    [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
    [[nodiscard]] std::uint64_t updates_batched() const { return updates_batched_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

private:
    net::Backend& net_;
    net::Channel tx_;
    sim::Time interval_;
    std::map<net::NodeId, AvatarBatchWire> pending_;
    bool armed_{false};
    std::uint64_t batches_sent_{0};
    std::uint64_t updates_batched_{0};
    std::uint64_t bytes_sent_{0};
};

}  // namespace mvc::sync
