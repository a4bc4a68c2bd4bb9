// Campus-scale hot path (E22): the SoA AvatarPool's handle/packing
// contract and wire round-trip, the flat InterestGrid's incremental
// rebuild and allocation-free query overloads, cell-delta aggregated
// egress semantics, and CampusWorld's thread-count determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/avatar_pool.hpp"
#include "core/campus.hpp"
#include "math/vec3.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "sync/aggregator.hpp"
#include "sync/interest.hpp"
#include "sync/wire.hpp"

namespace mvc::core {
namespace {

// ------------------------------------------------------------ AvatarPool

TEST(AvatarPoolTest, HandlesStayStableAcrossSwapRemove) {
    AvatarPool pool;
    const AvatarHandle a = pool.add(EntityId{10}, {1, 0, 0});
    const AvatarHandle b = pool.add(EntityId{20}, {2, 0, 0});
    const AvatarHandle c = pool.add(EntityId{30}, {3, 0, 0});
    ASSERT_EQ(pool.size(), 3u);

    // Removing the middle row swaps the last row into its place; a and c
    // must still resolve, and c's data must follow it to the new row.
    EXPECT_TRUE(pool.remove(b));
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_TRUE(pool.alive(a));
    EXPECT_FALSE(pool.alive(b));
    EXPECT_TRUE(pool.alive(c));
    const std::uint32_t ci = pool.index_of(c);
    ASSERT_NE(ci, AvatarPool::kNoIndex);
    EXPECT_EQ(pool.ids()[ci], EntityId{30});
    EXPECT_DOUBLE_EQ(pool.positions()[ci].x, 3.0);
    EXPECT_EQ(pool.handle_at(ci), c);
}

TEST(AvatarPoolTest, FreeListReuseBumpsGeneration) {
    AvatarPool pool;
    const AvatarHandle first = pool.add(EntityId{1}, {0, 0, 0});
    ASSERT_TRUE(pool.remove(first));
    EXPECT_EQ(pool.free_slots(), 1u);

    const AvatarHandle second = pool.add(EntityId{2}, {0, 0, 0});
    EXPECT_EQ(pool.free_slots(), 0u);
    // Same slot, new generation: the stale handle must not alias the new
    // occupant.
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_NE(second.generation, first.generation);
    EXPECT_FALSE(pool.alive(first));
    EXPECT_EQ(pool.index_of(first), AvatarPool::kNoIndex);
    EXPECT_FALSE(pool.remove(first));
    EXPECT_TRUE(pool.alive(second));
}

TEST(AvatarPoolTest, AddSetsDirtyAndClearDirtyResets) {
    AvatarPool pool;
    pool.add(EntityId{1}, {0, 0, 0});
    pool.add(EntityId{2}, {1, 0, 0});
    EXPECT_EQ(pool.dirty()[0], 1u);
    EXPECT_EQ(pool.dirty()[1], 1u);
    pool.clear_dirty();
    EXPECT_EQ(pool.dirty()[0], 0u);
    EXPECT_EQ(pool.dirty()[1], 0u);
}

TEST(AvatarPoolTest, RecordRoundTripsThroughWireBytes) {
    AvatarPool pool;
    const AvatarHandle h = pool.add(EntityId{77}, {1.5, -2.25, 3.125},
                                    {0.5, 0.0, -0.75});
    const std::uint32_t i = pool.index_of(h);
    pool.seqs()[i] = 9001;
    pool.lods()[i] = 3;

    std::vector<std::uint8_t> bytes;
    pool.encode_record(i, bytes);
    ASSERT_EQ(bytes.size(), AvatarPool::kRecordBytes);

    const AvatarPool::Record r = AvatarPool::decode_record(bytes.data());
    EXPECT_EQ(r.id, EntityId{77});
    EXPECT_EQ(r.seq, 9001u);
    EXPECT_EQ(r.lod, 3u);
    // Values chosen exactly representable in f32, so the round trip is exact.
    EXPECT_DOUBLE_EQ(r.position.x, 1.5);
    EXPECT_DOUBLE_EQ(r.position.y, -2.25);
    EXPECT_DOUBLE_EQ(r.position.z, 3.125);
    EXPECT_DOUBLE_EQ(r.velocity.x, 0.5);
    EXPECT_DOUBLE_EQ(r.velocity.z, -0.75);
}

// ---------------------------------------------------------- InterestGrid

TEST(FlatGridTest, IncrementalRebuildMatchesFromScratch) {
    sync::InterestGrid incremental{4.0};
    // Seed a population, commit, then move a small fraction across cells —
    // the incremental (sort movers + merge) path.
    for (std::uint32_t i = 1; i <= 300; ++i) {
        incremental.update(EntityId{i},
                           {static_cast<double>(i % 17), 0.0,
                            static_cast<double>(i % 23)});
    }
    incremental.rebuild();
    for (std::uint32_t i = 1; i <= 300; i += 25) {
        incremental.update(EntityId{i},
                           {static_cast<double>(i % 13) + 40.0, 0.0,
                            static_cast<double>(i % 7) - 40.0});
    }
    incremental.rebuild();
    EXPECT_GT(incremental.incremental_rebuilds(), 0u);

    // A grid fed the same final positions from scratch must answer every
    // query identically.
    sync::InterestGrid scratch{4.0};
    for (std::uint32_t i = 1; i <= 300; ++i) {
        const math::Vec3* p = incremental.position_of(EntityId{i});
        ASSERT_NE(p, nullptr);
        scratch.update(EntityId{i}, *p);
    }
    for (const math::Vec3 center :
         {math::Vec3{0, 0, 0}, math::Vec3{8, 0, 8}, math::Vec3{42, 0, -38}}) {
        for (const double radius : {3.0, 9.0, 25.0}) {
            EXPECT_EQ(incremental.query_radius(center, radius),
                      scratch.query_radius(center, radius));
        }
    }
}

TEST(FlatGridTest, QueryIntoOverloadsMatchAllocatingQueries) {
    sync::InterestGrid grid{3.0};
    for (std::uint32_t i = 1; i <= 120; ++i) {
        grid.update(EntityId{i}, {static_cast<double>(i % 11) * 2.0, 0.0,
                                  static_cast<double>(i % 9) * 2.0});
    }
    std::vector<EntityId> out;
    for (const double radius : {2.0, 7.0, 50.0}) {
        grid.query_radius_into({5, 0, 5}, radius, out);
        EXPECT_EQ(out, grid.query_radius({5, 0, 5}, radius));
        grid.query_nearest_into({5, 0, 5}, radius, 10, out);
        EXPECT_EQ(out, grid.query_nearest({5, 0, 5}, radius, 10));
    }
    // The buffer is reused, not grown per call: results are cleared first.
    grid.query_radius_into({1000, 0, 1000}, 1.0, out);
    EXPECT_TRUE(out.empty());
}

TEST(FlatGridTest, RemoveAfterCommitForcesConsistentFullRebuild) {
    sync::InterestGrid grid{2.0};
    for (std::uint32_t i = 1; i <= 50; ++i)
        grid.update(EntityId{i}, {static_cast<double>(i), 0.0, 0.0});
    grid.rebuild();
    grid.remove(EntityId{25});
    std::vector<EntityId> out;
    grid.query_radius_into({25.0, 0, 0}, 0.5, out);
    EXPECT_TRUE(out.empty());
    grid.query_radius_into({24.0, 0, 0}, 0.5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], EntityId{24});
}

/// Reference answer for query_radius_into: every entity's exact distance
/// test, no grid, ids sorted.
std::vector<EntityId> brute_force_radius(const std::vector<EntityId>& ids,
                                         const std::vector<math::Vec3>& points,
                                         const math::Vec3& center, double radius) {
    std::vector<EntityId> out;
    for (std::size_t i = 0; i < ids.size(); ++i)
        if ((points[i] - center).norm_sq() <= radius * radius) out.push_back(ids[i]);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatGridTest, RadiusQueryMatchesBruteForceScan) {
    // Cell sizes include 0.1, where floor(p / cell_size) disagrees with the
    // decimal cell borders; coordinates are multiples of a quarter cell, so
    // many points, centres and radii sit exactly on cell borders.
    std::size_t below_cutoff = 0;
    std::size_t above_cutoff = 0;
    bool all_bytes_vary = false;
    for (const double cell : {8.0, 3.0, 0.1}) {
        std::uint64_t state = 0x5EEDull + static_cast<std::uint64_t>(cell * 10.0);
        const auto next = [&state](std::uint64_t bound) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            return (state >> 33) % bound;
        };
        // Quarter-cell lattice over [-20, 20) cells on x/z, [-2, 2) on y.
        const auto coord = [&](std::int64_t cells) {
            return static_cast<double>(static_cast<std::int64_t>(next(8 * cells)) -
                                       4 * cells) *
                   cell / 4.0;
        };
        sync::InterestGrid grid{cell};
        std::vector<EntityId> ids;
        std::vector<math::Vec3> points;
        for (std::uint32_t i = 1; i <= 3000; ++i) {
            // An odd multiplier permutes uint32, so ids stay unique and vary
            // in all four bytes: no radix pass can be skipped.
            ids.push_back(EntityId{i * 0x9E3779B1u});
            points.push_back({coord(20), coord(2), coord(20)});
            grid.update(ids.back(), points.back());
        }
        std::vector<EntityId> out;
        const auto check_queries = [&](const char* phase) {
            std::vector<math::Vec3> centers{{0, 0, 0}, {cell, 0, -cell}, points[7]};
            for (int c = 0; c < 5; ++c) centers.push_back({coord(20), coord(2), coord(20)});
            for (const math::Vec3& center : centers) {
                for (const double radius : {0.0, 0.3 * cell, cell, 2.0 * cell, 2.5 * cell,
                                            5.0 * cell, 12.0 * cell}) {
                    grid.query_radius_into(center, radius, out);
                    const auto expected = brute_force_radius(ids, points, center, radius);
                    ASSERT_EQ(out, expected)
                        << phase << ": cell " << cell << " radius " << radius
                        << " centre (" << center.x << ", " << center.y << ", "
                        << center.z << ")";
                    (out.size() < sync::InterestGrid::kRadixCutoff ? below_cutoff
                                                                   : above_cutoff) += 1;
                    if (out.size() >= sync::InterestGrid::kRadixCutoff) {
                        bool varies = true;
                        for (unsigned shift = 0; shift < 32; shift += 8) {
                            const auto byte = [shift](EntityId id) {
                                return (id.value() >> shift) & 0xFFu;
                            };
                            varies = varies && std::any_of(out.begin(), out.end(),
                                                           [&](EntityId id) {
                                                               return byte(id) != byte(out[0]);
                                                           });
                        }
                        all_bytes_vary = all_bytes_vary || varies;
                    }
                }
            }
        };
        check_queries("initial");
        // Move a tenth of the points (incremental rebuild refreshes the
        // block-copy id array), then remove some (full rebuild).
        for (std::size_t i = 0; i < points.size(); i += 10) {
            points[i] = {coord(20), coord(2), coord(20)};
            grid.update(ids[i], points[i]);
        }
        check_queries("after moves");
        for (std::size_t i = points.size(); i-- > 0;) {
            if (i % 7 != 3) continue;
            grid.remove(ids[i]);
            ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
            points.erase(points.begin() + static_cast<std::ptrdiff_t>(i));
        }
        check_queries("after removes");
    }
    EXPECT_GT(below_cutoff, 0u);
    EXPECT_GT(above_cutoff, 0u);
    EXPECT_TRUE(all_bytes_vary);
}

TEST(FlatGridTest, RadiusQueryKeepsEntitiesFloorRoundsIntoACell) {
    // One ulp below -15.0, yet floor(x / 0.1) files the point under cell
    // -150, whose exact box starts at -15.0. Seen from x = -17 at exactly
    // the point's distance, the unpadded box lies beyond the radius; the
    // query must still return the point, as the exact scan does.
    sync::InterestGrid grid{0.1};
    const double px = std::nextafter(-15.0, -16.0);
    ASSERT_EQ(grid.cell_for({px, 0.0, 0.0}).x, -150);
    const std::vector<EntityId> ids{EntityId{1}, EntityId{2}};
    const std::vector<math::Vec3> points{{px, 0.05, 0.05}, {-14.95, 0.05, 0.05}};
    for (std::size_t i = 0; i < ids.size(); ++i) grid.update(ids[i], points[i]);
    const math::Vec3 center{-17.0, 0.05, 0.05};
    const double radius = px - center.x;
    std::vector<EntityId> out;
    grid.query_radius_into(center, radius, out);
    EXPECT_EQ(out, brute_force_radius(ids, points, center, radius));
    EXPECT_EQ(out, std::vector<EntityId>{EntityId{1}});
}

// --------------------------------------------------- CellDeltaAggregator

class AggregatorTest : public ::testing::Test {
protected:
    AggregatorTest() : net_(sim_) {
        src_ = net_.add_node("gw", net::Region::HongKong);
        near_ = net_.add_node("near", net::Region::HongKong);
        far_ = net_.add_node("far", net::Region::HongKong);
        const net::LinkParams link{.latency = sim::Time::ms(1)};
        net_.connect(src_, near_, link);
        net_.connect(src_, far_, link);
    }

    sync::AvatarWire wire(std::uint32_t participant, std::uint32_t seq) {
        sync::AvatarWire w{ParticipantId{participant}, ClassroomId{1}, false,
                           std::vector<std::uint8_t>(16, 0xAB), sim_.now(), {}};
        w.seq = seq;
        return w;
    }

    sim::Simulator sim_;
    net::Network net_;
    net::NodeId src_{};
    net::NodeId near_{};
    net::NodeId far_{};
};

TEST_F(AggregatorTest, ShipsToInterestedViewerSuppressesOutOfRange) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{100}, {0, 0, 0});
    // Default policy's horizon is 80 m; park the far viewer well beyond it.
    agg.add_viewer(far_, ParticipantId{200}, {500, 0, 0});

    std::uint64_t near_updates = 0;
    std::uint64_t far_updates = 0;
    net::PacketDemux near_demux{net_, near_};
    net::PacketDemux far_demux{net_, far_};
    near_demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        near_updates += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });
    far_demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        far_updates += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1, 0, 0}, wire(1, 1));
    agg.enqueue({2, 0, 0}, wire(2, 1));
    sim_.run_until(sim::Time::ms(50));

    EXPECT_EQ(near_updates, 2u);
    EXPECT_EQ(far_updates, 0u);
    EXPECT_EQ(agg.updates_enqueued(), 2u);
    EXPECT_EQ(agg.updates_shipped(), 2u);
    EXPECT_GT(agg.suppressed_by_aoi(), 0u);
}

TEST_F(AggregatorTest, ViewerOwnUpdateIsNotEchoed) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{1}, {0, 0, 0});

    std::uint64_t got = 0;
    net::PacketDemux demux{net_, near_};
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        got += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1, 0, 0}, wire(1, 1));  // the viewer's own avatar
    agg.enqueue({1, 0, 0}, wire(2, 1));  // someone else in the same cell
    sim_.run_until(sim::Time::ms(50));
    EXPECT_EQ(got, 1u);
}

TEST_F(AggregatorTest, PerTierRateClockThrottlesRepeatFlushes) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    // One far-but-in-range viewer: the matching tier refreshes at 5 Hz,
    // far slower than the 100 Hz enqueue cadence.
    agg.add_viewer(near_, ParticipantId{100}, {60, 0, 0});

    for (int burst = 0; burst < 20; ++burst) {
        sim_.schedule_at(sim::Time::ms(10 * burst), [this, &agg, burst] {
            agg.enqueue({1, 0, 0}, wire(1, static_cast<std::uint32_t>(burst + 1)));
        });
    }
    sim_.run_until(sim::Time::ms(400));
    EXPECT_GT(agg.suppressed_by_rate(), 0u);
    EXPECT_LT(agg.updates_shipped(), 20u);
    EXPECT_GT(agg.updates_shipped(), 0u);
}

TEST_F(AggregatorTest, TierRadiusBoundaryIsInclusiveAndDeterministic) {
    // Two tiers with exact radii. Entity at {1,0,0} lands in cell [0,8)^3;
    // its AABB's nearest point to a viewer on the +x axis is (8,0,0). A
    // viewer at x=20 sits at distance 12.0 exactly — on the outer tier's
    // radius — and must be admitted (distance <= max_distance_m), not
    // dropped to a float-comparison coin toss.
    const sync::InterestPolicy policy{std::vector<sync::InterestTier>{
        {5.0, 20.0, avatar::LodLevel::High},
        {12.0, 5.0, avatar::LodLevel::Low},
    }};
    EXPECT_EQ(policy.tier_index_for(5.0), 0);   // inner boundary: inner tier
    EXPECT_EQ(policy.tier_index_for(12.0), 1);  // outer boundary: still in
    EXPECT_EQ(policy.tier_index_for(12.0 + 1e-9), -1);

    for (int run = 0; run < 2; ++run) {
        sim::Simulator sim;
        net::Network net{sim};
        const net::NodeId src = net.add_node("gw", net::Region::HongKong);
        const net::NodeId on_edge = net.add_node("edge", net::Region::HongKong);
        const net::NodeId beyond = net.add_node("beyond", net::Region::HongKong);
        const net::LinkParams link{.latency = sim::Time::ms(1)};
        net.connect(src, on_edge, link);
        net.connect(src, beyond, link);

        sync::CellDeltaAggregator agg{net, src, sim::Time::ms(10), 8.0, policy};
        agg.add_viewer(on_edge, ParticipantId{100}, {20.0, 0.0, 0.0});
        agg.add_viewer(beyond, ParticipantId{200}, {20.001, 0.0, 0.0});

        sync::AvatarWire w{ParticipantId{1}, ClassroomId{1}, false,
                           std::vector<std::uint8_t>(16, 0xAB), sim.now(), {}};
        w.seq = 1;
        agg.enqueue({1.0, 0.0, 0.0}, std::move(w));
        sim.run_until(sim::Time::ms(50));

        EXPECT_EQ(agg.updates_shipped(), 1u) << "run " << run;
        EXPECT_EQ(agg.suppressed_by_aoi(), 1u) << "run " << run;
    }
}

TEST_F(AggregatorTest, ViewerOnCellCornerGetsNearestTier) {
    // The viewer stands exactly on the corner shared by the entity's cell:
    // the nearest-AABB-point distance is 0.0, which must resolve to tier 0
    // (the hottest rate clock), not fall between tiers.
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{100}, {8.0, 0.0, 8.0});

    std::uint64_t got = 0;
    net::PacketDemux demux{net_, near_};
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        got += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1.0, 0.0, 1.0}, wire(1, 1));  // cell [0,8)^3, corner (8,0,8)
    sim_.run_until(sim::Time::ms(50));
    EXPECT_EQ(got, 1u);
    EXPECT_EQ(agg.updates_shipped(), 1u);
    EXPECT_EQ(agg.suppressed_by_aoi(), 0u);
}

/// One update as a viewer decoded it.
struct Got {
    std::uint32_t participant;
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
    friend bool operator==(const Got&, const Got&) = default;
};

TEST_F(AggregatorTest, OwnAvatarOfLastViewerGoesToTheEarlierViewersIntact) {
    // Three viewers in one cell, in node order near_ < far_ < last. The last
    // admitted viewer owns participant 7, so 7's delta must be moved into
    // far_'s batch (its last real receiver) and not echoed to `last`.
    const net::NodeId last = net_.add_node("last", net::Region::HongKong);
    net_.connect(src_, last, net::LinkParams{.latency = sim::Time::ms(1)});
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{100}, {2, 0, 2});
    agg.add_viewer(far_, ParticipantId{200}, {3, 0, 3});
    agg.add_viewer(last, ParticipantId{7}, {4, 0, 4});

    std::map<net::NodeId, std::vector<Got>> got;
    std::vector<std::unique_ptr<net::PacketDemux>> demuxes;
    for (const net::NodeId node : {near_, far_, last}) {
        demuxes.push_back(std::make_unique<net::PacketDemux>(net_, node));
        demuxes.back()->on_flow(std::string{sync::kAvatarBatchFlow},
                                [&got, node](net::Packet&& p) {
                                    for (const sync::AvatarWire& w :
                                         p.payload.take<sync::AvatarBatchWire>().updates)
                                        got[node].push_back(
                                            {w.participant.value(), w.seq, w.bytes});
                                });
    }

    // Distinct payloads per (participant, seq); enqueued out of order to
    // exercise the (participant, seq) key sort.
    const auto make = [this](std::uint32_t participant, std::uint32_t seq) {
        sync::AvatarWire w = wire(participant, seq);
        w.bytes.assign(16, static_cast<std::uint8_t>(participant * 16 + seq));
        return w;
    };
    agg.enqueue({1, 0, 1}, make(9, 1));
    agg.enqueue({1, 0, 1}, make(7, 2));
    agg.enqueue({1, 0, 1}, make(5, 1));
    agg.enqueue({1, 0, 1}, make(7, 1));
    sim_.run_until(sim::Time::ms(50));

    const auto expect = [](std::uint32_t participant, std::uint32_t seq) {
        return Got{participant, seq,
                   std::vector<std::uint8_t>(
                       16, static_cast<std::uint8_t>(participant * 16 + seq))};
    };
    const std::vector<Got> everyone{expect(5, 1), expect(7, 1), expect(7, 2), expect(9, 1)};
    EXPECT_EQ(got[near_], everyone);
    EXPECT_EQ(got[far_], everyone);  // holds the moved wires of participant 7
    EXPECT_EQ(got[last], (std::vector<Got>{expect(5, 1), expect(9, 1)}));
    EXPECT_EQ(agg.updates_shipped(), 10u);
    EXPECT_EQ(agg.batcher().updates_batched(), 10u);
}

// ------------------------------------------------------------ CampusWorld

CampusConfig small_campus() {
    CampusConfig c;
    c.buildings = 2;
    c.classrooms_per_building = 4;
    c.avatars_per_classroom = 12;
    c.viewers_per_building = 3;
    c.mirror_stride = 8;
    return c;
}

TEST(CampusWorldTest, AggregatedEgressIsByteIdenticalAcrossThreadCounts) {
    std::string baseline;
    for (const std::size_t threads : {1u, 2u, 4u}) {
        CampusWorld world{small_campus()};
        world.run_until(sim::Time::seconds(0.5), threads);
        const std::string json = world.metrics_json();
        if (baseline.empty()) {
            baseline = json;
        } else {
            EXPECT_EQ(json, baseline) << "thread count " << threads << " diverged";
        }
    }
    EXPECT_FALSE(baseline.empty());
}

TEST(CampusWorldTest, AggregationShipsFewerBytesThanFanout) {
    CampusConfig aggregated = small_campus();
    CampusConfig fanout = small_campus();
    fanout.aggregate_interval = sim::Time::zero();

    CampusWorld agg_world{aggregated};
    agg_world.run_until(sim::Time::seconds(0.5));
    CampusWorld fan_world{fanout};
    fan_world.run_until(sim::Time::seconds(0.5));

    EXPECT_GT(fan_world.egress_bytes(), 0u);
    EXPECT_GT(agg_world.egress_bytes(), 0u);
    EXPECT_LT(agg_world.egress_bytes(), fan_world.egress_bytes());
    // Both modes deliver the same avatars to the same viewers.
    EXPECT_GT(agg_world.viewer_updates(), 0u);
    EXPECT_GT(fan_world.viewer_updates(), 0u);
}

TEST(CampusWorldTest, FanoutEgressFiguresArePinned) {
    // Per-update fan-out egress of the small campus, pinned to exact figures
    // so any rework of the egress path has to reproduce them bit for bit.
    CampusConfig fanout = small_campus();
    fanout.aggregate_interval = sim::Time::zero();
    CampusWorld world{fanout};
    world.run_until(sim::Time::seconds(0.5));
    EXPECT_EQ(world.egress_bytes(), 94041u);
    EXPECT_EQ(world.viewer_updates(), 1059u);
    EXPECT_EQ(world.updates_shipped(), 1161u);
    EXPECT_EQ(world.suppressed_by_aoi(), 0u);
    EXPECT_EQ(world.suppressed_by_rate(), 6u);
    EXPECT_EQ(world.state_digest(), 4775173913121082228u);
}

TEST(CampusWorldTest, MirrorReachesOriginAcrossShards) {
    CampusWorld world{small_campus()};
    world.run_until(sim::Time::seconds(0.5));
    EXPECT_GT(world.mirror_updates(), 0u);
    EXPECT_NE(world.state_digest(), 0u);
    EXPECT_EQ(world.lookahead_violations(), 0u);
    EXPECT_EQ(world.avatar_count(), 2u * 4u * 12u);
}

}  // namespace
}  // namespace mvc::core
