#pragma once
// Datagram wire format for the real UDP transport. The simulated Network
// never serializes — payloads cross node boundaries as in-process boxes —
// but a datagram that leaves the process must carry real bytes. This module
// defines the frame layout and a small codec registry that maps payload
// types to wire tags.
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset size field
//        0    4 magic "MVDG"
//        4    1 version (kWireVersion)
//        5    1 priority (net::Priority)
//        6    2 payload tag (codec registry id; kTagEmpty for no payload)
//        8    4 src node id
//       12    4 dst node id
//       16    8 packet id
//       24    8 size_bytes (the *modeled* application size the sender was
//                charged for; the actual datagram is usually smaller)
//       32    8 sent_at, ns since the sender's clock epoch (signed)
//       40    2 flow label length  -> followed by the flow bytes
//        .    4 payload body length -> followed by the payload bytes
//        .    4 CRC-32 over every preceding byte of the frame
//
// The CRC closes the frame so a truncated, corrupted, or foreign datagram is
// rejected before any payload decode runs. Decoding never throws on bad
// input: malformed frames return std::nullopt and the backend counts them.
//
// Codecs are registered per payload type (register_codec<T>); both endpoint
// processes must register the same tags — src/core/wire_codecs.hpp does
// this for every model payload in one place.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"

namespace mvc::net {

inline constexpr std::uint32_t kWireMagic = 0x4744564DU;  // "MVDG" little-endian
inline constexpr std::uint8_t kWireVersion = 1;
/// Tag stamped on frames whose packet carried no payload.
inline constexpr std::uint16_t kTagEmpty = 0;

[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes);

/// Little-endian primitives shared by the frame encoder and every payload
/// codec, so each codec does not grow its own byte-order bugs.
namespace wiredata {

template <class T>
inline void put(std::vector<std::byte>& out, T v) {
    static_assert(std::is_integral_v<T>);
    auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xFFU));
}

inline void put_bytes(std::vector<std::byte>& out, std::span<const std::uint8_t> b) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(b.size()));
    for (const std::uint8_t c : b) out.push_back(static_cast<std::byte>(c));
}

/// Bounds-checked little-endian reader; `ok` latches false on overrun, and
/// every accessor returns a zero value once latched so codecs can decode
/// straight through and check `ok` once at the end.
struct Reader {
    std::span<const std::byte> buf;
    std::size_t pos{0};
    bool ok{true};

    template <class T>
    T get() {
        static_assert(std::is_integral_v<T>);
        if (!ok || buf.size() - pos < sizeof(T)) {
            ok = false;
            return T{};
        }
        std::make_unsigned_t<T> u = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            u |= static_cast<std::make_unsigned_t<T>>(
                     static_cast<std::uint8_t>(buf[pos + i]))
                 << (8 * i);
        pos += sizeof(T);
        return static_cast<T>(u);
    }

    std::span<const std::byte> bytes(std::size_t n) {
        if (!ok || buf.size() - pos < n) {
            ok = false;
            return {};
        }
        auto s = buf.subspan(pos, n);
        pos += n;
        return s;
    }

    /// Element count for a list whose elements encode to at least
    /// `min_bytes` each. A count the rest of the buffer cannot hold latches
    /// `ok` false and reads as 0, so no decoder reserves storage for a
    /// forged count (one 60-byte datagram could otherwise ask for gigabytes).
    std::uint32_t count(std::size_t min_bytes) {
        const auto n = get<std::uint32_t>();
        if (!ok || n > (buf.size() - pos) / min_bytes) {
            ok = false;
            return 0;
        }
        return n;
    }

    std::vector<std::uint8_t> get_bytes() {
        const auto n = get<std::uint32_t>();
        const auto s = bytes(n);
        std::vector<std::uint8_t> out;
        out.reserve(s.size());
        for (const std::byte b : s) out.push_back(static_cast<std::uint8_t>(b));
        return out;
    }
};

}  // namespace wiredata

/// Payload codec registry: tag <-> typed encode/decode, process-global.
/// Registration is not thread-safe (do it at startup, before any traffic);
/// lookup is read-only afterwards.
class WireCodecs {
public:
    using Encode = std::function<void(const Payload&, std::vector<std::byte>&)>;
    using Decode = std::function<std::optional<Payload>(std::span<const std::byte>)>;

    [[nodiscard]] static WireCodecs& instance();

    /// Register codec functions for T under `tag`. Throws std::logic_error
    /// on a tag or type collision (same T re-registered with identical tag
    /// is an idempotent no-op, so translation-unit-level registration can
    /// run more than once).
    template <class T>
    void register_codec(std::uint16_t tag, Encode encode, Decode decode) {
        add(tag, detail::payload_type_id<T>(), std::move(encode), std::move(decode));
    }

    /// Tag for a payload's runtime type; nullopt when no codec is registered.
    [[nodiscard]] std::optional<std::uint16_t> tag_of(const Payload& p) const;
    [[nodiscard]] const Encode* encoder(std::uint16_t tag) const;
    [[nodiscard]] const Decode* decoder(std::uint16_t tag) const;

private:
    struct Entry {
        std::uint16_t tag;
        detail::PayloadTypeId type;
        Encode encode;
        Decode decode;
    };

    void add(std::uint16_t tag, detail::PayloadTypeId type, Encode encode,
             Decode decode);

    std::vector<Entry> entries_;  // few codecs; linear scan beats map overhead
};

/// Serialize a packet into one datagram frame. Returns nullopt when the
/// payload's type has no registered codec (the caller counts and drops —
/// sending an undecodable frame would only move the error to the peer).
[[nodiscard]] std::optional<std::vector<std::byte>> encode_frame(const Packet& p,
                                                                 Priority priority);

/// Parse one datagram. Returns nullopt on any defect: short frame, bad
/// magic/version, length fields pointing outside the buffer, CRC mismatch,
/// unknown payload tag, or a payload body its codec rejects.
struct DecodedFrame {
    Packet packet;
    Priority priority{Priority::Realtime};
};
[[nodiscard]] std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame);

/// Why a frame was rejected. The backend exports per-reason ingress-reject
/// counters so chaos on a real wire is observable, not just droppable.
enum class FrameDefect : std::uint8_t {
    None,             ///< frame decoded fine
    BadMagic,         ///< not our protocol (foreign datagram)
    BadVersion,       ///< our magic, incompatible version
    BadPriority,      ///< priority byte outside the enum
    Truncated,        ///< a length field points past the end of the datagram
    TrailingGarbage,  ///< bytes after the payload body that are not the CRC
    CrcMismatch,      ///< checksum failed: corruption in flight
    UnknownTag,       ///< no codec registered for the payload tag
    BadPayload,       ///< CRC fine but the payload codec rejected the body
};
inline constexpr std::size_t kFrameDefectCount = 9;
[[nodiscard]] std::string_view frame_defect_name(FrameDefect d);

/// decode_frame with the rejection reason reported (FrameDefect::None on
/// success). The reason-less overload above delegates here.
[[nodiscard]] std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame,
                                                       FrameDefect& defect);

/// Encode a payload nested *inside* another payload's body (the ARQ wrapper
/// carries the application payload this way): tag(u16) + body_len(u32) +
/// body. Returns false when the payload's type has no registered codec.
[[nodiscard]] bool encode_nested_payload(const Payload& p, std::vector<std::byte>& out);

/// Inverse of encode_nested_payload; consumes from `r` and leaves it
/// positioned after the nested body. nullopt on unknown tag or codec reject.
[[nodiscard]] std::optional<Payload> decode_nested_payload(wiredata::Reader& r);

}  // namespace mvc::net
