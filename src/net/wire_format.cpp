#include "net/wire_format.hpp"

#include <stdexcept>

namespace mvc::net {

namespace {

/// u32 body length, then the body the tag's encoder appends; the length is
/// patched in once the body is written.
void put_body(bytes::Writer<std::byte>& w, std::uint16_t tag, const Payload& p) {
    const std::size_t len_at = w.size();
    w.u32(0);
    if (tag != kTagEmpty) (*WireCodecs::instance().encoder(tag))(p, w);
    w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - len_at - 4));
}

/// Decode `body` with the codec registered for `tag` into `out`.
FrameDefect decode_body(std::uint16_t tag, std::span<const std::uint8_t> body, Payload& out) {
    if (tag == kTagEmpty) return body.empty() ? FrameDefect::None : FrameDefect::BadPayload;
    const WireCodecs::Decode* decode = WireCodecs::instance().decoder(tag);
    if (decode == nullptr) return FrameDefect::UnknownTag;
    bytes::Reader r{body};
    std::optional<Payload> payload = (*decode)(r);
    if (!payload || !r.ok() || !r.done()) return FrameDefect::BadPayload;
    out = std::move(*payload);
    return FrameDefect::None;
}

}  // namespace

WireCodecs& WireCodecs::instance() {
    static WireCodecs codecs;
    return codecs;
}

void WireCodecs::add(std::uint16_t tag, detail::PayloadTypeId type, Encode encode,
                     Decode decode) {
    if (tag == kTagEmpty)
        throw std::logic_error("WireCodecs: tag 0 is reserved for empty payloads");
    for (const Entry& e : entries_) {
        if (e.tag == tag && e.type == type) return;  // idempotent re-register
        if (e.tag == tag)
            throw std::logic_error("WireCodecs: tag already bound to another type");
        if (e.type == type)
            throw std::logic_error("WireCodecs: type already bound to another tag");
    }
    entries_.push_back(Entry{tag, type, std::move(encode), std::move(decode)});
}

std::optional<std::uint16_t> WireCodecs::tag_of(const Payload& p) const {
    if (p.empty()) return kTagEmpty;
    const detail::PayloadTypeId id = p.type_id();
    for (const Entry& e : entries_)
        if (e.type == id) return e.tag;
    return std::nullopt;
}

const WireCodecs::Encode* WireCodecs::encoder(std::uint16_t tag) const {
    for (const Entry& e : entries_)
        if (e.tag == tag) return &e.encode;
    return nullptr;
}

const WireCodecs::Decode* WireCodecs::decoder(std::uint16_t tag) const {
    for (const Entry& e : entries_)
        if (e.tag == tag) return &e.decode;
    return nullptr;
}

std::optional<std::vector<std::byte>> encode_frame(const Packet& p, Priority priority) {
    const WireCodecs& codecs = WireCodecs::instance();
    const std::optional<std::uint16_t> tag = codecs.tag_of(p.payload);
    if (!tag) return std::nullopt;

    std::vector<std::byte> out;
    out.reserve(64 + p.flow.size());
    bytes::Writer w{out};
    w.u32(kWireMagic);
    w.u8(kWireVersion);
    w.u8(static_cast<std::uint8_t>(priority));
    w.u16(*tag);
    w.u32(p.src);
    w.u32(p.dst);
    w.u64(p.id);
    w.u64(static_cast<std::uint64_t>(p.size_bytes));
    w.i64(p.sent_at.nanos());

    if (p.flow.size() > 0xFFFF) return std::nullopt;
    w.u16(static_cast<std::uint16_t>(p.flow.size()));
    w.raw(p.flow);
    put_body(w, *tag, p.payload);
    w.u32(bytes::crc32(out));
    return out;
}

std::string_view frame_defect_name(FrameDefect d) {
    switch (d) {
        case FrameDefect::None: return "none";
        case FrameDefect::BadMagic: return "bad_magic";
        case FrameDefect::BadVersion: return "bad_version";
        case FrameDefect::BadPriority: return "bad_priority";
        case FrameDefect::Truncated: return "truncated";
        case FrameDefect::TrailingGarbage: return "trailing_garbage";
        case FrameDefect::CrcMismatch: return "crc_mismatch";
        case FrameDefect::UnknownTag: return "unknown_tag";
        case FrameDefect::BadPayload: return "bad_payload";
    }
    return "unknown";
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame) {
    FrameDefect defect = FrameDefect::None;
    return decode_frame(frame, defect);
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame,
                                         FrameDefect& defect) {
    constexpr std::size_t kCrcBytes = 4;
    const auto reject = [&defect](FrameDefect d) {
        defect = d;
        return std::nullopt;
    };
    bytes::Reader r{frame};
    const auto magic = r.u32();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (magic != kWireMagic) return reject(FrameDefect::BadMagic);
    const auto version = r.u8();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (version != kWireVersion) return reject(FrameDefect::BadVersion);

    DecodedFrame out;
    const auto prio = r.u8();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (prio > static_cast<std::uint8_t>(Priority::Bulk))
        return reject(FrameDefect::BadPriority);
    out.priority = static_cast<Priority>(prio);
    const auto tag = r.u16();
    out.packet.src = r.u32();
    out.packet.dst = r.u32();
    out.packet.id = r.u64();
    out.packet.size_bytes = static_cast<std::size_t>(r.u64());
    out.packet.sent_at = sim::Time::ns(r.i64());
    out.packet.flow = r.str(r.u16());
    const auto body = r.bytes(r.u32());
    if (!r.ok()) return reject(FrameDefect::Truncated);

    // The CRC must be exactly the remaining four bytes: trailing garbage is
    // as much a defect as truncation.
    if (r.remaining() < kCrcBytes) return reject(FrameDefect::Truncated);
    if (r.remaining() > kCrcBytes) return reject(FrameDefect::TrailingGarbage);
    if (r.u32() != bytes::crc32(frame.first(frame.size() - kCrcBytes)))
        return reject(FrameDefect::CrcMismatch);

    defect = decode_body(tag, body, out.packet.payload);
    if (defect != FrameDefect::None) return std::nullopt;
    return out;
}

bool encode_nested_payload(const Payload& p, bytes::Writer<std::byte>& w) {
    const std::optional<std::uint16_t> tag = WireCodecs::instance().tag_of(p);
    if (!tag) return false;
    w.u16(*tag);
    put_body(w, *tag, p);
    return true;
}

std::optional<Payload> decode_nested_payload(bytes::Reader& r) {
    const auto tag = r.u16();
    const auto body = r.bytes(r.u32());
    Payload out;
    if (!r.ok() || decode_body(tag, body, out) != FrameDefect::None) return std::nullopt;
    return out;
}

}  // namespace mvc::net
