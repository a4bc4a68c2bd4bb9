#include "common/bytes.hpp"

namespace mvc::bytes {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prev) {
    std::uint32_t c = prev ^ 0xFFFFFFFFU;
    for (const std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

std::uint64_t Reader::varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const std::uint8_t b = u8();
        // The tenth byte holds bit 63 only and must end the varint.
        if (shift == 63 && b > 1) break;
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0) return ok_ ? v : 0;
    }
    ok_ = false;
    return 0;
}

std::uint32_t Reader::varint32() {
    const std::uint64_t v = varint();
    if (v > 0xFFFFFFFFULL) {
        ok_ = false;
        return 0;
    }
    return static_cast<std::uint32_t>(v);
}

}  // namespace mvc::bytes
