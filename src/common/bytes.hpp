#pragma once
// The one byte codec kit behind every format that crosses a process
// boundary: the UDP datagram frame and its payload codecs, trace files,
// checkpoints, avatar snapshots/deltas and AvatarPool records.
//
//  - Writer appends to a caller-owned vector (so a warm vector makes
//    encoding allocation-free): little-endian fixed-width scalars, one at a
//    time or several in one append (fields), unsigned LEB128 varints, raw
//    and length-prefixed (u32 or varint) byte blocks.
//  - Reader decodes an untrusted span. Errors are a sticky `ok` flag: an
//    overrun, an over-long varint, a list count the remaining bytes cannot
//    hold, or a format check that calls fail() latches it, and from then on
//    every accessor returns zero/empty. A decoder reads straight through and
//    checks ok() once, then reports failure in its own format's terms.
//    List lengths come from count()/varint_count(), so a forged count reads
//    as 0 and can never size an allocation.
//  - crc32 is the IEEE 802.3 CRC-32, streaming over split inputs.
//
// Both std::uint8_t and std::byte buffers are accepted; the wire frame is
// std::byte, everything else std::uint8_t. The encoding does not depend on
// the host's byte order.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mvc::bytes {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320). Streaming:
/// crc32(b, crc32(a)) == crc32(a || b), so a header and a payload can be
/// covered without concatenating them.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t prev = 0);
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data,
                                         std::uint32_t prev = 0) {
    return crc32({reinterpret_cast<const std::uint8_t*>(data.data()), data.size()}, prev);
}

template <class Byte>
class Writer {
    static_assert(std::is_same_v<Byte, std::uint8_t> || std::is_same_v<Byte, std::byte>);

public:
    explicit Writer(std::vector<Byte>& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(static_cast<Byte>(v)); }
    void u16(std::uint16_t v) { fields(v); }
    void u32(std::uint32_t v) { fields(v); }
    void u64(std::uint64_t v) { fields(v); }
    void i16(std::int16_t v) { fields(v); }
    void i32(std::int32_t v) { fields(v); }
    void i64(std::int64_t v) { fields(v); }
    void f32(float v) { fields(v); }
    void f64(double v) { fields(v); }

    /// Unsigned LEB128: 7 bits per byte, low group first.
    void varint(std::uint64_t v) {
        while (v >= 0x80) {
            u8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }

    /// Bytes as they are, no length.
    void raw(std::span<const std::uint8_t> b) {
        const auto* p = reinterpret_cast<const Byte*>(b.data());
        out_.insert(out_.end(), p, p + b.size());
    }
    void raw(std::string_view s) {
        raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }

    /// u32 length, then the bytes.
    void prefixed(std::span<const std::uint8_t> b) {
        u32(static_cast<std::uint32_t>(b.size()));
        raw(b);
    }
    void prefixed(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s);
    }
    /// varint length, then the bytes.
    void varint_prefixed(std::span<const std::uint8_t> b) {
        varint(b.size());
        raw(b);
    }
    void varint_prefixed(std::string_view s) {
        varint(s.size());
        raw(s);
    }

    /// Several fixed-width fields in one append, each as u*(), i*() or f*()
    /// would write it: a fixed-layout record on a hot path pays one size
    /// update instead of one per field.
    template <class... T>
    void fields(T... v) {
        const std::size_t at = out_.size();
        out_.resize(at + (sizeof(T) + ...));
        Byte* p = out_.data() + at;
        (store(p, v), ...);
    }

    /// Bytes in the vector, including what was there before this writer.
    [[nodiscard]] std::size_t size() const { return out_.size(); }

    /// Overwrite the u32 written at byte offset `at`: a length that is only
    /// known after the block it counts has been written.
    void patch_u32(std::size_t at, std::uint32_t v) {
        Byte* p = out_.data() + at;
        store(p, v);
    }

private:
    /// Little-endian bytes of `v` (floats as their IEEE bits) at `p`.
    template <class T>
    static void store(Byte*& p, T v) {
        static_assert(std::is_arithmetic_v<T>);
        using U = std::conditional_t<
            sizeof(T) == 1, std::uint8_t,
            std::conditional_t<sizeof(T) == 2, std::uint16_t,
                               std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                                  std::uint64_t>>>;
        const U u = std::bit_cast<U>(v);
        for (std::size_t i = 0; i < sizeof(U); ++i)
            *p++ = static_cast<Byte>(static_cast<std::uint8_t>(u >> (8 * i)));
    }

    std::vector<Byte>& out_;
};

class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
    explicit Reader(std::span<const std::byte> data)
        : data_(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()) {}

    /// False once any read or check has failed; sticky.
    [[nodiscard]] bool ok() const { return ok_; }
    /// Latch the error flag: for format checks a decoder makes itself.
    void fail() { ok_ = false; }
    /// Nothing more to read: every byte consumed, or the reader failed.
    [[nodiscard]] bool done() const { return !ok_ || pos_ == data_.size(); }
    [[nodiscard]] std::size_t pos() const { return pos_; }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

    std::uint8_t u8() { return fixed<std::uint8_t>(); }
    std::uint16_t u16() { return fixed<std::uint16_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    float f32() { return std::bit_cast<float>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    /// Unsigned LEB128; fails on truncation or a value wider than 64 bits.
    std::uint64_t varint();
    /// varint() that also fails on a value wider than 32 bits.
    std::uint32_t varint32();

    /// The next `n` bytes as a view into the input (empty on failure).
    std::span<const std::uint8_t> bytes(std::size_t n) {
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return {};
        }
        const auto s = data_.subspan(pos_, n);
        pos_ += n;
        return s;
    }
    std::string str(std::size_t n) {
        const auto s = bytes(n);
        return {reinterpret_cast<const char*>(s.data()), s.size()};
    }

    /// Element count (u32) of a list whose elements encode to at least
    /// `min_elem_bytes` (>= 1) each. A count the rest of the input cannot
    /// hold fails and reads as 0, so no decoder reserves or loops by it.
    std::uint32_t count(std::size_t min_elem_bytes) {
        return static_cast<std::uint32_t>(bounded(u32(), min_elem_bytes));
    }
    /// count() for a varint-encoded count.
    std::size_t varint_count(std::size_t min_elem_bytes) {
        return static_cast<std::size_t>(bounded(varint(), min_elem_bytes));
    }

private:
    template <class U>
    U fixed() {
        if (!ok_ || remaining() < sizeof(U)) {
            ok_ = false;
            return 0;
        }
        U v = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i)
            v |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << (8 * i));
        pos_ += sizeof(U);
        return v;
    }

    std::uint64_t bounded(std::uint64_t n, std::size_t min_elem_bytes) {
        if (!ok_ || n > remaining() / min_elem_bytes) {
            ok_ = false;
            return 0;
        }
        return n;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
    bool ok_{true};
};

}  // namespace mvc::bytes
