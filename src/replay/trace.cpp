#include "replay/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/bytes.hpp"

namespace mvc::replay {

namespace {

// Wire flag bits (WireRecord encoding).
constexpr std::uint8_t kWireHasAvatars = 0x01;

// Fixed chunk header size: magic + payload_len + records + first_t + flags + crc.
constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 8 + 1 + 4;

using Writer = bytes::Writer<std::uint8_t>;
using bytes::Reader;

/// What a failed decode_record reports unless it names something sharper.
constexpr std::string_view kMalformedRecord = "trace: truncated or malformed record";

void encode_avatar(Writer& w, const AvatarUpdate& u) {
    w.varint(u.participant);
    w.varint(u.room);
    w.u8(u.keyframe ? 1 : 0);
    w.varint(static_cast<std::uint64_t>(u.captured_ns));
    w.varint_prefixed(u.bytes);
}

/// Smallest encoded avatar: four one-byte varints and the keyframe byte.
constexpr std::size_t kMinAvatarBytes = 5;

AvatarUpdate decode_avatar(Reader& r) {
    AvatarUpdate u;
    u.participant = r.varint32();
    u.room = r.varint32();
    u.keyframe = r.u8() != 0;
    u.captured_ns = static_cast<std::int64_t>(r.varint());
    const auto b = r.bytes(r.varint());
    u.bytes.assign(b.begin(), b.end());
    return u;
}

/// One record from `r`. On a malformed record `r` fails, and `why` is set
/// when the defect has a more specific name than kMalformedRecord.
Record decode_record(Reader& r, std::string_view& why) {
    const auto kind = static_cast<RecordKind>(r.u8());
    switch (kind) {
        case RecordKind::FlowDef: {
            FlowDef d;
            d.id = r.varint32();
            d.name = r.str(r.varint());
            return d;
        }
        case RecordKind::NodeDef: {
            NodeDef d;
            d.shard = r.varint32();
            d.node = r.varint32();
            d.name = r.str(r.varint());
            return d;
        }
        case RecordKind::SubjectDef: {
            SubjectDef d;
            d.id = r.varint32();
            d.name = r.str(r.varint());
            return d;
        }
        case RecordKind::Wire: {
            WireRecord w;
            w.t_ns = static_cast<std::int64_t>(r.varint());
            w.shard = r.varint32();
            w.flow = r.varint32();
            w.src = r.varint32();
            w.dst = r.varint32();
            w.size_bytes = r.varint();
            w.priority = r.u8();
            const std::uint8_t flags = r.u8();
            if ((flags & kWireHasAvatars) != 0 && r.ok()) {
                const std::size_t n = r.varint_count(kMinAvatarBytes);
                if (!r.ok()) why = "trace: avatar count exceeds record";
                w.avatars.reserve(n);
                for (std::size_t i = 0; i < n; ++i) w.avatars.push_back(decode_avatar(r));
            }
            return w;
        }
        case RecordKind::StateHash: {
            HashRecord h;
            h.t_ns = static_cast<std::int64_t>(r.varint());
            h.epoch = r.varint();
            h.subject = r.varint32();
            h.hash = r.u64();
            return h;
        }
        case RecordKind::Checkpoint: {
            CheckpointRecord c;
            c.t_ns = static_cast<std::int64_t>(r.varint());
            c.owner = r.str(r.varint());
            const auto b = r.bytes(r.varint());
            c.bytes.assign(b.begin(), b.end());
            return c;
        }
    }
    if (r.ok()) why = "trace: unknown record kind";
    r.fail();
    return {};
}

/// decode_record over a trace parse() already validated: a failure means
/// the bytes changed underneath, and surfaces as TraceError.
Record decode_parsed_record(Reader& r) {
    std::string_view why = kMalformedRecord;
    Record rec = decode_record(r, why);
    if (!r.ok()) throw TraceError(std::string{why});
    return rec;
}

/// Timestamp of a record; nullopt for definition records.
std::optional<std::int64_t> record_time(const Record& r) {
    if (const auto* w = std::get_if<WireRecord>(&r)) return w->t_ns;
    if (const auto* h = std::get_if<HashRecord>(&r)) return h->t_ns;
    if (const auto* c = std::get_if<CheckpointRecord>(&r)) return c->t_ns;
    return std::nullopt;
}

/// Shared tolerant scan behind parse() and verify(). Fills `out` (when
/// non-null) with everything a Trace needs; never throws.
struct Scan {
    TraceCheck check;
    std::uint16_t version{0};
    std::uint64_t seed{0};
    std::string stamp;
    std::int64_t started_ns{0};
    std::vector<ChunkInfo> chunks;
    std::vector<CheckpointRef> checkpoints;
    std::map<std::uint32_t, std::string> flow_names;
    std::map<std::uint32_t, std::string> subject_names;
    std::map<std::uint64_t, std::string> node_names;
};

Scan scan_trace(std::span<const std::uint8_t> bytes) {
    Scan s;
    Reader r{bytes};
    const std::uint32_t magic = r.u32();
    if (r.ok() && magic != kTraceMagic) {
        s.check.error = "bad trace magic";
        return s;
    }
    s.version = r.u16();
    if (r.ok() && s.version != kTraceVersion) {
        s.check.error = "unsupported trace version " + std::to_string(s.version);
        return s;
    }
    s.seed = r.u64();
    s.started_ns = r.i64();
    s.stamp = r.str(r.varint());
    const std::size_t crc_at = r.pos();
    const std::uint32_t header_crc = r.u32();
    if (!r.ok()) {
        s.check.error = "truncated trace header";
        return s;
    }
    if (header_crc != bytes::crc32(bytes.first(crc_at))) {
        s.check.error = "trace header CRC mismatch";
        return s;
    }
    s.check.valid_bytes = r.pos();

    const auto chunk_error = [&s](const char* what) {
        s.check.error = what + (" at offset " + std::to_string(s.check.valid_bytes));
    };
    while (!r.done()) {
        const std::size_t chunk_start = r.pos();
        if (r.remaining() < kChunkHeaderBytes) {
            chunk_error("truncated chunk");
            return s;
        }
        if (r.u32() != kChunkMagic) {
            chunk_error("bad chunk magic");
            return s;
        }
        ChunkInfo info;
        info.payload_len = r.u32();
        info.records = r.u32();
        info.first_t_ns = r.i64();
        info.flags = r.u8();
        const std::uint32_t crc = r.u32();
        info.payload_offset = r.pos();
        const std::span<const std::uint8_t> payload = r.bytes(info.payload_len);
        if (!r.ok()) {
            chunk_error("truncated chunk");
            return s;
        }
        // CRC covers the header fields (through flags) and the payload, so a
        // flipped first_t/flags byte is caught, not just payload damage.
        const std::uint32_t want = bytes::crc32(
            payload, bytes::crc32(bytes.subspan(chunk_start, kChunkHeaderBytes - 4)));
        if (want != crc) {
            chunk_error("chunk CRC mismatch");
            return s;
        }
        // Decode every record: validates the payload and builds the tables
        // and the checkpoint seek index in one pass.
        Reader pr{payload};
        std::uint32_t decoded = 0;
        while (!pr.done()) {
            std::string_view why = kMalformedRecord;
            Record rec = decode_record(pr, why);
            if (!pr.ok()) {
                s.check.error = "chunk payload decode failed: " + std::string{why};
                return s;
            }
            ++decoded;
            if (const auto t = record_time(rec))
                s.check.last_t_ns = std::max(s.check.last_t_ns, *t);
            if (auto* f = std::get_if<FlowDef>(&rec)) {
                s.flow_names[f->id] = std::move(f->name);
            } else if (auto* n = std::get_if<NodeDef>(&rec)) {
                s.node_names[(static_cast<std::uint64_t>(n->shard) << 32) | n->node] =
                    std::move(n->name);
            } else if (auto* sub = std::get_if<SubjectDef>(&rec)) {
                s.subject_names[sub->id] = std::move(sub->name);
            } else if (const auto* c = std::get_if<CheckpointRecord>(&rec)) {
                s.checkpoints.push_back(CheckpointRef{c->t_ns, s.chunks.size()});
            }
        }
        if (decoded != info.records) {
            s.check.error = "chunk record count mismatch (header says " +
                            std::to_string(info.records) + ", decoded " +
                            std::to_string(decoded) + ")";
            return s;
        }
        s.chunks.push_back(info);
        ++s.check.chunks;
        s.check.records += decoded;
        s.check.valid_bytes = r.pos();
    }
    s.check.ok = true;
    return s;
}

}  // namespace

// ------------------------------------------------------------ encode_record

void encode_record(std::vector<std::uint8_t>& out, const Record& r) {
    Writer w{out};
    std::visit(
        [&w](const auto& rec) {
            using T = std::decay_t<decltype(rec)>;
            if constexpr (std::is_same_v<T, FlowDef>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::FlowDef));
                w.varint(rec.id);
                w.varint_prefixed(rec.name);
            } else if constexpr (std::is_same_v<T, NodeDef>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::NodeDef));
                w.varint(rec.shard);
                w.varint(rec.node);
                w.varint_prefixed(rec.name);
            } else if constexpr (std::is_same_v<T, SubjectDef>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::SubjectDef));
                w.varint(rec.id);
                w.varint_prefixed(rec.name);
            } else if constexpr (std::is_same_v<T, WireRecord>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::Wire));
                w.varint(static_cast<std::uint64_t>(rec.t_ns));
                w.varint(rec.shard);
                w.varint(rec.flow);
                w.varint(rec.src);
                w.varint(rec.dst);
                w.varint(rec.size_bytes);
                w.u8(rec.priority);
                w.u8(rec.avatars.empty() ? 0 : kWireHasAvatars);
                if (!rec.avatars.empty()) {
                    w.varint(rec.avatars.size());
                    for (const AvatarUpdate& u : rec.avatars) encode_avatar(w, u);
                }
            } else if constexpr (std::is_same_v<T, HashRecord>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::StateHash));
                w.varint(static_cast<std::uint64_t>(rec.t_ns));
                w.varint(rec.epoch);
                w.varint(rec.subject);
                w.u64(rec.hash);
            } else if constexpr (std::is_same_v<T, CheckpointRecord>) {
                w.u8(static_cast<std::uint8_t>(RecordKind::Checkpoint));
                w.varint(static_cast<std::uint64_t>(rec.t_ns));
                w.varint_prefixed(rec.owner);
                w.varint_prefixed(rec.bytes);
            }
        },
        r);
}

// -------------------------------------------------------------------- sinks

FileSink::FileSink(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) throw TraceError("trace: cannot open " + path + " for writing");
}

FileSink::~FileSink() {
    if (file_ != nullptr) std::fclose(file_);
}

void FileSink::write(const void* data, std::size_t n) {
    if (std::fwrite(data, 1, n, file_) != n) throw TraceError("trace: short write");
}

void FileSink::flush() {
    if (std::fflush(file_) != 0) throw TraceError("trace: flush failed");
}

void MemorySink::write(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
}

// ------------------------------------------------------------------- writer

TraceWriter::TraceWriter(TraceSink& sink, std::uint64_t seed, std::string_view stamp,
                         std::int64_t started_ns, TraceWriterOptions options)
    : sink_(sink), options_(options) {
    std::vector<std::uint8_t> header;
    Writer w{header};
    w.u32(kTraceMagic);
    w.u16(kTraceVersion);
    w.u64(seed);
    w.i64(started_ns);
    w.varint_prefixed(stamp);
    w.u32(bytes::crc32(header));
    sink_.write(header.data(), header.size());
    bytes_written_ += header.size();
    pending_.reserve(options_.chunk_bytes + options_.chunk_bytes / 4);
    chunk_header_.reserve(kChunkHeaderBytes);
}

void TraceWriter::append(std::span<const std::uint8_t> encoded, std::size_t record_count,
                         std::int64_t first_t_ns, bool has_checkpoint) {
    if (finished_) throw TraceError("trace: append after finish");
    if (record_count == 0) return;
    if (pending_records_ == 0) pending_first_t_ = first_t_ns;
    pending_has_checkpoint_ = pending_has_checkpoint_ || has_checkpoint;
    pending_.insert(pending_.end(), encoded.begin(), encoded.end());
    pending_records_ += record_count;
    records_written_ += record_count;
    if (pending_.size() >= options_.chunk_bytes) emit_chunk();
}

void TraceWriter::emit_chunk() {
    if (pending_records_ == 0) return;
    chunk_header_.clear();
    Writer w{chunk_header_};
    w.u32(kChunkMagic);
    w.u32(static_cast<std::uint32_t>(pending_.size()));
    w.u32(static_cast<std::uint32_t>(pending_records_));
    w.i64(pending_first_t_);
    w.u8(pending_has_checkpoint_ ? kChunkHasCheckpoint : 0);
    w.u32(bytes::crc32(pending_, bytes::crc32(chunk_header_)));
    sink_.write(chunk_header_.data(), chunk_header_.size());
    sink_.write(pending_.data(), pending_.size());
    bytes_written_ += chunk_header_.size() + pending_.size();
    ++chunks_written_;
    pending_.clear();  // capacity retained
    pending_records_ = 0;
    pending_first_t_ = 0;
    pending_has_checkpoint_ = false;
}

void TraceWriter::finish() {
    if (finished_) return;
    emit_chunk();
    sink_.flush();
    finished_ = true;
}

// ------------------------------------------------------------------- reader

Trace Trace::parse(std::vector<std::uint8_t> bytes) {
    Scan s = scan_trace(bytes);
    if (!s.check.ok) throw TraceError("trace: " + s.check.error);
    Trace t;
    t.bytes_ = std::move(bytes);
    t.version_ = s.version;
    t.seed_ = s.seed;
    t.stamp_ = std::move(s.stamp);
    t.started_ns_ = s.started_ns;
    t.chunks_ = std::move(s.chunks);
    t.checkpoint_index_ = std::move(s.checkpoints);
    t.record_count_ = s.check.records;
    t.last_t_ns_ = s.check.last_t_ns;
    t.flow_names_ = std::move(s.flow_names);
    t.subject_names_ = std::move(s.subject_names);
    t.node_names_ = std::move(s.node_names);
    return t;
}

Trace Trace::load(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw TraceError("trace: cannot open " + path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[64 * 1024];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
    const bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err) throw TraceError("trace: read failed for " + path);
    return parse(std::move(bytes));
}

TraceCheck Trace::verify(std::span<const std::uint8_t> bytes) {
    return scan_trace(bytes).check;
}

const std::string& Trace::flow_name(std::uint32_t id) const {
    static const std::string kUnknown = "?";
    const auto it = flow_names_.find(id);
    return it == flow_names_.end() ? kUnknown : it->second;
}

const std::string& Trace::subject_name(std::uint32_t id) const {
    static const std::string kUnknown = "?";
    const auto it = subject_names_.find(id);
    return it == subject_names_.end() ? kUnknown : it->second;
}

const std::string& Trace::node_name(std::uint32_t shard, std::uint32_t node) const {
    static const std::string kUnknown = "?";
    const auto it = node_names_.find((static_cast<std::uint64_t>(shard) << 32) | node);
    return it == node_names_.end() ? kUnknown : it->second;
}

bool Trace::Cursor::next(Record& out) {
    while (chunk_ < trace_->chunks_.size()) {
        const ChunkInfo& info = trace_->chunks_[chunk_];
        if (pos_ >= info.payload_len) {
            ++chunk_;
            pos_ = 0;
            continue;
        }
        const std::span<const std::uint8_t> payload{
            trace_->bytes_.data() + info.payload_offset + pos_, info.payload_len - pos_};
        Reader r{payload};
        out = decode_parsed_record(r);
        pos_ += r.pos();
        return true;
    }
    return false;
}

void Trace::each_record(std::size_t chunk,
                        const std::function<void(const Record&)>& fn) const {
    if (chunk >= chunks_.size()) return;
    const ChunkInfo& info = chunks_[chunk];
    Reader r{std::span<const std::uint8_t>{bytes_.data() + info.payload_offset,
                                           info.payload_len}};
    while (!r.done()) fn(decode_parsed_record(r));
}

// ----------------------------------------------------------------- truncate

std::vector<std::uint8_t> truncate_trace(const Trace& trace, std::int64_t keep_until_ns) {
    MemorySink sink;
    TraceWriter writer{sink, trace.seed(), trace.stamp(), trace.started_ns()};
    Trace::Cursor c = trace.cursor();
    Record rec;
    std::vector<std::uint8_t> scratch;
    while (c.next(rec)) {
        const auto t = record_time(rec);
        if (t.has_value() && *t > keep_until_ns) continue;
        scratch.clear();
        encode_record(scratch, rec);
        writer.append(scratch, 1, t.value_or(0), std::holds_alternative<CheckpointRecord>(rec));
    }
    writer.finish();
    return sink.take();
}

}  // namespace mvc::replay
