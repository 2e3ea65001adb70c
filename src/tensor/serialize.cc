#include "tensor/serialize.h"

#include <cstring>

#include "util/crc32.h"

namespace moc {

namespace {

constexpr std::uint32_t kMagic = 0x4D4F4354;  // "MOCT"

}  // namespace

std::size_t
SerializedTensorSize(const Tensor& t) {
    return sizeof(std::uint32_t)                       // magic
           + sizeof(std::uint32_t)                     // rank
           + t.rank() * sizeof(std::uint64_t)          // dims
           + t.size() * sizeof(float)                  // data
           + sizeof(std::uint32_t);                    // crc
}

void
SerializeTensor(const Tensor& t, ByteWriter& out) {
    const std::size_t start = out.size();
    out.U32(kMagic);
    out.U32(static_cast<std::uint32_t>(t.rank()));
    for (std::size_t i = 0; i < t.rank(); ++i) {
        out.U64(t.dim(i));
    }
    out.Raw(t.data(), t.size() * sizeof(float));
    out.U32(Crc32(out.data() + start, out.size() - start));
}

std::vector<std::uint8_t>
SerializeTensor(const Tensor& t) {
    ByteWriter out(SerializedTensorSize(t));
    SerializeTensor(t, out);
    return out.Take();
}

TensorRecord
ParseTensorRecord(const std::uint8_t* data, std::size_t size) {
    if (size < sizeof(std::uint32_t)) {
        throw DecodeError("DeserializeTensor: blob too small");
    }
    const std::size_t payload = size - sizeof(std::uint32_t);
    if (Crc32(data, payload) != ByteReader(data + payload, size - payload).U32()) {
        throw DecodeError("DeserializeTensor: CRC mismatch (corrupt blob)");
    }
    ByteReader r(data, payload);
    if (r.U32() != kMagic) {
        throw DecodeError("DeserializeTensor: bad magic");
    }
    // A blob with a valid CRC can still be hostile: bound the rank and the
    // element count by the payload before anything is sized from them.
    const std::uint32_t rank = r.U32();
    if (rank > r.remaining() / sizeof(std::uint64_t)) {
        throw DecodeError("DeserializeTensor: rank exceeds blob");
    }
    TensorRecord record;
    record.shape.resize(rank);
    std::size_t count = rank == 0 ? 0 : 1;  // as ShapeSize counts
    for (auto& d : record.shape) {
        d = static_cast<std::size_t>(r.U64());
        if (__builtin_mul_overflow(count, d, &count)) {
            throw DecodeError("DeserializeTensor: element count overflows");
        }
    }
    const std::size_t data_bytes = r.remaining();
    if (count > data_bytes / sizeof(float) || count * sizeof(float) != data_bytes) {
        throw DecodeError("DeserializeTensor: size mismatch");
    }
    record.data_bytes = data_bytes;
    record.data = r.Raw(data_bytes);
    return record;
}

void
TensorRecord::CopyTo(Tensor& out) const {
    if (data_bytes > 0) {
        std::memcpy(out.data(), data, data_bytes);
    }
}

Tensor
DeserializeTensor(const std::uint8_t* data, std::size_t size) {
    TensorRecord record = ParseTensorRecord(data, size);
    Tensor t(std::move(record.shape));
    record.CopyTo(t);
    return t;
}

Tensor
DeserializeTensor(const std::vector<std::uint8_t>& blob) {
    return DeserializeTensor(blob.data(), blob.size());
}

}  // namespace moc
