#include "tensor/serialize.h"

#include <cstring>
#include <stdexcept>

#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

constexpr std::uint32_t kMagic = 0x4D4F4354;  // "MOCT"

template <typename T>
void
WriteAt(std::uint8_t*& at, T value) {
    std::memcpy(at, &value, sizeof(T));
    at += sizeof(T);
}

/** Reads a T at @p offset of @p data[0..size) and advances the offset. */
template <typename T>
T
ReadAt(const std::uint8_t* data, std::size_t size, std::size_t& offset) {
    if (sizeof(T) > size - offset) {
        throw std::runtime_error("DeserializeTensor: truncated blob");
    }
    T value;
    std::memcpy(&value, data + offset, sizeof(T));
    offset += sizeof(T);
    return value;
}

}  // namespace

std::size_t
SerializedTensorSize(const Tensor& t) {
    return sizeof(std::uint32_t)                       // magic
           + sizeof(std::uint32_t)                     // rank
           + t.rank() * sizeof(std::uint64_t)          // dims
           + t.size() * sizeof(float)                  // data
           + sizeof(std::uint32_t);                    // crc
}

std::size_t
SerializeTensor(const Tensor& t, std::uint8_t* out) {
    std::uint8_t* at = out;
    WriteAt(at, kMagic);
    WriteAt(at, static_cast<std::uint32_t>(t.rank()));
    for (std::size_t i = 0; i < t.rank(); ++i) {
        WriteAt(at, static_cast<std::uint64_t>(t.dim(i)));
    }
    const std::size_t data_bytes = t.size() * sizeof(float);
    if (data_bytes > 0) {
        std::memcpy(at, t.data(), data_bytes);
        at += data_bytes;
    }
    WriteAt(at, Crc32(out, static_cast<std::size_t>(at - out)));
    return static_cast<std::size_t>(at - out);
}

std::vector<std::uint8_t>
SerializeTensor(const Tensor& t) {
    std::vector<std::uint8_t> out(SerializedTensorSize(t));
    SerializeTensor(t, out.data());
    return out;
}

TensorRecord
ParseTensorRecord(const std::uint8_t* data, std::size_t size) {
    if (size < sizeof(std::uint32_t) * 3) {
        throw std::runtime_error("DeserializeTensor: blob too small");
    }
    const std::size_t payload = size - sizeof(std::uint32_t);
    std::uint32_t stored_crc;
    std::memcpy(&stored_crc, data + payload, sizeof(stored_crc));
    if (Crc32(data, payload) != stored_crc) {
        throw std::runtime_error("DeserializeTensor: CRC mismatch (corrupt blob)");
    }
    std::size_t offset = 0;
    const auto magic = ReadAt<std::uint32_t>(data, payload, offset);
    if (magic != kMagic) {
        throw std::runtime_error("DeserializeTensor: bad magic");
    }
    // A blob with a valid CRC can still be hostile: bound the rank and the
    // element count by the payload before anything is sized from them.
    const auto rank = ReadAt<std::uint32_t>(data, payload, offset);
    if (rank > (payload - offset) / sizeof(std::uint64_t)) {
        throw std::runtime_error("DeserializeTensor: rank exceeds blob");
    }
    TensorRecord record;
    record.shape.resize(rank);
    std::size_t count = rank == 0 ? 0 : 1;  // as ShapeSize counts
    for (auto& d : record.shape) {
        d = static_cast<std::size_t>(ReadAt<std::uint64_t>(data, payload, offset));
        if (__builtin_mul_overflow(count, d, &count)) {
            throw std::runtime_error("DeserializeTensor: element count overflows");
        }
    }
    const std::size_t remaining = payload - offset;
    if (count > remaining / sizeof(float) || count * sizeof(float) != remaining) {
        throw std::runtime_error("DeserializeTensor: size mismatch");
    }
    record.data = data + offset;
    record.data_bytes = remaining;
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
