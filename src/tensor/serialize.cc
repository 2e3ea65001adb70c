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
Append(std::vector<std::uint8_t>& out, T value) {
    // resize + memcpy, not a range insert: GCC 12 at -O3 reports a false
    // -Wstringop-overflow on the inlined insert after the caller's reserve.
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T
ReadAt(const std::vector<std::uint8_t>& in, std::size_t& offset) {
    if (offset + sizeof(T) > in.size()) {
        throw std::runtime_error("DeserializeTensor: truncated blob");
    }
    T value;
    std::memcpy(&value, in.data() + offset, sizeof(T));
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

std::vector<std::uint8_t>
SerializeTensor(const Tensor& t) {
    std::vector<std::uint8_t> out;
    out.reserve(SerializedTensorSize(t));
    Append(out, kMagic);
    Append(out, static_cast<std::uint32_t>(t.rank()));
    for (std::size_t i = 0; i < t.rank(); ++i) {
        Append(out, static_cast<std::uint64_t>(t.dim(i)));
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(t.data());
    out.insert(out.end(), p, p + t.size() * sizeof(float));
    const std::uint32_t crc = Crc32(out.data(), out.size());
    Append(out, crc);
    return out;
}

Tensor
DeserializeTensor(const std::vector<std::uint8_t>& blob) {
    if (blob.size() < sizeof(std::uint32_t) * 3) {
        throw std::runtime_error("DeserializeTensor: blob too small");
    }
    const std::size_t payload = blob.size() - sizeof(std::uint32_t);
    std::uint32_t stored_crc;
    std::memcpy(&stored_crc, blob.data() + payload, sizeof(stored_crc));
    if (Crc32(blob.data(), payload) != stored_crc) {
        throw std::runtime_error("DeserializeTensor: CRC mismatch (corrupt blob)");
    }
    std::size_t offset = 0;
    const auto magic = ReadAt<std::uint32_t>(blob, offset);
    if (magic != kMagic) {
        throw std::runtime_error("DeserializeTensor: bad magic");
    }
    const auto rank = ReadAt<std::uint32_t>(blob, offset);
    std::vector<std::size_t> shape(rank);
    for (auto& d : shape) {
        d = static_cast<std::size_t>(ReadAt<std::uint64_t>(blob, offset));
    }
    Tensor t(shape);
    const std::size_t want = t.size() * sizeof(float);
    if (offset + want != payload) {
        throw std::runtime_error("DeserializeTensor: size mismatch");
    }
    std::memcpy(t.data(), blob.data() + offset, want);
    return t;
}

}  // namespace moc
