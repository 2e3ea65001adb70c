#ifndef MOC_TENSOR_SERIALIZE_H_
#define MOC_TENSOR_SERIALIZE_H_

/**
 * @file
 * Tensor (de)serialization to byte blobs with CRC32 integrity, the wire
 * format used by the checkpoint engine.
 *
 * Layout: [u32 magic][u32 rank][u64 dim...][f32 data...][u32 crc]
 * where the crc covers everything before it. Header fields and trailer are
 * little-endian, written and read with util/byte_codec.h; the float data is
 * copied verbatim.
 *
 * The ByteWriter overload appends a record to a writer the caller sized,
 * so a container of many tensors (SerializeParamList) is built with one
 * allocation and one copy per tensor; the vector overload calls it.
 * ParseTensorRecord checks a record where it sits, without copying its
 * data, so a restore can copy it into a tensor it already owns.
 */

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/byte_codec.h"

namespace moc {

/** Serializes @p t into a self-describing blob. */
std::vector<std::uint8_t> SerializeTensor(const Tensor& t);

/** Appends the bytes of SerializeTensor(@p t) to @p out. */
void SerializeTensor(const Tensor& t, ByteWriter& out);

/**
 * Parses a blob produced by SerializeTensor.
 * @throws DecodeError on truncation, bad magic, CRC mismatch, or a rank
 *         or shape the payload cannot hold. Nothing is allocated for
 *         the shape or the data before those checks pass.
 */
Tensor DeserializeTensor(const std::vector<std::uint8_t>& blob);

/** Parses @p data[0..size), e.g. one record inside a larger blob. */
Tensor DeserializeTensor(const std::uint8_t* data, std::size_t size);

/** A checked SerializeTensor record whose float data still sits in the blob. */
struct TensorRecord {
    std::vector<std::size_t> shape;
    /** shape's element count × sizeof(float) bytes, inside the parsed blob. */
    const std::uint8_t* data = nullptr;
    std::size_t data_bytes = 0;

    /** Copies the data into @p out, whose shape must equal shape. */
    void CopyTo(Tensor& out) const;
};

/**
 * Checks @p data[0..size) as DeserializeTensor does (same errors) without
 * copying the data, so a caller can restore into a tensor it already owns.
 */
TensorRecord ParseTensorRecord(const std::uint8_t* data, std::size_t size);

/** Size in bytes that SerializeTensor would produce for @p t. */
std::size_t SerializedTensorSize(const Tensor& t);

}  // namespace moc

#endif  // MOC_TENSOR_SERIALIZE_H_
