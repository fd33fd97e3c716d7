// Binary encoding primitives for on-disk formats.
//
// Little-endian fixed-width integers, LEB128 varints, length-prefixed strings,
// doubles and float vectors, plus a running CRC32 for integrity. All storage
// formats in this directory (index snapshots, record logs, vault manifests) and
// the clusterer checkpoints are built from these primitives so their byte layout
// is explicit and testable independent of the structures above.
//
// The encoder appends each field as one block (a varint is assembled in a
// register-sized scratch buffer first, a float vector is one memcpy), so a
// checkpoint's encode and CRC passes run at memory speed. The byte layout is
// the portable little-endian one; the block copies rely on a little-endian host,
// which the static_assert below pins.
//
// Decoding never trusts the input: every read checks remaining bytes and returns
// false on truncation or malformed varints, leaving the reader usable for error
// reporting (offset of the failure).
#ifndef FOCUS_SRC_STORAGE_SERIALIZER_H_
#define FOCUS_SRC_STORAGE_SERIALIZER_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace focus::storage {

// CRC32 (IEEE polynomial, reflected) of |data|; |seed| chains incremental updates:
// Crc32(b, Crc32(a)) == Crc32(a + b). Slicing-by-8, about 0.5 ns/byte.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

static_assert(std::endian::native == std::endian::little,
              "the encoder copies fixed-width fields and float vectors as host bytes");
static_assert(sizeof(float) == 4 && sizeof(double) == 8, "IEEE-754 single and double");

class Encoder {
 public:
  Encoder() = default;

  // Pre-sizes the buffer (checkpoint encoders pass the previous checkpoint's
  // size, so steady-state encodes never regrow).
  void Reserve(size_t n) { bytes_.reserve(n); }

  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }  // Little-endian fixed width.
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }  // Little-endian fixed width.
  void PutVarint(uint64_t v) {
    char buf[10];
    size_t n = 0;
    while (v >= 0x80) {
      buf[n++] = static_cast<char>((v & 0x7F) | 0x80);
      v >>= 7;
    }
    buf[n++] = static_cast<char>(v);
    bytes_.append(buf, n);
  }
  // ZigZag-encoded signed varint: small magnitudes of either sign stay short.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }  // IEEE-754 bits, little-endian.
  void PutFloat(float v) { PutRaw(&v, sizeof(v)); }
  // Varint element count, then each float's IEEE-754 bits little-endian: the
  // feature-vector layout of every format here, appended as one block.
  void PutFloatVec(const float* data, size_t n) {
    PutVarint(n);
    PutRaw(data, n * sizeof(float));
  }
  void PutFloatVec(const std::vector<float>& v) { PutFloatVec(v.data(), v.size()); }
  // Varint length prefix, then raw bytes.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    bytes_.append(s.data(), s.size());
  }
  // Raw bytes without a prefix: splices previously encoded fields back in.
  void PutBytes(std::string_view s) { bytes_.append(s.data(), s.size()); }

  template <typename T, typename Fn>
  void PutVector(const std::vector<T>& items, Fn&& put_one) {
    PutVarint(items.size());
    for (const T& item : items) {
      put_one(*this, item);
    }
  }

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  void PutRaw(const void* data, size_t n) { bytes_.append(static_cast<const char*>(data), n); }

  std::string bytes_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetVarint(uint64_t* v);
  bool GetSignedVarint(int64_t* v);
  bool GetDouble(double* v);
  bool GetFloat(float* v);
  // Counterpart of Encoder::PutFloatVec; rejects counts the input cannot hold
  // before resizing.
  bool GetFloatVec(std::vector<float>* v);
  bool GetString(std::string* s);

  template <typename T, typename Fn>
  bool GetVector(std::vector<T>* items, Fn&& get_one) {
    uint64_t count = 0;
    if (!GetVarint(&count)) {
      return false;
    }
    // Reject absurd counts before reserving (a corrupt length must not OOM us). Each
    // element costs at least one byte on the wire.
    if (count > remaining()) {
      return false;
    }
    items->clear();
    items->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      T item{};
      if (!get_one(*this, &item)) {
        return false;
      }
      items->push_back(std::move(item));
    }
    return true;
  }

  // Advances past |n| bytes without reading them; false on truncation.
  bool Skip(size_t n) {
    if (remaining() < n) {
      return false;
    }
    offset_ += n;
    return true;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }
  bool Done() const { return offset_ == bytes_.size(); }

 private:
  bool Take(size_t n, const char** out);

  std::string_view bytes_;
  size_t offset_ = 0;
};

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_SERIALIZER_H_
