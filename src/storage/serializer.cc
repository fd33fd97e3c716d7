#include "src/storage/serializer.h"

#include <cstring>

namespace focus::storage {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320. Row 0 is
// the classic bytewise table; row k advances a byte through k further zero
// bytes, so eight input bytes fold into the CRC with eight independent lookups
// instead of a serial chain of eight.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables out{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xEDB88320u : 0u);
      }
      out.t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = out.t[k - 1][i];
        out.t[k][i] = (prev >> 8) ^ out.t[0][prev & 0xFF];
      }
    }
    return out;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto& t = Tables().t;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~seed;
  while (n >= 8) {
    // Little-endian loads (the header pins the host): the low word's bytes are
    // the next four input bytes in order, so XOR-ing the CRC into it is the
    // bytewise update's (crc ^ byte) for all four at once.
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

bool Decoder::Take(size_t n, const char** out) {
  if (remaining() < n) {
    return false;
  }
  *out = bytes_.data() + offset_;
  offset_ += n;
  return true;
}

bool Decoder::GetU8(uint8_t* v) {
  const char* p = nullptr;
  if (!Take(1, &p)) {
    return false;
  }
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Decoder::GetU32(uint32_t* v) {
  const char* p = nullptr;
  if (!Take(4, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool Decoder::GetU64(uint64_t* v) {
  const char* p = nullptr;
  if (!Take(8, &p)) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool Decoder::GetVarint(uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (true) {
    // 10 bytes encode up to 70 bits; reject longer (malformed) sequences.
    if (shift >= 64) {
      return false;
    }
    uint8_t byte = 0;
    if (!GetU8(&byte)) {
      return false;
    }
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return true;
    }
    shift += 7;
  }
}

bool Decoder::GetSignedVarint(int64_t* v) {
  uint64_t raw = 0;
  if (!GetVarint(&raw)) {
    return false;
  }
  *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool Decoder::GetDouble(double* v) {
  uint64_t bits = 0;
  if (!GetU64(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Decoder::GetFloat(float* v) {
  uint32_t bits = 0;
  if (!GetU32(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Decoder::GetFloatVec(std::vector<float>* v) {
  uint64_t n = 0;
  // Divide instead of multiplying: n * sizeof(float) can wrap for a corrupt
  // length, and the guard exists precisely to reject those before resize.
  if (!GetVarint(&n) || n > remaining() / sizeof(float)) {
    return false;
  }
  const char* p = nullptr;
  if (!Take(static_cast<size_t>(n) * sizeof(float), &p)) {
    return false;
  }
  v->resize(static_cast<size_t>(n));
  if (n > 0) {
    std::memcpy(v->data(), p, static_cast<size_t>(n) * sizeof(float));
  }
  return true;
}

bool Decoder::GetString(std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(&len) || len > remaining()) {
    return false;
  }
  const char* p = nullptr;
  if (!Take(static_cast<size_t>(len), &p)) {
    return false;
  }
  s->assign(p, static_cast<size_t>(len));
  return true;
}

}  // namespace focus::storage
