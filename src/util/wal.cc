#include "util/wal.h"

#include <array>
#include <cstring>

#include "util/fault.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

constexpr char kWalMagic[8] = {'T', 'P', 'C', 'D', 'S', 'W', 'A', 'L'};
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kWalMagic) + sizeof(uint32_t);
// u32 payload_len + u32 crc + u8 type + u64 lsn.
constexpr size_t kFrameBytes = 4 + 4 + 1 + 8;
// Framing sanity bound: no logical maintenance record comes near this.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

/// Slicing-by-8 tables: t[0] is the byte-at-a-time table; t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups advance
/// the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables* tables = [] {
    auto* t = new CrcTables();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      (*t)[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        uint32_t prev = (*t)[k - 1][i];
        (*t)[k][i] = (prev >> 8) ^ (*t)[0][prev & 0xFF];
      }
    }
    return t;
  }();
  return *tables;
}

/// Little-endian load, independent of the host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const CrcTables& t = Crc32Tables();
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

WalWriter::~WalWriter() {
  if (out_.is_open()) out_.close();
}

Status WalWriter::Open(const std::string& path) {
  path_ = path;
  out_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out_) return Status::IoError("cannot open WAL '" + path + "'");
  std::string header(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalVersion);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_) return Status::IoError("cannot write WAL header to '" + path + "'");
  next_lsn_ = 1;
  records_ = 0;
  failed_ = false;
  return Status::OK();
}

Result<uint64_t> WalWriter::AppendAt(const char* site, WalRecordType type,
                                     const std::string& payload) {
  if (!out_.is_open()) return Status::Internal("WAL is not open");
  if (failed_) {
    return Status::IoError("WAL '" + path_ + "' failed earlier; no further "
                           "appends accepted");
  }
  uint64_t lsn = next_lsn_;
  std::string body;  // the crc-covered portion: type, lsn, payload
  body.reserve(9 + payload.size());
  body.push_back(static_cast<char>(type));
  PutU64(&body, lsn);
  body += payload;

  std::string framed;
  framed.reserve(8 + body.size());
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  PutU32(&framed, Crc32(body.data(), body.size()));
  framed += body;

  if (FaultInjector::Global().enabled()) {
    Status fault = FaultInjector::Global().Maybe(site);
    if (!fault.ok()) {
      if (torn_writes_ && framed.size() > 1) {
        // A torn write: half the record reaches the disk before the
        // "crash". Recovery must truncate this tail.
        out_.write(framed.data(),
                   static_cast<std::streamsize>(framed.size() / 2));
        out_.flush();
      }
      failed_ = true;
      return fault;
    }
  }

  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  if (!out_) {
    failed_ = true;
    return Status::IoError("WAL append failed on '" + path_ + "'");
  }
  ++next_lsn_;
  ++records_;
  return lsn;
}

Result<uint64_t> WalWriter::Append(WalRecordType type,
                                   const std::string& payload) {
  return AppendAt("wal-append", type, payload);
}

Result<uint64_t> WalWriter::AppendCommit(const std::string& payload) {
  TPCDS_ASSIGN_OR_RETURN(
      uint64_t lsn, AppendAt("wal-commit", WalRecordType::kOpCommit, payload));
  TPCDS_RETURN_NOT_OK(Sync());
  return lsn;
}

Status WalWriter::Sync() {
  if (!out_.is_open()) return Status::OK();
  out_.flush();
  if (!out_) {
    failed_ = true;
    return Status::IoError("WAL flush failed on '" + path_ + "'");
  }
  return Status::OK();
}

Status WalWriter::Close() {
  if (!out_.is_open()) return Status::OK();
  out_.flush();
  out_.close();
  if (!out_) return Status::IoError("WAL close failed on '" + path_ + "'");
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return Status::IoError("cannot open WAL '" + path + "'");
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());

  WalReadResult result;
  if (buf.size() < kHeaderBytes) {
    // The crash beat even the header write; an empty log, all torn.
    result.torn_bytes = buf.size();
    result.truncated_tail = !buf.empty();
    return result;
  }
  if (std::memcmp(buf.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::DataLoss("WAL '" + path + "' has a bad magic number");
  }
  uint32_t version = GetU32(buf.data() + sizeof(kWalMagic));
  if (version != kWalVersion) {
    return Status::DataLoss(StringPrintf(
        "WAL '%s' has unsupported version %u", path.c_str(), version));
  }

  size_t pos = kHeaderBytes;
  uint64_t prev_lsn = 0;
  while (pos < buf.size()) {
    size_t remaining = buf.size() - pos;
    bool torn = false;
    if (remaining < kFrameBytes) {
      torn = true;
    } else {
      uint32_t payload_len = GetU32(buf.data() + pos);
      if (payload_len > kMaxPayloadBytes ||
          remaining < kFrameBytes + payload_len) {
        // The length field claims more bytes than exist — either a torn
        // frame or corruption of the length itself; both end the log here.
        torn = true;
      } else {
        uint32_t want_crc = GetU32(buf.data() + pos + 4);
        const char* body = buf.data() + pos + 8;
        size_t body_len = 9 + payload_len;
        uint32_t got_crc = Crc32(body, body_len);
        size_t record_end = pos + kFrameBytes + payload_len;
        if (want_crc != got_crc) {
          if (record_end == buf.size()) {
            torn = true;  // garbage in the final record: a torn write
          } else {
            return Status::DataLoss(StringPrintf(
                "WAL '%s': CRC mismatch at offset %zu (not at tail) — "
                "committed state is corrupt", path.c_str(), pos));
          }
        } else {
          WalRecord record;
          record.type = static_cast<WalRecordType>(
              static_cast<uint8_t>(body[0]));
          record.lsn = GetU64(body + 1);
          record.payload.assign(body + 9, payload_len);
          if (record.lsn <= prev_lsn) {
            return Status::DataLoss(StringPrintf(
                "WAL '%s': non-monotonic LSN %llu after %llu at offset %zu",
                path.c_str(), static_cast<unsigned long long>(record.lsn),
                static_cast<unsigned long long>(prev_lsn), pos));
          }
          prev_lsn = record.lsn;
          result.records.push_back(std::move(record));
          pos = record_end;
          continue;
        }
      }
    }
    if (torn) {
      result.torn_bytes = buf.size() - pos;
      result.truncated_tail = true;
      break;
    }
  }
  return result;
}

}  // namespace tpcds
