#include "dta/rpc/wire.h"

#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace dta::rpc {

namespace {

// Writers append to a std::string; readers walk a cursor with bounds
// checks, so a truncated or lying payload decodes to a clean error, never
// an out-of-bounds read.
class Writer {
 public:
  void U32(uint32_t v) {
    char bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_.append(bytes, 4);
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v & 0xffffffffull));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void F64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void U32List(const std::vector<uint32_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint32_t item : v) U32(item);
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& payload) : data_(payload) {}

  Status U32(uint32_t* v) {
    DTA_RETURN_IF_ERROR(Need(4));
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(
                 static_cast<unsigned char>(data_[at_ + i]))
             << (8 * i);
    }
    at_ += 4;
    *v = out;
    return Status::Ok();
  }
  Status U64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    DTA_RETURN_IF_ERROR(U32(&lo));
    DTA_RETURN_IF_ERROR(U32(&hi));
    *v = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
    return Status::Ok();
  }
  Status F64(double* v) {
    uint64_t bits = 0;
    DTA_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof(bits));
    return Status::Ok();
  }
  Status Str(std::string* s) {
    uint32_t length = 0;
    DTA_RETURN_IF_ERROR(U32(&length));
    DTA_RETURN_IF_ERROR(Need(length));
    s->assign(data_, at_, length);
    at_ += length;
    return Status::Ok();
  }
  // A u32 count, then that many u32s. The count is checked against the
  // bytes left before anything is allocated, so a lying count fails clean.
  Status U32List(std::vector<uint32_t>* v) {
    uint32_t count = 0;
    DTA_RETURN_IF_ERROR(U32(&count));
    DTA_RETURN_IF_ERROR(Need(4 * static_cast<size_t>(count)));
    v->resize(count);
    for (uint32_t& item : *v) DTA_RETURN_IF_ERROR(U32(&item));
    return Status::Ok();
  }
  Status Done() const {
    if (at_ != data_.size()) {
      return Status::InvalidArgument(
          StrFormat("rpc payload has %zu trailing byte(s)",
                    data_.size() - at_));
    }
    return Status::Ok();
  }

 private:
  Status Need(size_t n) const {
    if (data_.size() - at_ < n) {
      return Status::InvalidArgument("rpc payload truncated");
    }
    return Status::Ok();
  }

  const std::string& data_;
  size_t at_ = 0;
};

void WriteHardware(Writer* w, const optimizer::HardwareParams& hw) {
  w->U32(static_cast<uint32_t>(hw.cpu_count));
  w->F64(hw.memory_mb);
  w->F64(hw.seq_page_ms);
  w->F64(hw.rand_page_ms);
  w->F64(hw.cpu_row_ms);
  w->F64(hw.hash_row_ms);
  w->F64(hw.cmp_row_ms);
  w->F64(hw.cached_io_fraction);
  w->F64(hw.parallel_threshold_rows);
}

Status ReadHardware(Reader* r, optimizer::HardwareParams* hw) {
  uint32_t cpu_count = 0;
  DTA_RETURN_IF_ERROR(r->U32(&cpu_count));
  hw->cpu_count = static_cast<int>(cpu_count);
  DTA_RETURN_IF_ERROR(r->F64(&hw->memory_mb));
  DTA_RETURN_IF_ERROR(r->F64(&hw->seq_page_ms));
  DTA_RETURN_IF_ERROR(r->F64(&hw->rand_page_ms));
  DTA_RETURN_IF_ERROR(r->F64(&hw->cpu_row_ms));
  DTA_RETURN_IF_ERROR(r->F64(&hw->hash_row_ms));
  DTA_RETURN_IF_ERROR(r->F64(&hw->cmp_row_ms));
  DTA_RETURN_IF_ERROR(r->F64(&hw->cached_io_fraction));
  DTA_RETURN_IF_ERROR(r->F64(&hw->parallel_threshold_rows));
  // The server keeps one optimizer per parameter set, compared with ==: a
  // NaN would never match and build a new optimizer on every call.
  for (double v : {hw->memory_mb, hw->seq_page_ms, hw->rand_page_ms,
                   hw->cpu_row_ms, hw->hash_row_ms, hw->cmp_row_ms,
                   hw->cached_io_fraction, hw->parallel_threshold_rows}) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("rpc hardware parameter is not finite");
    }
  }
  return Status::Ok();
}

void WriteStatsKey(Writer* w, const stats::StatsKey& key) {
  w->Str(key.database);
  w->Str(key.table);
  w->U32(static_cast<uint32_t>(key.columns.size()));
  for (const std::string& column : key.columns) w->Str(column);
}

Status ReadStatsKey(Reader* r, stats::StatsKey* key) {
  DTA_RETURN_IF_ERROR(r->Str(&key->database));
  DTA_RETURN_IF_ERROR(r->Str(&key->table));
  uint32_t columns = 0;
  DTA_RETURN_IF_ERROR(r->U32(&columns));
  key->columns.clear();
  key->columns.reserve(columns);
  for (uint32_t i = 0; i < columns; ++i) {
    std::string column;
    DTA_RETURN_IF_ERROR(r->Str(&column));
    key->columns.push_back(std::move(column));
  }
  return Status::Ok();
}

}  // namespace

uint32_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint32_t>(code);
}

StatusCode StatusCodeFromWire(uint32_t raw) {
  switch (static_cast<StatusCode>(raw)) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kAborted:
      return static_cast<StatusCode>(raw);
  }
  return StatusCode::kInternal;
}

std::string EncodeHello(const HelloMsg& msg) {
  Writer w;
  w.U32(msg.version);
  return w.Take();
}

Result<HelloMsg> DecodeHello(const std::string& payload) {
  Reader r(payload);
  HelloMsg msg;
  DTA_RETURN_IF_ERROR(r.U32(&msg.version));
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  Writer w;
  w.U32(msg.version);
  w.Str(msg.worker_name);
  return w.Take();
}

Result<HelloAckMsg> DecodeHelloAck(const std::string& payload) {
  Reader r(payload);
  HelloAckMsg msg;
  DTA_RETURN_IF_ERROR(r.U32(&msg.version));
  DTA_RETURN_IF_ERROR(r.Str(&msg.worker_name));
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

std::string EncodeWhatIfRequest(const WhatIfRequestMsg& msg) {
  Writer w;
  w.U64(msg.call_key);
  w.U32(msg.has_hardware ? 1 : 0);
  if (msg.has_hardware) WriteHardware(&w, msg.hardware);
  w.U32(msg.statement);
  w.Str(msg.sql);
  w.U32List(msg.structures);
  w.Str(msg.config_xml);
  return w.Take();
}

Result<WhatIfRequestMsg> DecodeWhatIfRequest(const std::string& payload) {
  Reader r(payload);
  WhatIfRequestMsg msg;
  DTA_RETURN_IF_ERROR(r.U64(&msg.call_key));
  uint32_t has_hardware = 0;
  DTA_RETURN_IF_ERROR(r.U32(&has_hardware));
  msg.has_hardware = has_hardware != 0;
  if (msg.has_hardware) {
    DTA_RETURN_IF_ERROR(ReadHardware(&r, &msg.hardware));
  }
  DTA_RETURN_IF_ERROR(r.U32(&msg.statement));
  DTA_RETURN_IF_ERROR(r.Str(&msg.sql));
  DTA_RETURN_IF_ERROR(r.U32List(&msg.structures));
  DTA_RETURN_IF_ERROR(r.Str(&msg.config_xml));
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

std::string EncodeWhatIfResponse(const WhatIfResponseMsg& msg) {
  Writer w;
  w.U32(StatusCodeToWire(msg.code));
  w.Str(msg.message);
  if (msg.code == StatusCode::kOk) {
    w.F64(msg.cost);
    w.F64(msg.simulated_ms);
    w.U32(static_cast<uint32_t>(msg.missing_stats.size()));
    for (const stats::StatsKey& key : msg.missing_stats) {
      WriteStatsKey(&w, key);
    }
  }
  return w.Take();
}

Result<WhatIfResponseMsg> DecodeWhatIfResponse(const std::string& payload) {
  Reader r(payload);
  WhatIfResponseMsg msg;
  uint32_t code = 0;
  DTA_RETURN_IF_ERROR(r.U32(&code));
  msg.code = StatusCodeFromWire(code);
  DTA_RETURN_IF_ERROR(r.Str(&msg.message));
  if (msg.code == StatusCode::kOk) {
    DTA_RETURN_IF_ERROR(r.F64(&msg.cost));
    DTA_RETURN_IF_ERROR(r.F64(&msg.simulated_ms));
    uint32_t missing = 0;
    DTA_RETURN_IF_ERROR(r.U32(&missing));
    for (uint32_t i = 0; i < missing; ++i) {
      stats::StatsKey key;
      DTA_RETURN_IF_ERROR(ReadStatsKey(&r, &key));
      msg.missing_stats.push_back(std::move(key));
    }
  }
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

std::string EncodeCreateStats(const CreateStatsMsg& msg) {
  Writer w;
  WriteStatsKey(&w, msg.key);
  return w.Take();
}

Result<CreateStatsMsg> DecodeCreateStats(const std::string& payload) {
  Reader r(payload);
  CreateStatsMsg msg;
  DTA_RETURN_IF_ERROR(ReadStatsKey(&r, &msg.key));
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

std::string EncodeCreateStatsAck(const CreateStatsAckMsg& msg) {
  Writer w;
  w.U32(StatusCodeToWire(msg.code));
  w.Str(msg.message);
  return w.Take();
}

Result<CreateStatsAckMsg> DecodeCreateStatsAck(const std::string& payload) {
  Reader r(payload);
  CreateStatsAckMsg msg;
  uint32_t code = 0;
  DTA_RETURN_IF_ERROR(r.U32(&code));
  msg.code = StatusCodeFromWire(code);
  DTA_RETURN_IF_ERROR(r.Str(&msg.message));
  DTA_RETURN_IF_ERROR(r.Done());
  return msg;
}

}  // namespace dta::rpc
