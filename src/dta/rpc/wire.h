// Payload encodings for the costing RPC frames (rpc/frame.h).
//
// Fixed-width integers are little-endian; doubles travel as their IEEE-754
// bit patterns (bit-exact round trip — costs must survive the wire
// unchanged or the byte-identical recommendation contract dies on
// serialization, not on costing). Strings are u32 length + bytes.
//
// A what-if request names its statement and its configuration's structures
// by connection-local ids, so each travels once per connection. The first
// request on a connection that uses a statement registers it: it carries the
// statement's original SQL text, which the worker parses with the same
// parser, so both sides cost the identical AST. The first request that uses
// an index, view or table partitioning registers it the same way, inside a
// <Configuration> of only the new structures in the project's DTAXML
// vocabulary (ConfigurationToXml/FromXml, dta/xml_schema.h). Ids count up
// from 0 per kind in registration order; a connection's ids die with it, so
// a client that reconnects registers again. Statistics never travel: a
// CreateStats frame carries only the StatsKey and the worker rebuilds the
// statistic from its own (identical) data, the same determinism argument
// checkpoint resume relies on.

#ifndef DTA_DTA_RPC_WIRE_H_
#define DTA_DTA_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/hardware.h"
#include "stats/statistics.h"

namespace dta::rpc {

// Protocol revision carried in the HELLO handshake; bump on any payload
// layout change so a stale worker fails fast instead of mis-decoding.
inline constexpr uint32_t kWireVersion = 2;

struct HelloMsg {
  uint32_t version = kWireVersion;
};

struct HelloAckMsg {
  uint32_t version = kWireVersion;
  std::string worker_name;
};

struct WhatIfRequestMsg {
  uint64_t call_key = 0;
  bool has_hardware = false;
  optimizer::HardwareParams hardware;  // simulated when has_hardware
  // The statement's id. A request that registers the statement carries the
  // next unused id and the SQL text; later requests carry the id alone.
  uint32_t statement = 0;
  std::string sql;
  // The configuration's structures by id, in the configuration's own order:
  // indexes, then views, then table partitionings.
  std::vector<uint32_t> structures;
  // ConfigurationToXml of the structures this request registers, empty when
  // it registers none. They take the next unused ids in document order,
  // which is the order they first appear in `structures`.
  std::string config_xml;
};

struct WhatIfResponseMsg {
  // Status of the call on the worker (kOk carries the cost fields; any
  // other code carries only `message` and maps back to a Status).
  StatusCode code = StatusCode::kOk;
  std::string message;
  double cost = 0;
  double simulated_ms = 0;
  std::vector<stats::StatsKey> missing_stats;
};

struct CreateStatsMsg {
  stats::StatsKey key;
};

struct CreateStatsAckMsg {
  StatusCode code = StatusCode::kOk;
  std::string message;
};

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(const std::string& payload);
std::string EncodeHelloAck(const HelloAckMsg& msg);
Result<HelloAckMsg> DecodeHelloAck(const std::string& payload);
std::string EncodeWhatIfRequest(const WhatIfRequestMsg& msg);
Result<WhatIfRequestMsg> DecodeWhatIfRequest(const std::string& payload);
std::string EncodeWhatIfResponse(const WhatIfResponseMsg& msg);
Result<WhatIfResponseMsg> DecodeWhatIfResponse(const std::string& payload);
std::string EncodeCreateStats(const CreateStatsMsg& msg);
Result<CreateStatsMsg> DecodeCreateStats(const std::string& payload);
std::string EncodeCreateStatsAck(const CreateStatsAckMsg& msg);
Result<CreateStatsAckMsg> DecodeCreateStatsAck(const std::string& payload);

// StatusCode <-> wire integer. Unknown integers decode to kInternal rather
// than failing the frame: the message still describes the failure.
uint32_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint32_t raw);

}  // namespace dta::rpc

#endif  // DTA_DTA_RPC_WIRE_H_
