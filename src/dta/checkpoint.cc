#include "dta/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "dta/xml_schema.h"
#include "xmlio/xml.h"

namespace dta::tuner {

double ParseDouble(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

uint64_t ParseU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

namespace {

const char* BoolStr(bool b) { return b ? "true" : "false"; }
bool ParseBool(const std::string& s) {
  return EqualsIgnoreCase(s, "true") || s == "1";
}

void CandidateToXml(const Candidate& cand, xml::Element* parent) {
  xml::Element* e = parent->AddChild("Candidate");
  catalog::Configuration one;
  switch (cand.kind) {
    case Candidate::Kind::kIndex:
      (void)one.AddIndex(cand.index, cand.name);
      break;
    case Candidate::Kind::kView:
      (void)one.AddView(cand.view, cand.name);
      // The public configuration schema rounds EstimatedRows for
      // readability; the checkpoint needs the exact value (it feeds cost
      // estimates).
      e->SetAttr("ViewEstimatedRows", HexStr(cand.view.estimated_rows));
      break;
    case Candidate::Kind::kTablePartitioning:
      // SetTablePartitioning keys by table only; carry the database here.
      e->SetAttr("Database", cand.database);
      one.SetTablePartitioning(cand.table, cand.scheme);
      break;
  }
  e->AddChild(ConfigurationToXml(one));
}

// A space-separated list of unsigned integers (degraded statement indexes,
// greedy strike counters).
template <typename Range>
std::string U64List(const Range& values) {
  std::string out;
  for (const auto v : values) {
    if (!out.empty()) out.push_back(' ');
    AppendU64(&out, static_cast<uint64_t>(v));
  }
  return out;
}

std::vector<uint64_t> ParseU64List(const std::string& text) {
  std::vector<uint64_t> values;
  const char* p = text.c_str();
  char* q = nullptr;
  for (uint64_t v = std::strtoull(p, &q, 10); p != q;
       v = std::strtoull(p, &q, 10)) {
    values.push_back(v);
    p = q;
  }
  return values;
}

Result<Candidate> CandidateFromXml(const xml::Element& e,
                                   const catalog::Catalog& catalog) {
  const xml::Element* cfg_elem = e.FindChild("Configuration");
  if (cfg_elem == nullptr) {
    return Status::InvalidArgument("Candidate missing <Configuration>");
  }
  auto cfg = ConfigurationFromXml(*cfg_elem);
  if (!cfg.ok()) return cfg.status();
  if (!cfg->indexes().empty()) {
    return Candidate::MakeIndex(cfg->indexes()[0], catalog);
  }
  if (!cfg->views().empty()) {
    catalog::ViewDef view = cfg->views()[0];
    if (e.HasAttr("ViewEstimatedRows")) {
      view.estimated_rows = ParseDouble(e.Attr("ViewEstimatedRows"));
    }
    return Candidate::MakeView(std::move(view));
  }
  if (!cfg->table_partitioning().empty()) {
    const auto& [table, scheme] = *cfg->table_partitioning().begin();
    return Candidate::MakePartitioning(e.Attr("Database"), table, scheme);
  }
  return Status::InvalidArgument("Candidate carries no structure");
}

}  // namespace

// snprintf-free formatting for the bulk cache encoder: a checkpoint write
// formats thousands of entries, and the printf machinery is the single
// largest cost once the document itself is small. AppendHexDouble emits the
// same class of C99 hex-float literal as %a — strtod round-trips it
// bit-exactly, which is all the checkpoint format requires — and falls back
// to snprintf for the non-normal classes that never appear in cost data.
void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out->append(p, static_cast<size_t>(buf + sizeof buf - p));
}

void AppendHexDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0 || biased == 0x7ff) {
    if ((bits << 1) == 0) {  // +/- zero
      out->append(bits >> 63 ? "-0x0p+0" : "0x0p+0");
      return;
    }
    char buf[40];  // subnormal / inf / nan
    out->append(buf, static_cast<size_t>(
                         std::snprintf(buf, sizeof buf, "%a", v)));
    return;
  }
  if (bits >> 63) out->push_back('-');
  out->append("0x1");
  if (mant != 0) {
    out->push_back('.');
    static const char kHex[] = "0123456789abcdef";
    uint64_t m = mant;
    int nibbles = 13;
    while ((m & 0xf) == 0) {
      m >>= 4;
      --nibbles;
    }
    for (int i = 0; i < nibbles; ++i) {
      out->push_back(kHex[(mant >> (48 - 4 * i)) & 0xf]);
    }
  }
  out->push_back('p');
  const int e = biased - 1023;
  out->push_back(e < 0 ? '-' : '+');
  AppendU64(out, static_cast<uint64_t>(e < 0 ? -e : e));
}

std::string U64Str(uint64_t v) {
  std::string out;
  AppendU64(&out, v);
  return out;
}

std::string HexStr(double v) {
  std::string out;
  AppendHexDouble(&out, v);
  return out;
}

void StatsKeyToXml(const stats::StatsKey& key, xml::Element* parent) {
  xml::Element* e = parent->AddChild("Stats");
  e->SetAttr("Database", key.database);
  e->SetAttr("Table", key.table);
  for (const auto& c : key.columns) e->AddTextChild("Column", c);
}

stats::StatsKey StatsKeyFromXml(const xml::Element& e) {
  std::vector<std::string> columns;
  for (const xml::Element* c : e.FindChildren("Column")) {
    columns.push_back(c->text());
  }
  return stats::StatsKey(e.Attr("Database"), e.Attr("Table"),
                         std::move(columns));
}

uint64_t WorkloadFingerprint(const workload::Workload& workload) {
  uint64_t h = HashBytes("dta-workload");
  for (const auto& ws : workload.statements()) {
    h = HashCombine(h, ws.id);
    h = HashCombine(h, HashBytes(StrFormat("%a", ws.weight)));
  }
  return h;
}

uint64_t OptionsFingerprint(const TuningOptions& o) {
  // Every option that can change the recommendation, in a fixed order.
  // num_threads, shards, shard_slow_threshold, the transport section
  // (transport, socket_endpoints, rpc_attempt_timeout_ms) and the
  // checkpoint paths are excluded on purpose: results are invariant to
  // thread count and shard/transport topology (a 4-shard checkpoint
  // legitimately resumes on 2 shards, and an inproc checkpoint resumes over
  // sockets), and where a log lives does not change what it resumes to.
  // shard_fault_spec IS included: per-shard faults can degrade pricings and
  // so can change the recommendation, exactly like fault_spec.
  // derived_costing and derivation_error_bound_pct are included (they decide
  // which cache entries hold derived costs); exact_costing is not — exact
  // mode publishes real costs, which any mode can safely resume from.
  // quarantined_structures IS included (a quarantine filters the candidate
  // pool and so changes the recommendation).
  std::ostringstream out;
  out << o.tune_indexes << '|' << o.tune_materialized_views << '|'
      << o.tune_partitioning << '|' << o.require_alignment << '|'
      << (o.storage_bytes.has_value() ? StrFormat("%llu",
                                                  static_cast<unsigned long long>(
                                                      *o.storage_bytes))
                                      : "-")
      << '|'
      << (o.time_limit_ms.has_value() ? StrFormat("%a", *o.time_limit_ms)
                                      : "-")
      << '|' << o.keep_existing_structures << '|' << o.workload_compression
      << '|' << o.reduced_statistics << '|' << o.fault_spec << '|'
      << o.shard_fault_spec << '|' << o.retry.max_attempts << '|'
      << StrFormat("%a", o.retry.initial_backoff_ms)
      << '|' << StrFormat("%a", o.retry.backoff_multiplier) << '|'
      << StrFormat("%a", o.retry.max_backoff_ms) << '|'
      << StrFormat("%a", o.retry.jitter_fraction) << '|'
      << o.degrade_on_failure << '|' << o.derived_costing << '|'
      << StrFormat("%a", o.derivation_error_bound_pct) << '|'
      << o.candidate_selection_m << '|'
      << o.candidate_selection_k << '|' << o.max_candidates_per_statement
      << '|' << o.enumeration_m << '|' << o.enumeration_k << '|'
      << StrFormat("%a", o.min_improvement_fraction) << '|'
      << o.max_enumeration_candidates << '|'
      << StrFormat("%a", o.column_group_cost_fraction) << '|'
      << o.max_column_group_size << '|' << o.enable_merging << '|'
      << o.lazy_alignment << '|' << o.max_partition_boundaries << '|'
      << ConfigurationToXml(o.user_specified)->ToString();
  for (const auto& name : o.quarantined_structures) out << '|' << name;
  return HashBytes(out.str());
}

// ---- Records -------------------------------------------------------------

// The lines are "id cost flags shared suffix": `id` is the statement id,
// `flags` is bit 0 = degraded, bit 1 = derived, and the fingerprint is
// front-coded — `shared` bytes of the previous line's fingerprint, then
// `suffix` to end-of-line (empty for the base configuration's
// fingerprint). Visiting in (id, fingerprint) order keeps a record
// byte-identical across runs and thread counts (dta_lint's
// unordered-output rule guards this file).
std::string EncodeRecord(const xml::Element& document, bool base,
                         CostCache* cache) {
  std::string record = document.ToString(/*prolog=*/true);
  const size_t lines_at = record.size();
  const std::string* prev = nullptr;  // the cache's key, alive for the walk
  auto add = [&](uint64_t id, const std::string& fingerprint,
                 const CostCache::Entry& entry) {
    size_t shared = 0;
    if (prev != nullptr) {
      const size_t limit = std::min(prev->size(), fingerprint.size());
      while (shared < limit && (*prev)[shared] == fingerprint[shared]) {
        ++shared;
      }
    }
    AppendU64(&record, id);
    record.push_back(' ');
    AppendHexDouble(&record, entry.cost);
    record.push_back(' ');
    AppendU64(&record, (entry.degraded ? 1u : 0u) | (entry.derived ? 2u : 0u));
    record.push_back(' ');
    AppendU64(&record, shared);
    record.push_back(' ');
    record.append(fingerprint, shared, std::string::npos);
    record.push_back('\n');
    prev = &fingerprint;
  };
  const bool all = base || document.Attr("CacheCleared") == "true";
  if (all) cache->ForEach(add);
  cache->TakeNew(all ? nullptr : CostCache::EntryVisitor(add));
  if (record.size() > lines_at) record.pop_back();  // the last line's newline
  return record;
}

Result<CheckpointRecord> SplitRecord(const std::string& payload, bool base,
                                     const std::string& root) {
  // The document always has children, so it ends in its closing tag; the
  // cost lines follow it.
  const std::string document_end = "</" + root + ">\n";
  const size_t at = payload.find(document_end);
  if (at == std::string::npos) {
    return Status::InvalidArgument("not a " + root + " record");
  }
  const size_t lines_at = at + document_end.size();
  auto parsed = xml::Parse(std::string_view(payload).substr(0, lines_at));
  if (!parsed.ok()) return parsed.status();
  if ((*parsed)->name() != root) {
    return Status::InvalidArgument("not a " + root + " record");
  }
  CheckpointRecord record;
  record.document = std::move(parsed).value();
  record.replaces_cache =
      base || record.document->Attr("CacheCleared") == "true";
  // strtoull/strtod stop at the payload's terminating NUL at the latest.
  const char* p = payload.c_str() + lines_at;
  const char* end = payload.c_str() + payload.size();
  const std::string* prev = nullptr;
  while (p < end) {
    char* q = nullptr;
    CostLine line;
    line.id = std::strtoull(p, &q, 10);
    line.entry.cost = std::strtod(q, &q);
    const unsigned long flags = std::strtoul(q, &q, 10);
    line.entry.degraded = (flags & 1) != 0;
    line.entry.derived = (flags & 2) != 0;
    const size_t shared = static_cast<size_t>(std::strtoull(q, &q, 10));
    if (q < end && *q == ' ') ++q;
    const char* nl = static_cast<const char*>(
        std::memchr(q, '\n', static_cast<size_t>(end - q)));
    if (nl == nullptr) nl = end;
    if (q > nl || shared > (prev == nullptr ? 0 : prev->size())) {
      return Status::InvalidArgument(root + " record: malformed cost line");
    }
    if (prev != nullptr) line.fingerprint.assign(*prev, 0, shared);
    line.fingerprint.append(q, static_cast<size_t>(nl - q));
    record.lines.push_back(std::move(line));
    prev = &record.lines.back().fingerprint;
    p = nl + 1;
  }
  return record;
}

// ---- Session records -----------------------------------------------------

std::string EncodeSessionRecord(const SessionCheckpoint& ckpt,
                                CostCache* cache, bool base, bool cleared) {
  xml::Element root("DTASession");
  root.SetAttr("Version", "3");
  if (base) {
    root.SetAttr("WorkloadFingerprint", U64Str(ckpt.workload_fingerprint));
    root.SetAttr("OptionsFingerprint", U64Str(ckpt.options_fingerprint));
  } else if (cleared) {
    root.SetAttr("CacheCleared", "true");
  }
  root.SetAttr("Phase", StrFormat("%d", ckpt.phase));
  root.SetAttr("Shards", StrFormat("%d", ckpt.shards));
  root.SetAttr("Transport", ckpt.transport);
  root.SetAttr("StatsRequested", U64Str(ckpt.stats_requested));
  root.SetAttr("StatsCreated", U64Str(ckpt.stats_created));
  root.SetAttr("StatsCreationMs", HexStr(ckpt.stats_creation_ms));
  root.SetAttr("CandidatesGenerated", U64Str(ckpt.candidates_generated));

  // Fixed once the current-cost pass is done, and every session's first
  // record is a base: segments never need them.
  if (base) {
    xml::Element* costs = root.AddChild("CurrentCosts");
    for (double c : ckpt.current_costs) costs->AddTextChild("Cost", HexStr(c));
  }

  xml::Element* missing = root.AddChild("MissingStats");
  for (const auto& key : ckpt.missing_stats) StatsKeyToXml(key, missing);
  xml::Element* created = root.AddChild("CreatedStats");
  for (const auto& key : ckpt.created_stats) StatsKeyToXml(key, created);

  if (!ckpt.degraded_statements.empty()) {
    // std::set iteration order makes this deterministic.
    root.AddTextChild("DegradedStatements",
                      U64List(ckpt.degraded_statements));
  }

  if (ckpt.phase == kCheckpointPoolReady ||
      (base && ckpt.phase > kCheckpointPoolReady)) {
    xml::Element* pool_elem = root.AddChild("CandidatePool");
    for (const auto& cand : ckpt.pool) CandidateToXml(cand, pool_elem);
  }

  if (ckpt.phase >= kCheckpointEnumeration) {
    xml::Element* en = root.AddChild("Enumeration");
    en->SetAttr("Phase1Done", BoolStr(ckpt.enumeration.phase1_done));
    en->SetAttr("Cost", HexStr(ckpt.enumeration.cost));
    for (const auto& name : ckpt.enumeration.chosen) {
      en->AddTextChild("Chosen", name);
    }
    en->AddTextChild("Strikes", U64List(ckpt.enumeration.strikes));
  }

  return EncodeRecord(root, base, cache);
}

Status ApplySessionRecord(const std::string& payload, bool base,
                          const catalog::Catalog& catalog,
                          SessionCheckpoint* ckpt) {
  auto record = SplitRecord(payload, base, "DTASession");
  if (!record.ok()) return record.status();
  const xml::Element& root = *record->document;
  if (root.Attr("Version") != "3") {
    return Status::InvalidArgument("not a version 3 DTASession record");
  }
  if (base) {
    *ckpt = SessionCheckpoint();
    ckpt->workload_fingerprint = ParseU64(root.Attr("WorkloadFingerprint"));
    ckpt->options_fingerprint = ParseU64(root.Attr("OptionsFingerprint"));
    if (const xml::Element* costs = root.FindChild("CurrentCosts")) {
      for (const xml::Element* c : costs->FindChildren("Cost")) {
        ckpt->current_costs.push_back(ParseDouble(c->text()));
      }
    }
  }
  ckpt->phase = std::atoi(root.Attr("Phase").c_str());
  if (ckpt->phase < kCheckpointCurrentCosts ||
      ckpt->phase > kCheckpointEnumeration) {
    return Status::InvalidArgument("DTASession record has an unknown phase");
  }
  const std::string shards_attr = root.Attr("Shards");
  ckpt->shards = std::atoi(shards_attr.c_str());
  if (ckpt->shards < 1) {
    return Status::InvalidArgument(
        "DTASession record has an invalid shard topology (Shards='" +
        shards_attr + "'); refusing to resume");
  }
  ckpt->transport = root.Attr("Transport");
  ckpt->stats_requested =
      static_cast<size_t>(ParseU64(root.Attr("StatsRequested")));
  ckpt->stats_created =
      static_cast<size_t>(ParseU64(root.Attr("StatsCreated")));
  ckpt->stats_creation_ms = ParseDouble(root.Attr("StatsCreationMs"));
  ckpt->candidates_generated =
      static_cast<size_t>(ParseU64(root.Attr("CandidatesGenerated")));

  ckpt->missing_stats.clear();
  if (const xml::Element* missing = root.FindChild("MissingStats")) {
    for (const xml::Element* s : missing->FindChildren("Stats")) {
      ckpt->missing_stats.insert(StatsKeyFromXml(*s));
    }
  }
  ckpt->created_stats.clear();
  if (const xml::Element* created = root.FindChild("CreatedStats")) {
    for (const xml::Element* s : created->FindChildren("Stats")) {
      ckpt->created_stats.push_back(StatsKeyFromXml(*s));
    }
  }
  if (record->replaces_cache) ckpt->cache.clear();
  for (CostLine& line : record->lines) ckpt->cache.push_back(std::move(line));
  // Absent on fault-free sessions.
  ckpt->degraded_statements.clear();
  if (const xml::Element* degraded = root.FindChild("DegradedStatements")) {
    for (uint64_t i : ParseU64List(degraded->text())) {
      ckpt->degraded_statements.insert(static_cast<size_t>(i));
    }
  }
  if (const xml::Element* pool = root.FindChild("CandidatePool")) {
    ckpt->pool.clear();
    for (const xml::Element* c : pool->FindChildren("Candidate")) {
      auto cand = CandidateFromXml(*c, catalog);
      if (!cand.ok()) return cand.status();
      ckpt->pool.push_back(std::move(cand).value());
    }
  }
  if (const xml::Element* en = root.FindChild("Enumeration")) {
    ckpt->enumeration = EnumerationResume();
    ckpt->enumeration.phase1_done = ParseBool(en->Attr("Phase1Done"));
    ckpt->enumeration.cost = ParseDouble(en->Attr("Cost"));
    for (const xml::Element* c : en->FindChildren("Chosen")) {
      ckpt->enumeration.chosen.push_back(c->text());
    }
    if (const xml::Element* strikes = en->FindChild("Strikes")) {
      for (uint64_t n : ParseU64List(strikes->text())) {
        ckpt->enumeration.strikes.push_back(static_cast<int>(n));
      }
    }
  }
  return Status::Ok();
}

Result<SessionCheckpoint> LoadCheckpoint(const std::string& path,
                                         const catalog::Catalog& catalog) {
  auto log = ReadDeltaLog(path);
  if (!log.ok()) return log.status();
  SessionCheckpoint ckpt;
  DTA_RETURN_IF_ERROR(ApplySessionRecord(log->base, true, catalog, &ckpt));
  for (const std::string& segment : log->segments) {
    DTA_RETURN_IF_ERROR(ApplySessionRecord(segment, false, catalog, &ckpt));
  }
  return ckpt;
}

// ---- The log ---------------------------------------------------------------

namespace {

// Writes one record (header, payload, newline) without copying the payload;
// returns the record's size.
size_t WriteRecord(std::ostream& out, const char* kind,
                   const std::string& payload) {
  std::string header("DTAS3 ");
  header += kind;
  header.push_back(' ');
  AppendU64(&header, payload.size());
  header.push_back(' ');
  AppendU64(&header, HashBytes(payload));
  header.push_back('\n');
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.put('\n');
  return header.size() + payload.size() + 1;
}

// Parses one record at [*p, end). On success advances *p past the record and
// fills kind/payload. Any malformation — bad magic, unknown kind, header
// fields that are not numbers, payload running past EOF, missing trailing
// newline, checksum mismatch — returns false with *p untouched; the caller
// treats everything from *p on as a torn tail.
bool DecodeDeltaRecord(const char** p, const char* end, std::string* kind,
                       std::string* payload) {
  const char* cur = *p;
  const char* nl = static_cast<const char*>(
      std::memchr(cur, '\n', static_cast<size_t>(end - cur)));
  if (nl == nullptr) return false;
  const std::string header(cur, static_cast<size_t>(nl - cur));
  // "DTAS3 <kind> <payload-bytes> <fnv64-checksum>"
  if (header.rfind("DTAS3 ", 0) != 0) return false;
  const size_t kind_start = 6;
  const size_t kind_end = header.find(' ', kind_start);
  if (kind_end == std::string::npos) return false;
  const std::string k = header.substr(kind_start, kind_end - kind_start);
  if (k != "base" && k != "seg") return false;
  char* q = nullptr;
  const char* num = header.c_str() + kind_end + 1;
  const uint64_t bytes = std::strtoull(num, &q, 10);
  if (q == num || *q != ' ') return false;
  num = q + 1;
  const uint64_t checksum = std::strtoull(num, &q, 10);
  if (q == num || *q != '\0') return false;
  const char* body = nl + 1;
  if (bytes > static_cast<uint64_t>(end - body)) return false;
  // Every record ends in a newline of its own, so a crash that truncates the
  // payload mid-write is detected even when the payload's declared length
  // happens to fit in the remaining bytes.
  if (static_cast<uint64_t>(end - body) == bytes ||
      body[bytes] != '\n') {
    return false;
  }
  std::string pl(body, static_cast<size_t>(bytes));
  if (HashBytes(pl) != checksum) return false;
  *kind = k;
  *payload = std::move(pl);
  *p = body + bytes + 1;
  return true;
}

}  // namespace

Status CheckpointLog::Write(
    const std::function<std::string()>& encode_base,
    const std::function<std::string()>& encode_segment) {
  if (path_.empty()) return Status::Ok();
  if (base_bytes_.empty()) return WriteBase(encode_base);
  size_t record_bytes = 0;
  {
    // Opening for update never creates the file: if the base this object
    // wrote is gone, the append is refused rather than starting a log
    // without one.
    std::fstream out(path_, std::ios::in | std::ios::out | std::ios::binary);
    if (!out) {
      return Status::FailedPrecondition(
          "delta log has no base record to append to: " + path_);
    }
    out.seekp(0, std::ios::end);
    record_bytes = WriteRecord(out, "seg", encode_segment());
    out.flush();
    if (!out) {
      return Status::Internal("short append to delta log file: " + path_);
    }
  }
  segment_bytes_.push_back(record_bytes);
  bytes_ += record_bytes;
  segment_bytes_since_base_ += record_bytes;
  if (segment_bytes_since_base_ <= compact_threshold_bytes_) {
    return Status::Ok();
  }
  // Compaction: fold every segment back into one base record. O(total
  // state), amortized by the byte threshold that triggered it.
  DTA_RETURN_IF_ERROR(WriteBase(encode_base));
  ++compactions_;
  return Status::Ok();
}

Status CheckpointLog::WriteBase(
    const std::function<std::string()>& encode_base) {
  const std::string tmp = path_ + ".tmp";
  size_t record_bytes = 0;
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      return Status::Internal("cannot write delta log file: " + tmp);
    }
    record_bytes = WriteRecord(out, "base", encode_base());
    out.flush();
    if (!out) {
      return Status::Internal("short write to delta log file: " + tmp);
    }
  }
  // Atomic replace: a crash between write and rename leaves the previous
  // log intact; a crash mid-write only corrupts the .tmp file.
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename delta log into place: " + path_);
  }
  base_bytes_.push_back(record_bytes);
  bytes_ += record_bytes;
  segment_bytes_since_base_ = 0;
  return Status::Ok();
}

Result<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open delta log file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const char* p = text.c_str();
  const char* end = p + text.size();

  DeltaLogContents contents;
  std::string kind;
  std::string payload;
  if (!DecodeDeltaRecord(&p, end, &kind, &payload) || kind != "base") {
    if (text.find("<DTACheckpoint") != std::string::npos) {
      return Status::FailedPrecondition(
          path + " is a version 2 DTACheckpoint document, a format this "
                 "build no longer reads; re-run without --resume "
                 "(TuningOptions::resume_path) to start a fresh session");
    }
    // The base is written atomically, so a file without a valid leading base
    // record was never a valid delta log — unlike a torn appended tail,
    // there is nothing to salvage.
    return Status::InvalidArgument(
        "delta log has no valid base record: " + path);
  }
  contents.base = std::move(payload);
  while (p < end) {
    if (!DecodeDeltaRecord(&p, end, &kind, &payload) || kind != "seg") {
      // Torn or corrupt tail (crash mid-append): drop it and everything
      // after it — the framing is lost from here on.
      contents.dropped_records = 1;
      break;
    }
    contents.segments.push_back(std::move(payload));
  }
  return contents;
}

}  // namespace dta::tuner
