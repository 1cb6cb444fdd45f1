// Crash-safe checkpoints (robustness layer): one append-only log (format
// v3) for one-shot tuning sessions and the continuous tuning service.
//
// A session records its progress after the current-cost pass, when the
// candidate pool is final, and after the enumeration's exhaustive phase and
// every greedy round; a killed session resumes from the last record and
// produces the *identical* recommendation. Resume is bit-identical because
// the log carries the whole cost cache (degraded entries stay degraded),
// the keys of every statistic created — re-created *before* the cache is
// restored, so cached costs stay valid and no stats phase clears it — and
// the greedy state, from which the search restarts mid-stream.
//
// The log is one *base* record carrying the whole state, then appended
// *segment* records carrying what changed since the previous record, so a
// write costs O(new work). Each record is
//
//   DTAS3 <kind> <payload-bytes> <fnv64-checksum>\n<payload>\n
//
// with <kind> "base" or "seg". A base is written atomically ("<path>.tmp" +
// rename), which truncates every earlier segment. A crash mid-append leaves
// a torn tail, which the reader detects (short payload, bad header, checksum
// mismatch) and drops with anything after it; the lost work is re-run.
// Every payload is one XML state document (xmlio) followed by its
// front-coded cost lines (EncodeRecord/SplitRecord), doubles as C99 hex
// floats so they round-trip bit-exactly: <DTASession Version="3"> records
// here, <DTAStream Version="4"> in dta/stream/continuous.h. This build
// refuses, with a status that names the format, a version 2 session
// document (which rewrote a session's whole <DTACheckpoint> per write) and
// a version 3 stream log (which escaped its cost lines into the document).

#ifndef DTA_DTA_CHECKPOINT_H_
#define DTA_DTA_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "dta/candidates.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/tuning_options.h"
#include "stats/statistics.h"
#include "workload/workload.h"

namespace dta::xml {
class Element;
}  // namespace dta::xml

namespace dta::tuner {

// ---- The log -------------------------------------------------------------

// One checkpoint log file. It decides the kind of every record:
//   * the first write of a CheckpointLog is a base. It replaces whatever
//     the path held — a finished run's log, or the log a resumed run just
//     read, torn tail included — so a segment is only ever appended behind
//     records this object wrote;
//   * every later write appends a segment;
//   * once the segment bytes appended since the last base exceed
//     `compact_threshold_bytes`, the log compacts: a fresh base follows the
//     segment that crossed the threshold. The default never compacts.
// An empty path disables the log: Write does nothing.
class CheckpointLog {
 public:
  explicit CheckpointLog(
      std::string path,
      size_t compact_threshold_bytes = std::numeric_limits<size_t>::max())
      : path_(std::move(path)),
        compact_threshold_bytes_(compact_threshold_bytes) {}

  // Writes the next record; only the kind the log writes is encoded.
  Status Write(const std::function<std::string()>& encode_base,
               const std::function<std::string()>& encode_segment);

  // This object's writes, as full record sizes (header included), in order.
  const std::vector<size_t>& segment_bytes() const { return segment_bytes_; }
  const std::vector<size_t>& base_bytes() const { return base_bytes_; }
  size_t writes() const { return base_bytes_.size() + segment_bytes_.size(); }
  size_t bytes() const { return bytes_; }
  size_t compactions() const { return compactions_; }

 private:
  Status WriteBase(const std::function<std::string()>& encode_base);

  std::string path_;
  size_t compact_threshold_bytes_;
  size_t bytes_ = 0;
  size_t segment_bytes_since_base_ = 0;
  size_t compactions_ = 0;
  std::vector<size_t> segment_bytes_;
  std::vector<size_t> base_bytes_;
};

struct DeltaLogContents {
  std::string base;
  std::vector<std::string> segments;
  // Torn or corrupt tail records ignored by the reader (0 on a clean file).
  size_t dropped_records = 0;
};

// Reads base + segments, dropping a torn/corrupt tail. Fails when the file
// is missing (NotFound), is a version 2 document, or has no valid base.
Result<DeltaLogContents> ReadDeltaLog(const std::string& path);

// ---- Records -------------------------------------------------------------

// One cost-cache entry as a checkpoint carries it.
struct CostLine {
  uint64_t id = 0;  // statement id (WorkloadStatement::id)
  std::string fingerprint;
  CostCache::Entry entry;
};

// Encodes a record: `document`, then the cost lines, outside the document
// so the bulk of every record is neither escaped nor parsed as XML. The
// lines come from `cache`, in (statement id, fingerprint) order: every
// entry in a base and in a segment whose document says CacheCleared="true"
// (the cache lost entries since the previous record), otherwise the
// entries priced since the previous record (CostCache::TakeNew). Either
// way the cache forgets what is new, so the next segment starts here.
std::string EncodeRecord(const xml::Element& document, bool base,
                         CostCache* cache);

// A record split back into its document and cost lines.
struct CheckpointRecord {
  std::unique_ptr<xml::Element> document;
  std::vector<CostLine> lines;
  // The lines replace the cache (a base, or CacheCleared) rather than add
  // to it.
  bool replaces_cache = false;
};
// Fails unless the document is a `root` element and every cost line is
// well formed; the caller checks the document's Version.
Result<CheckpointRecord> SplitRecord(const std::string& payload, bool base,
                                     const std::string& root);

// ---- Session records ------------------------------------------------------

// Phase markers, ordered by pipeline progress.
inline constexpr int kCheckpointCurrentCosts = 1;  // current-cost pass done
inline constexpr int kCheckpointPoolReady = 2;     // candidate pool final
inline constexpr int kCheckpointEnumeration = 3;   // greedy state present

// A session's progress: the state a running session keeps and writes as
// it stands, and the state its log folds back to (base, then segments). A
// fresh session's is phase 0.
struct SessionCheckpoint {
  // Guard against resuming with a different workload or different options:
  // either would silently produce a recommendation that matches neither run.
  uint64_t workload_fingerprint = 0;
  uint64_t options_fingerprint = 0;
  int phase = 0;
  // The writing session's shard topology and transport, informational:
  // entries are keyed by (statement, fingerprint), so a 4-shard inproc log
  // resumes on 2 shards or over sockets. A corrupt topology (< 1) is
  // refused with a clear status instead of silently mis-routing entries.
  int shards = 1;
  std::string transport = "inproc";  // or "socket"

  std::vector<double> current_costs;  // per tuned statement, in order
  std::set<stats::StatsKey> missing_stats;
  std::vector<stats::StatsKey> created_stats;  // creation order
  // Folded from a log only: a running session's entries live in its cost
  // cache, which the encoder reads.
  std::vector<CostLine> cache;
  // Statements whose pricing degraded at any point before the record. The
  // flag cannot be rebuilt from `cache`: statistics creation clears the
  // cache, and a resumed run may answer the same miss from atoms instead of
  // re-firing the fault.
  std::set<size_t> degraded_statements;

  std::vector<Candidate> pool;  // phase >= kCheckpointPoolReady

  EnumerationResume enumeration;  // phase == kCheckpointEnumeration

  // Report counters accumulated so far; a resumed session carries them on,
  // so its report matches the uninterrupted one.
  size_t stats_requested = 0;
  size_t stats_created = 0;
  double stats_creation_ms = 0;
  size_t candidates_generated = 0;
};

// Fingerprint of the (compressed) workload actually tuned: statement texts
// and weights, order-sensitive.
uint64_t WorkloadFingerprint(const workload::Workload& workload);
// Fingerprint of every result-affecting tuning option. Deliberately excludes
// num_threads (recommendations are thread-count invariant) and the
// checkpoint/resume paths themselves.
uint64_t OptionsFingerprint(const TuningOptions& options);

// Encodes one session record (EncodeRecord): a <DTASession> document with
// `checkpoint`'s scalars and small sections (its `cache` is not read),
// marked CacheCleared in a segment when `cleared` says a statistics request
// cleared the cache since the previous record, then `cache`'s cost lines.
// The pool is carried from kCheckpointPoolReady on by a base and by the
// pool-ready segment; the greedy state by records of the enumeration phase.
std::string EncodeSessionRecord(const SessionCheckpoint& checkpoint,
                                CostCache* cache, bool base, bool cleared);
// Folds one record into `checkpoint`: a base replaces it, a segment updates
// it. `catalog` rebuilds candidate identities (canonical names, storage
// estimates) for a restored pool.
Status ApplySessionRecord(const std::string& payload, bool base,
                          const catalog::Catalog& catalog,
                          SessionCheckpoint* checkpoint);
// Reads the session log at `path` and folds its records.
Result<SessionCheckpoint> LoadCheckpoint(const std::string& path,
                                         const catalog::Catalog& catalog);

// ---- Shared encoding helpers ----------------------------------------------

// Locale-free integer formatting and a C99 hex-float encoder whose output
// strtod round-trips bit-exactly, appending or as a whole attribute.
void AppendU64(std::string* out, uint64_t v);
void AppendHexDouble(std::string* out, double v);
std::string U64Str(uint64_t v);
std::string HexStr(double v);
// Their inverses for a whole attribute (hex floats included).
uint64_t ParseU64(const std::string& s);
double ParseDouble(const std::string& s);

// A statistics key as checkpoints carry it:
// <Stats Database= Table=><Column>name</Column>...</Stats>.
void StatsKeyToXml(const stats::StatsKey& key, xml::Element* parent);
stats::StatsKey StatsKeyFromXml(const xml::Element& e);

}  // namespace dta::tuner

#endif  // DTA_DTA_CHECKPOINT_H_
