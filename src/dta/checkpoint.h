// Crash-safe session checkpoints (robustness layer).
//
// A tuning session writes a resumable snapshot of its progress after every
// expensive phase — the current-cost pass, candidate pool finalization, the
// enumeration exhaustive phase, and each completed greedy round — so an
// interrupted session (crash, eviction, kill) restarts from the last
// checkpoint instead of from scratch and produces the *identical*
// recommendation an uninterrupted run would have produced.
//
// What makes resume bit-identical:
//   * the snapshot carries the full what-if cost cache, so re-driven search
//     steps hit the cache instead of re-pricing (and degraded entries stay
//     degraded);
//   * the keys of every statistic the interrupted run created are recorded;
//     resume re-creates them (statistics builds are deterministic in the
//     data) *before* importing the cache, so cached costs remain valid and
//     the stats-creation phases become no-ops that never clear the cache;
//   * the enumeration greedy state (chosen candidate names, objective,
//     two-strike elimination counters) restarts the search mid-stream.
//
// Checkpoints serialize to the project's XML vocabulary (xmlio). Costs are
// rendered as C99 hex floats so they round-trip bit-exactly. Files are
// written atomically: serialize to "<path>.tmp", then rename over <path> —
// a crash mid-write never corrupts the previous checkpoint.

#ifndef DTA_DTA_CHECKPOINT_H_
#define DTA_DTA_CHECKPOINT_H_

#include <cstdint>
#include <set>
#include <string>
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

// Phase markers, ordered by pipeline progress.
inline constexpr int kCheckpointCurrentCosts = 1;  // current-cost pass done
inline constexpr int kCheckpointPoolReady = 2;     // candidate pool final
inline constexpr int kCheckpointEnumeration = 3;   // greedy state present

struct SessionCheckpoint {
  // Guard against resuming with a different workload or different options:
  // either would silently produce a recommendation that matches neither run.
  uint64_t workload_fingerprint = 0;
  uint64_t options_fingerprint = 0;
  int phase = kCheckpointCurrentCosts;
  // Shard topology of the writing session (informational guard). Cache
  // entries are keyed by (statement, fingerprint) — shard-agnostic — so a
  // resumed session deterministically remaps them onto its own topology;
  // a corrupt topology (< 1) is rejected with a clear status instead of
  // silently mis-routing entries.
  int shards = 1;
  // Costing transport of the writing session ("inproc" or "socket").
  // Informational, like `shards`: cache entries are transport-agnostic, so
  // a checkpoint written under one transport resumes under the other.
  std::string transport = "inproc";

  std::vector<double> current_costs;  // per tuned statement, in order
  std::set<stats::StatsKey> missing_stats;
  std::vector<stats::StatsKey> created_stats;  // creation order
  std::vector<CostService::CacheEntry> cache;
  // Statements whose pricing degraded to the heuristic estimate at any point
  // before the snapshot. Carried explicitly because the cost cache is
  // cleared when candidate structures are materialized: a degraded entry
  // from an earlier phase may no longer be in `cache`, and with derived
  // costing the resumed run may answer the same miss from atoms instead of
  // re-firing the fault — so the flag cannot be reconstructed from pricing.
  std::set<size_t> degraded_statements;

  std::vector<Candidate> pool;  // phase >= kCheckpointPoolReady

  EnumerationResume enumeration;  // phase == kCheckpointEnumeration

  // Report counters accumulated before the snapshot; restored verbatim so a
  // resumed session's report matches the uninterrupted one.
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

std::string CheckpointToXml(const SessionCheckpoint& checkpoint);
// `catalog` rebuilds candidate identities (canonical names, storage
// estimates) for the restored pool.
Result<SessionCheckpoint> CheckpointFromXml(const std::string& xml_text,
                                            const catalog::Catalog& catalog);

// Atomic write: "<path>.tmp" + rename.
Status SaveCheckpoint(const std::string& path,
                      const SessionCheckpoint& checkpoint);
Result<SessionCheckpoint> LoadCheckpoint(const std::string& path,
                                         const catalog::Catalog& catalog);

// ---- Append-only delta checkpoints (format v3) ----------------------------
//
// A v2 checkpoint rewrites the whole document on every write; that is fine
// for a one-shot session but makes per-round persistence on a stream
// O(total state). Format v3 splits a checkpoint into one *base* snapshot
// record followed by zero or more appended *delta segments*, each carrying
// only the entries produced since the previous write — so a steady-state
// round appends O(new work) bytes. The payloads themselves are opaque to
// this layer (the continuous tuner serializes its stream state into them);
// this layer owns the on-disk framing and its crash semantics.
//
// Framing: each record is
//
//   DTAS3 <kind> <payload-bytes> <fnv64-checksum>\n<payload>\n
//
// where <kind> is "base" or "seg" and the checksum covers the payload
// bytes. The base is written atomically ("<path>.tmp" + rename), which
// also truncates every previous segment — that is compaction. Segments are
// appended in place; a crash mid-append leaves a torn tail record, which
// the reader detects (short payload, bad header, or checksum mismatch) and
// drops along with anything after it, recovering the longest valid prefix.
// The dropped round is simply re-run — by the same determinism contract
// that makes kill-at-a-boundary resume bit-exact.
struct DeltaLogContents {
  std::string base;
  std::vector<std::string> segments;
  // Torn or corrupt tail records ignored by the reader (0 on a clean file).
  size_t dropped_records = 0;
};

// Atomically replaces `path` with a fresh base record (compaction: any
// previously appended segments are gone).
Status WriteDeltaBase(const std::string& path, const std::string& base);
// Appends one segment record to `path` (which must already hold a base).
// On success `*appended_bytes` (optional) receives the full record size —
// the per-round persistence cost the delta-bytes gauge reports.
Status AppendDeltaSegment(const std::string& path, const std::string& segment,
                          size_t* appended_bytes = nullptr);
// Reads base + segments, dropping a torn/corrupt tail. Fails only when the
// file is unreadable or its base record is invalid.
Result<DeltaLogContents> ReadDeltaLog(const std::string& path);

// Bulk-encoding helpers shared by the cost blobs below and the stream
// checkpoint: locale-free integer formatting and a C99 hex-float encoder
// whose output strtod round-trips bit-exactly.
void AppendU64(std::string* out, uint64_t v);
void AppendHexDouble(std::string* out, double v);
// Their inverses for a whole attribute (hex floats included).
uint64_t ParseU64(const std::string& s);
double ParseDouble(const std::string& s);

// A statistics key as both checkpoint formats carry it:
// <Stats Database= Table=><Column>name</Column>...</Stats>.
void StatsKeyToXml(const stats::StatsKey& key, xml::Element* parent);
stats::StatsKey StatsKeyFromXml(const xml::Element& e);

// ---- Front-coded cost blobs -----------------------------------------------
//
// The v2 checkpoint's CostCache section and the stream checkpoint's Memo
// section share one encoding, a "key cost flags shared suffix" line per
// entry: `key` is a statement index in the first, a statement id in the
// second, `flags` is bit 0 = degraded, bit 1 = derived, and the fingerprint
// is front-coded — `shared` bytes of the previous line's fingerprint, then
// `suffix` to end-of-line (empty for the base configuration's fingerprint).
class CostBlobWriter {
 public:
  // `fingerprint` must stay alive until the next Add: the next line is
  // front-coded against it.
  void Add(uint64_t key, const std::string& fingerprint, double cost,
           bool degraded, bool derived);
  // The blob, without the final line's newline.
  std::string Finish();

 private:
  std::string blob_;
  const std::string* prev_ = nullptr;
};

// Appends a blob's lines to `lines`. A truncated line, or one reusing more
// prefix than the previous fingerprint has, fails naming `section`.
Status DecodeCostBlob(const std::string& blob, const char* section,
                      std::vector<CostService::CacheEntry>* lines);

}  // namespace dta::tuner

#endif  // DTA_DTA_CHECKPOINT_H_
