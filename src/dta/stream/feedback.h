// DBA feedback channel (semi-automatic tuning; continuous service mode).
//
// A DBA reviews each round's recommendation delta and answers through a
// feedback file of directives, one per line:
//
//   accept <target>          pin the structure: it joins the user-specified
//                            configuration of every later round, so a
//                            workload shift cannot silently drop it
//   reject <target>          quarantine the structure for the configured
//                            horizon: it leaves the candidate pool and
//                            cannot be recommended until the horizon
//                            expires (then it must re-earn its seat)
//   @<round> accept|reject … apply the directive before round <round>
//
// <target> is either a structure's canonical name or a 1-based position
// into the previous round's recommendation (indexes first, then views,
// then partitioned tables — the order the recommendation prints in). A
// partitioned table's name is the candidate pool's `tp:<table>:<scheme>`,
// so rejecting it quarantines exactly that candidate.
//
// Determinism under kill/resume is the whole design: directives are
// *consumed* when read (a growing file re-reads from a consumed-lines
// cursor the checkpoint carries) but *applied* only at round boundaries —
// an untagged directive applies before the next round after it was
// consumed, a tagged one waits for its round. Both the pending list and the
// applied state (pinned configuration, quarantine horizons, counters)
// checkpoint, so a resumed service applies exactly the directives the
// uninterrupted one would have, in the same rounds.
//
// Unknown targets (no such name or position in the previous
// recommendation, unparseable verbs) are counted and dropped — feedback is
// advice, never a crash vector. An accept needs the structure's full
// definition, so it only resolves against the previous recommendation; a
// reject works by name alone. Accepting a quarantined structure lifts the
// quarantine; rejecting a pinned one unpins it — latest word wins.

#ifndef DTA_DTA_STREAM_FEEDBACK_H_
#define DTA_DTA_STREAM_FEEDBACK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/physical_design.h"

namespace dta::tuner::stream {

// Canonical names of `c`'s structures in print order: indexes, views,
// partitioned tables. The vocabulary of recommendation deltas; positional
// feedback targets index into this list.
std::vector<std::string> StructureNames(const catalog::Configuration& c);

struct FeedbackDirective {
  uint64_t round = 0;  // apply before this round; 0 = next opportunity
  bool accept = false;
  std::string target;  // canonical name or 1-based position
};

class FeedbackState {
 public:
  // Parses the feedback file's full text, consuming only lines past the
  // cursor — re-reading a growing file is idempotent. Blank lines and `#`
  // comments are consumed but ignored; unparseable lines count as unknown.
  void Consume(const std::string& text);
  size_t consumed_lines() const { return consumed_lines_; }

  // Applies every pending directive with round <= `round` (file order),
  // resolving positional targets against `previous` (the last round's
  // recommendation). Rejections quarantine through round
  // `round + quarantine_rounds - 1`.
  void ApplyBefore(uint64_t round, const catalog::Configuration& previous,
                   uint64_t quarantine_rounds);

  // Structures pinned by accepted feedback (joins user_specified).
  const catalog::Configuration& pinned() const { return pinned_; }
  // Canonical names quarantined at `round`, sorted.
  std::vector<std::string> QuarantinedAt(uint64_t round) const;

  size_t accepted() const { return accepted_; }
  size_t rejected() const { return rejected_; }
  size_t unknown() const { return unknown_; }

  // Checkpoint plumbing: full pending/quarantine state in deterministic
  // order, plus verbatim restore.
  const std::vector<FeedbackDirective>& pending() const { return pending_; }
  const std::map<std::string, uint64_t>& quarantine() const {
    return quarantine_;
  }
  void Restore(catalog::Configuration pinned,
               std::map<std::string, uint64_t> quarantine,
               std::vector<FeedbackDirective> pending, size_t consumed_lines,
               size_t accepted, size_t rejected, size_t unknown);

 private:
  void Apply(const FeedbackDirective& d, const catalog::Configuration& prev,
             uint64_t round, uint64_t quarantine_rounds);

  catalog::Configuration pinned_;
  std::map<std::string, uint64_t> quarantine_;  // name -> expires round
  std::vector<FeedbackDirective> pending_;      // file order
  size_t consumed_lines_ = 0;
  size_t accepted_ = 0;
  size_t rejected_ = 0;
  size_t unknown_ = 0;
};

}  // namespace dta::tuner::stream

#endif  // DTA_DTA_STREAM_FEEDBACK_H_
