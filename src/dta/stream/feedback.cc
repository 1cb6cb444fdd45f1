#include "dta/stream/feedback.h"

#include <cstdlib>
#include <utility>

namespace dta::tuner::stream {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

}  // namespace

std::vector<std::string> StructureNames(const catalog::Configuration& c) {
  std::vector<std::string> names = c.index_names();
  names.insert(names.end(), c.view_names().begin(), c.view_names().end());
  for (const auto& [table, scheme] : c.table_partitioning()) {
    names.push_back(catalog::TablePartitioningName(table, scheme));
  }
  return names;
}

void FeedbackState::Consume(const std::string& text) {
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated trailing line: not consumed — the writer may still be
      // appending it; it will be re-read complete next time.
      break;
    }
    const std::string raw = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line_no <= consumed_lines_) continue;  // already consumed
    ++consumed_lines_;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;

    FeedbackDirective d;
    if (line[0] == '@') {
      char* end = nullptr;
      const uint64_t round = std::strtoull(line.c_str() + 1, &end, 10);
      if (end == line.c_str() + 1 || *end != ' ') {
        ++unknown_;
        continue;
      }
      d.round = round;
      line = Trim(std::string(end + 1));
    }
    const size_t space = line.find(' ');
    const std::string verb = line.substr(0, space);
    if (space == std::string::npos ||
        (verb != "accept" && verb != "reject")) {
      ++unknown_;
      continue;
    }
    d.accept = verb == "accept";
    d.target = Trim(line.substr(space + 1));
    if (d.target.empty()) {
      ++unknown_;
      continue;
    }
    pending_.push_back(std::move(d));
  }
}

void FeedbackState::ApplyBefore(uint64_t round,
                                const catalog::Configuration& previous,
                                uint64_t quarantine_rounds) {
  // Expired quarantines leave the table — the structure is eligible again
  // and stops riding along in every checkpoint segment.
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    if (it->second <= round) {
      it = quarantine_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<FeedbackDirective> keep;
  for (const auto& d : pending_) {
    if (d.round <= round) {
      Apply(d, previous, round, quarantine_rounds);
    } else {
      keep.push_back(d);
    }
  }
  pending_ = std::move(keep);
}

void FeedbackState::Apply(const FeedbackDirective& d,
                          const catalog::Configuration& prev, uint64_t round,
                          uint64_t quarantine_rounds) {
  // Resolve the target to a canonical name (and, for accepts, to a position
  // in the previous recommendation — pinning needs the full definition).
  const std::vector<std::string> names = StructureNames(prev);
  size_t position = names.size();  // == invalid
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(d.target.c_str(), &end, 10);
  const bool numeric = end != d.target.c_str() && *end == '\0';
  std::string name;
  if (numeric) {
    if (parsed < 1 || parsed > names.size()) {
      ++unknown_;
      return;
    }
    position = static_cast<size_t>(parsed - 1);
    name = names[position];
  } else {
    name = d.target;
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        position = i;
        break;
      }
    }
  }

  if (!d.accept) {
    // Reject: quarantine by name through round + horizon - 1, and unpin if
    // previously accepted — latest word wins.
    quarantine_[name] = round + quarantine_rounds;
    (void)pinned_.RemoveStructure(name);
    ++rejected_;
    return;
  }

  // Accept: pin the structure's definition out of the previous
  // recommendation. A name that is not in it cannot be pinned (no
  // definition to pin) — counted unknown.
  if (position >= names.size()) {
    ++unknown_;
    return;
  }
  const size_t index_count = prev.indexes().size();
  const size_t view_count = prev.views().size();
  if (position < index_count) {
    (void)pinned_.AddIndex(prev.indexes()[position], names[position]);
  } else if (position < index_count + view_count) {
    (void)pinned_.AddView(prev.views()[position - index_count],
                          names[position]);
  } else {
    size_t i = position - index_count - view_count;
    for (const auto& [table, scheme] : prev.table_partitioning()) {
      if (i == 0) {
        pinned_.SetTablePartitioning(table, scheme);
        break;
      }
      --i;
    }
  }
  quarantine_.erase(name);  // acceptance lifts a quarantine
  ++accepted_;
}

std::vector<std::string> FeedbackState::QuarantinedAt(uint64_t round) const {
  std::vector<std::string> out;
  for (const auto& [name, expires] : quarantine_) {
    if (round < expires) out.push_back(name);
  }
  return out;  // std::map iteration: already sorted
}

void FeedbackState::Restore(catalog::Configuration pinned,
                            std::map<std::string, uint64_t> quarantine,
                            std::vector<FeedbackDirective> pending,
                            size_t consumed_lines, size_t accepted,
                            size_t rejected, size_t unknown) {
  pinned_ = std::move(pinned);
  quarantine_ = std::move(quarantine);
  pending_ = std::move(pending);
  consumed_lines_ = consumed_lines;
  accepted_ = accepted;
  rejected_ = rejected;
  unknown_ = unknown;
}

}  // namespace dta::tuner::stream
