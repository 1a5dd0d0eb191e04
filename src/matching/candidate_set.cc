#include "matching/candidate_set.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/failpoint.h"

namespace rlqvo {

void CandidateSet::Set(VertexId u, std::vector<VertexId> candidates) {
  RLQVO_DCHECK_LT(u, sets_.size());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  sets_[u] = std::move(candidates);
}

bool CandidateSet::Contains(VertexId u, VertexId v) const {
  RLQVO_DCHECK_LT(u, sets_.size());
  const auto& c = sets_[u];
  return std::binary_search(c.begin(), c.end(), v);
}

size_t CandidateSet::TotalSize() const {
  size_t total = 0;
  for (const auto& c : sets_) total += c.size();
  return total;
}

bool CandidateSet::AnyEmpty() const {
  for (const auto& c : sets_) {
    if (c.empty()) return true;
  }
  return false;
}

std::string CandidateSet::ToString() const {
  std::ostringstream out;
  for (size_t u = 0; u < sets_.size(); ++u) {
    if (u > 0) out << " ";
    out << "C(" << u << ")=" << sets_[u].size();
  }
  return out.str();
}

bool CandidateMask::Reset(const CandidateSet& cs, uint32_t num_data_vertices) {
  const uint32_t nq = cs.num_query_vertices();
  cs_ = &cs;
  for (size_t w : touched_) bits_[w] = 0;
  touched_.clear();

  words_ = (nq + 63) / 64;
  const size_t size = words_ * num_data_vertices;
  active_ = true;
  if (bits_.size() < size) {
    // Growth is the one allocation that scales with |V(G)|, so it is the
    // degradation point: charge the *whole* new footprint (replacing the
    // previous footprint's charge) and, when the budget or the
    // `workspace.grow` failpoint denies it, fall back to binary search.
    MemoryCharge charge =
        MemoryBudget::Global().TryCharge(size * sizeof(uint64_t));
    if (charge.empty() || RLQVO_FAILPOINT_FIRED("workspace.grow")) {
      active_ = false;
      return false;
    }
    charge_ = std::move(charge);
    bits_.resize(size, 0);
    ++grows_;
  }
  for (VertexId u = 0; u < nq; ++u) {
    const size_t word = u / 64;
    const uint64_t bit = uint64_t{1} << (u % 64);
    for (VertexId v : cs.candidates(u)) {
      uint64_t& cell = bits_[static_cast<size_t>(v) * words_ + word];
      if (cell == 0) {
        touched_.push_back(static_cast<size_t>(&cell - bits_.data()));
      }
      cell |= bit;
    }
  }
  return true;
}

}  // namespace rlqvo
