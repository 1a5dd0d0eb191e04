#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/memory_budget.h"
#include "graph/graph.h"

namespace rlqvo {

/// \brief Complete candidate vertex sets C(u) for all query vertices
/// (Definition II.2): for every data vertex v that participates in any match
/// at query vertex u, v must be in C(u). Lists are kept sorted ascending.
class CandidateSet {
 public:
  CandidateSet() = default;
  explicit CandidateSet(uint32_t num_query_vertices)
      : sets_(num_query_vertices) {}

  uint32_t num_query_vertices() const {
    return static_cast<uint32_t>(sets_.size());
  }

  /// Candidate list for query vertex u, sorted ascending.
  const std::vector<VertexId>& candidates(VertexId u) const {
    RLQVO_DCHECK_LT(u, sets_.size());
    return sets_[u];
  }

  /// Replaces C(u); the list is sorted by this call.
  void Set(VertexId u, std::vector<VertexId> candidates);

  /// O(log |C(u)|) membership test.
  bool Contains(VertexId u, VertexId v) const;

  /// Sum of candidate-list sizes.
  size_t TotalSize() const;

  /// True iff some query vertex has an empty candidate list (no match can
  /// exist; the enumeration can be skipped entirely).
  bool AnyEmpty() const;

  /// "C(0)=12 C(1)=7 ..." for diagnostics.
  std::string ToString() const;

 private:
  std::vector<std::vector<VertexId>> sets_;
};

/// \brief The candidate-membership bitmask behind every `v ∈ C(u)` test of
/// the refinement filters and the enumerator.
///
/// Each data vertex v owns ⌈nq/64⌉ uint64 words: bit u % 64 of
/// `mask[v * words + u / 64]` says v ∈ C(u). Reset() zeroes exactly the
/// words the previous Reset() turned nonzero and sets the Σ|C(u)| bits of
/// the new set, so no per-reset work scales with |V(G)|; the footprint,
/// 8·⌈nq/64⌉·|V(G)| bytes, grows to the high-water mark under a
/// MemoryBudget charge and is kept. When the budget or the `workspace.grow`
/// failpoint denies growth, Test() falls back to CandidateSet::Contains on
/// the bound set — identical answers, an O(log|C(u)|) check.
///
/// Not safe for concurrent use: one instance per thread or per workspace.
class CandidateMask {
 public:
  /// Binds the mask to `cs`, which must outlive the binding, and sets its
  /// current contents for data vertices [0, num_data_vertices). Returns
  /// whether membership is answered by the mask (false: growth denied,
  /// binary-search fallback).
  bool Reset(const CandidateSet& cs, uint32_t num_data_vertices);

  bool Test(VertexId u, VertexId v) const {
    if (!active_) return cs_->Contains(u, v);
    const uint64_t word = bits_[static_cast<size_t>(v) * words_ + u / 64];
    return ((word >> (u % 64)) & 1) != 0;
  }

  /// Test(u, ·) for one fixed u, by value so the compiler keeps it in
  /// registers across a loop over data vertices; Test() would reload the
  /// mask's fields after every store the loop makes.
  struct Column {
    const uint64_t* words;  // &mask[u / 64], or nullptr on the fallback
    size_t stride;
    uint64_t bit;
    const CandidateSet* cs;
    VertexId u;

    bool Has(VertexId v) const {
      if (words == nullptr) return cs->Contains(u, v);
      return (words[static_cast<size_t>(v) * stride] & bit) != 0;
    }
  };
  Column ColumnOf(VertexId u) const {
    return {active_ ? bits_.data() + u / 64 : nullptr, words_,
            uint64_t{1} << (u % 64), cs_, u};
  }

  /// Removes v from C(u) in the mask only; the bound CandidateSet is left to
  /// the caller. A no-op on the fallback path.
  void Clear(VertexId u, VertexId v) {
    if (!active_) return;
    bits_[static_cast<size_t>(v) * words_ + u / 64] &=
        ~(uint64_t{1} << (u % 64));
  }

  /// Reallocations so far (growth to a new high-water mark).
  uint64_t grows() const { return grows_; }
  /// Current allocation in bytes (0 until the first granted growth).
  size_t bytes() const { return bits_.size() * sizeof(uint64_t); }

 private:
  const CandidateSet* cs_ = nullptr;
  // Only the words listed in touched_ are nonzero between two Resets.
  std::vector<uint64_t> bits_;
  std::vector<size_t> touched_;
  MemoryCharge charge_;  // budget charge for bits_
  size_t words_ = 0;     // ⌈nq/64⌉ for the bound set
  bool active_ = false;
  uint64_t grows_ = 0;
};

}  // namespace rlqvo
