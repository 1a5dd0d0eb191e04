#include "matching/enum_workspace.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace rlqvo {

Status EnumeratorWorkspace::Prepare(const Graph& query, const Graph& data,
                                    const CandidateSet& candidates,
                                    const std::vector<VertexId>& order) {
  const uint32_t nq = query.num_vertices();
  const size_t nv = data.num_vertices();

  // Directedness is part of the matching semantics (an undirected query
  // edge means "one symmetric edge", a directed one means "this arc"), so a
  // mixed pair has no well-defined answer — reject instead of guessing.
  if (query.directed() != data.directed()) {
    return Status::InvalidArgument(
        "query/data directedness mismatch: query is " +
        std::string(query.directed() ? "directed" : "undirected") +
        ", data is " + std::string(data.directed() ? "directed" : "undirected"));
  }

  // Any fresh Prepare invalidates a parallel run's "already prepared on
  // this worker" stamp (see parallel_run_token()).
  parallel_run_token_ = 0;

  // Candidate lists are sorted ascending, so range validation is one
  // tail check per query vertex.
  for (VertexId u = 0; u < nq; ++u) {
    const std::vector<VertexId>& c = candidates.candidates(u);
    if (!c.empty() && c.back() >= nv) {
      return Status::InvalidArgument("candidate vertex out of range");
    }
  }
#ifndef NDEBUG
  // The intersection core derives local candidates from label(u) adjacency
  // slices, so it requires label-consistent candidate sets (which every
  // shipped filter produces; a label-mismatched candidate could never be
  // part of a genuine match anyway). Enforced in debug builds; documented
  // on Enumerator::Run.
  for (VertexId u = 0; u < nq; ++u) {
    for (VertexId v : candidates.candidates(u)) {
      RLQVO_DCHECK_EQ(data.label(v), query.label(u));
    }
  }
#endif

  // Backward-neighbor lists and per-depth local-candidate buffers for this
  // order; inner vectors keep their capacity across queries.
  if (backward_.size() < nq) backward_.resize(nq);
  if (local_.size() < nq) local_.resize(nq);
  placed_.assign(nq, 0);
  const bool degenerate = query.degenerate();
  for (size_t i = 0; i < order.size(); ++i) {
    backward_[i].clear();
    // neighbors-ok: endpoints only; labeled constraints come from EdgesBetween.
    for (VertexId w : query.neighbors(order[i])) {
      if (!placed_[w]) continue;
      if (degenerate) {
        // Exactly one undirected label-0 edge per skeleton neighbor; skip
        // the EdgesBetween lookup and keep the classic neighbor-list order.
        backward_[i].push_back({w, EdgeDir::kOut, 0});
        continue;
      }
      // One constraint per labeled query edge between w and order[i], from
      // w's perspective (w is the placed endpoint the lookup anchors on).
      edge_scratch_.clear();
      query.EdgesBetween(w, order[i], &edge_scratch_);
      for (const auto& [dir, elabel] : edge_scratch_) {
        backward_[i].push_back({w, dir, elabel});
      }
    }
    placed_[order[i]] = 1;
  }

  mapping_.assign(nq, kInvalidVertex);

  // Bump the epoch: every visited mark from previous queries is now stale.
  // On uint8 wrap-around, old marks could collide with reused epoch values,
  // so the array gets its once-per-255-queries zero-fill here.
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(visited_stamp_.begin(), visited_stamp_.end(), uint8_t{0});
    epoch_ = 1;
    ++stats_.epoch_resets;
  }
  if (visited_stamp_.size() < nv) visited_stamp_.resize(nv, 0);

  // Clear the previous query's mask bits: only the words it turned nonzero.
  for (size_t w : mask_touched_) mask_[w] = 0;
  mask_touched_.clear();

  use_mask_ = mode_ != MembershipMode::kForceBinarySearch;
  mask_words_ = (nq + 63) / 64;
  const size_t mask_size = mask_words_ * nv;
  if (use_mask_ && mask_.size() < mask_size) {
    // Growth is the one allocation that scales with |V(G)|, so it is the
    // degradation point: charge the *whole* new footprint (replacing the
    // previous footprint's charge) and, when the budget or the
    // `workspace.grow` failpoint denies it, fall back to binary-search
    // membership — identical results, slower membership check. Only a
    // caller that explicitly pinned kForceStamped gets an error instead.
    const size_t mask_bytes = mask_size * sizeof(uint64_t);
    MemoryCharge charge = MemoryBudget::Global().TryCharge(mask_bytes);
    if (charge.empty() || RLQVO_FAILPOINT_FIRED("workspace.grow")) {
      if (mode_ == MembershipMode::kForceStamped) {
        return Status::ResourceExhausted(
            "membership-mask growth denied (" + std::to_string(mask_bytes) +
            " bytes) with membership pinned to kForceStamped");
      }
      use_mask_ = false;
      ++stats_.sparse_fallbacks;
    } else {
      mask_charge_ = std::move(charge);
      mask_.resize(mask_size, 0);
      ++stats_.mask_grows;
      stats_.mask_bytes = mask_bytes;
    }
  }
  if (use_mask_) {
    for (VertexId u = 0; u < nq; ++u) {
      const size_t word = u / 64;
      const uint64_t bit = uint64_t{1} << (u % 64);
      for (VertexId v : candidates.candidates(u)) {
        uint64_t& cell = mask_[static_cast<size_t>(v) * mask_words_ + word];
        if (cell == 0) {
          mask_touched_.push_back(static_cast<size_t>(&cell - mask_.data()));
        }
        cell |= bit;
      }
    }
    ++stats_.mask_prepares;
  }

  ++stats_.prepares;
  stats_.last_mask = use_mask_;
  return Status::OK();
}

void EnumeratorWorkspace::InstallSegmentPrefix(
    const std::vector<VertexId>& order, std::span<const VertexId> prefix) {
  RLQVO_DCHECK_LE(prefix.size(), order.size());
  for (size_t p = 0; p < prefix.size(); ++p) {
    mapping_[order[p]] = prefix[p];
    MarkVisited(prefix[p]);
  }
}

void EnumeratorWorkspace::RemoveSegmentPrefix(
    const std::vector<VertexId>& order, std::span<const VertexId> prefix) {
  for (size_t p = 0; p < prefix.size(); ++p) {
    UnmarkVisited(prefix[p]);
    mapping_[order[p]] = kInvalidVertex;
  }
}

}  // namespace rlqvo
