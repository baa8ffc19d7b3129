#include "core/feasibility.hpp"

#include <algorithm>

#include "core/search_internal.hpp"
#include "device/tiles.hpp"

namespace prpart {

namespace {

/// a - b element-wise; callers guarantee a >= b in every element.
ResourceVec minus(const ResourceVec& a, const ResourceVec& b) {
  return {a.clbs - b.clbs, a.brams - b.brams, a.dsps - b.dsps};
}

/// The depth-first fit search over one candidate set at a time. Buffers
/// are sized once per set; moves update the running area in O(1) plus one
/// occupancy test, and unwind exactly on the way back.
class FitSearch {
 public:
  FitSearch(const std::vector<BasePartition>& partitions,
            const CompatibilityTable& compat, const ResourceVec& static_base,
            const ResourceVec& budget, bool allow_static_promotion,
            const CancelToken* cancel)
      : partitions_(partitions),
        compat_(compat),
        static_base_(static_base),
        budget_(budget),
        allow_static_(allow_static_promotion),
        cancel_(cancel) {}

  /// True when some assignment of `set` fits; witness() then describes it.
  /// False when none does or, with capped() set, when the cap stopped it.
  bool run(const std::vector<std::size_t>& set) {
    items_ = set;
    std::sort(items_.begin(), items_.end(),
              [&](std::size_t a, std::size_t b) {
                const std::uint64_t wa =
                    search_internal::weighted_area(partitions_[a].area);
                const std::uint64_t wb =
                    search_internal::weighted_area(partitions_[b].area);
                return wa != wb ? wa > wb : a < b;
              });
    place_.assign(items_.size(), kStatic);
    if (regions_.size() < items_.size()) regions_.resize(items_.size());
    open_ = 0;
    total_ = static_base_;
    return total_.fits_in(budget_) && place(0);
  }

  std::uint64_t states() const { return states_; }
  bool capped() const { return capped_; }

  /// The assignment run() last accepted, as a scheme over master-list
  /// indices (members sorted).
  PartitionScheme witness() const {
    PartitionScheme scheme;
    scheme.label = "fit witness";
    scheme.regions.resize(open_);
    for (std::size_t k = 0; k < items_.size(); ++k) {
      if (place_[k] == kStatic)
        scheme.static_members.push_back(items_[k]);
      else
        scheme.regions[place_[k]].members.push_back(items_[k]);
    }
    for (Region& region : scheme.regions)
      std::sort(region.members.begin(), region.members.end());
    std::sort(scheme.static_members.begin(), scheme.static_members.end());
    return scheme;
  }

 private:
  static constexpr std::size_t kStatic = ~std::size_t{0};

  struct OpenRegion {
    ResourceVec raw;   ///< element-wise max of the members' areas
    ResourceVec foot;  ///< tile-rounded raw, its share of the total
    DynBitset occ;     ///< union of the members' occupancies
  };

  /// Places items_[k..] on top of the current partial assignment, whose
  /// total already fits. Each branch is taken only if its total still fits.
  bool place(std::size_t k) {
    if (++states_ > kFitCheckStateCap) {
      capped_ = true;
      return false;
    }
    if (states_ % 1024 == 0) check_cancel(cancel_);
    if (k == items_.size()) return true;

    const std::size_t p = items_[k];
    const ResourceVec& area = partitions_[p].area;
    const DynBitset& occ = compat_.occupancy(p);
    const ResourceVec prior_total = total_;

    // Join an open region whose members never share a configuration with
    // this partition.
    for (std::size_t r = 0; r < open_; ++r) {
      OpenRegion& region = regions_[r];
      if (region.occ.intersects(occ)) continue;
      const ResourceVec raw = elementwise_max(region.raw, area);
      const ResourceVec foot = tiles_for(raw).resources();
      const ResourceVec total = total_ + minus(foot, region.foot);
      if (!total.fits_in(budget_)) continue;
      const ResourceVec prior_raw = region.raw;
      const ResourceVec prior_foot = region.foot;
      region.raw = raw;
      region.foot = foot;
      region.occ |= occ;
      total_ = total;
      place_[k] = r;
      if (place(k + 1)) return true;
      region.raw = prior_raw;
      region.foot = prior_foot;
      region.occ.subtract(occ);  // occupancies were disjoint
      total_ = prior_total;
      if (capped_) return false;
    }

    // Open one fresh region: regions are unlabeled, so opening any other
    // empty one would repeat this branch.
    {
      const ResourceVec foot = tiles_for(area).resources();
      const ResourceVec total = total_ + foot;
      if (total.fits_in(budget_)) {
        OpenRegion& region = regions_[open_];
        region.raw = area;
        region.foot = foot;
        region.occ = occ;
        place_[k] = open_++;
        total_ = total;
        if (place(k + 1)) return true;
        --open_;
        total_ = prior_total;
        if (capped_) return false;
      }
    }

    // Promote into the static logic.
    if (allow_static_) {
      const ResourceVec total = total_ + area;
      if (total.fits_in(budget_)) {
        place_[k] = kStatic;
        total_ = total;
        if (place(k + 1)) return true;
        total_ = prior_total;
      }
    }
    return false;
  }

  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const ResourceVec static_base_;
  const ResourceVec budget_;
  const bool allow_static_;
  const CancelToken* cancel_;

  std::vector<std::size_t> items_;  ///< the set, largest area first
  std::vector<std::size_t> place_;  ///< per item: region index or kStatic
  std::vector<OpenRegion> regions_;
  std::size_t open_ = 0;            ///< regions_[0, open_) hold members
  ResourceVec total_;               ///< area of the partial assignment
  std::uint64_t states_ = 0;
  bool capped_ = false;
};

}  // namespace

FitCheck fit_check(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat, const CandidateSets& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion, const CancelToken* cancel) {
  FitSearch search(partitions, compat, static_base, budget,
                   allow_static_promotion, cancel);
  FitCheck out;
  out.verdict = FitVerdict::ProvenNone;
  for (const std::vector<std::size_t>& set : sets) {
    check_cancel(cancel);
    if (search.run(set)) {
      out.verdict = FitVerdict::Witness;
      out.witness = search.witness();
      break;
    }
    if (search.capped()) {
      out.verdict = FitVerdict::Unknown;
      break;
    }
  }
  out.states = search.states();
  return out;
}

}  // namespace prpart
