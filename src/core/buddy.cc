#include "core/buddy.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"
#include "util/sorted_ops.h"

namespace tcomp {
namespace {

constexpr uint32_t kNoBuddy = static_cast<uint32_t>(-1);

struct CellKey {
  int64_t cx;
  int64_t cy;
  bool operator==(const CellKey& o) const { return cx == o.cx && cy == o.cy; }
};

struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.cx) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(k.cy) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace

BuddySet::BuddySet(double radius_threshold)
    : radius_threshold_(radius_threshold) {
  TCOMP_CHECK_GT(radius_threshold, 0.0);
}

BuddySet::SerializedState BuddySet::ExportState() const {
  SerializedState state;
  state.next_id = next_id_;
  state.buddies = buddies_;
  for (ObjectId oid = 0; oid < has_pos_.size(); ++oid) {
    if (has_pos_[oid]) state.last_positions.push_back({oid, last_pos_[oid]});
  }
  return state;
}

void BuddySet::ImportState(const SerializedState& state) {
  Clear();
  next_id_ = state.next_id;
  buddies_ = state.buddies;
  for (const auto& [oid, pos] : state.last_positions) {
    if (oid >= last_pos_.size()) {
      last_pos_.resize(oid + 1, Point{});
      has_pos_.resize(oid + 1, false);
    }
    last_pos_[oid] = pos;
    has_pos_[oid] = true;
  }
  RebuildObjectMap();
}

void BuddySet::Clear() {
  buddies_.clear();
  retired_ids_.clear();
  object_to_buddy_.clear();
  last_pos_.clear();
  has_pos_.clear();
  next_id_ = 0;
}

void BuddySet::RebuildObjectMap() {
  std::fill(object_to_buddy_.begin(), object_to_buddy_.end(), kNoBuddy);
  for (uint32_t bi = 0; bi < buddies_.size(); ++bi) {
    for (ObjectId oid : buddies_[bi].members) {
      if (oid >= object_to_buddy_.size()) {
        object_to_buddy_.resize(oid + 1, kNoBuddy);
      }
      object_to_buddy_[oid] = bi;
    }
  }
}

const Buddy* BuddySet::FindBuddyById(BuddyId id) const {
  auto it = std::lower_bound(
      buddies_.begin(), buddies_.end(), id,
      [](const Buddy& b, BuddyId target) { return b.id < target; });
  if (it == buddies_.end() || it->id != id) return nullptr;
  return &*it;
}

const Buddy* BuddySet::FindBuddyOfObject(ObjectId id) const {
  if (id >= object_to_buddy_.size()) return nullptr;
  uint32_t bi = object_to_buddy_[id];
  if (bi == kNoBuddy) return nullptr;
  return &buddies_[bi];
}

void BuddySet::Initialize(const Snapshot& snapshot) {
  Clear();
  const size_t n = snapshot.size();
  if (n == 0) return;

  // Record positions.
  ObjectId max_id = snapshot.id(n - 1);
  last_pos_.assign(max_id + 1, Point{});
  has_pos_.assign(max_id + 1, false);
  for (size_t i = 0; i < n; ++i) {
    last_pos_[snapshot.id(i)] = snapshot.pos(i);
    has_pos_[snapshot.id(i)] = true;
  }

  // Grid over 2·δγ cells: any two members of one buddy are within 2·δγ of
  // each other, so a seed's potential members all live in the 3×3 block.
  const double cell = 2.0 * radius_threshold_;
  std::unordered_map<CellKey, std::vector<uint32_t>, CellKeyHash> grid;
  auto cell_of = [cell](Point p) {
    return CellKey{static_cast<int64_t>(std::floor(p.x / cell)),
                   static_cast<int64_t>(std::floor(p.y / cell))};
  };
  for (uint32_t i = 0; i < n; ++i) {
    grid[cell_of(snapshot.pos(i))].push_back(i);
  }

  std::vector<bool> assigned(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    if (assigned[i]) continue;
    assigned[i] = true;
    Buddy b;
    b.id = NextId();
    b.members = {snapshot.id(i)};
    b.coord_sum = snapshot.pos(i);
    b.radius = 0.0;

    // Nearest-first greedy growth (paper: "merge with nearest neighbors,
    // stop when the radius exceeds the threshold").
    std::vector<uint32_t> candidates;
    CellKey c = cell_of(snapshot.pos(i));
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        auto it = grid.find(CellKey{c.cx + dx, c.cy + dy});
        if (it == grid.end()) continue;
        for (uint32_t j : it->second) {
          if (!assigned[j]) candidates.push_back(j);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](uint32_t a, uint32_t bidx) {
                // tcomp-lint: allow(soa-raw-loop): sort-comparator keys,
                // not an ε-filter — survivor sets are not computed here,
                // so there is no batch to stream.
                double da = SquaredDistance(snapshot.pos(a), snapshot.pos(i));
                double db =
                    // tcomp-lint: allow(soa-raw-loop): same comparator
                    // key as the line above.
                    SquaredDistance(snapshot.pos(bidx), snapshot.pos(i));
                if (da != db) return da < db;
                return a < bidx;
              });

    std::vector<uint32_t> member_indices = {i};
    for (uint32_t j : candidates) {
      // Tentatively add j and verify every member stays within δγ of the
      // shifted center.
      Point new_sum = b.coord_sum + snapshot.pos(j);
      double new_count = static_cast<double>(member_indices.size() + 1);
      Point new_center = new_sum / new_count;
      double max_dist = Distance(snapshot.pos(j), new_center);
      for (uint32_t m : member_indices) {
        max_dist = std::max(max_dist, Distance(snapshot.pos(m), new_center));
      }
      if (max_dist > radius_threshold_) break;  // nearest-first: stop here
      assigned[j] = true;
      member_indices.push_back(j);
      b.coord_sum = new_sum;
      b.members.push_back(snapshot.id(j));
      b.radius = max_dist;
    }
    SortUnique(&b.members);
    buddies_.push_back(std::move(b));
  }
  RebuildObjectMap();
}

void BuddySet::Update(const Snapshot& snapshot,
                      BuddyMaintenanceStats* stats) {
  retired_ids_.clear();
  BuddyMaintenanceStats local;
  const BuddyId first_new_id = next_id_;

  // Refresh last known positions; carry forward absent objects.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    ObjectId oid = snapshot.id(i);
    if (oid >= last_pos_.size()) {
      last_pos_.resize(oid + 1, Point{});
      has_pos_.resize(oid + 1, false);
      object_to_buddy_.resize(oid + 1, kNoBuddy);
    }
    last_pos_[oid] = snapshot.pos(i);
    has_pos_[oid] = true;
  }

  std::vector<Buddy> next;
  next.reserve(buddies_.size());
  std::vector<Buddy> born;  // changed buddies, ids assigned at the end

  // --- Split phase (Algorithm 3, lines 1–8). ---
  for (const Buddy& b : buddies_) {
    // Exact center from current member positions (equivalent to the
    // paper's incremental "add the member shifts to the stored sum").
    Point sum{};
    for (ObjectId oid : b.members) sum = sum + last_pos_[oid];
    double count = static_cast<double>(b.members.size());

    ObjectSet survivors;
    survivors.reserve(b.members.size());
    bool split_any = false;
    for (ObjectId oid : b.members) {
      ++local.distance_ops;
      Point center = sum / count;
      if (count > 1.0 &&
          Distance(last_pos_[oid], center) > radius_threshold_) {
        // Split out as a singleton buddy; remove its contribution.
        Buddy single;
        single.members = {oid};
        single.coord_sum = last_pos_[oid];
        single.radius = 0.0;
        born.push_back(std::move(single));
        ++local.splits;
        sum = sum - last_pos_[oid];
        count -= 1.0;
        split_any = true;
      } else {
        survivors.push_back(oid);
      }
    }

    Buddy remainder;
    remainder.members = std::move(survivors);
    remainder.coord_sum = sum;
    Point center = sum / count;
    double radius = 0.0;
    for (ObjectId oid : remainder.members) {
      ++local.distance_ops;
      radius = std::max(radius, Distance(last_pos_[oid], center));
    }
    remainder.radius = radius;
    if (split_any) {
      retired_ids_.push_back(b.id);
      born.push_back(std::move(remainder));
    } else {
      // membership unchanged: id survives (so far)
      remainder.id = b.id;
      next.push_back(std::move(remainder));
    }
  }

  // Objects never seen before this snapshot become singleton buddies.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    ObjectId oid = snapshot.id(i);
    if (object_to_buddy_[oid] == kNoBuddy) {
      Buddy single;
      single.members = {oid};
      single.coord_sum = snapshot.pos(i);
      single.radius = 0.0;
      born.push_back(std::move(single));
    }
  }

  // Merge working list: survivors first (stable ids), then the newly born.
  // `changed[i]` tracks whether entry i must receive a fresh id.
  std::vector<Buddy> work = std::move(next);
  std::vector<bool> changed(work.size(), false);
  for (Buddy& b : born) {
    work.push_back(std::move(b));
    changed.push_back(true);
  }

  // --- Merge phase (Algorithm 3, lines 10–13). Sweeps until fixpoint.
  // The merge condition d + γi + γj ≤ 2δγ implies d ≤ 2δγ, so a grid on
  // buddy centers with 2δγ cells restricts each sweep to 3×3-cell
  // candidate pairs (pairs skipped by the grid provably fail the
  // condition; the check itself is unchanged).
  std::vector<bool> dead(work.size(), false);
  const double cell = 2.0 * radius_threshold_;
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    std::unordered_map<CellKey, std::vector<uint32_t>, CellKeyHash> grid;
    for (uint32_t k = 0; k < work.size(); ++k) {
      if (dead[k]) continue;
      Point c = work[k].center();
      grid[CellKey{static_cast<int64_t>(std::floor(c.x / cell)),
                   static_cast<int64_t>(std::floor(c.y / cell))}]
          .push_back(k);
    }
    for (size_t i = 0; i < work.size(); ++i) {
      if (dead[i]) continue;
      Point ci_now = work[i].center();
      CellKey base{static_cast<int64_t>(std::floor(ci_now.x / cell)),
                   static_cast<int64_t>(std::floor(ci_now.y / cell))};
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          auto it = grid.find(CellKey{base.cx + dx, base.cy + dy});
          if (it == grid.end()) continue;
          for (uint32_t j : it->second) {
        if (j <= i || dead[j] || dead[i]) continue;
        ++local.distance_ops;
        Point ci = work[i].center();
        Point cj = work[j].center();
        double d = Distance(ci, cj);
        if (d + work[i].radius + work[j].radius >
            2.0 * radius_threshold_) {
          continue;
        }
        // Merge j into i without touching member coordinates: centers add
        // via coordinate sums; the radius gets the conservative bound
        // max(γi + d·mj/m, γj + d·mi/m), tightened next pass.
        double mi = static_cast<double>(work[i].members.size());
        double mj = static_cast<double>(work[j].members.size());
        double m = mi + mj;
        double bound = std::max(work[i].radius + d * mj / m,
                                work[j].radius + d * mi / m);
        if (!changed[i]) {
          retired_ids_.push_back(work[i].id);
          changed[i] = true;
        }
        if (!changed[j]) {
          retired_ids_.push_back(work[j].id);
        }
        work[i].members = SortedUnion(work[i].members, work[j].members);
        work[i].coord_sum = work[i].coord_sum + work[j].coord_sum;
        work[i].radius = bound;
        dead[j] = true;
        merged_any = true;
        ++local.merges;
          }
        }
      }
    }
  }

  // Finalize: surviving unchanged buddies keep their ids; changed ones get
  // fresh ids (assigned in list order, so ids stay creation-ordered).
  buddies_.clear();
  for (size_t i = 0; i < work.size(); ++i) {
    if (dead[i]) continue;
    if (changed[i]) work[i].id = NextId();
    buddies_.push_back(std::move(work[i]));
  }
  std::sort(buddies_.begin(), buddies_.end(),
            [](const Buddy& a, const Buddy& b) { return a.id < b.id; });
  RebuildObjectMap();

  local.total = static_cast<int64_t>(buddies_.size());
  for (const Buddy& b : buddies_) {
    local.member_sum += static_cast<int64_t>(b.members.size());
    // "Unchanged" = the id predates this pass (ids assigned this pass are
    // ≥ first_new_id).
    if (b.id < first_new_id) ++local.unchanged;
  }
  std::sort(retired_ids_.begin(), retired_ids_.end());
  if (stats != nullptr) {
    stats->unchanged += local.unchanged;
    stats->splits += local.splits;
    stats->merges += local.merges;
    stats->total += local.total;
    stats->member_sum += local.member_sum;
    stats->distance_ops += local.distance_ops;
  }
}

}  // namespace tcomp
