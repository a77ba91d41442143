#include "approx/lsh_index.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd::approx {

namespace {

constexpr std::size_t kBands = 8;     // minhash bands per attribute
constexpr std::size_t kBandRows = 2;  // hash rows per band
constexpr std::size_t kMaxBucket = 64;     // skip buckets with more values
constexpr std::size_t kNumericWindow = 8;  // sorted-neighbor window
// Global cap on surfaced near pairs: the sorted candidate list is
// truncated to this prefix (overflow counted in LshStats::dropped).
constexpr std::uint64_t kMaxCandidates = std::uint64_t{1} << 21;
constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;

// splitmix64 finalizer: the seeded mixing primitive behind every hash
// here. Fixed constants — blocking output is part of the deterministic
// build contract.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the bytes, mixed with `seed`.
std::uint64_t HashBytes(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Mix(h ^ seed);
}

void TokenFeatures(std::string_view value, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  std::size_t i = 0;
  const std::size_t n = value.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    std::size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    if (i > start) {
      out->push_back(HashBytes(value.substr(start, i - start), seed));
    }
  }
}

void QGramFeatures(std::string_view value, std::size_t q, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  if (value.size() < q) {
    out->push_back(HashBytes(value, seed));
    return;
  }
  for (std::size_t i = 0; i + q <= value.size(); ++i) {
    out->push_back(HashBytes(value.substr(i, q), seed));
  }
}

// Minhash signature: sig[h] = min over features of Mix(f ^ hash-slot
// seed). An empty feature set gets the all-max signature (collides only
// with other empties).
void MinhashSignature(const std::vector<std::uint64_t>& features,
                      std::size_t num_hashes, std::uint64_t seed,
                      std::vector<std::uint64_t>* sig) {
  sig->assign(num_hashes, std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t f : features) {
    for (std::size_t h = 0; h < num_hashes; ++h) {
      const std::uint64_t v = Mix(f ^ Mix(seed + h));
      if (v < (*sig)[h]) (*sig)[h] = v;
    }
  }
}

std::uint64_t EncodeVidPair(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<std::uint64_t> CollectNearPairs(const Relation& relation,
                                            const ResolvedMetrics& resolved,
                                            LshStats* stats) {
  std::vector<std::uint64_t> out;
  LshStats local;
  const std::uint64_t n = relation.num_rows();
  if (n < 2) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  // Pre-dedup expansion budget: the surfaced set is capped at
  // kMaxCandidates AFTER global dedup, so collecting a small multiple
  // bounds peak memory without biasing what survives the final cut.
  const std::uint64_t expansion_budget = kMaxCandidates * 2;

  const std::vector<std::uint32_t> rows = AllRows(n);
  for (std::size_t a = 0; a < resolved.num_attributes(); ++a) {
    const BlockingFamily family = resolved.metrics[a]->blocking_family();
    if (family == BlockingFamily::kNone) continue;
    const AttributeValueIndex index =
        InternColumn(relation, rows, resolved.attr_idx[a]);
    const std::size_t distinct = index.distinct();

    // Candidate DISTINCT-VALUE pairs for this attribute; expanded to
    // row pairs below. Encoded (lo<<32)|hi for cheap dedup.
    std::vector<std::uint64_t> vid_pairs;

    if (family == BlockingFamily::kNumeric) {
      // Sorted-neighbor join: distances respect the value order, so
      // every near pair sits within a few sorted positions.
      std::vector<std::pair<double, std::uint32_t>> parsed;
      parsed.reserve(distinct);
      for (std::size_t v = 0; v < distinct; ++v) {
        char* end = nullptr;
        const std::string s(index.values[v]);
        const double d = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || *end != '\0') continue;  // unparsable: skip
        parsed.emplace_back(d, static_cast<std::uint32_t>(v));
      }
      std::sort(parsed.begin(), parsed.end());
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        const std::size_t hi =
            std::min(parsed.size(), i + 1 + kNumericWindow);
        for (std::size_t w = i + 1; w < hi; ++w) {
          vid_pairs.push_back(
              EncodeVidPair(parsed[i].second, parsed[w].second));
        }
      }
    } else {
      // Minhash banding. kEdit folds a length bucket into each band key
      // (emitting into the own and next bucket so boundary-straddling
      // values still collide); bucket width is the raw distance cap —
      // pairs further apart in length than the cap saturate at dmax
      // anyway.
      const std::size_t num_hashes = kBands * kBandRows;
      const std::uint64_t attr_seed =
          Mix(kHashSeed ^ (0xa11ce5ull + a));
      std::size_t length_bucket_width = 1;
      if (family == BlockingFamily::kEdit) {
        const double cap =
            static_cast<double>(resolved.dmax) / resolved.scales[a];
        length_bucket_width =
            std::max<std::size_t>(1, static_cast<std::size_t>(cap) + 1);
      }
      std::size_t q = 2;
      if (family == BlockingFamily::kQGram) {
        if (const auto* qg =
                dynamic_cast<const QGramMetric*>(resolved.metrics[a].get())) {
          q = qg->q();
        }
      }

      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
      std::vector<std::uint64_t> features;
      std::vector<std::uint64_t> sig;
      for (std::size_t v = 0; v < distinct; ++v) {
        features.clear();
        if (family == BlockingFamily::kTokenSet) {
          TokenFeatures(index.values[v], attr_seed, &features);
        } else {
          QGramFeatures(index.values[v], q, attr_seed, &features);
        }
        MinhashSignature(features, num_hashes, attr_seed, &sig);
        for (std::size_t band = 0; band < kBands; ++band) {
          std::uint64_t key = Mix(attr_seed ^ (band + 1));
          for (std::size_t r = 0; r < kBandRows; ++r) {
            key = Mix(key ^ sig[band * kBandRows + r]);
          }
          if (family == BlockingFamily::kEdit) {
            const std::uint64_t lb =
                index.values[v].size() / length_bucket_width;
            buckets[Mix(key ^ (lb * 2 + 2))].push_back(
                static_cast<std::uint32_t>(v));
            buckets[Mix(key ^ ((lb + 1) * 2 + 3))].push_back(
                static_cast<std::uint32_t>(v));
          } else {
            buckets[key].push_back(static_cast<std::uint32_t>(v));
          }
        }
      }
      for (const auto& [key, vids] : buckets) {
        (void)key;
        if (vids.size() < 2) continue;
        if (vids.size() > kMaxBucket) {
          ++local.skipped_buckets;
          continue;
        }
        for (std::size_t i = 0; i < vids.size(); ++i) {
          for (std::size_t j = i + 1; j < vids.size(); ++j) {
            vid_pairs.push_back(EncodeVidPair(vids[i], vids[j]));
          }
        }
      }
    }

    // Repeated values are distance 0 on this attribute — the nearest
    // pairs there are. Surface every duplicated value id as a self
    // pair.
    std::vector<std::vector<std::uint32_t>> rows_by_vid(distinct);
    for (std::uint32_t row = 0; row < n; ++row) {
      rows_by_vid[index.row_ids[row]].push_back(row);
    }
    for (std::uint32_t v = 0; v < distinct; ++v) {
      if (rows_by_vid[v].size() >= 2) vid_pairs.push_back(EncodeVidPair(v, v));
    }

    // Sort BEFORE the capped expansion so the surfaced set is a pure
    // function of the bucket contents, not of hash-map iteration order.
    std::sort(vid_pairs.begin(), vid_pairs.end());
    vid_pairs.erase(std::unique(vid_pairs.begin(), vid_pairs.end()),
                    vid_pairs.end());

    for (std::uint64_t enc : vid_pairs) {
      const std::uint32_t va = static_cast<std::uint32_t>(enc >> 32);
      const std::uint32_t vb = static_cast<std::uint32_t>(enc);
      const std::vector<std::uint32_t>& ra = rows_by_vid[va];
      const std::vector<std::uint32_t>& rb = rows_by_vid[vb];
      if (va == vb) {
        for (std::size_t x = 0; x < ra.size(); ++x) {
          for (std::size_t y = x + 1; y < ra.size(); ++y) {
            if (out.size() < expansion_budget) {
              out.push_back(EncodeTriangularPair(ra[x], ra[y], n));
            } else {
              ++local.dropped;
            }
          }
        }
      } else {
        for (std::uint32_t ia : ra) {
          for (std::uint32_t ib : rb) {
            if (out.size() < expansion_budget) {
              const auto [lo, hi] = std::minmax(ia, ib);
              out.push_back(EncodeTriangularPair(lo, hi, n));
            } else {
              ++local.dropped;
            }
          }
        }
      }
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  local.candidate_pairs = out.size();
  if (out.size() > kMaxCandidates) {
    local.dropped += out.size() - kMaxCandidates;
    out.resize(kMaxCandidates);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace dd::approx
