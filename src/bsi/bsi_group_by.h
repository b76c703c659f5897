#ifndef EXPBSI_BSI_BSI_GROUP_BY_H_
#define EXPBSI_BSI_BSI_GROUP_BY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "bsi/bsi.h"

namespace expbsi {

// Group-by over a bucket-id BSI (paper §4.2: "sum the filtered-value by
// bucket-id, generating 1024 bucket-values for each segment").
//
// The bucket column stores bucket_id + 1 (the zero-is-absent convention means
// bucket 0 could not otherwise be represented). Only positions whose stored
// value lies in [1, num_buckets], i.e. bucket_id < num_buckets, are grouped;
// other stored values and positions without one are ignored.
//
// All three functions make one pass per 2^16 chunk over word views of
// `universe`, the bucket column and (for sums) the value BSI: each grouped
// position reads its bucket id and value straight from the slice words. The
// cost grows with the mask and the slice count, not with num_buckets: no
// per-bucket bitmap and no per-bucket masked sum is built.

// Invokes visit(bucket_id, members) once per bucket with a non-empty
// intersection of `universe` and the bucket partition, in ascending
// bucket_id order. bucket_id is 0-based.
void PartitionByBucket(
    const Bsi& bucket_plus_one, int num_buckets, const RoaringBitmap& universe,
    const std::function<void(int, const RoaringBitmap&)>& visit);

// Per-bucket sum of `value` over positions in `universe`. Returns
// num_buckets entries (missing buckets are 0). Like Bsi::SumUnderMask,
// CHECK-fails if a bucket's exact total exceeds 2^64 - 1.
std::vector<uint64_t> GroupSumByBucket(const Bsi& value,
                                       const Bsi& bucket_plus_one,
                                       int num_buckets,
                                       const RoaringBitmap& universe);

// Per-bucket count of positions in `universe`.
std::vector<uint64_t> GroupCountByBucket(const Bsi& bucket_plus_one,
                                         int num_buckets,
                                         const RoaringBitmap& universe);

}  // namespace expbsi

#endif  // EXPBSI_BSI_BSI_GROUP_BY_H_
