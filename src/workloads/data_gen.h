// Deterministic synthetic dataset generators standing in for the paper's
// datasets (311 service requests, per-city crime statistics, US baby names,
// MovieLens, IMDb reviews). Schemas, dirty-value rates, and key skew follow
// the originals so the workloads exercise the same operator paths; see
// docs/ARCHITECTURE.md, "Library substitutions".
#ifndef MOZART_WORKLOADS_DATA_GEN_H_
#define MOZART_WORKLOADS_DATA_GEN_H_

#include <cstdint>

#include "dataframe/dataframe.h"
#include "nlp/nlp.h"

namespace workloads {

// 311 service requests: "incident_zip" strings with ~30% dirty values
// (hyphenated ZIP+4, 9-digit, N/A markers, empty), plus a complaint type.
df::DataFrame Make311Requests(long rows, std::uint64_t seed);

// Per-city population and crime counts (for Crime Index).
df::DataFrame MakeCityStats(long rows, std::uint64_t seed);

// Baby names: (name, year, gender, births) with a fixed name pool including
// the "Lesl*" family the benchmark filters for.
df::DataFrame MakeBabyNames(long rows, std::uint64_t seed);

// MovieLens-like tables: ratings (user, movie, rating), users (user,
// gender), movies (movie, title).
struct MovieLensTables {
  df::DataFrame ratings;
  df::DataFrame users;
  df::DataFrame movies;
};
MovieLensTables MakeMovieLens(long num_ratings, long num_users, long num_movies,
                              std::uint64_t seed);

}  // namespace workloads

#endif  // MOZART_WORKLOADS_DATA_GEN_H_
