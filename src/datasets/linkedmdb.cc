#include "datasets/linkedmdb.h"

#include "common/string_util.h"
#include "datasets/name_pools.h"
#include "datasets/noise.h"

namespace genlink {
namespace {

struct Movie {
  std::string title;
  std::string year;     // release year
  std::string date;     // full release date "YYYY-MM-DD"
  std::string director;
};

std::string RandomTitle(Rng& rng) {
  auto words = pools::MovieWords();
  size_t n = 2 + rng.PickIndex(3);
  std::vector<std::string> parts;
  parts.emplace_back("the");
  for (size_t i = 0; i < n - 1; ++i) {
    parts.emplace_back(words[rng.PickIndex(words.size())]);
  }
  return Join(parts, " ");
}

/// "YYYY-MM-DD". The buffer fits any three ints, so the format can
/// never truncate.
std::string IsoDate(int year, int month, int day) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

Movie RandomMovie(Rng& rng) {
  Movie movie;
  movie.title = RandomTitle(rng);
  int year = 1950 + static_cast<int>(rng.PickIndex(60));
  movie.year = std::to_string(year);
  int month = 1 + static_cast<int>(rng.PickIndex(12));
  int day = 1 + static_cast<int>(rng.PickIndex(28));
  movie.date = IsoDate(year, month, day);
  movie.director =
      std::string(pools::FirstNames()[rng.PickIndex(pools::FirstNames().size())]) +
      " " +
      std::string(pools::LastNames()[rng.PickIndex(pools::LastNames().size())]);
  return movie;
}

}  // namespace

MatchingTask GenerateLinkedMdb(const LinkedMdbConfig& config) {
  Rng rng(config.seed);
  MatchingTask task;
  task.name = "linkedmdb";
  task.a.set_name("linkedmdb");
  task.b.set_name("dbpedia");

  const size_t num_a =
      std::max<size_t>(4, static_cast<size_t>(config.num_linkedmdb * config.scale));
  const size_t num_b =
      std::max<size_t>(4, static_cast<size_t>(config.num_dbpedia * config.scale));
  const size_t num_links = std::min(
      std::min(num_a, num_b),
      std::max<size_t>(2,
                       static_cast<size_t>(config.num_positive_links * config.scale)));
  const size_t num_remakes = std::min(
      num_links / 2,
      std::max<size_t>(1, static_cast<size_t>(config.num_remakes * config.scale)));

  // LinkedMDB core properties (fillers bring the width to 100).
  PropertyId lm_label = task.a.schema().AddProperty("label");
  PropertyId lm_date = task.a.schema().AddProperty("initial_release_date");
  PropertyId lm_director = task.a.schema().AddProperty("director_name");

  // DBpedia core properties (fillers bring the width to 46).
  PropertyId db_name = task.b.schema().AddProperty("name");
  PropertyId db_release = task.b.schema().AddProperty("releaseDate");
  PropertyId db_director = task.b.schema().AddProperty("director");

  int lm_id = 0, db_id = 0;

  auto lm_entity = [&](const Movie& movie) {
    Entity entity("lmdb" + std::to_string(lm_id++));
    entity.AddValue(lm_label, movie.title);
    entity.AddValue(lm_date, movie.date);
    if (rng.Bernoulli(0.8)) entity.AddValue(lm_director, movie.director);
    Status s = task.a.AddEntity(std::move(entity));
    (void)s;
    return "lmdb" + std::to_string(lm_id - 1);
  };
  auto db_entity = [&](const Movie& movie) {
    Entity entity("dbpm" + std::to_string(db_id++));
    std::string name = movie.title;
    if (rng.Bernoulli(config.case_noise_probability)) {
      name = RandomCaseStyle(name, rng);
    }
    if (rng.Bernoulli(config.film_suffix_probability)) name += " (film)";
    entity.AddValue(db_name, name);
    // The two sources disagree about the exact release date (premiere
    // vs country release): up to a few weeks apart, sometimes only the
    // year. An exact-date equality therefore cannot act as a key; the
    // rule needs a date comparison with a learned tolerance.
    std::string release = movie.date;
    if (rng.Bernoulli(0.6)) {
      int year = std::stoi(movie.date.substr(0, 4));
      int month = 1 + static_cast<int>(rng.PickIndex(12));
      int day = 1 + static_cast<int>(rng.PickIndex(28));
      release = IsoDate(year, month, day);
    } else if (rng.Bernoulli(0.3)) {
      release = movie.date.substr(0, 4);  // year only
    }
    entity.AddValue(db_release, release);
    if (rng.Bernoulli(0.7)) entity.AddValue(db_director, movie.director);
    Status s = task.b.AddEntity(std::move(entity));
    (void)s;
    return "dbpm" + std::to_string(db_id - 1);
  };

  // Remake groups: two movies sharing a title but years apart. The
  // matching pairs are linked positively; the cross pairs (same title,
  // different year) become negative reference links - the corner cases
  // the paper's reference link set deliberately contains.
  size_t planted_positives = 0;
  for (size_t r = 0; r < num_remakes && planted_positives + 2 <= num_links; ++r) {
    Movie original = RandomMovie(rng);
    Movie remake = original;
    int remake_year = std::stoi(original.year) + 20 + static_cast<int>(rng.PickIndex(30));
    remake.year = std::to_string(remake_year);
    remake.date = remake.year + original.date.substr(4);
    remake.director =
        std::string(pools::FirstNames()[rng.PickIndex(pools::FirstNames().size())]) +
        " " +
        std::string(pools::LastNames()[rng.PickIndex(pools::LastNames().size())]);

    std::string a1 = lm_entity(original);
    std::string b1 = db_entity(original);
    std::string a2 = lm_entity(remake);
    std::string b2 = db_entity(remake);
    task.links.AddPositive(a1, b1);
    task.links.AddPositive(a2, b2);
    // Same title, wrong year: explicit negatives.
    task.links.AddNegative(a1, b2);
    task.links.AddNegative(a2, b1);
    planted_positives += 2;
  }

  // Ordinary linked movies. A quarter of them get a same-year
  // different-title negative partner, so the release date alone cannot
  // separate the classes either.
  for (size_t i = planted_positives; i < num_links; ++i) {
    Movie movie = RandomMovie(rng);
    std::string id_a = lm_entity(movie);
    task.links.AddPositive(id_a, db_entity(movie));
    if (rng.Bernoulli(0.25)) {
      Movie same_year = RandomMovie(rng);
      same_year.year = movie.year;
      same_year.date = movie.year + same_year.date.substr(4);
      task.links.AddNegative(id_a, db_entity(same_year));
    }
  }
  // Unlinked movies on both sides.
  while (task.a.size() < num_a) lm_entity(RandomMovie(rng));
  while (task.b.size() < num_b) db_entity(RandomMovie(rng));

  // Sparse filler properties (Table 6: 100/46 properties at ~0.4).
  AddFillerProperties(task.a, 97, 0.4, "lmProp", rng);
  AddFillerProperties(task.b, 43, 0.4, "dbProp", rng);

  // Top up negatives to match |R+| (the paper: 100/100).
  if (task.links.negatives().size() < task.links.positives().size()) {
    task.links.GenerateNegativesFromPositives(rng);
  }
  return task;
}

}  // namespace genlink
