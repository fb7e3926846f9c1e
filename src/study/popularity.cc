#include "src/study/popularity.h"

#include "src/base/hash.h"

namespace protego {

const std::vector<PopularityRow>& PopularityTable() {
  static const std::vector<PopularityRow> kTable = {
      {"mount", 100.00, 99.75, true},
      {"login", 99.99, 99.82, true},
      {"passwd", 99.97, 99.84, true},
      {"iputils-ping", 99.87, 99.60, true},
      {"openssh-client", 99.54, 99.48, true},
      {"eject", 99.68, 90.95, true},
      {"sudo", 99.48, 74.34, true},
      {"ppp", 99.54, 45.65, true},
      {"iputils-tracepath", 99.78, 13.06, true},
      {"mtr-tiny", 99.54, 11.79, true},
      {"iputils-arping", 99.60, 3.55, true},
      {"libc-bin", 50.14, 86.15, true},
      {"fping", 27.70, 12.42, true},
      {"nfs-common", 9.76, 82.89, true},
      {"ecryptfs-utils", 11.64, 0.72, true},
      {"virtualbox", 10.56, 7.78, false},
      {"kppp", 10.11, 4.97, false},
      {"cifs-utils", 2.59, 19.23, false},
      {"tcptraceroute", 0.33, 23.38, false},
      {"chromium-browser", 0.48, 8.49, false},
  };
  return kTable;
}

double WeightedAverage(const PopularityRow& row) {
  const double total = static_cast<double>(kUbuntuSystems + kDebianSystems);
  return (row.ubuntu_pct * static_cast<double>(kUbuntuSystems) +
          row.debian_pct * static_cast<double>(kDebianSystems)) /
         total;
}

double StudyCoveragePercent() {
  // The paper investigates all packages at least as popular as
  // ecryptfs-utils; systems whose setuid surface includes anything rarer
  // are "uncovered". The dominant uncovered package bounds the estimate.
  double most_popular_uninvestigated = 0;
  for (const PopularityRow& row : PopularityTable()) {
    if (!row.investigated) {
      double avg = WeightedAverage(row);
      if (avg > most_popular_uninvestigated) {
        most_popular_uninvestigated = avg;
      }
    }
  }
  return 100.0 - most_popular_uninvestigated;
}

namespace {

bool Bernoulli(uint64_t* state, double pct) {
  // Compare against a 53-bit uniform draw.
  double u = static_cast<double>(SplitMix64(*state) >> 11) * (1.0 / 9007199254740992.0);
  return u * 100.0 < pct;
}

}  // namespace

SyntheticSurveyResult RunSyntheticSurvey(uint64_t n_ubuntu, uint64_t n_debian, uint64_t seed) {
  const std::vector<PopularityRow>& table = PopularityTable();
  std::vector<uint64_t> ubuntu_hits(table.size(), 0);
  std::vector<uint64_t> debian_hits(table.size(), 0);
  uint64_t state = seed * 0x2545F4914F6CDD1DULL + 1;

  for (uint64_t s = 0; s < n_ubuntu; ++s) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (Bernoulli(&state, table[i].ubuntu_pct)) {
        ++ubuntu_hits[i];
      }
    }
  }
  for (uint64_t s = 0; s < n_debian; ++s) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (Bernoulli(&state, table[i].debian_pct)) {
        ++debian_hits[i];
      }
    }
  }

  SyntheticSurveyResult result;
  result.systems_sampled = n_ubuntu + n_debian;
  for (size_t i = 0; i < table.size(); ++i) {
    PopularityRow row = table[i];
    row.ubuntu_pct = n_ubuntu == 0 ? 0
                                   : 100.0 * static_cast<double>(ubuntu_hits[i]) /
                                         static_cast<double>(n_ubuntu);
    row.debian_pct = n_debian == 0 ? 0
                                   : 100.0 * static_cast<double>(debian_hits[i]) /
                                         static_cast<double>(n_debian);
    result.rows.push_back(row);
  }
  return result;
}

}  // namespace protego
