#include "src/base/metrics.h"

#include <algorithm>
#include <map>

#include "src/base/strings.h"

namespace protego {

namespace {

enum class FamilyType { kCounter, kGauge, kHistogram };

const char* FamilyTypeName(FamilyType t) {
  switch (t) {
    case FamilyType::kCounter: return "counter";
    case FamilyType::kGauge: return "gauge";
    case FamilyType::kHistogram: return "histogram";
  }
  return "untyped";
}

struct Sample {
  MetricLabels labels;
  double value = 0;       // counter/gauge
  Histogram histogram;    // histogram
  std::vector<MetricExemplar> exemplars;  // histogram tail exemplars
};

struct Family {
  std::string help;
  FamilyType type = FamilyType::kCounter;
  std::vector<Sample> samples;
};

// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FormatLabels(const MetricLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += StrFormat("%s=\"%s\"", labels[i].first.c_str(),
                     EscapeLabelValue(labels[i].second).c_str());
  }
  out += "}";
  return out;
}

// Labels with one extra pair appended (the histogram `le` label).
std::string FormatLabelsWith(const MetricLabels& labels, const std::string& key,
                             const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return FormatLabels(extended);
}

// Counters and integral gauges must not print in scientific notation.
std::string FormatValue(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%g", v);
}

// Collects samples into name-keyed families (std::map: sorted output).
class SnapshotBuilder : public MetricsBuilder {
 public:
  void Counter(const std::string& name, const std::string& help, MetricLabels labels,
               uint64_t value) override {
    Sample s;
    s.labels = std::move(labels);
    s.value = static_cast<double>(value);
    Add(name, help, FamilyType::kCounter, std::move(s));
  }

  void Gauge(const std::string& name, const std::string& help, MetricLabels labels,
             double value) override {
    Sample s;
    s.labels = std::move(labels);
    s.value = value;
    Add(name, help, FamilyType::kGauge, std::move(s));
  }

  void Histo(const std::string& name, const std::string& help, MetricLabels labels,
             const Histogram& h) override {
    Sample s;
    s.labels = std::move(labels);
    s.histogram = h;
    Add(name, help, FamilyType::kHistogram, std::move(s));
  }

  void HistoEx(const std::string& name, const std::string& help, MetricLabels labels,
               const Histogram& h, std::vector<MetricExemplar> exemplars) override {
    Sample s;
    s.labels = std::move(labels);
    s.histogram = h;
    s.exemplars = std::move(exemplars);
    Add(name, help, FamilyType::kHistogram, std::move(s));
  }

  const std::map<std::string, Family>& families() const { return families_; }

 private:
  void Add(const std::string& name, const std::string& help, FamilyType type,
           Sample sample) {
    auto [it, inserted] = families_.try_emplace(name);
    if (inserted) {
      it->second.help = help;
      it->second.type = type;
    }
    it->second.samples.push_back(std::move(sample));
  }

  std::map<std::string, Family> families_;
};

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  SnapshotBuilder snapshot;
  for (const Collector& collect : SnapshotCollectors()) {
    collect(snapshot);
  }

  std::string out;
  for (const auto& [name, family] : snapshot.families()) {
    out += StrFormat("# HELP %s %s\n", name.c_str(), family.help.c_str());
    out += StrFormat("# TYPE %s %s\n", name.c_str(), FamilyTypeName(family.type));
    for (const Sample& s : family.samples) {
      if (family.type != FamilyType::kHistogram) {
        out += StrFormat("%s%s %s\n", name.c_str(), FormatLabels(s.labels).c_str(),
                         FormatValue(s.value).c_str());
        continue;
      }
      const Histogram& h = s.histogram;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        cumulative += h.bucket(i);
        // Skip interior empty buckets to keep the exposition readable; the
        // mandatory +Inf bucket is always emitted.
        bool last = i == Histogram::kBuckets - 1;
        if (h.bucket(i) == 0 && !last) {
          continue;
        }
        std::string le =
            last ? "+Inf" : StrFormat("%llu", (unsigned long long)Histogram::BucketBound(i));
        out += StrFormat("%s_bucket%s %llu", name.c_str(),
                         FormatLabelsWith(s.labels, "le", le).c_str(),
                         (unsigned long long)cumulative);
        // OpenMetrics-style exemplar on the bucket the observation fell
        // into: " # {labels} value". At most one per bucket line (the
        // largest value that maps there), per the exposition contract.
        const MetricExemplar* pick = nullptr;
        for (const MetricExemplar& ex : s.exemplars) {
          if (Histogram::BucketIndex(ex.value) != i) {
            continue;
          }
          if (pick == nullptr || ex.value > pick->value) {
            pick = &ex;
          }
        }
        if (pick != nullptr) {
          std::string exl = pick->labels.empty() ? "{}" : FormatLabels(pick->labels);
          out += StrFormat(" # %s %llu", exl.c_str(), (unsigned long long)pick->value);
        }
        out += "\n";
      }
      out += StrFormat("%s_sum%s %llu\n", name.c_str(), FormatLabels(s.labels).c_str(),
                       (unsigned long long)h.sum());
      out += StrFormat("%s_count%s %llu\n", name.c_str(), FormatLabels(s.labels).c_str(),
                       (unsigned long long)h.count());
    }
  }
  return out;
}

void CollectLock(MetricsBuilder& b, const char* lock, const LockCounts& counts) {
  b.Counter("protego_lock_contended_total",
            "Lock acquisitions that found the lock held against them.", {{"lock", lock}},
            counts.contended);
  b.Counter("protego_lock_wait_ns_total",
            "Nanoseconds contended acquisitions waited, from first refusal to acquisition.",
            {{"lock", lock}}, counts.wait_ns);
}

std::string MetricsRegistry::JsonExcerpt(size_t max_samples_per_family) const {
  SnapshotBuilder snapshot;
  for (const Collector& collect : SnapshotCollectors()) {
    collect(snapshot);
  }

  auto json_escape = [](const std::string& v) {
    std::string out;
    for (char c : v) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  };
  auto labels_json = [&](const MetricLabels& labels) {
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += StrFormat("\"%s\":\"%s\"", json_escape(labels[i].first).c_str(),
                       json_escape(labels[i].second).c_str());
    }
    return out + "}";
  };

  std::string out = "{\"families\":[";
  bool first_family = true;
  for (const auto& [name, family] : snapshot.families()) {
    if (!first_family) {
      out += ",";
    }
    first_family = false;
    // Serialize each sample, sort by the serialized form (deterministic
    // regardless of collector emission order), then bound the count.
    std::vector<std::string> rendered;
    rendered.reserve(family.samples.size());
    for (const Sample& s : family.samples) {
      if (family.type != FamilyType::kHistogram) {
        rendered.push_back(StrFormat("{\"labels\":%s,\"value\":%s}",
                                     labels_json(s.labels).c_str(),
                                     FormatValue(s.value).c_str()));
      } else {
        rendered.push_back(StrFormat("{\"labels\":%s,\"count\":%llu,\"sum\":%llu}",
                                     labels_json(s.labels).c_str(),
                                     (unsigned long long)s.histogram.count(),
                                     (unsigned long long)s.histogram.sum()));
      }
    }
    std::sort(rendered.begin(), rendered.end());
    size_t keep = std::min(rendered.size(), max_samples_per_family);
    out += StrFormat("{\"name\":\"%s\",\"type\":\"%s\",\"samples\":[", name.c_str(),
                     FamilyTypeName(family.type));
    for (size_t i = 0; i < keep; ++i) {
      if (i > 0) {
        out += ",";
      }
      out += rendered[i];
    }
    out += "]";
    if (keep < rendered.size()) {
      out += StrFormat(",\"omitted\":%llu",
                       (unsigned long long)(rendered.size() - keep));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace protego
