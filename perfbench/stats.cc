#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// 0-based index of the nearest-rank q-percentile among n sorted samples.
size_t RankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1) {
    return 0;
  }
  return std::min(n, static_cast<size_t>(rank)) - 1;
}

double Pick(std::vector<double>& samples, size_t index) {
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

}  // namespace

Quantile TailQuantile(std::vector<double> samples, double q) {
  Quantile out;
  const size_t n = samples.size();
  out.samples = n;
  if (n == 0) {
    return out;
  }
  size_t index = RankIndex(n, q);
  out.q = q;
  if (n - 1 - index < kMinBeyond) {
    if (n > kMinBeyond) {
      index = n - 1 - kMinBeyond;
      out.q = static_cast<double>(index + 1) / static_cast<double>(n);
    } else {
      index = RankIndex(n, 0.5);
      out.q = 0.5;
    }
  }
  out.value = Pick(samples, index);
  out.beyond = n - 1 - index;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  size_t index = RankIndex(samples.size(), 0.5);
  return Pick(samples, index);
}

double MedianRate(std::vector<int64_t> event_ns, size_t chunk) {
  std::sort(event_ns.begin(), event_ns.end());
  const size_t n = event_ns.size();
  if (n < 2 || chunk == 0) {
    return 0;
  }
  auto rate = [&](size_t from, size_t to) {
    const double seconds = static_cast<double>(event_ns[to] - event_ns[from]) / 1e9;
    return seconds > 0 ? static_cast<double>(to - from) / seconds : 0;
  };
  if (n <= chunk) {
    return rate(0, n - 1);
  }
  std::vector<double> rates;
  for (size_t from = 0; from + chunk < n; from += chunk) {
    rates.push_back(rate(from, from + chunk));
  }
  return Median(std::move(rates));
}

int64_t SelfNs(int64_t span_ns, std::initializer_list<int64_t> child_ns) {
  int64_t self = span_ns;
  for (int64_t child : child_ns) {
    self -= child;
  }
  return self;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string SpanJson(const Span& span) {
  std::string out = "{\"name\":\"";
  out += span.name;
  out += "\",\"replay\":\"";
  out += span.replay;
  out += "\",\"parent\":\"";
  out += span.parent;
  out += "\",\"tenant\":" + std::to_string(span.tenant);
  out += ",\"seq\":" + std::to_string(span.seq);
  out += ",\"start_ns\":" + std::to_string(span.start_ns);
  out += ",\"dur_ns\":" + std::to_string(span.dur_ns);
  if (!span.counters.empty()) {
    out += ",\"counters\":{";
    for (size_t i = 0; i < span.counters.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += "\"";
      out += span.counters[i].first;
      out += "\":" + std::to_string(span.counters[i].second);
    }
    out += "}";
  }
  out += "}";
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = true;
  for (const Span& span : spans) {
    std::string line = SpanJson(span);
    line += "\n";
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
  }
  return std::fclose(f) == 0 && ok;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
