// ClientLog, percentiles, the JSON writer and the engine helper.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/driver/bench.h"
#include "src/iosched/io_tag.h"

namespace perfbench {

ClientLog::ClientLog(int tenants)
    : tenant_norm_(static_cast<size_t>(tenants)),
      tenant_due_(static_cast<size_t>(tenants)) {
  for (auto& row : tenant_norm_) {
    row.fill(0.0);
  }
  for (auto& row : tenant_due_) {
    row.fill(0.0);
  }
}

void ClientLog::Record(int tenant, Cls cls, SimTime begin, SimTime end,
                       uint64_t bytes, Outcome outcome) {
  ++attempted_;
  if (outcome == Outcome::kFailed) {
    ++failed_;
    return;
  }
  if (outcome == Outcome::kWrong) {
    ++wrong_;
    return;
  }
  ++completed_;
  if (!InWindow(begin)) {
    return;
  }
  lat_[cls].push_back(end - begin);
  const double norm = libra::iosched::NormalizedRequests(bytes);
  window_norm_[cls] += norm;
  tenant_norm_[static_cast<size_t>(tenant)][cls] += norm;
  if (cls == kPut) {
    window_put_bytes_ += bytes;
  }
}

void ClientLog::RecordDue(int tenant, Cls cls, SimTime due, uint64_t bytes) {
  if (InWindow(due)) {
    tenant_due_[static_cast<size_t>(tenant)][cls] +=
        libra::iosched::NormalizedRequests(bytes);
  }
}

double PercentileMs(std::vector<int64_t>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

double MeanMs(const std::vector<int64_t>& v) {
  int64_t sum = 0;
  for (const int64_t x : v) {
    sum += x;
  }
  return v.empty() ? 0.0
                   : static_cast<double>(sum) / static_cast<double>(v.size()) /
                         1e6;
}

void Json::Num(const std::string& key, double v) {
  char buf[64];
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(key, buf);
}

void Json::Int(const std::string& key, uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void Json::Str(const std::string& key, const std::string& v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  fields_.emplace_back(key, out);
}

void Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

void Engine::AtTime(SimTime when, std::function<void()> fn) {
  if (multi) {
    multi->ScheduleBarrierAt(when, std::move(fn));
  } else {
    serial->ScheduleAt(when, [fn = std::move(fn)] { fn(); });
  }
}

}  // namespace perfbench
