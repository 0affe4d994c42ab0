// Collects one run's metrics and checks and prints the result line.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  /// A per-layer metric that this workload cannot measure: reported as 0
  /// with the reason printed beside it.
  void Absent(const std::string& name, const std::string& unit,
              const std::string& reason) {
    Set(name, 0.0, unit);
    absent_.push_back(name + ": " + reason);
  }

  bool Has(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return true;
    }
    return false;
  }

  double Get(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  /// A metric this run must print; its absence is a failed check.
  void Require(const std::string& name) {
    for (const Metric& m : metrics_) {
      if (m.name == name) return;
    }
    Check(false, "metric %s was not measured", name.c_str());
  }

  /// Counts `n` attempted operations, of which `failed` failed.
  void Ops(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }

  /// One output check. A failed check counts as a failed operation, makes
  /// the run incorrect, and is printed.
  void Check(bool ok, const char* fmt, ...) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    correct_ = false;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::printf("CHECK FAILED: %s\n", buf);
    std::fflush(stdout);
  }

  bool correct() const { return correct_ && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints every metric as a readable line, then the result JSON as the
  /// last line of stdout.
  void Print() const {
    for (const std::string& a : absent_) std::printf("absent  %s\n", a.c_str());
    for (const Metric& m : metrics_) {
      std::printf("metric  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("ops_failed_frac %.6g (%llu of %llu)\n",
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_ == 0 ? 1
                                                                : attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      // JSON has no NaN/Inf; a non-finite value is printed as a string so
      // the wrapper rejects the run instead of parsing a wrong number.
      if (std::isfinite(m.value)) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      } else {
        std::printf("%s\"%s\": {\"value\": \"nan\", \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.unit.c_str());
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> absent_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
