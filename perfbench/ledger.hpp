// Per-layer time ledger over Chrome trace-event JSON.
//
// Both trace sources the benchmark reads use the format obs::Tracer
// exports: the in-process tracer of the table1 workload and the
// per-request files femtod writes with --trace-dir. A layer's self time is
// its span's duration minus the part covered by its direct children on the
// same thread; summing self times never counts an interval twice.
//
// One span fans its work out to other threads: CompilePipeline::compile's
// `compile_request` runs one restart itself and hands the others to pool
// threads, then waits for them. While a `restart` runs on another thread
// of the same trace, the compile_request is waiting, not working, so that
// time is not its self time either. Without this rule restart imbalance
// would read as pipeline glue and as covered work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/json.hpp"

namespace perfbench {

class Ledger {
 public:
  /// Adds every complete event of one Chrome trace document. Spans without
  /// a "column" arg inherit their parent's; top-level spans get
  /// `default_column`. False (with `err`) on malformed input.
  bool add_trace(std::string_view text, const std::string& default_column,
                 std::string& err) {
    using femto::service::json::Value;
    const std::optional<Value> doc = femto::service::json::parse(text, &err);
    const Value* events =
        doc.has_value() && doc->is_object() ? doc->find("traceEvents")
                                            : nullptr;
    if (events == nullptr || !events->is_array()) {
      if (err.empty()) err = "trace without a traceEvents array";
      return false;
    }
    std::vector<Event> parsed;
    parsed.reserve(events->items().size());
    for (const Value& e : events->items()) {
      const Value* name = e.find("name");
      const Value* ts = e.find("ts");
      const Value* dur = e.find("dur");
      const Value* tid = e.find("tid");
      if (name == nullptr || !name->is_string() || ts == nullptr ||
          !ts->is_number() || dur == nullptr || !dur->is_number() ||
          tid == nullptr || !tid->is_number()) {
        err = "trace event without name/ts/dur/tid";
        return false;
      }
      Event ev;
      ev.name = name->as_string();
      ev.ts_us = static_cast<std::int64_t>(ts->as_double());
      ev.dur_us = static_cast<std::int64_t>(dur->as_double());
      ev.tid = static_cast<std::int64_t>(tid->as_double());
      if (const Value* args = e.find("args"); args != nullptr) {
        if (const Value* col = args->find("column");
            col != nullptr && col->is_string())
          ev.column = col->as_string();
      }
      parsed.push_back(std::move(ev));
    }
    // Parents start no later and end no earlier than their children; among
    // equal starts the longer span is the parent.
    std::sort(parsed.begin(), parsed.end(),
              [](const Event& a, const Event& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                return a.dur_us > b.dur_us;
              });
    std::vector<std::int64_t> child_us(parsed.size(), 0);
    // Intervals that are not self time of a fan-out span, by its index.
    std::map<std::size_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        fan_out_busy;
    for (std::size_t i = 0; i < parsed.size(); ++i)
      if (parsed[i].name == kFanOutSpan) fan_out_busy[i];
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      Event& ev = parsed[i];
      while (!stack.empty() &&
             (parsed[stack.back()].tid != ev.tid ||
              parsed[stack.back()].ts_us + parsed[stack.back()].dur_us <=
                  ev.ts_us))
        stack.pop_back();
      if (!stack.empty()) {
        child_us[stack.back()] += ev.dur_us;
        if (const auto it = fan_out_busy.find(stack.back());
            it != fan_out_busy.end())
          it->second.emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
        if (ev.column.empty()) ev.column = parsed[stack.back()].column;
      } else if (ev.column.empty()) {
        ev.column = default_column;
      }
      stack.push_back(i);
    }
    for (auto& [i, busy] : fan_out_busy) {
      const Event& parent = parsed[i];
      const std::int64_t begin = parent.ts_us;
      const std::int64_t end = parent.ts_us + parent.dur_us;
      for (const Event& ev : parsed)
        if (ev.name == kFanOutWork && ev.tid != parent.tid)
          busy.emplace_back(std::max(begin, ev.ts_us),
                            std::min(end, ev.ts_us + ev.dur_us));
      child_us[i] = union_us(busy);
    }
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      const Event& ev = parsed[i];
      const std::int64_t self_us = std::max<std::int64_t>(
          0, ev.dur_us - child_us[i]);
      self_s_[{ev.name, ev.column}] += 1e-6 * static_cast<double>(self_us);
      durations_s_[ev.name].push_back(1e-6 * static_cast<double>(ev.dur_us));
    }
    return true;
  }

  /// Self seconds of span `name` under `column` ("" = every column).
  [[nodiscard]] double self_s(const std::string& name,
                              const std::string& column = "") const {
    double total = 0.0;
    for (const auto& [key, s] : self_s_)
      if (key.first == name && (column.empty() || key.second == column))
        total += s;
    return total;
  }

  /// Self seconds of every span whose name is not in `excluded`.
  [[nodiscard]] double self_s_excluding(
      const std::vector<std::string>& excluded) const {
    double total = 0.0;
    for (const auto& [key, s] : self_s_)
      if (std::find(excluded.begin(), excluded.end(), key.first) ==
          excluded.end())
        total += s;
    return total;
  }

  /// Durations of every span named `name`, in seconds.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const {
    const auto it = durations_s_.find(name);
    return it == durations_s_.end() ? std::vector<double>{} : it->second;
  }

  /// (name, column) -> self seconds, for the human-readable ledger table.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>, double>&
  self_table() const {
    return self_s_;
  }

 private:
  static constexpr std::string_view kFanOutSpan = "compile_request";
  static constexpr std::string_view kFanOutWork = "restart";

  /// Total length of the union of [begin, end) intervals; empty ones count 0.
  static std::int64_t union_us(
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t covered_to = std::numeric_limits<std::int64_t>::min();
    for (const auto& [begin, end] : intervals) {
      const std::int64_t from = std::max(begin, covered_to);
      if (end > from) {
        total += end - from;
        covered_to = end;
      }
    }
    return total;
  }

  struct Event {
    std::string name;
    std::string column;
    std::int64_t ts_us = 0;
    std::int64_t dur_us = 0;
    std::int64_t tid = 0;
  };

  std::map<std::pair<std::string, std::string>, double> self_s_;
  std::map<std::string, std::vector<double>> durations_s_;
};

}  // namespace perfbench
