#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDesign: return "design";
    case Layer::kJob: return "job";
    case Layer::kConnectivity: return "core.connectivity";
    case Layer::kClustering: return "core.clustering";
    case Layer::kCompatibility: return "core.compatibility";
    case Layer::kEvalContext: return "core.eval_context";
    case Layer::kBaselines: return "core.baselines";
    case Layer::kSearch: return "core.search";
    case Layer::kDesignParse: return "design.parse";
    case Layer::kParseRequest: return "server.parse_request";
    case Layer::kCacheKey: return "server.cache_key";
    case Layer::kEncode: return "server.encode";
    case Layer::kAnalyze: return "analysis.analyze";
    case Layer::kFloorplanRerank: return "floorplan.rerank";
    case Layer::kSimReplay: return "sim.replay";
    case Layer::kCount: break;
  }
  return "?";
}

std::int32_t SpanRecorder::open(Layer layer, std::uint64_t request) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.name = static_cast<std::uint32_t>(layer);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = prpart::monotonic_now_ns();
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = prpart::monotonic_now_ns();
  stack_.pop_back();
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 layer_name(static_cast<Layer>(s.name)),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<NameTotals> self_times(const std::vector<Span>& spans,
                                   std::size_t names) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::vector<NameTotals> totals(names);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;

    NameTotals& t = totals.at(s.name);
    t.self_ns += duration - covered;
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench
