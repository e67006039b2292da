#include "obs/trace.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace qppt::obs {

QueryTrace::QueryTrace(size_t workers)
    : epoch_(Clock::now()), lanes_(workers == 0 ? 2 : workers + 1) {}

void QueryTrace::Record(size_t lane, std::string_view label, SpanKind kind,
                        double t_start_us, double t_end_us) {
  Lane& l = lanes_[lane % lanes_.size()];
  if (l.tail == nullptr || l.tail->used == kChunkSpans) {
    Chunk* c = l.arena.New<Chunk>();
    if (l.tail == nullptr) {
      l.head = l.tail = c;
    } else {
      l.tail->next = c;
      l.tail = c;
    }
  }
  // Copy the label into the lane arena: span lifetimes must not depend
  // on the operator objects that produced them.
  char* copy = static_cast<char*>(l.arena.Allocate(label.size() + 1, 1));
  std::memcpy(copy, label.data(), label.size());
  copy[label.size()] = '\0';
  TraceSpan& span = l.tail->spans[l.tail->used++];
  span.label = copy;
  span.t_start_us = t_start_us;
  span.t_end_us = t_end_us;
  span.worker = static_cast<uint32_t>(lane % lanes_.size());
  span.kind = kind;
}

namespace {

const char* KindCategory(SpanKind kind) {
  switch (kind) {
    case SpanKind::kMorsel:
      return "morsel";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kOperator:
      return "operator";
  }
  return "span";
}

// Stage labels are planner-controlled ("sel:date_sel") but spec slot
// names feed into them, so escape defensively.
void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string TraceToJson(const QueryTrace& trace) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  // Thread-name metadata so chrome://tracing labels the lanes.
  for (size_t lane = 0; lane <= trace.driver_lane(); ++lane) {
    std::string name = lane == trace.driver_lane()
                           ? std::string("driver")
                           : "worker-" + std::to_string(lane);
    std::snprintf(buf, sizeof(buf),
                  "  {\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"%s\"}},\n",
                  lane, name.c_str());
    out += buf;
  }
  bool first = true;
  trace.ForEachSpan([&](const TraceSpan& span) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\": \"";
    AppendEscaped(&out, span.label);
    std::snprintf(buf, sizeof(buf),
                  "\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                  KindCategory(span.kind), span.t_start_us,
                  span.t_end_us - span.t_start_us, span.worker);
    out += buf;
  });
  out += "\n]}\n";
  return out;
}

}  // namespace qppt::obs
