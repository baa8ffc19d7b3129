#include "server/client.hpp"

#include "util/status.hpp"

namespace prpart::server {

namespace {

/// A request's `[clbs, brams, dsps]` budget triple.
json::Value budget_json(const ResourceVec& budget) {
  json::Value triple = json::Value::array();
  for (const std::uint32_t c : {budget.clbs, budget.brams, budget.dsps})
    triple.push_back(json::Value(static_cast<std::uint64_t>(c)));
  return triple;
}

}  // namespace

json::Value partition_request_json(const PartitionRequest& request) {
  json::Value v = json::Value::object();
  v.set("type", json::Value("partition"));
  v.set("id", json::Value(request.id));
  v.set("design_xml", json::Value(request.design_xml));
  if (!request.device.empty()) v.set("device", json::Value(request.device));
  if (request.budget) v.set("budget", budget_json(*request.budget));
  const PartitionerOptions defaults = default_partitioner_options();
  if (request.options.search.max_candidate_sets !=
      defaults.search.max_candidate_sets)
    v.set("candidate_sets",
          json::Value(static_cast<std::uint64_t>(
              request.options.search.max_candidate_sets)));
  if (request.options.search.max_move_evaluations !=
      defaults.search.max_move_evaluations)
    v.set("evals", json::Value(request.options.search.max_move_evaluations));
  if (request.options.search.threads != 0)
    v.set("threads", json::Value(static_cast<std::uint64_t>(
                         request.options.search.threads)));
  if (request.timeout_ms != 0)
    v.set("timeout_ms", json::Value(request.timeout_ms));
  return v;
}

json::Value analyze_request_json(const AnalyzeRequest& request) {
  json::Value v = json::Value::object();
  v.set("type", json::Value("analyze"));
  v.set("id", json::Value(request.id));
  v.set("design_xml", json::Value(request.design_xml));
  if (!request.device.empty()) v.set("device", json::Value(request.device));
  if (request.budget) v.set("budget", budget_json(*request.budget));
  return v;
}

json::Value simulate_request_json(const SimulateRequest& request) {
  // A simulate request is a partition request plus trace knobs; non-default
  // knobs only, mirroring the partition builder.
  json::Value v = partition_request_json(request.partition);
  v.set("type", json::Value("simulate"));
  const SimulateParams defaults;
  if (request.params.steps != defaults.steps)
    v.set("steps", json::Value(request.params.steps));
  if (request.params.seed != defaults.seed)
    v.set("seed", json::Value(request.params.seed));
  if (request.params.prefetch) v.set("prefetch", json::Value(true));
  if (request.params.uniform) v.set("uniform", json::Value(true));
  if (request.params.inter_arrival_ns != 0)
    v.set("inter_arrival_ns", json::Value(request.params.inter_arrival_ns));
  if (request.params.floorplan) v.set("floorplan", json::Value(true));
  return v;
}

json::Value floorplan_request_json(const FloorplanRequest& request) {
  // A floorplan request is a partition request plus re-rank knobs;
  // non-default knobs only, mirroring the other builders.
  json::Value v = partition_request_json(request.partition);
  v.set("type", json::Value("floorplan"));
  const FloorplanParams defaults;
  if (request.params.top_k != defaults.top_k)
    v.set("top_k",
          json::Value(static_cast<std::uint64_t>(request.params.top_k)));
  if (request.params.first_fit) v.set("strategy", json::Value("first-fit"));
  if (!request.params.anneal) v.set("anneal", json::Value(false));
  if (request.params.anneal_seed != defaults.anneal_seed)
    v.set("anneal_seed", json::Value(request.params.anneal_seed));
  return v;
}

Client::Client(const std::string& host, std::uint16_t port)
    : stream_(TcpStream::connect(host, port)) {}

ClientResponse Client::submit(const PartitionRequest& request) {
  return roundtrip(partition_request_json(request));
}

ClientResponse Client::analyze(const AnalyzeRequest& request) {
  return roundtrip(analyze_request_json(request));
}

ClientResponse Client::simulate(const SimulateRequest& request) {
  return roundtrip(simulate_request_json(request));
}

ClientResponse Client::floorplan(const FloorplanRequest& request) {
  return roundtrip(floorplan_request_json(request));
}

ClientResponse Client::stats(const std::string& id) {
  json::Value v = json::Value::object();
  v.set("type", json::Value("stats"));
  v.set("id", json::Value(id));
  return roundtrip(v);
}

ClientResponse Client::ping(const std::string& id) {
  json::Value v = json::Value::object();
  v.set("type", json::Value("ping"));
  v.set("id", json::Value(id));
  return roundtrip(v);
}

ClientResponse Client::metrics(const std::string& id, bool text) {
  json::Value v = json::Value::object();
  v.set("type", json::Value("metrics"));
  v.set("id", json::Value(id));
  if (text) v.set("format", json::Value("text"));
  return roundtrip(v);
}

ClientResponse Client::roundtrip(const json::Value& request) {
  return exchange(request.dump());
}

ClientResponse Client::exchange(const std::string& line) {
  stream_.write_all(line + "\n");
  json::Value doc;
  while (true) {
    const std::optional<std::string> reply = stream_.read_line();
    if (!reply) throw SocketError("server closed the connection mid-request");
    doc = json::parse(*reply);
    // Interim `queued` backpressure notices carry no `ok` field; the final
    // response for the same id follows on the same connection.
    if (!doc.find("ok") && doc.find("queued")) {
      ++queued_notices_seen_;
      continue;
    }
    break;
  }
  ClientResponse response;
  if (const json::Value* id = doc.find("id"); id && id->is_string())
    response.id = id->as_string();
  response.ok = doc.at("ok").as_bool();
  if (response.ok) {
    response.result = doc.at("result");
    response.raw_result = response.result.dump();
  } else {
    const json::Value& error = doc.at("error");
    response.error_code = error.at("code").as_string();
    response.error_message = error.at("message").as_string();
  }
  return response;
}

}  // namespace prpart::server
