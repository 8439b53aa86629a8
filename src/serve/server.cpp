#include "serve/server.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "api/error.h"
#include "api/specs.h"
#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "util/args.h"
#include "util/json_reader.h"
#include "util/strings.h"

namespace keddah::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffset) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Cache key: endpoint, canonical (compact, key-sorted) request, and the
/// content hash of any model involved. NUL separators keep field
/// boundaries unambiguous.
std::uint64_t cache_key(std::string_view endpoint, std::string_view canonical,
                        std::uint64_t model_hash) {
  std::uint64_t hash = fnv1a(endpoint);
  hash = fnv1a(std::string_view("\0", 1), hash);
  hash = fnv1a(canonical, hash);
  hash = fnv1a(std::string_view("\0", 1), hash);
  for (int i = 0; i < 8; ++i) {
    const char byte = static_cast<char>((model_hash >> (8 * i)) & 0xff);
    hash = fnv1a(std::string_view(&byte, 1), hash);
  }
  return hash;
}

HttpResponse json_response(int status, const util::Json& doc) {
  return HttpResponse{status, "application/json", api::to_body(doc), 0};
}

/// An api::ErrorCode envelope response; retryable codes carry a fixed
/// Retry-After so response bytes stay deterministic.
HttpResponse error_response(api::ErrorCode code, const std::string& message,
                            util::Json details = util::Json()) {
  HttpResponse response;
  response.status = api::error_http_status(code);
  response.body = api::error_body(code, message, std::move(details));
  if (api::error_retryable(code)) response.retry_after_s = 1;
  return response;
}

/// A details object with just a hint string.
util::Json hint_details(const std::string& hint) {
  util::Json details = util::Json::object();
  details["hint"] = util::Json(hint);
  return details;
}

HttpResponse spec_error_response(const api::SpecError& error) {
  return error_response(api::ErrorCode::kSpecInvalid, error.what(), error.to_json());
}

/// 400 listing every error the parse found with its key path, exactly the
/// errors keddah-lint reports for the body.
HttpResponse lint_error_response(const std::vector<util::Diagnostic>& diagnostics) {
  util::Json rows = util::Json::array();
  for (const auto& d : diagnostics) {
    if (d.severity != util::Severity::kError) continue;
    util::Json row = util::Json::object();
    row["file"] = util::Json(d.file);
    row["key"] = util::Json(d.key);
    row["message"] = util::Json(d.message);
    if (!d.hint.empty()) row["hint"] = util::Json(d.hint);
    rows.push_back(std::move(row));
  }
  util::Json details = util::Json::object();
  details["diagnostics"] = std::move(rows);
  return error_response(api::ErrorCode::kLintRejected, "request failed lint",
                        std::move(details));
}

HttpOptions http_options_from(const ServeOptions& options) {
  HttpOptions http;
  http.port = options.port;
  http.threads = options.threads;
  http.header_timeout_ms = options.header_timeout_ms;
  http.body_timeout_ms = options.body_timeout_ms;
  http.write_timeout_ms = options.write_timeout_ms;
  http.handler_budget_ms = options.request_timeout_ms;
  http.max_header_bytes = options.max_header_bytes;
  http.max_body_bytes = options.max_body_bytes;
  http.max_pending = options.max_pending;
  http.drain_timeout_ms = options.drain_timeout_ms;
  http.sndbuf_bytes = options.sndbuf_bytes;
  return http;
}

AdmissionOptions admission_options_from(const ServeOptions& options) {
  AdmissionOptions admission;
  admission.capacity = options.queue_depth;
  admission.shed_threshold = options.shed_threshold;
  admission.policy = options.overload_policy;
  return admission;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      http_(http_options_from(options_)),
      admission_(admission_options_from(options_)) {
  if (options_.max_resident_models == 0) options_.max_resident_models = 1;
  if (options_.max_cache_entries == 0) options_.max_cache_entries = 1;
  // No request threads exist yet, but registration helpers REQUIRE the
  // models capability, so hold it for the whole registration pass.
  util::MutexLock lock(&models_mutex_);
  for (const auto& path : options_.model_files) {
    register_model_file(path, /*expect_bank=*/false);
  }
  if (!options_.model_bank_file.empty()) {
    register_model_file(options_.model_bank_file, /*expect_bank=*/true);
  }
}

void Server::register_model_file(const std::string& path, bool expect_bank) {
  const util::Json doc = util::Json::load_file(path);
  if (doc.is_object() && doc.contains("models")) {
    const auto& models = doc.at("models").as_array();
    for (std::size_t i = 0; i < models.size(); ++i) register_model_doc(models[i], path, i);
    return;
  }
  if (expect_bank) {
    throw std::invalid_argument(path + ": models: missing required array (not a model bank)");
  }
  register_model_doc(doc, path, std::nullopt);
}

void Server::register_model_doc(const util::Json& doc, const std::string& path,
                                std::optional<std::size_t> bank_index) {
  // Check the model now, so a defective file fails startup naming its key
  // instead of failing every later request that loads it.
  util::Diagnostics diagnostics(path);
  const auto checked = model::KeddahModel::from_json(
      doc, diagnostics, bank_index ? util::format("models[%zu]", *bank_index) : "");
  diagnostics.throw_first_error();
  std::string name = checked.job_name();
  // Distinct models sharing a job name stay addressable via "#2", "#3", ...
  if (registry_.count(name) != 0) {
    std::size_t n = 2;
    while (registry_.count(util::format("%s#%zu", name.c_str(), n)) != 0) ++n;
    name = util::format("%s#%zu", name.c_str(), n);
  }
  ModelSource source;
  source.path = path;
  source.bank_index = bank_index;
  source.content_hash = fnv1a(doc.dump(-1));
  registry_.emplace(std::move(name), std::move(source));
}

std::shared_ptr<const model::KeddahModel> Server::acquire_model(const std::string& name) {
  util::MutexLock lock(&models_mutex_);
  const auto reg = registry_.find(name);
  if (reg == registry_.end()) return nullptr;
  if (const auto it = resident_.find(name); it != resident_.end()) {
    model_lru_.splice(model_lru_.begin(), model_lru_, it->second.second);
    return it->second.first;
  }
  const util::Json doc = util::Json::load_file(reg->second.path);
  const util::Json& node =
      reg->second.bank_index ? doc.at("models").at(*reg->second.bank_index) : doc;
  auto loaded = std::make_shared<const model::KeddahModel>(
      model::KeddahModel::from_json(node, reg->second.path));
  {
    util::MutexLock stats_lock(&stats_mutex_);
    ++model_loads_;
  }
  model_lru_.push_front(name);
  resident_[name] = {loaded, model_lru_.begin()};
  while (resident_.size() > options_.max_resident_models) {
    resident_.erase(model_lru_.back());
    model_lru_.pop_back();
  }
  return loaded;
}

std::uint64_t Server::model_hash(const std::string& name) const {
  util::MutexLock lock(&models_mutex_);
  const auto it = registry_.find(name);
  return it == registry_.end() ? 0 : it->second.content_hash;
}

bool Server::model_registered(const std::string& name) const {
  util::MutexLock lock(&models_mutex_);
  return registry_.count(name) != 0;
}

std::vector<std::string> Server::model_names() const {
  util::MutexLock lock(&models_mutex_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, source] : registry_) names.push_back(name);
  return names;
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.admission = admission_.snapshot();
  stats.transport = http_.transport_stats();
  util::MutexLock lock(&stats_mutex_);
  stats.requests = requests_;
  stats.errors = errors_;
  stats.cache_hits = cache_hits_;
  stats.cache_misses = cache_misses_;
  stats.model_loads = model_loads_;
  stats.deadline_expired = deadline_expired_;
  return stats;
}

// keddah:hot(cache-hit)
std::shared_ptr<const std::string> Server::cache_lookup(std::uint64_t key) {
  util::MutexLock lock(&cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    util::MutexLock stats_lock(&stats_mutex_);
    ++cache_misses_;
    return nullptr;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  {
    util::MutexLock stats_lock(&stats_mutex_);
    ++cache_hits_;
  }
  // A hit hands out the stored body by refcount bump; the byte copy into
  // the HTTP response happens outside cache_mutex_.
  return it->second.body;
}

void Server::cache_store(std::uint64_t key, const std::string& body) {
  // The miss path allocates once per distinct response; eviction keeps the
  // map bounded at max_cache_entries.
  auto shared = std::make_shared<const std::string>(body);
  util::MutexLock lock(&cache_mutex_);
  if (cache_.count(key) != 0) return;  // a concurrent miss computed it first
  cache_lru_.push_front(key);
  cache_[key] = CacheEntry{std::move(shared), cache_lru_.begin()};
  while (cache_.size() > options_.max_cache_entries) {
    cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
}

std::optional<HttpResponse> Server::admit_cold_work(const HttpRequest& request,
                                                    AdmissionController::Ticket* ticket) {
  const std::size_t cost = AdmissionController::endpoint_cost(request.path);
  switch (admission_.try_admit(cost, ticket)) {
    case AdmissionController::Verdict::kReject: {
      const auto snapshot = admission_.snapshot();
      util::Json details = util::Json::object();
      details["queue_capacity"] = util::Json(static_cast<std::uint64_t>(snapshot.capacity));
      details["in_flight_cost"] =
          util::Json(static_cast<std::uint64_t>(snapshot.in_flight_cost));
      return error_response(api::ErrorCode::kQueueFull,
                            "admission queue at capacity; retry after backoff",
                            std::move(details));
    }
    case AdmissionController::Verdict::kShed:
      return error_response(api::ErrorCode::kOverloaded,
                            "overloaded: shedding cold " + request.path +
                                " work (cache hits, /v1/health and /v1/stats "
                                "still answer)");
    case AdmissionController::Verdict::kAdmit: break;
  }
  // Deadline-aware shedding: a request that already sat past its
  // wall-clock budget (typically queue time under overload) is turned
  // away before its heavy work starts — the client has likely given up,
  // and running it anyway would only deepen the overload.
  if (request.deadline.expired()) {
    {
      util::MutexLock lock(&stats_mutex_);
      ++deadline_expired_;
    }
    return error_response(api::ErrorCode::kDeadlineExceeded,
                          "request outlived its wall-clock budget before "
                          "execution started");
  }
  return std::nullopt;
}

HttpResponse Server::handle(const HttpRequest& request) {
  {
    util::MutexLock lock(&stats_mutex_);
    ++requests_;
  }
  HttpResponse response;
  try {
    if (request.path == "/v1/health") {
      response = request.method == "GET"
                     ? json_response(200, health_json())
                     : error_response(api::ErrorCode::kMethodNotAllowed,
                                      "use GET " + request.path);
    } else if (request.path == "/v1/stats") {
      response = request.method == "GET"
                     ? json_response(200, stats_json())
                     : error_response(api::ErrorCode::kMethodNotAllowed,
                                      "use GET " + request.path);
    } else if (request.path == "/v1/whatif") {
      response = request.method == "POST" ? handle_whatif(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/reproduce") {
      response = request.method == "POST" ? handle_reproduce(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/validate") {
      response = request.method == "POST" ? handle_validate(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/shutdown") {
      if (request.method != "POST") {
        response = error_response(api::ErrorCode::kMethodNotAllowed,
                                  "use POST " + request.path);
      } else {
        util::Json doc = util::Json::object();
        doc["api"] = util::Json(api::kApiVersionString);
        doc["status"] = util::Json("shutting down");
        response = json_response(200, doc);
        // Only flag + notify here: stop() would join the pool this handler
        // runs on. The waiter in run_serve_command performs the stop.
        request_shutdown();
      }
    } else {
      response = error_response(
          api::ErrorCode::kNotFound, "unknown endpoint " + request.path,
          hint_details("endpoints: /v1/health /v1/stats /v1/whatif /v1/reproduce "
                       "/v1/validate /v1/shutdown"));
    }
  } catch (const api::SpecError& e) {
    response = spec_error_response(e);
  } catch (const std::invalid_argument& e) {
    response = error_response(api::ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    response = error_response(api::ErrorCode::kInternal, e.what());
  }
  if (response.status != 200) {
    util::MutexLock lock(&stats_mutex_);
    ++errors_;
  }
  return response;
}

HttpResponse Server::handle_whatif(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON scenario document"));
  }
  // One collecting parse both checks and reads the body: it reports every
  // defective key path (keddah-lint's findings), and its result is what runs.
  util::Diagnostics diagnostics("request");
  const auto whatif = api::parse_whatif_request(doc, diagnostics);
  if (diagnostics.has_errors()) return lint_error_response(diagnostics.all());

  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("whatif", canonical, 0);
  // Cache hits are answered before admission: they cost microseconds and
  // are exactly the interactive traffic overload mode exists to protect.
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  const auto outcome = core::run_scenario(whatif.scenario);
  const std::string response_body = api::to_body(api::whatif_response(outcome));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

HttpResponse Server::handle_reproduce(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON reproduce request"));
  }
  const auto reproduce = api::parse_reproduce_request(doc, "request");
  if (!model_registered(reproduce.model)) {
    return error_response(api::ErrorCode::kNotFound,
                          "unknown model '" + reproduce.model + "'",
                          hint_details("registered models: " + util::join(model_names(), ", ")));
  }
  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("reproduce", canonical, model_hash(reproduce.model));
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  const auto model = acquire_model(reproduce.model);
  if (!model) {
    return error_response(api::ErrorCode::kNotFound,
                          "unknown model '" + reproduce.model + "'",
                          hint_details("registered models: " + util::join(model_names(), ", ")));
  }
  const auto result = core::generate_and_replay(*model, reproduce.spec,
                                                reproduce.cluster.build_topology());
  const std::string response_body = api::to_body(api::reproduce_response(result));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

HttpResponse Server::handle_validate(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON validate request"));
  }
  const auto validate = api::parse_validate_request(doc, "request");
  if (!model_registered(validate.model)) {
    return error_response(api::ErrorCode::kNotFound,
                          "unknown model '" + validate.model + "'",
                          hint_details("registered models: " + util::join(model_names(), ", ")));
  }
  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("validate", canonical, model_hash(validate.model));
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  const auto model = acquire_model(validate.model);
  if (!model) {
    return error_response(api::ErrorCode::kNotFound,
                          "unknown model '" + validate.model + "'",
                          hint_details("registered models: " + util::join(model_names(), ", ")));
  }
  model::TrainingRun reference;
  try {
    reference = core::load_run(validate.run);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kNotFound,
                          std::string("cannot load run: ") + e.what(),
                          hint_details("`run` names the basename of a `keddah capture` output"));
  }
  const auto report = core::validate_model(*model, reference, validate.cluster, validate.spec);
  const std::string response_body = api::to_body(api::validate_response(report));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

util::Json Server::health_json() const {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(api::kApiVersionString);
  doc["status"] = util::Json("ok");
  // Overload is reported but never blocks this endpoint: health is the
  // daemon's pulse and the graceful-degradation story depends on it.
  doc["overloaded"] = util::Json(admission_.overloaded());
  util::Json endpoints = util::Json::array();
  for (const char* e : {"/v1/health", "/v1/reproduce", "/v1/shutdown", "/v1/stats",
                        "/v1/validate", "/v1/whatif"}) {
    endpoints.push_back(util::Json(e));
  }
  doc["endpoints"] = std::move(endpoints);
  util::Json models = util::Json::array();
  for (const auto& name : model_names()) models.push_back(util::Json(name));
  doc["models"] = std::move(models);
  return doc;
}

util::Json Server::stats_json() {
  util::Json cache = util::Json::object();
  util::Json models = util::Json::object();
  {
    util::MutexLock lock(&cache_mutex_);
    cache["entries"] = util::Json(static_cast<std::uint64_t>(cache_.size()));
  }
  cache["capacity"] = util::Json(static_cast<std::uint64_t>(options_.max_cache_entries));
  {
    util::MutexLock lock(&models_mutex_);
    models["registered"] = util::Json(static_cast<std::uint64_t>(registry_.size()));
    models["resident"] = util::Json(static_cast<std::uint64_t>(resident_.size()));
  }
  models["max_resident"] = util::Json(static_cast<std::uint64_t>(options_.max_resident_models));
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(api::kApiVersionString);
  {
    util::MutexLock lock(&stats_mutex_);
    doc["requests"] = util::Json(requests_);
    doc["errors"] = util::Json(errors_);
    cache["hits"] = util::Json(cache_hits_);
    cache["misses"] = util::Json(cache_misses_);
    models["loads"] = util::Json(model_loads_);
  }
  doc["cache"] = std::move(cache);
  doc["models"] = std::move(models);

  // The overload-survival counters: admission verdicts + queue occupancy
  // (429/503 sources), the deadline shed count, and the transport's
  // 408/413/429/400 tallies — everything the chaos suite and the overload
  // bench gate on.
  const auto snapshot = stats();
  util::Json queue = util::Json::object();
  queue["capacity"] = util::Json(static_cast<std::uint64_t>(snapshot.admission.capacity));
  queue["shed_threshold"] =
      util::Json(static_cast<std::uint64_t>(snapshot.admission.shed_threshold));
  queue["in_flight_cost"] =
      util::Json(static_cast<std::uint64_t>(snapshot.admission.in_flight_cost));
  queue["policy"] = util::Json(snapshot.admission.policy);
  util::Json transport = util::Json::object();
  transport["accepted"] = util::Json(snapshot.transport.accepted);
  transport["rejected_pending"] = util::Json(snapshot.transport.rejected_pending);
  transport["header_timeouts"] = util::Json(snapshot.transport.header_timeouts);
  transport["body_timeouts"] = util::Json(snapshot.transport.body_timeouts);
  transport["oversized"] = util::Json(snapshot.transport.oversized);
  transport["malformed"] = util::Json(snapshot.transport.malformed);
  transport["early_disconnects"] = util::Json(snapshot.transport.early_disconnects);
  transport["write_aborts"] = util::Json(snapshot.transport.write_aborts);
  util::Json robustness = util::Json::object();
  robustness["overloaded"] = util::Json(snapshot.admission.overloaded);
  robustness["admitted"] = util::Json(snapshot.admission.admitted);
  robustness["rejected"] = util::Json(snapshot.admission.rejected);
  robustness["shed"] = util::Json(snapshot.admission.shed);
  robustness["deadline_expired"] = util::Json(snapshot.deadline_expired);
  robustness["queue"] = std::move(queue);
  robustness["transport"] = std::move(transport);
  doc["robustness"] = std::move(robustness);
  return doc;
}

void Server::start() {
  http_.start([this](const HttpRequest& request) { return handle(request); });
}

void Server::wait_for_shutdown() {
  util::MutexLock lock(&shutdown_mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mutex_);
}

void Server::request_shutdown() {
  {
    util::MutexLock lock(&shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::stop() { http_.stop(); }

int run_serve_command(const util::Args& args, std::ostream& out, std::ostream& err) {
  ServeOptions options;
  options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.model_bank_file = args.get("model-bank", "");
  options.max_resident_models = static_cast<std::size_t>(args.get_int("max-models", 8));
  options.max_cache_entries = static_cast<std::size_t>(args.get_int("cache-entries", 128));
  options.request_timeout_ms = args.get_int("request-timeout", options.request_timeout_ms);
  options.header_timeout_ms = args.get_int("header-timeout", options.header_timeout_ms);
  options.drain_timeout_ms = args.get_int("drain-timeout", options.drain_timeout_ms);
  options.queue_depth = static_cast<std::size_t>(
      args.get_int("queue-depth", static_cast<std::int64_t>(options.queue_depth)));
  options.max_pending = static_cast<std::size_t>(
      args.get_int("max-pending", static_cast<std::int64_t>(options.max_pending)));
  const std::string policy = args.get("overload-policy", "shed");
  for (const auto& path : util::split(args.get("models", ""), ',')) {
    if (!path.empty()) options.model_files.push_back(path);
  }
  args.reject_unknown();
  try {
    options.overload_policy = parse_overload_policy(policy);
  } catch (const std::invalid_argument& e) {
    throw util::UsageError(std::string("--overload-policy: ") + e.what());
  }

  Server server(std::move(options));
  server.start();
  out << "keddah serve listening on http://127.0.0.1:" << server.port() << "\n";
  const auto models = server.model_names();
  if (!models.empty()) out << "models: " << util::join(models, ", ") << "\n";
  out.flush();
  server.wait_for_shutdown();
  server.stop();
  out << "keddah serve: shutdown complete\n";
  (void)err;
  return 0;
}

}  // namespace keddah::serve
