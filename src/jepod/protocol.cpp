#include "jepod/protocol.hpp"

#include "rapl/quality.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace jepo::jepod {

std::string_view errorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadJson: return "bad-json";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownCommand: return "unknown-command";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kRuntimeError: return "runtime-error";
    case ErrorCode::kUncaughtException: return "uncaught-exception";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

std::string requireString(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->isString()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "missing or non-string field '" + std::string(key) +
                            "'");
  }
  return v->asString();
}

std::uint64_t optionalU64(const json::Value& obj, std::string_view key,
                          std::uint64_t def) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->isNumber()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "field '" + std::string(key) +
                            "' must be a non-negative integer");
  }
  try {
    return v->asUint64();
  } catch (const Error&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "field '" + std::string(key) +
                            "' must be a non-negative integer");
  }
}

}  // namespace

JobRequest parseRequest(const std::string& line) {
  json::Value doc;
  try {
    doc = json::parseJson(line);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kBadJson, e.what());
  }
  if (!doc.isObject()) {
    throw ProtocolError(ErrorCode::kBadRequest, "request is not an object");
  }
  const std::uint64_t v = optionalU64(doc, "v", 0);
  if (v != static_cast<std::uint64_t>(kProtocolVersion)) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "unsupported protocol version " + std::to_string(v) +
                            " (this daemon speaks v" +
                            std::to_string(kProtocolVersion) + ")");
  }
  JobRequest req;
  req.id = requireString(doc, "id");
  req.command = requireString(doc, "command");
  req.source = requireString(doc, "source");
  req.tenant = doc.stringOr("tenant", "default");
  if (req.tenant.empty()) req.tenant = "default";
  req.mainClass = doc.stringOr("mainClass", "");
  req.seed = optionalU64(doc, "seed", 0);
  req.heapLimit = optionalU64(doc, "heapLimit", 0);
  req.maxSteps = optionalU64(doc, "maxSteps", kDefaultMaxSteps);
  req.faultPlan = doc.stringOr("faultPlan", "");
  req.deadlineMs = optionalU64(doc, "deadlineMs", 0);
  req.tier = doc.stringOr("tier", "");
  if (!req.tier.empty()) {
    try {
      jvm::parseTierSpec(req.tier);
    } catch (const Error& e) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          std::string("tier: ") + e.what());
    }
  }
  if (req.command != "profile" && req.command != "suggest" &&
      req.command != "optimize") {
    throw ProtocolError(ErrorCode::kUnknownCommand,
                        "unknown command '" + req.command +
                            "' (expected profile|suggest|optimize)");
  }
  return req;
}

namespace {

void beginResponse(JsonWriter& w, const std::string& id, bool ok) {
  w.beginObject();
  w.kv("v", kProtocolVersion);
  w.kv("id", id);
  w.kv("ok", ok);
}

void writeRecords(JsonWriter& w, const std::vector<jvm::MethodRecord>& rs) {
  w.key("records");
  w.beginArray();
  for (const auto& r : rs) {
    w.beginObject();
    w.kv("method", r.method);
    w.kv("seconds", r.seconds);
    w.kv("packageJoules", r.packageJoules);
    w.kv("coreJoules", r.coreJoules);
    w.kv("dramJoules", r.dramJoules);
    w.kv("truncated", r.truncated);
    w.kv("quality", rapl::qualityName(r.quality));
    w.kv("readRetries", r.readRetries);
    // Omitted-when-default: full-tier responses keep their pre-tier bytes.
    if (r.tier != jvm::InstrTier::kFull) {
      w.kv("tier", jvm::tierName(r.tier));
      w.kv("samplingRate", r.samplingRate);
    }
    w.endObject();
  }
  w.endArray();
}

}  // namespace

std::string renderProfileResponse(const JobRequest& req, bool cached,
                                  const ProfileResult& result) {
  JsonWriter w;
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.kv("stdout", result.stdoutText);
  writeRecords(w, result.records);
  w.endObject();
  w.endObject();
  return w.str();
}

std::string renderSuggestResponse(const JobRequest& req, bool cached,
                                  const std::string& view) {
  JsonWriter w;
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.kv("view", view);
  w.endObject();
  w.endObject();
  return w.str();
}

std::string renderOptimizeResponse(const JobRequest& req, bool cached,
                                   const std::vector<OptimizeChange>& changes,
                                   const std::string& rewrittenSource) {
  JsonWriter w;
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.key("changes");
  w.beginArray();
  for (const auto& c : changes) {
    w.beginObject();
    w.kv("className", c.className);
    w.kv("line", c.line);
    w.kv("description", c.description);
    w.endObject();
  }
  w.endArray();
  w.kv("source", rewrittenSource);
  w.endObject();
  w.endObject();
  return w.str();
}

std::string renderErrorResponse(const std::string& id, ErrorCode code,
                                const std::string& message,
                                int retryAfterMs) {
  JsonWriter w;
  beginResponse(w, id, /*ok=*/false);
  w.key("error");
  w.beginObject();
  w.kv("code", errorCodeName(code));
  w.kv("message", message);
  w.endObject();
  if (retryAfterMs >= 0) w.kv("retryAfterMs", retryAfterMs);
  w.endObject();
  return w.str();
}

std::string renderRequest(const JobRequest& req) {
  JsonWriter w;
  w.beginObject();
  w.kv("v", kProtocolVersion);
  w.kv("id", req.id);
  w.kv("tenant", req.tenant);
  w.kv("command", req.command);
  w.kv("source", req.source);
  if (!req.mainClass.empty()) w.kv("mainClass", req.mainClass);
  w.kv("seed", req.seed);
  w.kv("heapLimit", req.heapLimit);
  w.kv("maxSteps", req.maxSteps);
  if (!req.faultPlan.empty()) w.kv("faultPlan", req.faultPlan);
  if (req.deadlineMs != 0) w.kv("deadlineMs", req.deadlineMs);
  // Omitted-when-default so pre-tier clients' request bytes are unchanged.
  if (!req.tier.empty() && req.tier != "full") w.kv("tier", req.tier);
  w.endObject();
  return w.str();
}

Response parseResponse(const std::string& line) {
  const json::Value doc = json::parseJson(line);
  JEPO_REQUIRE(doc.isObject(), "response is not an object");
  JEPO_REQUIRE(doc.uint64Or("v", 0) ==
                   static_cast<std::uint64_t>(kProtocolVersion),
               "response has an unsupported protocol version");
  Response resp;
  resp.raw = line;
  resp.id = doc.stringOr("id", "");
  resp.ok = doc.boolOr("ok", false);
  resp.cached = doc.boolOr("cached", false);
  if (!resp.ok) {
    if (const json::Value* err = doc.find("error")) {
      resp.errorCode = err->stringOr("code", "");
      resp.errorMessage = err->stringOr("message", "");
    }
    const json::Value* retry = doc.find("retryAfterMs");
    if (retry != nullptr && retry->isNumber()) {
      resp.retryAfterMs = static_cast<int>(retry->asUint64());
    }
    return resp;
  }
  const json::Value* result = doc.find("result");
  JEPO_REQUIRE(result != nullptr && result->isObject(),
               "ok response without a result object");
  resp.profile.stdoutText = result->stringOr("stdout", "");
  resp.view = result->stringOr("view", "");
  resp.rewrittenSource = result->stringOr("source", "");
  if (const json::Value* records = result->find("records")) {
    for (const json::Value& item : records->asArray()) {
      jvm::MethodRecord r;
      r.method = item.stringOr("method", "");
      r.seconds = item.doubleOr("seconds", 0.0);
      r.packageJoules = item.doubleOr("packageJoules", 0.0);
      r.coreJoules = item.doubleOr("coreJoules", 0.0);
      r.dramJoules = item.doubleOr("dramJoules", 0.0);
      r.truncated = item.boolOr("truncated", false);
      const std::string quality = item.stringOr("quality", "ok");
      for (int q = 0; q <= 3; ++q) {
        if (quality == rapl::qualityName(rapl::qualityFromIndex(q))) {
          r.quality = rapl::qualityFromIndex(q);
        }
      }
      r.readRetries =
          static_cast<int>(item.uint64Or("readRetries", 0));
      const std::string tier = item.stringOr("tier", "full");
      if (tier == "sampled") {
        r.tier = jvm::InstrTier::kSampled;
      } else if (tier == "hot") {
        r.tier = jvm::InstrTier::kHot;
      }
      r.samplingRate = item.doubleOr("samplingRate", 1.0);
      resp.profile.records.push_back(std::move(r));
    }
  }
  return resp;
}

}  // namespace jepo::jepod
