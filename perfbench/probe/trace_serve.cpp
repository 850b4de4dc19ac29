// serve-replay: answers a request stream in-process through
// ServeSession, the same session object policy-serve puts behind its
// socket, and prints the decision digest the socket run must match.
//
//   serve-replay <report.json> <modes.json> <requests.jsonl> [reloads]
//
// With a reload count it is the serve layer probe as well: a second
// replay times every handle_line call (the tracing overhead is its wall
// time over the untimed replay's), then PolicyServer::decide_on is timed
// on each decide request against the installed snapshot, and
// PolicyStore::load_and_install is timed `reloads` times.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "serde/json_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

#include "probe.hpp"

namespace perfbench {

namespace {

using parmis::json::Value;

bool is_decide(const Value& doc) {
  const Value* op = doc.find("op");
  return op != nullptr && op->is_string() && op->as_string() == "decide";
}

std::unique_ptr<parmis::serve::PolicyStore> make_store(
    const std::string& modes_path, const std::vector<std::string>& reports) {
  parmis::serve::ModeRegistry modes;
  modes.load_file(modes_path);
  auto store = std::make_unique<parmis::serve::PolicyStore>(std::move(modes));
  store->load_and_install(reports);
  return store;
}

}  // namespace

int serve_replay_main(const std::vector<std::string>& args) {
  parmis::require(args.size() == 3 || args.size() == 4,
                  "usage: serve-replay <report> <modes> <requests> "
                  "[reloads]");
  const std::vector<std::string> reports = {args[0]};
  const std::vector<std::string> lines = read_lines(args[2]);
  Output out;

  // Untimed replay: the digest, the failure count and the base wall time.
  const auto store = make_store(args[1], reports);
  parmis::serve::ServeSession session(*store, reports);
  std::vector<bool> ok(lines.size());
  std::size_t failed = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ok[i] = reply_ok(session.handle_line(lines[i]).response);
    failed += ok[i] ? 0 : 1;
  }
  const std::uint64_t untimed_ns = now_ns() - t0;
  out.info("digest", Value::string(parmis::hex64(session.decision_digest())));
  out.info("requests", Value::number(static_cast<double>(lines.size())));
  out.info("failed", Value::number(static_cast<double>(failed)));
  if (args.size() == 3) {
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  const long reloads = std::stol(args[3]);
  parmis::require(reloads > 0, "serve-replay: reloads must be positive");

  // Timed replay on a fresh store, so it answers exactly what the
  // untimed one did.
  const auto traced_store = make_store(args[1], reports);
  parmis::serve::ServeSession traced(*traced_store, reports);
  // Answered decide requests; a failed one has no decision to time.
  std::vector<bool> decide_line(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    decide_line[i] = ok[i] && is_decide(parmis::json::parse(lines[i]));
  }
  Series handle_decide;
  double decide_bytes = 0.0;
  const std::uint64_t t1 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t h0 = now_ns();
    const parmis::serve::LineOutcome outcome = traced.handle_line(lines[i]);
    const std::uint64_t h1 = now_ns();
    if (decide_line[i]) {
      handle_decide.add(h1 - h0);
      decide_bytes += static_cast<double>(outcome.response.size() + 1);
    }
  }
  const std::uint64_t timed_ns = now_ns() - t1;
  parmis::require(traced.decision_digest() == session.decision_digest(),
                  "serve-replay: timed replay digest differs");

  // decide_on alone: the decision engine without parse or response build.
  const parmis::serve::PolicyServer server(*traced_store);
  const auto snapshot = traced_store->require_snapshot();
  Series decide_on;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!decide_line[i]) continue;
    const Value doc = parmis::json::parse(lines[i]);
    parmis::serde::ObjectReader reader(doc, "request");
    reader.optional_key("op");
    reader.optional_key("id");
    const parmis::serve::DecideRequest request =
        parmis::serve::parse_decide_body(reader);
    timed(decide_on, [&] { return server.decide_on(*snapshot, request); });
  }

  Series reload;
  for (long r = 0; r < reloads; ++r) {
    timed(reload, [&] { traced_store->load_and_install(reports); });
  }

  parmis::require(handle_decide.count() > 0,
                  "serve-replay: the stream holds no decide request");
  out.metric("serve.handle_line_us", handle_decide.median_ns() / 1e3);
  out.metric("serve.response_bytes",
             decide_bytes / static_cast<double>(handle_decide.count()));
  out.metric("serve.decide_on_us", decide_on.median_ns() / 1e3);
  out.metric("serve.decide_on_share",
             decide_on.median_ns() / handle_decide.median_ns());
  out.metric("serve.reload_ms", reload.median_ns() / 1e6);
  out.info("untimed_replay_s", Value::number(untimed_ns / 1e9));
  out.info("timed_replay_s", Value::number(timed_ns / 1e9));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
