// Tier-1 server tests: wire protocol units (frame reassembly across
// partial reads, malformed prefixes, oversized announcements rejected
// without buffering), the incremental SMT-LIB command scanner, admission
// gate semantics, session behaviour over fragmented input, and one live
// localhost socket round trip. The heavier concurrency scenarios live in
// server_stress_test.cpp; corpus parity in server_corpus_test.cpp.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "canon/answer_cache.hpp"
#include "presolve_declined.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace qsmt;
using server::AdmissionGate;
using server::CommandScanner;
using server::FrameDecoder;
using server::FrameError;

service::ServiceOptions exact_service(std::size_t workers = 2) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.portfolio = {service::exact_member("exact")};
  return options;
}

// ---- Frame protocol -------------------------------------------------------

TEST(FrameProtocol, RoundTripsOneByteAtATime) {
  const std::string frame = server::encode_frame("(check-sat)");
  FrameDecoder decoder;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(decoder.next().has_value());
    decoder.feed({frame.data() + i, 1});
  }
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "(check-sat)");
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameProtocol, ReassemblesManyFramesFromArbitrarySplits) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += server::encode_frame("payload-" + std::to_string(i));
  }
  // Feed in ragged chunks that straddle frame boundaries.
  FrameDecoder decoder;
  std::vector<std::string> payloads;
  std::size_t offset = 0;
  const std::size_t chunks[] = {3, 7, 1, 11, 2, 13, 100000};
  for (std::size_t chunk : chunks) {
    const std::size_t n = std::min(chunk, wire.size() - offset);
    decoder.feed({wire.data() + offset, n});
    offset += n;
    while (auto payload = decoder.next()) payloads.push_back(*payload);
    if (offset == wire.size()) break;
  }
  ASSERT_EQ(payloads.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(payloads[i], "payload-" + std::to_string(i));
  }
}

TEST(FrameProtocol, EmptyPayloadFrameIsValid) {
  FrameDecoder decoder;
  decoder.feed(server::encode_frame(""));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(FrameProtocol, BadMagicLatchesError) {
  FrameDecoder decoder;
  decoder.feed("X");  // Not 'Q'.
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
  EXPECT_FALSE(decoder.next().has_value());
  // Later feeds are ignored; the error stays latched.
  decoder.feed(server::encode_frame("(check-sat)"));
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameProtocol, BadMagicAfterValidFrameLatches) {
  FrameDecoder decoder;
  decoder.feed(server::encode_frame("ok") + "Z");
  ASSERT_TRUE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
}

TEST(FrameProtocol, OversizedAnnouncementRejectedFromHeaderAlone) {
  // A hostile 4 GiB length announcement must be refused from the 5 header
  // bytes, before any payload is buffered (or allocated).
  FrameDecoder decoder(1 << 20);
  const char header[5] = {'Q', '\xff', '\xff', '\xff', '\xff'};
  decoder.feed({header, 5});
  EXPECT_EQ(decoder.error(), FrameError::kOversized);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameProtocol, PayloadAtLimitAccepted) {
  FrameDecoder decoder(8);
  decoder.feed(server::encode_frame("12345678"));
  ASSERT_TRUE(decoder.next().has_value());
  FrameDecoder strict(7);
  strict.feed(server::encode_frame("12345678"));
  EXPECT_EQ(strict.error(), FrameError::kOversized);
}

TEST(FrameProtocol, ErrorReplyDoublesQuotes) {
  EXPECT_EQ(server::error_reply("bad \"thing\""),
            "(error \"bad \"\"thing\"\"\")\n");
}

// ---- Command scanner ------------------------------------------------------

TEST(CommandScannerTest, ReassemblesCommandAcrossPartialFeeds) {
  CommandScanner scanner;
  scanner.feed("(assert (= x \"a");
  EXPECT_FALSE(scanner.next().has_value());
  EXPECT_TRUE(scanner.partial());
  scanner.feed("b\"))(check-");
  const auto first = scanner.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "(assert (= x \"ab\"))");
  EXPECT_FALSE(scanner.next().has_value());
  scanner.feed("sat)");
  const auto second = scanner.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "(check-sat)");
  EXPECT_FALSE(scanner.partial());
}

TEST(CommandScannerTest, ParensInsideStringsAndCommentsDoNotCount) {
  CommandScanner scanner;
  scanner.feed("(echo \")((((\") ; comment with )))\n(check-sat)");
  const auto echo = scanner.next();
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(*echo, "(echo \")((((\")");
  const auto check = scanner.next();
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(*check, "(check-sat)");
}

TEST(CommandScannerTest, EscapedQuoteStaysInsideString) {
  CommandScanner scanner;
  scanner.feed("(assert (= x \"a\"\")\"))");
  const auto cmd = scanner.next();
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(*cmd, "(assert (= x \"a\"\")\"))");
}

TEST(CommandScannerTest, StrayCloseParenFails) {
  CommandScanner scanner;
  scanner.feed(")(check-sat)");
  EXPECT_FALSE(scanner.next().has_value());
  EXPECT_TRUE(scanner.failed());
  scanner.reset();
  EXPECT_FALSE(scanner.failed());
  scanner.feed("(check-sat)");
  EXPECT_TRUE(scanner.next().has_value());
}

TEST(CommandScannerTest, BareAtomAtTopLevelFails) {
  CommandScanner scanner;
  scanner.feed("hello (check-sat)");
  EXPECT_FALSE(scanner.next().has_value());
  EXPECT_TRUE(scanner.failed());
}

TEST(CommandScannerTest, TrailingCommentWaitsForItsNewline) {
  CommandScanner scanner;
  scanner.feed("; half a comment");
  EXPECT_FALSE(scanner.next().has_value());
  // The rest of the comment line must not be mistaken for fresh input.
  scanner.feed(" still the comment\n(check-sat)");
  const auto cmd = scanner.next();
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(*cmd, "(check-sat)");
  EXPECT_FALSE(scanner.failed());
}

// ---- Admission gate -------------------------------------------------------

TEST(AdmissionGateTest, AdmitsUpToLimitThenQueuesFifo) {
  AdmissionGate gate(1, 4);
  ASSERT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);

  std::atomic<int> order{0};
  std::atomic<int> first_pos{-1};
  std::atomic<int> second_pos{-1};
  std::thread first([&] {
    EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
    first_pos = order.fetch_add(1);
    gate.release();
  });
  // Ensure `first` is in line before `second` joins it.
  while (gate.stats().waiting < 1) std::this_thread::yield();
  std::thread second([&] {
    EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
    second_pos = order.fetch_add(1);
    gate.release();
  });
  while (gate.stats().waiting < 2) std::this_thread::yield();

  gate.release();
  first.join();
  second.join();
  EXPECT_LT(first_pos.load(), second_pos.load());
  const AdmissionGate::Stats stats = gate.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(AdmissionGateTest, RejectsWhenLineFull) {
  AdmissionGate gate(1, 0);
  ASSERT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
  EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kRejected);
  EXPECT_EQ(gate.stats().rejected, 1u);
  gate.release();
  EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
  gate.release();
}

TEST(AdmissionGateTest, CloseUnblocksWaitersAndFailsFast) {
  AdmissionGate gate(1, 4);
  ASSERT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kClosed);
  });
  while (gate.stats().waiting < 1) std::this_thread::yield();
  gate.close();
  waiter.join();
  EXPECT_EQ(gate.acquire(), AdmissionGate::Outcome::kClosed);
}

TEST(AdmissionGateTest, AbandonedWaiterLeavesTheLine) {
  AdmissionGate gate(1, 4);
  ASSERT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);
  std::atomic<bool> gone{false};
  std::thread waiter([&] {
    EXPECT_EQ(gate.acquire([&] { return gone.load(); }),
              AdmissionGate::Outcome::kAbandoned);
  });
  while (gate.stats().waiting < 1) std::this_thread::yield();
  gone = true;
  waiter.join();
  EXPECT_EQ(gate.stats().abandoned, 1u);
  EXPECT_EQ(gate.stats().waiting, 0u);
  gate.release();
}

// ---- Session --------------------------------------------------------------

TEST(SessionTest, AnswersAcrossFragmentedInput) {
  service::SolveService service(exact_service());
  server::Session session(service);
  EXPECT_EQ(session.consume("(declare-const x Str"), "");
  EXPECT_EQ(session.consume("ing)(assert (= x \"hi\"))(check-"), "");
  const std::string verdict = session.consume("sat)");
  EXPECT_EQ(verdict, "sat\n");
  EXPECT_EQ(session.consume("(get-model)"),
            "(model (define-fun x () String \"hi\"))\n");
  EXPECT_FALSE(session.exited());
  session.consume("(exit)");
  EXPECT_TRUE(session.exited());
}

TEST(SessionTest, PopBelowBottomRepliesErrorAndSurvives) {
  service::SolveService service(exact_service());
  server::Session session(service);
  EXPECT_EQ(session.consume("(pop)"),
            "(error \"pop below the bottom of the assertion stack\")\n");
  EXPECT_FALSE(session.exited());
  // The stack is untouched: the session keeps answering.
  EXPECT_EQ(session.consume(
                "(declare-const x String)(assert (= x \"ok\"))(check-sat)"),
            "sat\n");
  EXPECT_EQ(session.consume("(pop 3)"),
            "(error \"pop below the bottom of the assertion stack\")\n");
  EXPECT_EQ(session.consume("(check-sat)"), "sat\n");
}

TEST(SessionTest, CheckSatAssumingUndeclaredSymbolRepliesError) {
  service::SolveService service(exact_service());
  server::Session session(service);
  session.consume("(declare-const x String)(assert (= x \"ab\"))");
  EXPECT_EQ(session.consume("(check-sat-assuming ((= (str.len nope) 2)))"),
            "(error \"check-sat-assuming: undeclared symbol 'nope'\")\n");
  EXPECT_FALSE(session.exited());
  EXPECT_EQ(session.consume("(check-sat)"), "sat\n");
}

TEST(SessionTest, IncrementalChainWarmStartsKeepVerdictsVerified) {
  service::SolveService service(exact_service());
  server::Session session(service);
  // A push/pop mutation chain: every re-solve may ride the previous
  // witness (warm start), and every verdict must still verify.
  session.consume("(declare-const x String)");
  EXPECT_EQ(session.consume("(assert (str.prefixof \"a\" x))"
                            "(assert (= (str.len x) 2))(check-sat)"),
            "sat\n");
  EXPECT_EQ(session.consume("(push)(assert (str.suffixof \"b\" x))"
                            "(check-sat)"),
            "sat\n");
  EXPECT_EQ(session.consume("(get-model)"),
            "(model (define-fun x () String \"ab\"))\n");
  EXPECT_EQ(session.consume("(pop)(push)(assert (str.suffixof \"c\" x))"
                            "(check-sat)"),
            "sat\n");
  EXPECT_EQ(session.consume("(get-model)"),
            "(model (define-fun x () String \"ac\"))\n");
  EXPECT_EQ(session.consume("(pop)(check-sat)"), "sat\n");
}

TEST(SessionTest, ResetClearsTheWarmStartWitness) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio = {service::simulated_annealing_member("sa")};
  service::SolveService service(options);
  // A length-2 follow-up query the presolve leaves to the samplers: the
  // one place a remembered witness could seed a warm start.
  const std::string follow_up =
      test::declined_asserts(strqubo::NotContains{2, "zz"}) + "(check-sat)";

  // Control: a popped scope keeps the session's witness, which seeds the
  // next check-sat.
  server::Session kept(service);
  EXPECT_EQ(kept.consume("(declare-const x String)(push)"
                         "(assert (= x \"ab\"))(check-sat)(pop)"),
            "sat\n");
  EXPECT_EQ(kept.consume(follow_up), "sat\n");
  EXPECT_EQ(service.stats().warm_starts, 1u);

  // (reset) starts over: the unrelated query runs cold.
  server::Session reset(service);
  EXPECT_EQ(reset.consume("(declare-const x String)(assert (= x \"ab\"))"
                          "(check-sat)(reset)(declare-const x String)"),
            "sat\n");
  EXPECT_EQ(reset.consume(follow_up), "sat\n");
  EXPECT_EQ(service.stats().warm_starts, 1u);
}

TEST(SessionTest, MultiConjunctCheckSatIsOneConjunctionJob) {
  service::SolveService service(exact_service());
  server::Session session(service);
  // Two compiled conjuncts (the length rides on both): the session hands
  // them to the service as one job over one merged model, not as a
  // re-rendered script, so the prepared-model cache sees exactly one miss.
  EXPECT_EQ(session.consume("(declare-const x String)"
                            "(assert (= (str.len x) 4))"
                            "(assert (str.prefixof \"ab\" x))"
                            "(assert (str.suffixof \"cd\" x))"
                            "(check-sat)(get-model)"),
            "sat\n(model (define-fun x () String \"abcd\"))\n");
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.model_cache_misses, 1u);
}

TEST(SessionTest, ReorderedRenamedConjunctionHitsTheAnswerCache) {
  service::ServiceOptions options = exact_service();
  options.answer_cache = std::make_shared<canon::AnswerCache>();
  service::SolveService service(options);
  server::Session first(service);
  EXPECT_EQ(first.consume("(declare-const x String)"
                          "(assert (= (str.len x) 4))"
                          "(assert (str.prefixof \"ab\" x))"
                          "(assert (str.suffixof \"cd\" x))(check-sat)"),
            "sat\n");
  // Another tenant asserts the same two facts in the other order over
  // another name: the conjunction's answer key is order- and name-free.
  server::Session second(service);
  EXPECT_EQ(second.consume("(declare-const y String)"
                           "(assert (= (str.len y) 4))"
                           "(assert (str.suffixof \"cd\" y))"
                           "(assert (str.prefixof \"ab\" y))"
                           "(check-sat)(get-model)"),
            "sat\n(model (define-fun y () String \"abcd\"))\n");
  EXPECT_EQ(second.stats().answer_hits, 1u);
  EXPECT_EQ(service.stats().answer_hits, 1u);
}

TEST(SessionTest, MultiConjunctFollowUpWarmStartsFromTheLastModel) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio = {service::simulated_annealing_member("sa")};
  service::SolveService service(options);
  server::Session session(service);
  EXPECT_EQ(session.consume("(declare-const x String)(push)"
                            "(assert (= x \"ab\"))(check-sat)(pop)"),
            "sat\n");
  EXPECT_EQ(service.stats().warm_starts, 0u);
  // A two-conjunct length-2 follow-up the presolve leaves to the samplers:
  // the session's last model "ab" seeds the job's warm refine.
  EXPECT_EQ(session.consume(
                test::declined_asserts(strqubo::NotContains{2, "zz"}) +
                "(assert (str.prefixof \"a\" x))(check-sat)"),
            "sat\n");
  EXPECT_EQ(service.stats().jobs_submitted, 2u);
  EXPECT_EQ(service.stats().warm_starts, 1u);
}

TEST(SessionTest, PresolvedVerdictsNeedNoPool) {
  service::SolveService service(exact_service());
  server::Session session(service);
  // Ground-false assertion: certified unsat without any sampling.
  EXPECT_EQ(session.consume("(assert (= \"a\" \"b\"))(check-sat)"),
            "unsat\n");
  EXPECT_EQ(session.consume("(reset)"), "");
  EXPECT_EQ(session.consume("(check-sat)"), "sat\n");
}

TEST(SessionTest, CommandErrorsAreRepliedAndSurvived) {
  service::SolveService service(exact_service());
  server::Session session(service);
  session.consume("(declare-const x String)");
  const std::string dup = session.consume("(declare-const x Int)");
  EXPECT_NE(dup.find("(error \""), std::string::npos);
  EXPECT_NE(dup.find("duplicate declaration"), std::string::npos);
  // Unknown command is an error, not a session killer.
  const std::string bad = session.consume("(frobnicate)");
  EXPECT_NE(bad.find("(error \""), std::string::npos);
  EXPECT_EQ(session.consume("(assert (= x \"q\"))(check-sat)"), "sat\n");
  EXPECT_EQ(session.stats().errors, 2u);
}

TEST(SessionTest, MalformedTopLevelInputDiscardsBuffer) {
  service::SolveService service(exact_service());
  server::Session session(service);
  const std::string reply = session.consume("))) nonsense");
  EXPECT_NE(reply.find("(error \"malformed input"), std::string::npos);
  // The session is still alive and parses fresh input.
  EXPECT_EQ(session.consume("(check-sat)"), "sat\n");
}

TEST(SessionTest, OverloadedGateRejectsGracefully) {
  service::SolveService service(exact_service());
  server::AdmissionGate gate(1, 0);
  ASSERT_EQ(gate.acquire(), AdmissionGate::Outcome::kAdmitted);

  server::Session session(service, &gate, {});
  session.consume("(declare-const x String)(assert (= x \"zz\"))");
  const std::string reply = session.consume("(check-sat)");
  EXPECT_NE(reply.find("(error \"server overloaded"), std::string::npos);
  EXPECT_EQ(session.stats().overload_rejects, 1u);
  // The assertion context is untouched: after the flood passes, the same
  // query succeeds.
  gate.release();
  EXPECT_EQ(session.consume("(check-sat)"), "sat\n");
  EXPECT_EQ(session.consume("(get-model)"),
            "(model (define-fun x () String \"zz\"))\n");
}

TEST(SessionTest, DisconnectBeforeDispatchShortCircuits) {
  service::SolveService service(exact_service());
  server::Session session(service);
  session.disconnect();
  session.disconnect();  // Idempotent.
  EXPECT_TRUE(session.exited());
  EXPECT_EQ(session.consume("(check-sat)"), "");
  EXPECT_EQ(session.stats().disconnect_cancels, 0u);
}

// ---- Socket server --------------------------------------------------------

TEST(ServerSocket, RoundTripAndExit) {
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  ASSERT_GT(port, 0);
  node.start();

  server::Client client;
  client.connect(port);
  EXPECT_EQ(client.request("(declare-const x String)"), "");
  EXPECT_EQ(client.request("(assert (= x \"ab\"))"), "");
  EXPECT_EQ(client.request("(check-sat)"), "sat\n");
  const std::string model = client.request("(get-model)");
  EXPECT_NE(model.find("(define-fun x () String \"ab\")"),
            std::string::npos);
  EXPECT_EQ(client.request("(exit)"), "");
  client.close();

  node.shutdown();
  const server::Server::Stats stats = node.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.frames, 5u);
  EXPECT_EQ(stats.frame_errors, 0u);
}

// check-sat-assuming over the socket transport: assumptions scope to one
// check, forced witnesses pin the models, and an undeclared symbol draws
// the same (error ...) reply the stdio transport gives.
TEST(ServerSocket, CheckSatAssumingScopesPerCheckOverTheWire) {
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  server::Client client;
  client.connect(port);
  EXPECT_EQ(client.request("(declare-const x String)"
                           "(assert (= (str.len x) 2))"
                           "(assert (str.suffixof \"b\" x))"),
            "");
  EXPECT_EQ(client.request("(check-sat-assuming ((str.prefixof \"a\" x)))"),
            "sat\n");
  EXPECT_EQ(client.request("(get-model)"),
            "(model (define-fun x () String \"ab\"))\n");
  EXPECT_EQ(client.request("(check-sat-assuming ((= x \"cb\")))"), "sat\n");
  // The retracted assumptions did not enter the assertion stack: a plain
  // check still answers, and a contradictory assumption is one-shot.
  EXPECT_EQ(client.request("(check-sat-assuming ((= x \"zz\")))"), "unsat\n");
  EXPECT_EQ(client.request("(check-sat)"), "sat\n");
  EXPECT_EQ(client.request("(check-sat-assuming ((= nope \"b\")))"),
            "(error \"check-sat-assuming: undeclared symbol 'nope'\")\n");
  EXPECT_EQ(client.request("(check-sat)"), "sat\n");
  EXPECT_EQ(client.request("(exit)"), "");
  client.close();
  node.shutdown();
}

TEST(ServerSocket, RequestSplitAcrossFramesIsOneCommandStream) {
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  server::Client client;
  client.connect(port);
  // A command split across two frames: the first reply is empty, the
  // second completes the command and carries the verdict.
  EXPECT_EQ(client.request("(assert (= \"x\" "), "");
  EXPECT_EQ(client.request("\"x\"))(check-sat)"), "sat\n");
  client.close();
  node.shutdown();
}

TEST(ServerSocket, MalformedFrameGetsErrorReplyAndDisconnect) {
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const char garbage[] = "GET / HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, MSG_NOSIGNAL), 0);

  // The server answers one framed error reply, then closes.
  server::FrameDecoder decoder;
  std::string reply;
  for (;;) {
    char buffer[512];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    decoder.feed({buffer, static_cast<std::size_t>(n)});
    if (auto payload = decoder.next()) {
      reply = *payload;
    }
  }
  ::close(fd);
  EXPECT_NE(reply.find("(error \"protocol error: bad frame magic\")"),
            std::string::npos);
  node.shutdown();
  EXPECT_EQ(node.stats().frame_errors, 1u);
}

TEST(ServerStdio, ServesScriptsAndFlushesPerCommand) {
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  std::istringstream in(
      "(declare-const x String)\n"
      "(assert (= x \"ok\"))\n"
      "(check-sat)\n"
      "(get-value (x))\n"
      "(exit)\n");
  std::ostringstream out;
  EXPECT_EQ(node.run_stdio(in, out), 0);
  EXPECT_EQ(out.str(), "sat\n((x \"ok\"))\n");
  EXPECT_EQ(node.stats().sessions_opened, 1u);
  EXPECT_EQ(node.stats().sessions_closed, 1u);
}

// Stdio input that records the server.sessions.active gauge whenever the
// session asks for more input, i.e. while the session is open.
class ActiveSessionsProbe : public std::stringbuf {
 public:
  using std::stringbuf::stringbuf;
  double seen = -1.0;

 protected:
  int_type underflow() override {
    const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
    const telemetry::GaugeStat* active =
        snapshot.gauge("server.sessions.active");
    if (active != nullptr && active->set) seen = active->value;
    return std::stringbuf::underflow();
  }
};

// The stdio transport publishes server.sessions.active like the socket
// one: 1 while its session reads input, 0 once the session has closed.
TEST(ServerStdio, PublishesActiveSessionsGauge) {
  telemetry::set_mode(telemetry::Mode::kSummary);
  telemetry::reset();
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  ActiveSessionsProbe input("(declare-const x String)\n(check-sat)\n");
  std::istream in(&input);
  std::ostringstream out;
  EXPECT_EQ(node.run_stdio(in, out), 0);
  EXPECT_EQ(out.str(), "sat\n");
  EXPECT_EQ(input.seen, 1.0);
  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const telemetry::GaugeStat* active = snapshot.gauge("server.sessions.active");
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(active->set);
  EXPECT_EQ(active->value, 0.0);
  telemetry::set_mode(telemetry::Mode::kOff);
}

// A 50,000-deep boolean term used to overflow the stack in the reader; it
// now draws an (error ...) at the s-expression nesting limit, and the same
// session keeps serving.
TEST(ServerStdio, DeeplyNestedScriptDrawsErrorAndSessionSurvives) {
  constexpr std::size_t kDepth = 50000;
  server::ServerOptions options;
  options.service = exact_service();
  server::Server node(options);
  std::string deep = "(assert ";
  for (std::size_t i = 0; i < kDepth; ++i) deep += "(and ";
  deep += "true";
  deep += std::string(kDepth, ')');
  deep += ")\n";
  std::istringstream in("(declare-const x String)\n" + deep +
                        "(assert (= x \"ok\"))\n"
                        "(check-sat)\n"
                        "(exit)\n");
  std::ostringstream out;
  EXPECT_EQ(node.run_stdio(in, out), 0);
  EXPECT_EQ(out.str().rfind("(error \"smtlib parse error", 0), 0u)
      << out.str().substr(0, 200);
  EXPECT_NE(out.str().find("nested deeper than 1000"), std::string::npos);
  EXPECT_EQ(out.str().substr(out.str().find('\n') + 1), "sat\n");
}

}  // namespace
