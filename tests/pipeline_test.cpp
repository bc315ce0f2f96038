// Tests for PipelineFilter: composite transforms inserted/removed as one
// unit, flush-on-detach through the nested chain, composability typing of
// composites, and registry/upload instantiation.
#include <gtest/gtest.h>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "filters/compress_filter.h"
#include "filters/crypto_filter.h"
#include "filters/fec_filters.h"
#include "filters/pipeline_filter.h"
#include "filters/registry.h"
#include "media/media_packet.h"
#include "util/rng.h"

namespace rapidware::filters {
namespace {

using util::Bytes;

struct Harness {
  std::shared_ptr<core::QueuePacketSource> source =
      std::make_shared<core::QueuePacketSource>();
  std::shared_ptr<core::CollectingPacketSink> sink =
      std::make_shared<core::CollectingPacketSink>();
  std::shared_ptr<core::FilterChain> chain;

  Harness() {
    chain = std::make_shared<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("in", source),
        std::make_shared<core::PacketWriterEndpoint>("out", sink));
    chain->start();
  }
  ~Harness() {
    source->finish();
    chain->shutdown();
  }
};

std::vector<Bytes> payloads(int count) {
  util::Rng rng(5);
  std::vector<Bytes> out;
  for (int i = 0; i < count; ++i) {
    media::MediaPacket p;
    p.seq = static_cast<std::uint32_t>(i);
    p.payload.resize(80);
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u64());
    out.push_back(p.serialize());
  }
  return out;
}

std::shared_ptr<PipelineFilter> secure_pipe() {
  const auto key = derive_key("pipe");
  std::vector<std::shared_ptr<core::Filter>> children;
  children.push_back(std::make_shared<CompressFilter>());
  children.push_back(std::make_shared<EncryptFilter>(key));
  return std::make_shared<PipelineFilter>("secure", std::move(children));
}

std::shared_ptr<PipelineFilter> unsecure_pipe() {
  const auto key = derive_key("pipe");
  std::vector<std::shared_ptr<core::Filter>> children;
  children.push_back(std::make_shared<DecryptFilter>(key));
  children.push_back(std::make_shared<DecompressFilter>());
  return std::make_shared<PipelineFilter>("unsecure", std::move(children));
}

TEST(PipelineFilter, RejectsNullAndRunningChildren) {
  EXPECT_THROW(PipelineFilter("x", {nullptr}), std::invalid_argument);
}

TEST(PipelineFilter, CompositePairRoundTripsInChain) {
  Harness h;
  h.chain->append(secure_pipe());
  h.chain->append(unsecure_pipe());
  const auto sent = payloads(40);
  for (auto& p : sent) h.source->push(p);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(PipelineFilter, StartRefusesAChildStartedElsewhere) {
  // A child started on its own after the composite was built: the
  // composite's start fails before wiring or starting anything and leaves
  // the stray run alone; once that run ended, the composite starts cleanly.
  core::WorkerPool pool(1);
  const auto key = derive_key("pipe");
  auto stray = std::make_shared<DecompressFilter>();
  auto pipe = std::make_shared<PipelineFilter>(
      "unsecure", std::vector<std::shared_ptr<core::Filter>>{
                      std::make_shared<DecryptFilter>(key), stray});
  stray->start_on(pool.worker(0));
  EXPECT_THROW(pipe->start_on(pool.worker(0)), core::StreamError);
  EXPECT_FALSE(pipe->running());
  EXPECT_TRUE(stray->running());
  stray->detach_request();
  stray->join();

  Harness h;
  h.chain->append(secure_pipe());
  h.chain->append(pipe);
  const auto sent = payloads(20);
  for (auto& p : sent) h.source->push(p);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
  pool.stop();
}

TEST(PipelineFilter, FailedStartEndsTheChildrenItStarted) {
  // The outer composite starts its last child, then fails on a nested
  // composite whose own child runs elsewhere. The child it did start must
  // be ended before the failure surfaces: nothing may keep writing into
  // the composite's inner stream, or re-driving its dead run, afterwards.
  core::WorkerPool pool(1);
  auto stray = std::make_shared<CompressFilter>();
  auto nested = std::make_shared<PipelineFilter>(
      "nested", std::vector<std::shared_ptr<core::Filter>>{stray});
  auto started = std::make_shared<DecompressFilter>();
  auto outer = std::make_shared<PipelineFilter>(
      "outer", std::vector<std::shared_ptr<core::Filter>>{nested, started});
  stray->start_on(pool.worker(0));
  EXPECT_THROW(outer->start_on(pool.worker(0)), core::StreamError);
  EXPECT_FALSE(outer->running());
  EXPECT_FALSE(nested->running());
  EXPECT_FALSE(started->running());
  EXPECT_TRUE(stray->running());
  outer.reset();  // destroying the failed composite touches nothing live
  stray->detach_request();
  stray->join();
  pool.stop();
}

TEST(PipelineFilter, HotInsertAndRemoveAsOneUnit) {
  Harness h;
  const auto sent = payloads(30);
  for (int i = 0; i < 10; ++i) h.source->push(sent[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(h.sink->wait_for(10));

  // Insert the matched pair mid-stream...
  h.chain->insert(secure_pipe(), 0);
  h.chain->insert(unsecure_pipe(), 1);
  for (int i = 10; i < 20; ++i) h.source->push(sent[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(h.sink->wait_for(20));

  // ...and remove both again; the stream must stay byte-exact throughout.
  h.chain->remove(1);
  h.chain->remove(0);
  for (int i = 20; i < 30; ++i) h.source->push(sent[static_cast<std::size_t>(i)]);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(PipelineFilter, FlushOnDetachDrainsBufferedChildState) {
  // A pipeline containing an FEC encoder holds a partial group; removal
  // must flush it through the nested chain (short group) and out.
  Harness h;
  std::vector<std::shared_ptr<core::Filter>> children;
  children.push_back(std::make_shared<FecEncodeFilter>(6, 4));
  h.chain->append(
      std::make_shared<PipelineFilter>("fec-pipe", std::move(children)));
  h.chain->append(std::make_shared<FecDecodeFilter>());

  const auto sent = payloads(2);  // half a group: held inside the pipeline
  for (auto& p : sent) h.source->push(p);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(h.sink->count(), 0u);

  h.chain->remove(0);  // composite detach must flush the partial group
  ASSERT_TRUE(h.sink->wait_for(2));
  EXPECT_EQ(h.sink->packets(), sent);
  h.source->finish();
  h.chain->shutdown();
}

TEST(PipelineFilter, RemovedCompositeIsReusable) {
  Harness h;
  auto pipe = secure_pipe();
  h.chain->append(pipe);
  auto removed = h.chain->remove(0);
  EXPECT_EQ(removed.get(), pipe.get());
  // Re-insert alongside its inverse; traffic round-trips.
  h.chain->append(removed);
  h.chain->append(unsecure_pipe());
  const auto sent = payloads(5);
  for (auto& p : sent) h.source->push(p);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(PipelineFilter, DescribeShowsChildren) {
  auto pipe = secure_pipe();
  EXPECT_EQ(pipe->describe(), "secure[compress(1.00) -> encrypt(chacha20)]");
  EXPECT_EQ(pipe->child_count(), 2u);
}

TEST(PipelineFilter, TypesFoldAcrossChildren) {
  auto pipe = secure_pipe();
  EXPECT_EQ(pipe->input_requirement(), "any");  // compress accepts anything
  EXPECT_EQ(pipe->output_type("media"), "chacha20(rle(media))");
  auto inverse = unsecure_pipe();
  EXPECT_EQ(inverse->input_requirement(), "chacha20(*)");
  EXPECT_EQ(inverse->output_type("chacha20(rle(media))"), "media");
}

TEST(PipelineFilter, EmptyPipelineIsTransparent) {
  Harness h;
  h.chain->append(std::make_shared<PipelineFilter>(
      "empty", std::vector<std::shared_ptr<core::Filter>>{}));
  const auto sent = payloads(8);
  for (auto& p : sent) h.source->push(p);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(PipelineRegistry, InstantiatesFromSpec) {
  core::FilterRegistry registry;
  register_builtin_filters(registry);
  auto filter = registry.create(
      {"pipeline", {{"of", "compress,encrypt"}, {"name", "sec"}}});
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->output_type("media"), "chacha20(rle(media))");
}

TEST(PipelineRegistry, UploadedCompositeUsableInChain) {
  core::FilterRegistry registry;
  register_builtin_filters(registry);
  // The paper's "uploaded third-party filter" as a composite definition.
  registry.register_alias("lowband-secure",
                          {"pipeline", {{"of", "compress,encrypt"}}});
  registry.register_alias("lowband-undo",
                          {"pipeline", {{"of", "decrypt,decompress"}}});

  Harness h;
  h.chain->append(registry.create({"lowband-secure", {}}));
  h.chain->append(registry.create({"lowband-undo", {}}));
  const auto sent = payloads(12);
  for (auto& p : sent) h.source->push(p);
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(PipelineRegistry, UnknownChildThrows) {
  core::FilterRegistry registry;
  register_builtin_filters(registry);
  EXPECT_THROW(registry.create({"pipeline", {{"of", "no-such-filter"}}}),
               std::out_of_range);
}

}  // namespace
}  // namespace rapidware::filters
