// Golden bit-identity of the distributed engines across the SwapBoundaryInfo
// exchange. The expected strings pin the exact bit pattern of every stage-1
// round codelength, every level's closing codelength, the final codelength,
// and a hash of the final partition, for an R-MAT and an LFR-lite graph at
// p ∈ {1,2,4,8} under each engine variant. Every transport fault plan must
// reproduce the same strings: the module-statistics exchange is exact, so how
// it is scheduled or shipped can never show up in a result bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {

// 64-bit enums so Param (below) has no padding bytes.
enum class Graph : std::uint64_t { kRmat, kLfr };
enum class Variant : std::uint64_t { kSync, kAsync, kExactHubMoves, kNoWholeModule };

const char* graph_name(Graph g) { return g == Graph::kRmat ? "rmat" : "lfr"; }

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kSync: return "sync";
    case Variant::kAsync: return "async";
    case Variant::kExactHubMoves: return "exact_hub_moves";
    case Variant::kNoWholeModule: return "no_whole_module_swap";
  }
  return "?";
}

dc::DistInfomapConfig config_for(Variant v, int p) {
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  cfg.async = v == Variant::kAsync;
  cfg.exact_hub_moves = v == Variant::kExactHubMoves;
  cfg.whole_module_swap = v != Variant::kNoWholeModule;
  return cfg;
}

const dg::Csr& graph_of(Graph which) {
  static const dg::Csr rmat = [] {
    const auto gg = gen::rmat(9, 8, 0.57, 0.19, 0.19, 71);
    return dg::build_csr(gg.edges, gg.num_vertices);
  }();
  static const dg::Csr lfr = [] {
    dg::gen::LfrLiteParams params;
    params.n = 600;
    const auto gg = gen::lfr_lite(params, 73);
    return dg::build_csr(gg.edges, gg.num_vertices);
  }();
  return which == Graph::kRmat ? rmat : lfr;
}

std::string hex_bits(double x) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

/// "r:<round L bits>,... l:<level L bits>,... L:<final bits> P:<partition hash>"
std::string fingerprint(const dc::DistInfomapResult& r) {
  std::string s = "r:";
  for (double l : r.stage1_round_codelengths) s += hex_bits(l) + ",";
  s += " l:";
  for (const auto& row : r.trace) s += hex_bits(row.codelength_after) + ",";
  s += " L:" + hex_bits(r.codelength);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over the labels
  for (const auto m : r.assignment) {
    h ^= static_cast<std::uint64_t>(m);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return s + " P:" + buf;
}

/// Captured before the incremental exchange landed; keyed "graph/variant/p".
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> g = {
      {"lfr/async/p1",
       "r:4020b22c3b8f13bf,401fa77ba3f09c42,401f4240c976b286,401f08979fc2e39"
       "e,401f027365cd6646,401f0225fa65538e,401f01fa346a70b1,401f01fa346a70b"
       "1, l:401f01fa346a70b1,401c0e06dd18feb7,401bd705c0528d36,401bd705c052"
       "8d36, L:401bd705c0528d36 P:6be742715ef882ac"},
      {"lfr/async/p2",
       "r:4021dac1c2cdee84,402001f97b1cf557,401f5b8b9d18d8b3,401e1fec00485f7"
       "7,401e25faf68838de,401e1fec00485f77, l:401e1fec00485f77,401bea218cc0"
       "0504,401bea218cc00503, L:401bea218cc00503 P:bf7d176733dda1f7"},
      {"lfr/async/p4",
       "r:40227a6055fdbb94,40211c6622eccb84,4020dbf99b543a3f,40200bd828f7c94"
       "5,4020765d9051e229,40200bd828f7c945, l:40200bd828f7c945,401d3fb9bec9"
       "947a,401d3fb9bec9947a, L:401d3fb9bec9947a P:29957da7182809d1"},
      {"lfr/async/p8",
       "r:4020a5f31f4d457e,401dd054ceaa179f,401e19c00d20415f,401dd054ceaa179"
       "f, l:401dd054ceaa179f,401c0e27b24f3ed6,401c0e27b24f3ed5, L:401c0e27b"
       "24f3ed5 P:748698f6224f46a3"},
      {"lfr/exact_hub_moves/p1",
       "r:4021bf1ceeb54f99,4020aa10642116fd,40201a95dc3ec5a5,401f74a3a7f5b29"
       "4,401eeb64ba1927ed,401ec998a486c2c3,401eabeb87317208,401ea7e9290cfeb"
       "2,401ea31bef6e925f,401ea31bef6e925f, l:401ea31bef6e925f,401bc5e6af0e"
       "3b9e,401bb41f4a4d5849,401bb41f4a4d5848, L:401bb41f4a4d5848 P:017c68a"
       "041b11201"},
      {"lfr/exact_hub_moves/p2",
       "r:4022b39eec4e1938,40211ae1d8e5e615,4020711242cfd040,402005d12c57487"
       "8,401fa59aa48df4a1,401ecce024c62db2,401e716d43de6f26,401e3812fe86f7c"
       "2,401e1290d55cd62c,401e0669464ca6a2,401e037978d90220,401df6a8909d991"
       "8,401dee7d50611008,401dec8605f2f788,401def6c1075d5bc, l:401def6c1075"
       "d5bc,401be87b96dad989,401bd02c77e3334f,401bd02c77e3334f, L:401bd02c7"
       "7e3334f P:616b76c57c23873d"},
      {"lfr/exact_hub_moves/p4",
       "r:4023383c4df1fbd0,4021e2187ab47837,4020b56f920961bf,401fc5735df518d"
       "b,401e982cce242d0a,401e3537e496b736,401dfec1ba77d9d1,401dd55edb0bd39"
       "4,401dbbc6456d84a0,401da67a40362921,401db0b435ba6a37, l:401db0b435ba"
       "6a37,401c0e2f4f7e504d,401bf34931e47340,401bed29ced27c26,401bed29ced2"
       "7c26, L:401bed29ced27c26 P:c517ea59d5f43791"},
      {"lfr/exact_hub_moves/p8",
       "r:402423443a5b013c,402264cef670f31f,4020e270f6964cd0,401ffd744f41874"
       "e,401ed973ee3db3be,401e0609b76a9482,401dc4a3ad24558f,401d773642debaf"
       "0,401d425aa75ec122,401d08340996e1d4,401cf44cb07d253c,401ce360c54b127"
       "f,401ce48704840824, l:401ce48704840824,401cbc973993ca92,401cb6283c83"
       "9604,401cb6283c839605, L:401cb6283c839605 P:6434b2ce2a613b6d"},
      {"lfr/no_whole_module_swap/p1",
       "r:402230de1aa7a78b,4021055d27020214,40207adc06c57eab,40201c24da137f6"
       "a,401f7b294797dd44,401f6cff15045840,401f6ceb373ee206,401f6cff1504584"
       "0, l:401f6cff15045840,401c35d2056a4f47,401bdc4d30141dca,401bdc4d3014"
       "1dca, L:401bdc4d30141dca P:9e3205fe5d8e207f"},
      {"lfr/no_whole_module_swap/p2",
       "r:40235649cd48d0c1,4022a00704d6ce6c,402244762c89f798,4022239289cad7a"
       "b,4021b0c1b402c7e0,40219aca5f6dd9ae,40214247e1452984,40213cbfe68a967"
       "c,40213084bd142f48,40210f42434b1ec6,4020f51dd6adc404,4020e2165a1b43e"
       "9,4020ddf9b39abe0e,4020d7daae49b152,4020da21e62e0e14, l:4020da21e62e"
       "0e14,401d0510007bf58b,401ce6475217d37e,401ce6475217d37e, L:401ce6475"
       "217d37e P:aa83d403e231b6a3"},
      {"lfr/no_whole_module_swap/p4",
       "r:4023cac389d70385,40234ebd39ca1696,4022e757505c353f,4022b03d03f5214"
       "d,40223805e2999958,402221046b692483,4021c9aa7742d7e4,4021ac85f5d4e59"
       "4,40219994c19706fb,4021835460bb3aab,40217f4f3f55d294,40216b25ba23bdb"
       "8,402164026500c603,4021619088df7553,402158296d4de5af,40213c69e81f135"
       "e,402154651a6d2ffb, l:402154651a6d2ffb,401de3c62c0d70d2,401de3c62c0d"
       "70d2, L:401de3c62c0d70d2 P:f572cc61dd815d53"},
      {"lfr/no_whole_module_swap/p8",
       "r:4023a40b08399618,40225d4355d78ec0,402186253402907c,40210d379f071fc"
       "8,4020b49ef6938716,40205f37e42a316e,40202dc88b09da2e,4020045fab54273"
       "0,401ffb2338ac1eb4,401ff30d39f50ddc,401f966f71e7c980,401fe79dd918e70"
       "8, l:401fe79dd918e708,401fe0b744178c1c,401fe0b744178c1b, L:401fe0b74"
       "4178c1b P:3bdb5cc2e70bfb2e"},
      {"lfr/sync/p1",
       "r:402230de1aa7a78b,4020bf6b51038bc5,401f4a0347f405ef,401e65a8e4e98a1"
       "0,401e081e00cd8272,401dce542b8e8b08,401dc6043d175866,401dc6043d17586"
       "6, l:401dc6043d175866,401bcc435e768661,401bb826a6a0d772,401bb826a6a0"
       "d772, L:401bb826a6a0d772 P:02e9ee1714f9a899"},
      {"lfr/sync/p2",
       "r:402410f4e03845a6,40230ddcbac6c954,402233d019323c02,402130be18a772c"
       "c,4020c49433ce8976,401fd1c0718d6254,401ff0285d1270ec, l:401ff0285d12"
       "70ec,401cc1573484ba86,401c9cfa928a4000,401c887f1e2452c4,401c887f1e24"
       "52c4, L:401c887f1e2452c4 P:afc2d84188483752"},
      {"lfr/sync/p4",
       "r:40248129ca330e8a,402400771c10bf09,40237bb6b6a86637,4022d0ec6d28c6f"
       "f,40225d31c67edb85,4021a648a2ecfe69,4021442b3f2b60ac,402115b16a58bea"
       "7,4020cb77f71fe95d,40207bf01751ae83,40209a6ff2cefb8b, l:40209a6ff2ce"
       "fb8b,401da03ee5d46918,401df22d371260ed, L:401df22d371260ed P:a5c42a8"
       "4cecb7cf9"},
      {"lfr/sync/p8",
       "r:40248bb22eed6927,40230f4bb67e4ac6,4021ea5209b42d0c,4020dcb51e72179"
       "7,40207480a8e5c65a,401fea4d22882acb,401f69276aacaec0,401eb81fd9e8505"
       "8,401e31d329af1b55,401e0d797aaf0003,401dbfd3802c71e1,401dce4296fed7d"
       "0, l:401dce4296fed7d0,401dd990f0ecb22f, L:401dd990f0ecb230 P:76a8ea9"
       "8d65a083c"},
      {"rmat/async/p1",
       "r:40207f502fb99b33,401f3dc46820c420,401d77e980a66183,401caded91556da"
       "6,401ca51dc86af4f6,401ca51dc86af4f6, l:401ca51dc86af4f6,401c97b83995"
       "040a,401c97b83995040a, L:401c97b83995040a P:9ca0bb1ec2375c81"},
      {"rmat/async/p2",
       "r:40214e7e3171264c,40208ed9b664a75f,40209aebf7937019,40208ed9b664a75"
       "f, l:40208ed9b664a75f,401c992ecb41ef4f,401c992ecb41ef4f, L:401c992ec"
       "b41ef4f P:58dc9421bc82daa3"},
      {"rmat/async/p4",
       "r:4021a1a4723a189c,40211817b347ee8c,40210fe68c068ffd,40212e9ef07bff9"
       "f,40210fe68c068ffd, l:40210fe68c068ffd,401c9c1c83ac9d4e,401c99fd31d8"
       "1f0a,401c99de14bfa375,401c99de14bfa375, L:401c99de14bfa375 P:1a64fa8"
       "d38495621"},
      {"rmat/async/p8",
       "r:402160775a490e6a,4020e9afd3d5a7e7,4020a4695faf4c06,4020c369d4ec0dc"
       "b,4020a4695faf4c06, l:4020a4695faf4c06,401c9d2331e5cc9c,401c9cf703b9"
       "2bf9,401c9bcc0ccb2701,401c9bcc0ccb2701, L:401c9bcc0ccb2701 P:dfc8ac6"
       "d49eac0b4"},
      {"rmat/exact_hub_moves/p1",
       "r:40208b1b8d54f704,401eb8fd834d8794,401d59f9986e80e8,401ccf5287537d2"
       "1,401caa51e844f30c,401ca2a0814900b8,401ca2a0814900b8, l:401ca2a08149"
       "00b8,401c97b83995040a,401c97b83995040a, L:401c97b83995040a P:d5cf13d"
       "164466f42"},
      {"rmat/exact_hub_moves/p2",
       "r:4020b9b0a5024874,401f95227400f1f0,401db30b75ea11c4,401cebf40977527"
       "2,401cb1e5655bdd1e,401caf27dbce4999,401cad05ff71189a,401caf27dbce499"
       "9, l:401caf27dbce4999,401ca38afbd16564,401c9e7f83be9fbe,401c9c3c56af"
       "3067,401c9b314b2d52c6,401c982dacc47b10,401c982dacc47b10, L:401c982da"
       "cc47b10 P:b2fcabc1be28bb37"},
      {"rmat/exact_hub_moves/p4",
       "r:4020d62c6ae2512e,401f7c326009e58e,401d8c0c39ee1ff8,401ce9419009e90"
       "e,401cc327b9de5926,401cbdc9e0ca512b,401cb94742060b60,401cbb89c84b2dc"
       "5, l:401cbb89c84b2dc5,401cb536f3389068,401cb14658ecc4cf,401cb0c0e98e"
       "7cc3,401cb031ff818964,401cac28925da6f3,401c9a79d475b283,401c9a79d475"
       "b283, L:401c9a79d475b283 P:e96745ffd5234274"},
      {"rmat/exact_hub_moves/p8",
       "r:4020f7fc1b471a46,401ed3a5586ee522,401d253e6b0a1d1a,401cd6bce517801"
       "2,401cc4729407bfb2,401cbe415592bb9b,401cb9b4ec4a889a,401cb9b4ec4a889"
       "a, l:401cb9b4ec4a889a,401cb3556289393a,401cb06662cecf7e,401cb0ec621e"
       "20ee, L:401cb0ec621e20ee P:e595e7c4c8ff550b"},
      {"rmat/no_whole_module_swap/p1",
       "r:4020b1a830649320,401ec94d85155b19,401d1eb5f120fcb9,401ccc340c68109"
       "8,401cc9726305604d,401cc9726305604d, l:401cc9726305604d,401c99de14bf"
       "a37d,401c99de14bfa37d, L:401c99de14bfa37d P:4f3c87368453a7bb"},
      {"rmat/no_whole_module_swap/p2",
       "r:4020dfac13f519af,402195921576802e, l:402195921576802e,401db30245a6"
       "c553,401c9c08ffdf184a,401c9c08ffdf184a, L:401c9c08ffdf184a P:71ab344"
       "150888cf8"},
      {"rmat/no_whole_module_swap/p4",
       "r:40218167d760e26c,4021ab16c45deef8, l:4021ab16c45deef8,401ddbea50d1"
       "62e2,401ca06b6af88cd0,401ca06b6af88cd0, L:401ca06b6af88cd0 P:e18d947"
       "50eb97b0c"},
      {"rmat/no_whole_module_swap/p8",
       "r:402163a2017c5581,4021a3aa629a6d0a, l:4021a3aa629a6d0a,401eae02f930"
       "58a1,401eae02f93058a1, L:401eae02f93058a1 P:2341078edc32528a"},
      {"rmat/sync/p1",
       "r:4020b1a830649320,401e681288a6b990,401d0ffa2cfa551d,401cd40a9a4f686"
       "6,401cb6c41a3ef4bf,401ca4aaa8f16a63,401ca2a0814900b8,401ca2a0814900b"
       "8, l:401ca2a0814900b8,401c97b83995040a,401c97b83995040a, L:401c97b83"
       "995040a P:d5cf13d164466f42"},
      {"rmat/sync/p2",
       "r:4020f0c8637e2640,40210ba1cd766259, l:40210ba1cd766259,401c9d918b51"
       "ecc6,401c9d672090992f,401c9d672090992f, L:401c9d672090992f P:dd823ec"
       "4211ed072"},
      {"rmat/sync/p4",
       "r:40217c99a14f9962,40219a56abe9522a, l:40219a56abe9522a,401cb395110e"
       "418f,401cb4cb5abf1f37, L:401cb4cb5abf1f37 P:2b68bebab2a999a6"},
      {"rmat/sync/p8",
       "r:4021775e3cefb065,402169b7e473183a,4021559552aaa5c8,4021385f897009f"
       "4,4021369dda48798c,4020efb15a08d92a,4021330a598cff68, l:4021330a598c"
       "ff68,401ca670ac17dfd0,401ca786fc80f275, L:401ca786fc80f275 P:003f46b"
       "711701ef6"},
  };
  return g;
}

std::string key_of(Graph graph, Variant v, int p) {
  return std::string(graph_name(graph)) + "/" + variant_name(v) + "/p" +
         std::to_string(p);
}

void check_case(Graph graph, Variant v, int p,
                const dc::DistInfomapConfig& cfg, const char* what) {
  const std::string key = key_of(graph, v, p);
  const std::string got = fingerprint(dc::distributed_infomap(graph_of(graph), cfg));
  const auto it = golden().find(key);
  ASSERT_NE(it, golden().end()) << "no golden value; captured:\n    {\"" << key
                                << "\",\n     \"" << got << "\"},";
  EXPECT_EQ(got, it->second) << key << " (" << what << ")";
}

// gtest prints a Param's raw bytes into each ctest name, so Param holds no
// pointer and no padding: the names are the same in every build.
struct Param {
  Graph graph;
  Variant variant;
};

class SwapIncremental : public ::testing::TestWithParam<Param> {};

// The name predates the single-threaded distributed engine (DESIGN.md §10);
// it is kept so the test ids stay stable.
TEST_P(SwapIncremental, GoldenAcrossRanksAndThreads) {
  const Param prm = GetParam();
  for (int p : {1, 2, 4, 8})
    check_case(prm.graph, prm.variant, p, config_for(prm.variant, p), "fault-free");
}

TEST_P(SwapIncremental, GoldenUnderTransportFaults) {
  // Comm-fault recovery is transparent: the same golden strings at p=4 with
  // drops, duplicates and reorders on every channel.
  const Param prm = GetParam();
  auto cfg = config_for(prm.variant, 4);
  cfg.faults.drop = 0.03;
  cfg.faults.duplicate = 0.03;
  cfg.faults.reorder = 0.03;
  cfg.faults.seed = 11;
  check_case(prm.graph, prm.variant, 4, cfg, "fault plan");
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::string(graph_name(info.param.graph)) + "_" +
         variant_name(info.param.variant);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SwapIncremental,
    ::testing::Values(Param{Graph::kRmat, Variant::kSync},
                      Param{Graph::kRmat, Variant::kAsync},
                      Param{Graph::kRmat, Variant::kExactHubMoves},
                      Param{Graph::kRmat, Variant::kNoWholeModule},
                      Param{Graph::kLfr, Variant::kSync},
                      Param{Graph::kLfr, Variant::kAsync},
                      Param{Graph::kLfr, Variant::kExactHubMoves},
                      Param{Graph::kLfr, Variant::kNoWholeModule}),
    param_name);

}  // namespace
