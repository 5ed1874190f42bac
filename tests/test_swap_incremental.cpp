// Golden bit-identity of the distributed engines across the SwapBoundaryInfo
// exchange and the rank-0 stage-2 finish. The expected strings pin the exact
// bit pattern of every stage-1 round codelength, every level's closing
// codelength (stage 1, the finish's levels, the refinement), the final
// codelength, and a hash of the final partition, for an R-MAT and an LFR-lite
// graph at p ∈ {1,2,4,8} under each engine variant. Every transport fault plan
// must reproduce the same strings: the module-statistics exchange is exact, so
// how it is scheduled or shipped can never show up in a result bit.
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

/// Keyed "graph/variant/p". The round rows and each level-0 closing row were
/// captured before the incremental exchange landed; the stage-2 rows, the
/// final codelength and the partition hash were re-recorded when stage 2
/// moved onto rank 0 and gained the level-0 refinement (DESIGN.md §17).
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> g = {
      {"lfr/async/p1",
       "r:4020b22c3b8f13bf,401fa77ba3f09c42,401f4240c976b286,401f08979fc2e39e"
       ",401f027365cd6646,401f0225fa65538e,401f01fa346a70b1,401f01fa346a70b1,"
       " l:401f01fa346a70b1,401bdf721912d8b0,401bd60af1db959e,401bd60af1db959"
       "e,401bb33101c031a4, L:401bb33101c031a4 P:c51d3c96c28ba58b"},
      {"lfr/async/p2",
       "r:4021dac1c2cdee84,402001f97b1cf557,401f5b8b9d18d8b3,401e1fec00485f77"
       ",401e25faf68838de,401e1fec00485f77, l:401e1fec00485f77,401be6fece137b"
       "af,401be61dbf13854e,401be61dbf13854e,401bb45fd7a7a6fc, L:401bb45fd7a7"
       "a6fc P:fc2493f8cb7105ee"},
      {"lfr/async/p4",
       "r:40227a6055fdbb94,40211c6622eccb84,4020dbf99b543a3f,40200bd828f7c945"
       ",4020765d9051e229,40200bd828f7c945, l:40200bd828f7c945,401ce5632bd71a"
       "41,401ce3ab62438bd1,401ce3ab62438bd1,401bdbacfef2a31d, L:401bdbacfef2"
       "a31d P:fa472461fcee0109"},
      {"lfr/async/p8",
       "r:4020a5f31f4d457e,401dd054ceaa179f,401e19c00d20415f,401dd054ceaa179f"
       ", l:401dd054ceaa179f,401bebd3e55fa02a,401be45b62423796,401be45b624237"
       "98,401bbe0b53dd4900, L:401bbe0b53dd4900 P:7bf1dec27057b884"},
      {"lfr/exact_hub_moves/p1",
       "r:4021bf1ceeb54f99,4020aa10642116fd,40201a95dc3ec5a5,401f74a3a7f5b294"
       ",401eeb64ba1927ed,401ec998a486c2c3,401eabeb87317208,401ea7e9290cfeb2,"
       "401ea31bef6e925f,401ea31bef6e925f, l:401ea31bef6e925f,401bc5e6af0e3ba"
       "5,401bb41f4a4d5848,401bb41f4a4d5848,401ba85bbf94e65e, L:401ba85bbf94e"
       "65e P:91175e8628bda054"},
      {"lfr/exact_hub_moves/p2",
       "r:4022b39eec4e1938,40211ae1d8e5e615,4020711242cfd040,402005d12c574878"
       ",401fa59aa48df4a1,401ecce024c62db2,401e716d43de6f26,401e3812fe86f7c2,"
       "401e1290d55cd62c,401e0669464ca6a2,401e037978d90220,401df6a8909d9918,4"
       "01dee7d50611008,401dec8605f2f788,401def6c1075d5bc, l:401def6c1075d5bc"
       ",401be532b3ffcbd1,401bc4eb993082b8,401bc4eb993082b8,401ba89378f87017,"
       " L:401ba89378f87017 P:006bc19363d54faf"},
      {"lfr/exact_hub_moves/p4",
       "r:4023383c4df1fbd0,4021e2187ab47837,4020b56f920961bf,401fc5735df518db"
       ",401e982cce242d0a,401e3537e496b736,401dfec1ba77d9d1,401dd55edb0bd394,"
       "401dbbc6456d84a0,401da67a40362921,401db0b435ba6a37, l:401db0b435ba6a3"
       "7,401beab21f0911f0,401bb9e804a02373,401bb9e804a02372,401bafe5b55f65f0"
       ", L:401bafe5b55f65f0 P:78070fa7fbc789e4"},
      {"lfr/exact_hub_moves/p8",
       "r:402423443a5b013c,402264cef670f31f,4020e270f6964cd0,401ffd744f41874e"
       ",401ed973ee3db3be,401e0609b76a9482,401dc4a3ad24558f,401d773642debaf0,"
       "401d425aa75ec122,401d08340996e1d4,401cf44cb07d253c,401ce360c54b127f,4"
       "01ce48704840824, l:401ce48704840824,401bd004aaa4f2ca,401ba7323977fbf2"
       ",401ba7323977fbf2,401ba357378868b2, L:401ba357378868b2 P:20fb4043771e"
       "9e0a"},
      {"lfr/no_whole_module_swap/p1",
       "r:402230de1aa7a78b,4021055d27020214,40207adc06c57eab,40201c24da137f6a"
       ",401f7b294797dd44,401f6cff15045840,401f6ceb373ee206,401f6cff15045840,"
       " l:401f6cff15045840,401c79347925290a,401be37b6aa864ca,401be37b6aa864c"
       "8,401be08532706e36, L:401be08532706e36 P:e43d2c17a5fffe9d"},
      {"lfr/no_whole_module_swap/p2",
       "r:40235649cd48d0c1,4022a00704d6ce6c,402244762c89f798,4022239289cad7ab"
       ",4021b0c1b402c7e0,40219aca5f6dd9ae,40214247e1452984,40213cbfe68a967c,"
       "40213084bd142f48,40210f42434b1ec6,4020f51dd6adc404,4020e2165a1b43e9,4"
       "020ddf9b39abe0e,4020d7daae49b152,4020da21e62e0e14, l:4020da21e62e0e14"
       ",401ce388ecf0f5c2,401cb679dd2b1790,401cb679dd2b178e,401c607a4275b54e,"
       " L:401c607a4275b54e P:b233d43e98503903"},
      {"lfr/no_whole_module_swap/p4",
       "r:4023cac389d70385,40234ebd39ca1696,4022e757505c353f,4022b03d03f5214d"
       ",40223805e2999958,402221046b692483,4021c9aa7742d7e4,4021ac85f5d4e594,"
       "40219994c19706fb,4021835460bb3aab,40217f4f3f55d294,40216b25ba23bdb8,4"
       "02164026500c603,4021619088df7553,402158296d4de5af,40213c69e81f135e,40"
       "2154651a6d2ffb, l:402154651a6d2ffb,401d58cb75bc0feb,401d3c1b68d64dfd,"
       "401d3c1b68d64dfe,401c171f88fee498, L:401c171f88fee498 P:85bfcdb722126"
       "1f1"},
      {"lfr/no_whole_module_swap/p8",
       "r:4023a40b08399618,40225d4355d78ec0,402186253402907c,40210d379f071fc8"
       ",4020b49ef6938716,40205f37e42a316e,40202dc88b09da2e,4020045fab542730,"
       "401ffb2338ac1eb4,401ff30d39f50ddc,401f966f71e7c980,401fe79dd918e708, "
       "l:401fe79dd918e708,401dd0958c0b20a7,401dcf914bbebf98,401dcf914bbebf98"
       ",401d998a830db7f6, L:401d998a830db7f6 P:b1418e26d7951dc9"},
      {"lfr/sync/p1",
       "r:402230de1aa7a78b,4020bf6b51038bc5,401f4a0347f405ef,401e65a8e4e98a10"
       ",401e081e00cd8272,401dce542b8e8b08,401dc6043d175866,401dc6043d175866,"
       " l:401dc6043d175866,401bd769fcdd5f54,401bb826a6a0d772,401bb826a6a0d77"
       "2,401ba7b7d11ae0fc, L:401ba7b7d11ae0fc P:bc471d86c0ae3e76"},
      {"lfr/sync/p2",
       "r:402410f4e03845a6,40230ddcbac6c954,402233d019323c02,402130be18a772cc"
       ",4020c49433ce8976,401fd1c0718d6254,401ff0285d1270ec, l:401ff0285d1270"
       "ec,401caa72b707b07a,401c6a38d2c3e289,401c6a38d2c3e28c,401bc2da4828900"
       "b, L:401bc2da4828900b P:e77b23ccacee793c"},
      {"lfr/sync/p4",
       "r:40248129ca330e8a,402400771c10bf09,40237bb6b6a86637,4022d0ec6d28c6ff"
       ",40225d31c67edb85,4021a648a2ecfe69,4021442b3f2b60ac,402115b16a58bea7,"
       "4020cb77f71fe95d,40207bf01751ae83,40209a6ff2cefb8b, l:40209a6ff2cefb8"
       "b,401d1bed22642c30,401cefa8233dd683,401cefa8233dd683,401bd81012d64858"
       ", L:401bd81012d64858 P:23d2be36aaa7f20e"},
      {"lfr/sync/p8",
       "r:40248bb22eed6927,40230f4bb67e4ac6,4021ea5209b42d0c,4020dcb51e721797"
       ",40207480a8e5c65a,401fea4d22882acb,401f69276aacaec0,401eb81fd9e85058,"
       "401e31d329af1b55,401e0d797aaf0003,401dbfd3802c71e1,401dce4296fed7d0, "
       "l:401dce4296fed7d0,401c189776b5c9e4,401bf2f3d2ee4b89,401bf2f3d2ee4b87"
       ",401bae1edee541c6, L:401bae1edee541c6 P:c3fa9656f1c3ff45"},
      {"rmat/async/p1",
       "r:40207f502fb99b33,401f3dc46820c420,401d77e980a66183,401caded91556da6"
       ",401ca51dc86af4f6,401ca51dc86af4f6, l:401ca51dc86af4f6,401c97b8399504"
       "0a,401c97b83995040a,401c97b83995040b, L:401c97b83995040b P:c7d3e264a1"
       "2e0dd1"},
      {"rmat/async/p2",
       "r:40214e7e3171264c,40208ed9b664a75f,40209aebf7937019,40208ed9b664a75f"
       ", l:40208ed9b664a75f,401c992ecb41ef4d,401c992ecb41ef4f,401c992ecb41ef"
       "50, L:401c992ecb41ef50 P:4ea756496dcd9a59"},
      {"rmat/async/p4",
       "r:4021a1a4723a189c,40211817b347ee8c,40210fe68c068ffd,40212e9ef07bff9f"
       ",40210fe68c068ffd, l:40210fe68c068ffd,401c9aadbeb3d6d6,401c99de14bfa3"
       "75,401c99de14bfa375,401c99de14bfa376, L:401c99de14bfa376 P:4e8c6c79d2"
       "d85005"},
      {"rmat/async/p8",
       "r:402160775a490e6a,4020e9afd3d5a7e7,4020a4695faf4c06,4020c369d4ec0dcb"
       ",4020a4695faf4c06, l:4020a4695faf4c06,401c9adc6ac512f5,401c99de14bfa3"
       "75,401c99de14bfa375,401c99de14bfa375, L:401c99de14bfa375 P:cbf8acc038"
       "028a78"},
      {"rmat/exact_hub_moves/p1",
       "r:40208b1b8d54f704,401eb8fd834d8794,401d59f9986e80e8,401ccf5287537d21"
       ",401caa51e844f30c,401ca2a0814900b8,401ca2a0814900b8, l:401ca2a0814900"
       "b8,401c97b83995040a,401c97b83995040a,401c97b83995040b, L:401c97b83995"
       "040b P:d5cf13d164466f42"},
      {"rmat/exact_hub_moves/p2",
       "r:4020b9b0a5024874,401f95227400f1f0,401db30b75ea11c4,401cebf409775272"
       ",401cb1e5655bdd1e,401caf27dbce4999,401cad05ff71189a,401caf27dbce4999,"
       " l:401caf27dbce4999,401c9c299e5fd73d,401c982dacc47b10,401c982dacc47b1"
       "0,401c982dacc47b11, L:401c982dacc47b11 P:cb2cd88c55d2bf61"},
      {"rmat/exact_hub_moves/p4",
       "r:4020d62c6ae2512e,401f7c326009e58e,401d8c0c39ee1ff8,401ce9419009e90e"
       ",401cc327b9de5926,401cbdc9e0ca512b,401cb94742060b60,401cbb89c84b2dc5,"
       " l:401cbb89c84b2dc5,401ca23a6f3c5dad,401c992ecb41ef4a,401c992ecb41ef4"
       "a,401c992ecb41ef4b, L:401c992ecb41ef4b P:b23b0f725d0b963a"},
      {"rmat/exact_hub_moves/p8",
       "r:4020f7fc1b471a46,401ed3a5586ee522,401d253e6b0a1d1a,401cd6bce5178012"
       ",401cc4729407bfb2,401cbe415592bb9b,401cb9b4ec4a889a,401cb9b4ec4a889a,"
       " l:401cb9b4ec4a889a,401c9ee639e03827,401c982dacc47b0b,401c982dacc47b0"
       "b,401c982dacc47b0b, L:401c982dacc47b0b P:cb2cd88c55d2bf61"},
      {"rmat/no_whole_module_swap/p1",
       "r:4020b1a830649320,401ec94d85155b19,401d1eb5f120fcb9,401ccc340c681098"
       ",401cc9726305604d,401cc9726305604d, l:401cc9726305604d,401c99de14bfa3"
       "7e,401c99de14bfa37d,401c99de14bfa37d, L:401c99de14bfa37d P:4f3c873684"
       "53a7bb"},
      {"rmat/no_whole_module_swap/p2",
       "r:4020dfac13f519af,402195921576802e, l:402195921576802e,401c9c08ffdf1"
       "859,401c9c08ffdf184a,401c9c08ffdf184b, L:401c9c08ffdf184b P:a9f9871f9"
       "c35a9aa"},
      {"rmat/no_whole_module_swap/p4",
       "r:40218167d760e26c,4021ab16c45deef8, l:4021ab16c45deef8,401c9ebad9723"
       "5bb,401c9ebad97235b5,401c9ebad97235b5, L:401c9ebad97235b5 P:3909e7136"
       "98077bf"},
      {"rmat/no_whole_module_swap/p8",
       "r:402163a2017c5581,4021a3aa629a6d0a, l:4021a3aa629a6d0a,401c9ebad9723"
       "5b6,401c9ebad97235b4,401c9ebad97235b5, L:401c9ebad97235b5 P:3909e7136"
       "98077bf"},
      {"rmat/sync/p1",
       "r:4020b1a830649320,401e681288a6b990,401d0ffa2cfa551d,401cd40a9a4f6866"
       ",401cb6c41a3ef4bf,401ca4aaa8f16a63,401ca2a0814900b8,401ca2a0814900b8,"
       " l:401ca2a0814900b8,401c97b83995040a,401c97b83995040a,401c97b83995040"
       "b, L:401c97b83995040b P:d5cf13d164466f42"},
      {"rmat/sync/p2",
       "r:4020f0c8637e2640,40210ba1cd766259, l:40210ba1cd766259,401c9ae2e419f"
       "6bc,401c98d35b45fad5,401c98d35b45fad6,401c982dacc47b11, L:401c982dacc"
       "47b11 P:cb2cd88c55d2bf61"},
      {"rmat/sync/p4",
       "r:40217c99a14f9962,40219a56abe9522a, l:40219a56abe9522a,401ca07d6b3df"
       "30f,401c992ecb41ef4a,401c992ecb41ef4a,401c992ecb41ef4b, L:401c992ecb4"
       "1ef4b P:b23b0f725d0b963a"},
      {"rmat/sync/p8",
       "r:4021775e3cefb065,402169b7e473183a,4021559552aaa5c8,4021385f897009f4"
       ",4021369dda48798c,4020efb15a08d92a,4021330a598cff68, l:4021330a598cff"
       "68,401c9c396831b61c,401c9a7ae55c7c8b,401c9a7ae55c7c8b,401c99a5cfad11d"
       "f, L:401c99a5cfad11df P:283f3378db41d6a6"},
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
