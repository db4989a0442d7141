// Absolute pins on the ground truth and the Predictor. Every system
// make_system builds serves three seeded requests of each workflow, on
// each runtime; a row holds the FNV-1a-64 of the digest of those runs
// (e2e and stage latencies, every function's invoke, start and finish
// times and spans, all at "%.17g") and of resources().
// A second table pins Predictor::workflow_latency on six fixed plan
// shapes under every isolation mode at caps {0, 1, 2, 4}. Both backends
// draw their noise from one Rng stream per request, so any moved draw, and
// any change to the cost model either side reads, changes a row.
//
// On a mismatch the test prints the row as it now reads; a change that
// means to move a row replaces exactly that row.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

struct BackendGolden {
  const char* workflow;
  const char* runtime;
  const char* system;
  std::uint64_t digest_fnv;  ///< FNV-1a-64 of backend_digest(...)
  const char* first_e2e;     ///< first request's e2e_latency_ms, "%.17g"
};

struct PredictorGolden {
  const char* shape;
  const char* runtime;
  IsolationMode mode;
  const char* latency[4];  ///< workflow_latency at caps 0, 1, 2, 4
};

constexpr IsolationMode kNative = IsolationMode::kNative;
constexpr IsolationMode kMpk = IsolationMode::kMpk;
constexpr IsolationMode kSfi = IsolationMode::kSfi;
constexpr IsolationMode kPool = IsolationMode::kPool;

// clang-format off
const BackendGolden kBackendGolden[] = {
    {"SocialNetwork", "python3", "ASF", 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "python3", "OpenFaaS", 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "python3", "SAND", 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "python3", "Faastlane", 0xbabfaf406c17f7b9, "34.330760694008966"},
    {"SocialNetwork", "python3", "Faastlane-T", 0xced818c938f5f6b4, "16.251496118041562"},
    {"SocialNetwork", "python3", "Faastlane+", 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "python3", "Faastlane-M", 0xe79c419ce721662b, "34.639044304062324"},
    {"SocialNetwork", "python3", "Faastlane-P", 0xfc6b0462760caa3b, "15.105823167327166"},
    {"SocialNetwork", "python3", "Faastlane-S", 0xb2906ce64d9840f1, "34.956776080356441"},
    {"SocialNetwork", "python3", "Chiron", 0xced818c938f5f6b4, "16.251496118041562"},
    {"SocialNetwork", "python3", "Chiron-M", 0x900b718037b0e20f, "18.677297290817645"},
    {"SocialNetwork", "python3", "Chiron-P", 0xc4dc58e02bb00f60, "15.403958064623387"},
    {"SocialNetwork", "python3", "Chiron-S", 0xe64d4979d47266d9, "30.936124386493553"},
    {"SocialNetwork", "java", "ASF", 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "java", "OpenFaaS", 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "java", "SAND", 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane", 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-T", 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane+", 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-M", 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-P", 0x1b5bd7f559f368e6, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-S", 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron", 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron-M", 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron-P", 0xf4511f72e13d0843, "13.306410650502619"},
    {"SocialNetwork", "java", "Chiron-S", 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "nodejs", "ASF", 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "nodejs", "OpenFaaS", 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "nodejs", "SAND", 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "nodejs", "Faastlane", 0xbabfaf406c17f7b9, "34.330760694008966"},
    {"SocialNetwork", "nodejs", "Faastlane-T", 0x4702e4e8fa66601c, "318.57240215298845"},
    {"SocialNetwork", "nodejs", "Faastlane+", 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "nodejs", "Faastlane-M", 0xe79c419ce721662b, "34.639044304062324"},
    {"SocialNetwork", "nodejs", "Faastlane-P", 0xfc6b0462760caa3b, "15.105823167327166"},
    {"SocialNetwork", "nodejs", "Faastlane-S", 0xb2906ce64d9840f1, "34.956776080356441"},
    {"SocialNetwork", "nodejs", "Chiron", 0xde72b82b91dc2abd, "30.300085074916673"},
    {"SocialNetwork", "nodejs", "Chiron-M", 0x1b46b341b7bb20ae, "30.615038669243656"},
    {"SocialNetwork", "nodejs", "Chiron-P", 0xc4dc58e02bb00f60, "15.403958064623387"},
    {"SocialNetwork", "nodejs", "Chiron-S", 0xe64d4979d47266d9, "30.936124386493553"},
    {"MovieReviewing", "python3", "ASF", 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "python3", "OpenFaaS", 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "python3", "SAND", 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "python3", "Faastlane", 0x86239d0597a00205, "30.574582952799442"},
    {"MovieReviewing", "python3", "Faastlane-T", 0x81c1a6e9bec17375, "13.129289030461159"},
    {"MovieReviewing", "python3", "Faastlane+", 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "python3", "Faastlane-M", 0xccd10d2f1f798c1f, "30.996787461925194"},
    {"MovieReviewing", "python3", "Faastlane-P", 0x7d08ea29bb50a02c, "11.554261839397107"},
    {"MovieReviewing", "python3", "Faastlane-S", 0x43704de024b75ead, "31.336430681987011"},
    {"MovieReviewing", "python3", "Chiron", 0x81c1a6e9bec17375, "13.129289030461159"},
    {"MovieReviewing", "python3", "Chiron-M", 0x7486592281113408, "15.336194311065354"},
    {"MovieReviewing", "python3", "Chiron-P", 0x579160a0afe0aeeb, "11.871133413612307"},
    {"MovieReviewing", "python3", "Chiron-S", 0x4a7eda2e90755bdc, "28.026462783969663"},
    {"MovieReviewing", "java", "ASF", 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "java", "OpenFaaS", 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "java", "SAND", 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane", 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-T", 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane+", 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-M", 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-P", 0xa1115fe9dc7b1b56, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-S", 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron", 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron-M", 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron-P", 0x8238e6d52e074c59, "10.167764965262585"},
    {"MovieReviewing", "java", "Chiron-S", 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "nodejs", "ASF", 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "nodejs", "OpenFaaS", 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "nodejs", "SAND", 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "nodejs", "Faastlane", 0x86239d0597a00205, "30.574582952799442"},
    {"MovieReviewing", "nodejs", "Faastlane-T", 0x1ecb479398c6f328, "259.70727527723"},
    {"MovieReviewing", "nodejs", "Faastlane+", 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "nodejs", "Faastlane-M", 0xccd10d2f1f798c1f, "30.996787461925194"},
    {"MovieReviewing", "nodejs", "Faastlane-P", 0x7d08ea29bb50a02c, "11.554261839397107"},
    {"MovieReviewing", "nodejs", "Faastlane-S", 0x43704de024b75ead, "31.336430681987011"},
    {"MovieReviewing", "nodejs", "Chiron", 0x411bf5750c7fb2ed, "27.24585614845876"},
    {"MovieReviewing", "nodejs", "Chiron-M", 0xee5e6bee4d6b908c, "27.680542954419696"},
    {"MovieReviewing", "nodejs", "Chiron-P", 0x579160a0afe0aeeb, "11.871133413612307"},
    {"MovieReviewing", "nodejs", "Chiron-S", 0x4a7eda2e90755bdc, "28.026462783969663"},
    {"SLApp", "python3", "ASF", 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "python3", "OpenFaaS", 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "python3", "SAND", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane-T", 0x9d485907fcce1f86, "119.8976970103336"},
    {"SLApp", "python3", "Faastlane+", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane-M", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane-P", 0x18c7ab95498fa382, "52.495960642130676"},
    {"SLApp", "python3", "Faastlane-S", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Chiron", 0xb14cabf6a42818b6, "76.014550735566871"},
    {"SLApp", "python3", "Chiron-M", 0x7b1b0fb14f1452e2, "69.703968595889862"},
    {"SLApp", "python3", "Chiron-P", 0x4000238beaec7632, "55.66612147468507"},
    {"SLApp", "python3", "Chiron-S", 0x143abde21c135d15, "69.109125288015576"},
    {"SLApp", "java", "ASF", 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "java", "OpenFaaS", 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "java", "SAND", 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane", 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-T", 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Faastlane+", 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-M", 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-P", 0x7b190fbde9071b0d, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-S", 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Chiron", 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Chiron-M", 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Chiron-P", 0xb0d58bb4f5d3158b, "54.006541706189971"},
    {"SLApp", "java", "Chiron-S", 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "nodejs", "ASF", 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "nodejs", "OpenFaaS", 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "nodejs", "SAND", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane-T", 0x0a542b419fc48159, "295.62320391869264"},
    {"SLApp", "nodejs", "Faastlane+", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane-M", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane-P", 0x18c7ab95498fa382, "52.495960642130676"},
    {"SLApp", "nodejs", "Faastlane-S", 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Chiron", 0xc82d97dda6adbbd9, "68.863891404917979"},
    {"SLApp", "nodejs", "Chiron-M", 0x2d5ced4f562babaa, "68.875047235144692"},
    {"SLApp", "nodejs", "Chiron-P", 0x4000238beaec7632, "55.66612147468507"},
    {"SLApp", "nodejs", "Chiron-S", 0x143abde21c135d15, "69.109125288015576"},
    {"SLApp-V", "python3", "ASF", 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "python3", "OpenFaaS", 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "python3", "SAND", 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "python3", "Faastlane", 0xe2fede7cab4e4ed9, "101.89566533328295"},
    {"SLApp-V", "python3", "Faastlane-T", 0xeee36532edac0b0f, "141.59476430457883"},
    {"SLApp-V", "python3", "Faastlane+", 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "python3", "Faastlane-M", 0x78edc38f5586cd0b, "103.5023705527566"},
    {"SLApp-V", "python3", "Faastlane-P", 0x2b2106425a7220e4, "83.037710971827124"},
    {"SLApp-V", "python3", "Faastlane-S", 0x9d7435b506ee3d53, "105.55714448490254"},
    {"SLApp-V", "python3", "Chiron", 0x309627cfe6576fdf, "97.021355441693814"},
    {"SLApp-V", "python3", "Chiron-M", 0xd22c0e837958652f, "98.833796559716646"},
    {"SLApp-V", "python3", "Chiron-P", 0x61ce36b3b4f70963, "85.102220805896664"},
    {"SLApp-V", "python3", "Chiron-S", 0x48cf64f6fcab47cf, "98.679834406294191"},
    {"SLApp-V", "java", "ASF", 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "java", "OpenFaaS", 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "java", "SAND", 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane", 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-T", 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane+", 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-M", 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-P", 0x41d7b2aff8240e41, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-S", 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron", 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron-M", 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron-P", 0x48ea24a33dc2aef1, "82.797941620179927"},
    {"SLApp-V", "java", "Chiron-S", 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "nodejs", "ASF", 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "nodejs", "OpenFaaS", 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "nodejs", "SAND", 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "nodejs", "Faastlane", 0xe2fede7cab4e4ed9, "101.89566533328295"},
    {"SLApp-V", "nodejs", "Faastlane-T", 0xbb7b3f6f307cbb02, "336.8658914685663"},
    {"SLApp-V", "nodejs", "Faastlane+", 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "nodejs", "Faastlane-M", 0x78edc38f5586cd0b, "103.5023705527566"},
    {"SLApp-V", "nodejs", "Faastlane-P", 0x2b2106425a7220e4, "83.037710971827124"},
    {"SLApp-V", "nodejs", "Faastlane-S", 0x9d7435b506ee3d53, "105.55714448490254"},
    {"SLApp-V", "nodejs", "Chiron", 0x1408933171ee0869, "96.434065993639464"},
    {"SLApp-V", "nodejs", "Chiron-M", 0x64ec23e92aa242b4, "98.076575531442813"},
    {"SLApp-V", "nodejs", "Chiron-P", 0x61ce36b3b4f70963, "85.102220805896664"},
    {"SLApp-V", "nodejs", "Chiron-S", 0x48cf64f6fcab47cf, "98.679834406294191"},
    {"FINRA-5", "python3", "ASF", 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "python3", "OpenFaaS", 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "python3", "SAND", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane-T", 0xe028cc0541dc6961, "77.727108473678626"},
    {"FINRA-5", "python3", "Faastlane+", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane-M", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane-P", 0xc5d699f38dbda910, "66.323068147342369"},
    {"FINRA-5", "python3", "Faastlane-S", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Chiron", 0xe028cc0541dc6961, "77.727108473678626"},
    {"FINRA-5", "python3", "Chiron-M", 0x650762e90377132d, "83.208915097875789"},
    {"FINRA-5", "python3", "Chiron-P", 0x45c591711cbbb988, "70.261419991910898"},
    {"FINRA-5", "python3", "Chiron-S", 0xd13999fe2fe9ae4e, "88.792774347522453"},
    {"FINRA-5", "java", "ASF", 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "java", "OpenFaaS", 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "java", "SAND", 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane", 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-T", 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane+", 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-M", 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-P", 0x02e26be35e05a5cf, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-S", 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron", 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron-M", 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron-P", 0xc6a78bc7884cc4ce, "68.028233127039414"},
    {"FINRA-5", "java", "Chiron-S", 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "nodejs", "ASF", 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "nodejs", "OpenFaaS", 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "nodejs", "SAND", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane-T", 0x113f2d158f967fed, "312.16342946259869"},
    {"FINRA-5", "nodejs", "Faastlane+", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane-M", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane-P", 0xc5d699f38dbda910, "66.323068147342369"},
    {"FINRA-5", "nodejs", "Faastlane-S", 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Chiron", 0x0031422cc04e061c, "88.792774347522453"},
    {"FINRA-5", "nodejs", "Chiron-M", 0xb7e2e0828d908d10, "88.792774347522453"},
    {"FINRA-5", "nodejs", "Chiron-P", 0x45c591711cbbb988, "70.261419991910898"},
    {"FINRA-5", "nodejs", "Chiron-S", 0xd13999fe2fe9ae4e, "88.792774347522453"},
    {"FINRA-50", "python3", "ASF", 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "python3", "OpenFaaS", 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "python3", "SAND", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane-T", 0x93d7cc908ac66e24, "562.32321393185066"},
    {"FINRA-50", "python3", "Faastlane+", 0xf09320ead8a4dce6, "123.15432897163316"},
    {"FINRA-50", "python3", "Faastlane-M", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane-P", 0x8ffee4461134dc5f, "92.219202230930208"},
    {"FINRA-50", "python3", "Faastlane-S", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Chiron", 0x35a87de92af1178d, "146.60443195160752"},
    {"FINRA-50", "python3", "Chiron-M", 0x53a93be08b9e790d, "136.06320152743609"},
    {"FINRA-50", "python3", "Chiron-P", 0x40a1ac92f5e2ba58, "99.374675686451496"},
    {"FINRA-50", "python3", "Chiron-S", 0x3368ec8de5dc00ef, "160.23724455140413"},
    {"FINRA-50", "java", "ASF", 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "java", "OpenFaaS", 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "java", "SAND", 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane", 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-T", 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane+", 0x7342a87da0e8c4cc, "101.3732813511198"},
    {"FINRA-50", "java", "Faastlane-M", 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-P", 0x5489c3bf648036c0, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-S", 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Chiron", 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "java", "Chiron-M", 0xf0c33af0ab97f5ee, "69.711581857043385"},
    {"FINRA-50", "java", "Chiron-P", 0x36f0fd094b65bdf0, "75.197673465784362"},
    {"FINRA-50", "java", "Chiron-S", 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "nodejs", "ASF", 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "nodejs", "OpenFaaS", 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "nodejs", "SAND", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane-T", 0x5665044bfe6cdb45, "2474.4448636682828"},
    {"FINRA-50", "nodejs", "Faastlane+", 0xf09320ead8a4dce6, "123.15432897163316"},
    {"FINRA-50", "nodejs", "Faastlane-M", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane-P", 0x8ffee4461134dc5f, "92.219202230930208"},
    {"FINRA-50", "nodejs", "Faastlane-S", 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Chiron", 0x3072a6831337f6da, "165.34694276853293"},
    {"FINRA-50", "nodejs", "Chiron-M", 0x7a2bfd5d75ab0f56, "166.04549077590602"},
    {"FINRA-50", "nodejs", "Chiron-P", 0x40a1ac92f5e2ba58, "99.374675686451496"},
    {"FINRA-50", "nodejs", "Chiron-S", 0x3a70e46aa9135f98, "158.43509258791551"},
};

const PredictorGolden kPredictorGolden[] = {
    {"sand FINRA-5", "python3", kNative, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "python3", kMpk, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "python3", kSfi, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "python3", kPool, {"66.092875032742583", "78.267778849342747", "70.056995018659691", "66.67616176405356"}},
    {"sand FINRA-5", "java", kNative, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"sand FINRA-5", "java", kMpk, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"sand FINRA-5", "java", kSfi, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"sand FINRA-5", "java", kPool, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"sand FINRA-5", "nodejs", kNative, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "nodejs", kMpk, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "nodejs", kSfi, {"84.399716988739328", "92.317778849342744", "85.542174456419104", "84.399716988739328"}},
    {"sand FINRA-5", "nodejs", kPool, {"66.092875032742583", "78.267778849342747", "70.056995018659691", "66.67616176405356"}},
    {"faastlane SLApp", "python3", kNative, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "python3", kMpk, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "python3", kSfi, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "python3", kPool, {"52", "88.75", "55.75", "52"}},
    {"faastlane SLApp", "java", kNative, {"49.75", "87", "53.816666666666663", "49.75"}},
    {"faastlane SLApp", "java", kMpk, {"49.75", "87", "53.816666666666663", "49.75"}},
    {"faastlane SLApp", "java", kSfi, {"49.75", "87", "53.816666666666663", "49.75"}},
    {"faastlane SLApp", "java", kPool, {"49.75", "87", "53.816666666666663", "49.75"}},
    {"faastlane SLApp", "nodejs", kNative, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "nodejs", kMpk, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "nodejs", kSfi, {"71.75", "103.75", "72.875", "71.75"}},
    {"faastlane SLApp", "nodejs", kPool, {"52", "88.75", "55.75", "52"}},
    {"faastlane-t FINRA-5", "python3", kNative, {"76.271632234111195", "76.271632234111195", "76.271632234111195", "76.271632234111195"}},
    {"faastlane-t FINRA-5", "python3", kMpk, {"81.811630780518342", "81.811630780518342", "81.811630780518342", "81.811630780518342"}},
    {"faastlane-t FINRA-5", "python3", kSfi, {"193.98305751536483", "193.98305751536483", "193.98305751536483", "193.98305751536483"}},
    {"faastlane-t FINRA-5", "python3", kPool, {"66.092875032742583", "78.267778849342747", "70.056995018659691", "66.67616176405356"}},
    {"faastlane-t FINRA-5", "java", kNative, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"faastlane-t FINRA-5", "java", kMpk, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"faastlane-t FINRA-5", "java", kSfi, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"faastlane-t FINRA-5", "java", kPool, {"64.342875032742583", "76.617778849342741", "68.30763891211717", "64.930304279927412"}},
    {"faastlane-t FINRA-5", "nodejs", kNative, {"310.48050340419883", "310.48050340419883", "310.48050340419883", "310.48050340419883"}},
    {"faastlane-t FINRA-5", "nodejs", kMpk, {"311.34730460247681", "311.34730460247681", "311.34730460247681", "311.34730460247681"}},
    {"faastlane-t FINRA-5", "nodejs", kSfi, {"352.48305751536481", "352.48305751536481", "352.48305751536481", "352.48305751536481"}},
    {"faastlane-t FINRA-5", "nodejs", kPool, {"66.092875032742583", "78.267778849342747", "70.056995018659691", "66.67616176405356"}},
    {"faastlane+ FINRA-50", "python3", kNative, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "python3", kMpk, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "python3", kSfi, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "python3", kPool, {"103.35443452373391", "116.09804780593068", "115.09804780593068", "115.09804780593068"}},
    {"faastlane+ FINRA-50", "java", kNative, {"101.20443452373391", "114.44804780593068", "113.34804780593068", "113.34804780593068"}},
    {"faastlane+ FINRA-50", "java", kMpk, {"101.20443452373391", "114.44804780593068", "113.34804780593068", "113.34804780593068"}},
    {"faastlane+ FINRA-50", "java", kSfi, {"101.20443452373391", "114.44804780593068", "113.34804780593068", "113.34804780593068"}},
    {"faastlane+ FINRA-50", "java", kPool, {"101.20443452373391", "114.44804780593068", "113.34804780593068", "113.34804780593068"}},
    {"faastlane+ FINRA-50", "nodejs", kNative, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "nodejs", kMpk, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "nodejs", kSfi, {"122.1544345237339", "130.14804780593067", "130.09804780593066", "130.09804780593066"}},
    {"faastlane+ FINRA-50", "nodejs", kPool, {"103.35443452373391", "116.09804780593068", "115.09804780593068", "115.09804780593068"}},
    {"pool SLApp-V", "python3", kNative, {"142.76866666666669", "142.76866666666669", "142.76866666666669", "142.76866666666669"}},
    {"pool SLApp-V", "python3", kMpk, {"172.84170872150071", "172.84170872150071", "172.84170872150071", "172.84170872150071"}},
    {"pool SLApp-V", "python3", kSfi, {"254.7978293441077", "254.7978293441077", "254.7978293441077", "254.7978293441077"}},
    {"pool SLApp-V", "python3", kPool, {"82.25", "140", "98.25", "82.5625"}},
    {"pool SLApp-V", "java", kNative, {"80.299999999999997", "138.15000000000001", "96.300000000000011", "80.637499999999989"}},
    {"pool SLApp-V", "java", kMpk, {"80.299999999999997", "138.15000000000001", "96.300000000000011", "80.637499999999989"}},
    {"pool SLApp-V", "java", kSfi, {"80.299999999999997", "138.15000000000001", "96.300000000000011", "80.637499999999989"}},
    {"pool SLApp-V", "java", kPool, {"80.299999999999997", "138.15000000000001", "96.300000000000011", "80.637499999999989"}},
    {"pool SLApp-V", "nodejs", kNative, {"325.06799999999998", "325.06799999999998", "325.06799999999998", "325.06799999999998"}},
    {"pool SLApp-V", "nodejs", kMpk, {"334.84671418181813", "334.84671418181813", "334.84671418181813", "334.84671418181813"}},
    {"pool SLApp-V", "nodejs", kSfi, {"381.4585311515151", "381.4585311515151", "381.4585311515151", "381.4585311515151"}},
    {"pool SLApp-V", "nodejs", kPool, {"82.25", "140", "98.25", "82.5625"}},
    {"split MR", "python3", kNative, {"31.850000000000001", "31.850000000000001", "31.850000000000001", "31.850000000000001"}},
    {"split MR", "python3", kMpk, {"32.358541614906834", "32.358541614906834", "32.358541614906834", "32.358541614906834"}},
    {"split MR", "python3", kSfi, {"32.882910559006206", "32.882910559006206", "32.882910559006206", "32.882910559006206"}},
    {"split MR", "python3", kPool, {"24.600000000000001", "24.900000000000002", "24.900000000000002", "24.600000000000001"}},
    {"split MR", "java", kNative, {"24.150000000000002", "24.650000000000002", "24.650000000000002", "24.150000000000002"}},
    {"split MR", "java", kMpk, {"24.150000000000002", "24.650000000000002", "24.650000000000002", "24.150000000000002"}},
    {"split MR", "java", kSfi, {"24.150000000000002", "24.650000000000002", "24.650000000000002", "24.150000000000002"}},
    {"split MR", "java", kPool, {"24.150000000000002", "24.650000000000002", "24.650000000000002", "24.150000000000002"}},
    {"split MR", "nodejs", kNative, {"31.850000000000001", "31.850000000000001", "31.850000000000001", "31.850000000000001"}},
    {"split MR", "nodejs", kMpk, {"32.358541614906834", "32.358541614906834", "32.358541614906834", "32.358541614906834"}},
    {"split MR", "nodejs", kSfi, {"32.882910559006206", "32.882910559006206", "32.882910559006206", "32.882910559006206"}},
    {"split MR", "nodejs", kPool, {"24.600000000000001", "24.900000000000002", "24.900000000000002", "24.600000000000001"}},
};
// clang-format on

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const Runtime kRuntimes[] = {Runtime::kPython3, Runtime::kJava,
                             Runtime::kNodeJs};

Workflow retarget(const Workflow& wf, Runtime rt) {
  if (rt == Runtime::kPython3) return wf;
  if (rt == Runtime::kJava) return as_java(wf);
  std::vector<FunctionSpec> fns = wf.functions();
  for (FunctionSpec& f : fns) {
    f.runtime = rt;
    f.runtime_tag = "node20";
  }
  return Workflow(wf.name() + "-nodejs", std::move(fns), wf.stages());
}

std::vector<Workflow> golden_workflows() {
  return {make_social_network(), make_movie_reviewing(), make_slapp(),
          make_slapp_v(),        make_finra(5),          make_finra(50)};
}

const std::vector<std::string>& golden_systems() {
  static const std::vector<std::string> systems{
      "ASF",         "OpenFaaS",    "SAND",        "Faastlane", "Faastlane-T",
      "Faastlane+",  "Faastlane-M", "Faastlane-P", "Faastlane-S",
      "Chiron",      "Chiron-M",    "Chiron-P",    "Chiron-S"};
  return systems;
}

void append_result(std::string& out, const RunResult& r) {
  out += "e2e " + exact(r.e2e_latency_ms) + " transitions " +
         std::to_string(r.state_transitions) + "\nstages";
  for (TimeMs s : r.stage_latency_ms) out += " " + exact(s);
  out += "\n";
  for (const FunctionTimeline& tl : r.functions) {
    out += "fn " + std::to_string(tl.id) + " " + exact(tl.invoke_ms) + " " +
           exact(tl.start_exec_ms) + " " + exact(tl.finish_ms);
    for (const TimelineSpan& s : tl.spans) {
      out += ' ';
      out += std::to_string(static_cast<int>(s.kind));
      out += ':' + exact(s.begin) + ':' + exact(s.end);
    }
    out += "\n";
  }
}

// Three seeded requests plus the held resources of one deployment.
std::string backend_digest(const Backend& backend, TimeMs* first_e2e) {
  std::string out;
  Rng rng(0x601DE7);
  for (int run = 0; run < 3; ++run) {
    const RunResult r = backend.run(rng);
    if (run == 0) *first_e2e = r.e2e_latency_ms;
    append_result(out, r);
  }
  const ResourceUsage u = backend.resources();
  out += "resources " + exact(u.memory_mb) + " " + exact(u.cpus) + " " +
         std::to_string(u.sandboxes) + " " + std::to_string(u.processes) +
         " " + std::to_string(u.threads) + "\n";
  return out;
}

std::string backend_row(const BackendGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", \"%s\", \"%s\", 0x%016llx, \"%s\"},",
                g.workflow, g.runtime, g.system,
                static_cast<unsigned long long>(g.digest_fnv), g.first_e2e);
  return buf;
}

class PlanBackendGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanBackendGoldenTest, RunsMatchTheRecordedTable) {
  const Workflow base = golden_workflows()[GetParam()];
  std::size_t checked = 0;
  for (Runtime rt : kRuntimes) {
    const Workflow wf = retarget(base, rt);
    for (const std::string& system : golden_systems()) {
      const auto backend = make_system(system, wf, SystemOptions{});
      TimeMs first = 0.0;
      const std::uint64_t fnv = fnv1a64(backend_digest(*backend, &first));
      const std::string runtime = to_string(rt);
      const std::string e2e = exact(first);
      const BackendGolden actual{base.name().c_str(), runtime.c_str(),
                                 system.c_str(), fnv, e2e.c_str()};
      const BackendGolden* want = nullptr;
      for (const BackendGolden& g : kBackendGolden) {
        if (base.name() == g.workflow && runtime == g.runtime &&
            system == g.system) {
          want = &g;
        }
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; now reads\n" << backend_row(actual);
        continue;
      }
      EXPECT_TRUE(want->digest_fnv == fnv && e2e == want->first_e2e)
          << "now reads\n" << backend_row(actual);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * golden_systems().size()) << base.name();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PlanBackendGoldenTest,
    ::testing::Range<std::size_t>(0, golden_workflows().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = golden_workflows()[info.param].name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Six plan shapes: every function forked, threads plus forks, one
// interpreter, many five-process wraps, a pool, and stages split over two
// wraps that each mix a thread group with forked processes.
WrapPlan split_plan(const Workflow& wf) {
  WrapPlan plan;
  for (StageId s = 0; s < wf.stage_count(); ++s) {
    const std::vector<FunctionId>& fs = wf.stage(s).functions;
    StagePlan sp;
    const std::size_t half = (fs.size() + 1) / 2;
    for (std::size_t begin : {std::size_t{0}, half}) {
      const std::size_t end = begin == 0 ? half : fs.size();
      if (begin >= end) continue;
      Wrap w;
      ProcessGroup threads{{fs[begin]}, ExecMode::kThread};
      if (end - begin > 2) threads.functions.push_back(fs[begin + 1]);
      w.processes.push_back(threads);
      for (std::size_t i = begin + threads.size(); i < end; i += 2) {
        ProcessGroup forked{{fs[i]}, ExecMode::kProcess};
        if (i + 1 < end) forked.functions.push_back(fs[i + 1]);
        w.processes.push_back(forked);
      }
      sp.wraps.push_back(std::move(w));
    }
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

struct Shape {
  const char* name;
  Workflow wf;
  WrapPlan plan;
};

std::vector<Shape> predictor_shapes() {
  const Workflow finra5 = make_finra(5);
  const Workflow finra50 = make_finra(50);
  const Workflow slapp = make_slapp();
  const Workflow slapp_v = make_slapp_v();
  const Workflow mr = make_movie_reviewing();
  return {{"sand FINRA-5", finra5, sand_plan(finra5)},
          {"faastlane SLApp", slapp, faastlane_plan(slapp)},
          {"faastlane-t FINRA-5", finra5, faastlane_t_plan(finra5)},
          {"faastlane+ FINRA-50", finra50, faastlane_plus_plan(finra50)},
          {"pool SLApp-V", slapp_v, pool_plan(slapp_v)},
          {"split MR", mr, split_plan(mr)}};
}

std::string predictor_row(const PredictorGolden& g) {
  std::string row = std::string("{\"") + g.shape + "\", \"" + g.runtime +
                    "\", k" + to_string(g.mode) + ", {";
  for (int i = 0; i < 4; ++i) {
    row += std::string(i ? ", " : "") + "\"" + g.latency[i] + "\"";
  }
  row += "}},";
  // "kmpk" -> "kMpk" etc.: the table names the constants above.
  const std::size_t k = row.find(", k") + 3;
  row[k] = static_cast<char>(std::toupper(row[k]));
  return row;
}

TEST(PredictorGoldenTest, LatenciesMatchTheRecordedTable) {
  std::size_t checked = 0;
  for (const Shape& shape : predictor_shapes()) {
    std::vector<FunctionBehavior> profiles;
    for (const FunctionSpec& f : shape.wf.functions()) {
      profiles.push_back(f.behavior);
    }
    for (Runtime rt : kRuntimes) {
      const Predictor predictor(
          PredictorConfig{RuntimeParams::defaults(), rt, 1.0}, profiles);
      for (IsolationMode mode : {kNative, kMpk, kSfi, kPool}) {
        std::string got[4];
        const std::size_t caps[4] = {0, 1, 2, 4};
        for (int i = 0; i < 4; ++i) {
          WrapPlan plan = shape.plan;
          plan.mode = mode;
          plan.cpu_cap = caps[i];
          got[i] = exact(predictor.workflow_latency(plan));
        }
        const std::string runtime = to_string(rt);
        const PredictorGolden actual{
            shape.name, runtime.c_str(), mode,
            {got[0].c_str(), got[1].c_str(), got[2].c_str(), got[3].c_str()}};
        const PredictorGolden* want = nullptr;
        for (const PredictorGolden& g : kPredictorGolden) {
          if (std::string(shape.name) == g.shape && runtime == g.runtime &&
              mode == g.mode) {
            want = &g;
          }
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row; now reads\n"
                        << predictor_row(actual);
          continue;
        }
        bool same = true;
        for (int i = 0; i < 4; ++i) same = same && got[i] == want->latency[i];
        EXPECT_TRUE(same) << "now reads\n" << predictor_row(actual);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 6u * 3u * 4u);
}

}  // namespace
}  // namespace chiron
