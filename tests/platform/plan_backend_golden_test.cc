// Absolute pins on the ground truth and the Predictor. Every system
// make_system builds serves three seeded requests of each workflow, on
// each runtime, with faults off and on; a row holds the FNV-1a-64 of the
// digest of those runs (e2e and stage latencies, every function's invoke,
// start and finish times and spans, all at "%.17g") and of resources().
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
  bool faults;
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
    {"SocialNetwork", "python3", "ASF", false, 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "python3", "ASF", true, 0xa8d686b4f00cad7f, "1084.5585898682427"},
    {"SocialNetwork", "python3", "OpenFaaS", false, 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "python3", "OpenFaaS", true, 0x34718481a23d9415, "118.8814529887922"},
    {"SocialNetwork", "python3", "SAND", false, 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "python3", "SAND", true, 0xa5e42bfdedaeb9b1, "48.407108191866463"},
    {"SocialNetwork", "python3", "Faastlane", false, 0xbabfaf406c17f7b9, "34.330760694008966"},
    {"SocialNetwork", "python3", "Faastlane", true, 0x992e32d6a00de9ae, "33.171633035396368"},
    {"SocialNetwork", "python3", "Faastlane-T", false, 0xced818c938f5f6b4, "16.251496118041562"},
    {"SocialNetwork", "python3", "Faastlane-T", true, 0x8ac5dffbc27cf3c4, "16.285399074119805"},
    {"SocialNetwork", "python3", "Faastlane+", false, 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "python3", "Faastlane+", true, 0xa5e42bfdedaeb9b1, "48.407108191866463"},
    {"SocialNetwork", "python3", "Faastlane-M", false, 0xe79c419ce721662b, "34.639044304062324"},
    {"SocialNetwork", "python3", "Faastlane-M", true, 0x959f9d31bd271d15, "33.469969152764371"},
    {"SocialNetwork", "python3", "Faastlane-P", false, 0xfc6b0462760caa3b, "15.105823167327166"},
    {"SocialNetwork", "python3", "Faastlane-P", true, 0xc1475ee3e1a7cae0, "15.392674743524784"},
    {"SocialNetwork", "python3", "Faastlane-S", false, 0xb2906ce64d9840f1, "34.956776080356441"},
    {"SocialNetwork", "python3", "Faastlane-S", true, 0x65d8e98d0e1e2efb, "33.774296492343829"},
    {"SocialNetwork", "python3", "Chiron", false, 0xced818c938f5f6b4, "16.251496118041562"},
    {"SocialNetwork", "python3", "Chiron", true, 0x8ac5dffbc27cf3c4, "16.285399074119805"},
    {"SocialNetwork", "python3", "Chiron-M", false, 0x900b718037b0e20f, "18.677297290817645"},
    {"SocialNetwork", "python3", "Chiron-M", true, 0xeab592f379d269a6, "19.309890053417618"},
    {"SocialNetwork", "python3", "Chiron-P", false, 0xc4dc58e02bb00f60, "15.403958064623387"},
    {"SocialNetwork", "python3", "Chiron-P", true, 0xfe0409f90d01466c, "15.72669549480489"},
    {"SocialNetwork", "python3", "Chiron-S", false, 0xe64d4979d47266d9, "30.936124386493553"},
    {"SocialNetwork", "python3", "Chiron-S", true, 0x58ac4246feca2e78, "38.050240970974734"},
    {"SocialNetwork", "java", "ASF", false, 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "java", "ASF", true, 0xa8d686b4f00cad7f, "1084.5585898682427"},
    {"SocialNetwork", "java", "OpenFaaS", false, 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "java", "OpenFaaS", true, 0x34718481a23d9415, "118.8814529887922"},
    {"SocialNetwork", "java", "SAND", false, 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "SAND", true, 0x619d199e7b1f677f, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane", false, 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane", true, 0x619d199e7b1f677f, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane-T", false, 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-T", true, 0x770c94a399592dab, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane+", false, 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane+", true, 0x619d199e7b1f677f, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane-M", false, 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-M", true, 0x619d199e7b1f677f, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane-P", false, 0x1b5bd7f559f368e6, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-P", true, 0x647b1e95e907d4a5, "12.66305024883081"},
    {"SocialNetwork", "java", "Faastlane-S", false, 0x8bba06b494f60716, "12.782462531209271"},
    {"SocialNetwork", "java", "Faastlane-S", true, 0x619d199e7b1f677f, "12.66305024883081"},
    {"SocialNetwork", "java", "Chiron", false, 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron", true, 0x770c94a399592dab, "12.66305024883081"},
    {"SocialNetwork", "java", "Chiron-M", false, 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron-M", true, 0x770c94a399592dab, "12.66305024883081"},
    {"SocialNetwork", "java", "Chiron-P", false, 0xf4511f72e13d0843, "13.306410650502619"},
    {"SocialNetwork", "java", "Chiron-P", true, 0xc47dc6b14ecf46c2, "13.254051551026999"},
    {"SocialNetwork", "java", "Chiron-S", false, 0x2b6245a21d50a5ea, "12.782462531209271"},
    {"SocialNetwork", "java", "Chiron-S", true, 0x770c94a399592dab, "12.66305024883081"},
    {"SocialNetwork", "nodejs", "ASF", false, 0x6d44589f222c5070, "1069.982835005778"},
    {"SocialNetwork", "nodejs", "ASF", true, 0xa8d686b4f00cad7f, "1084.5585898682427"},
    {"SocialNetwork", "nodejs", "OpenFaaS", false, 0x2318a6488923de01, "106.24099152212933"},
    {"SocialNetwork", "nodejs", "OpenFaaS", true, 0x34718481a23d9415, "118.8814529887922"},
    {"SocialNetwork", "nodejs", "SAND", false, 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "nodejs", "SAND", true, 0xa5e42bfdedaeb9b1, "48.407108191866463"},
    {"SocialNetwork", "nodejs", "Faastlane", false, 0xbabfaf406c17f7b9, "34.330760694008966"},
    {"SocialNetwork", "nodejs", "Faastlane", true, 0x992e32d6a00de9ae, "33.171633035396368"},
    {"SocialNetwork", "nodejs", "Faastlane-T", false, 0x4702e4e8fa66601c, "318.57240215298845"},
    {"SocialNetwork", "nodejs", "Faastlane-T", true, 0x2ec4ad90d89a1a12, "306.68829543271909"},
    {"SocialNetwork", "nodejs", "Faastlane+", false, 0x375afff24c14f813, "49.656565411866211"},
    {"SocialNetwork", "nodejs", "Faastlane+", true, 0xa5e42bfdedaeb9b1, "48.407108191866463"},
    {"SocialNetwork", "nodejs", "Faastlane-M", false, 0xe79c419ce721662b, "34.639044304062324"},
    {"SocialNetwork", "nodejs", "Faastlane-M", true, 0x959f9d31bd271d15, "33.469969152764371"},
    {"SocialNetwork", "nodejs", "Faastlane-P", false, 0xfc6b0462760caa3b, "15.105823167327166"},
    {"SocialNetwork", "nodejs", "Faastlane-P", true, 0xc1475ee3e1a7cae0, "15.392674743524784"},
    {"SocialNetwork", "nodejs", "Faastlane-S", false, 0xb2906ce64d9840f1, "34.956776080356441"},
    {"SocialNetwork", "nodejs", "Faastlane-S", true, 0x65d8e98d0e1e2efb, "33.774296492343829"},
    {"SocialNetwork", "nodejs", "Chiron", false, 0xde72b82b91dc2abd, "30.300085074916673"},
    {"SocialNetwork", "nodejs", "Chiron", true, 0xd875e8be4f875f91, "30.682429304227139"},
    {"SocialNetwork", "nodejs", "Chiron-M", false, 0x1b46b341b7bb20ae, "30.615038669243656"},
    {"SocialNetwork", "nodejs", "Chiron-M", true, 0x0f7f0b994447b236, "30.968634166207966"},
    {"SocialNetwork", "nodejs", "Chiron-P", false, 0xc4dc58e02bb00f60, "15.403958064623387"},
    {"SocialNetwork", "nodejs", "Chiron-P", true, 0xfe0409f90d01466c, "15.72669549480489"},
    {"SocialNetwork", "nodejs", "Chiron-S", false, 0xe64d4979d47266d9, "30.936124386493553"},
    {"SocialNetwork", "nodejs", "Chiron-S", true, 0x8e7954aee7908d85, "31.266861414300134"},
    {"MovieReviewing", "python3", "ASF", false, 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "python3", "ASF", true, 0x474b4534fc144d38, "1078.4620751476934"},
    {"MovieReviewing", "python3", "OpenFaaS", false, 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "python3", "OpenFaaS", true, 0x350ac108f95cc5ef, "105.32796419749391"},
    {"MovieReviewing", "python3", "SAND", false, 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "python3", "SAND", true, 0x43f55bca27bdad2c, "46.381697767893144"},
    {"MovieReviewing", "python3", "Faastlane", false, 0x86239d0597a00205, "30.574582952799442"},
    {"MovieReviewing", "python3", "Faastlane", true, 0xbd9fb6302f663512, "31.152016472608576"},
    {"MovieReviewing", "python3", "Faastlane-T", false, 0x81c1a6e9bec17375, "13.129289030461159"},
    {"MovieReviewing", "python3", "Faastlane-T", true, 0xd271b440e7ea7d9e, "12.926759219544619"},
    {"MovieReviewing", "python3", "Faastlane+", false, 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "python3", "Faastlane+", true, 0x43f55bca27bdad2c, "46.381697767893144"},
    {"MovieReviewing", "python3", "Faastlane-M", false, 0xccd10d2f1f798c1f, "30.996787461925194"},
    {"MovieReviewing", "python3", "Faastlane-M", true, 0x752de62589141adc, "31.594901534092813"},
    {"MovieReviewing", "python3", "Faastlane-P", false, 0x7d08ea29bb50a02c, "11.554261839397107"},
    {"MovieReviewing", "python3", "Faastlane-P", true, 0xa6d5c3e315c3dc79, "11.541444973048776"},
    {"MovieReviewing", "python3", "Faastlane-S", false, 0x43704de024b75ead, "31.336430681987011"},
    {"MovieReviewing", "python3", "Faastlane-S", true, 0x7ca2c8a456020a3c, "31.938367966768627"},
    {"MovieReviewing", "python3", "Chiron", false, 0x81c1a6e9bec17375, "13.129289030461159"},
    {"MovieReviewing", "python3", "Chiron", true, 0xd271b440e7ea7d9e, "12.926759219544619"},
    {"MovieReviewing", "python3", "Chiron-M", false, 0x7486592281113408, "15.336194311065354"},
    {"MovieReviewing", "python3", "Chiron-M", true, 0xf13dd8f9d2cbbeac, "15.107429503809314"},
    {"MovieReviewing", "python3", "Chiron-P", false, 0x579160a0afe0aeeb, "11.871133413612307"},
    {"MovieReviewing", "python3", "Chiron-P", true, 0xbd4e54edd7ed5755, "11.849282940771758"},
    {"MovieReviewing", "python3", "Chiron-S", false, 0x4a7eda2e90755bdc, "28.026462783969663"},
    {"MovieReviewing", "python3", "Chiron-S", true, 0x9446786dfa0d3991, "35.791949952550979"},
    {"MovieReviewing", "java", "ASF", false, 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "java", "ASF", true, 0x474b4534fc144d38, "1078.4620751476934"},
    {"MovieReviewing", "java", "OpenFaaS", false, 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "java", "OpenFaaS", true, 0x350ac108f95cc5ef, "105.32796419749391"},
    {"MovieReviewing", "java", "SAND", false, 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "SAND", true, 0x31f5961a269bed93, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane", false, 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane", true, 0x31f5961a269bed93, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane-T", false, 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-T", true, 0x0a37b625085f902a, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane+", false, 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane+", true, 0x31f5961a269bed93, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane-M", false, 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-M", true, 0x31f5961a269bed93, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane-P", false, 0xa1115fe9dc7b1b56, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-P", true, 0x8e9f47b5495927ec, "9.4237917670866604"},
    {"MovieReviewing", "java", "Faastlane-S", false, 0xf7cbe2bf6e1c95a5, "9.8170626109461274"},
    {"MovieReviewing", "java", "Faastlane-S", true, 0x31f5961a269bed93, "9.4237917670866604"},
    {"MovieReviewing", "java", "Chiron", false, 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron", true, 0x0a37b625085f902a, "9.4237917670866604"},
    {"MovieReviewing", "java", "Chiron-M", false, 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron-M", true, 0x0a37b625085f902a, "9.4237917670866604"},
    {"MovieReviewing", "java", "Chiron-P", false, 0x8238e6d52e074c59, "10.167764965262585"},
    {"MovieReviewing", "java", "Chiron-P", true, 0x8ab6bdb3af687c5f, "9.7612445420340634"},
    {"MovieReviewing", "java", "Chiron-S", false, 0x4a8c4977d870d32c, "9.8170626109461274"},
    {"MovieReviewing", "java", "Chiron-S", true, 0x0a37b625085f902a, "9.4237917670866604"},
    {"MovieReviewing", "nodejs", "ASF", false, 0xe3e61eb921fb47be, "1026.3665035132967"},
    {"MovieReviewing", "nodejs", "ASF", true, 0x474b4534fc144d38, "1078.4620751476934"},
    {"MovieReviewing", "nodejs", "OpenFaaS", false, 0x4f682dfb8bb2d497, "97.733662463234225"},
    {"MovieReviewing", "nodejs", "OpenFaaS", true, 0x350ac108f95cc5ef, "105.32796419749391"},
    {"MovieReviewing", "nodejs", "SAND", false, 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "nodejs", "SAND", true, 0x43f55bca27bdad2c, "46.381697767893144"},
    {"MovieReviewing", "nodejs", "Faastlane", false, 0x86239d0597a00205, "30.574582952799442"},
    {"MovieReviewing", "nodejs", "Faastlane", true, 0xbd9fb6302f663512, "31.152016472608576"},
    {"MovieReviewing", "nodejs", "Faastlane-T", false, 0x1ecb479398c6f328, "259.70727527723"},
    {"MovieReviewing", "nodejs", "Faastlane-T", true, 0x4352ddb48c418149, "245.13300196093593"},
    {"MovieReviewing", "nodejs", "Faastlane+", false, 0xb1c200e18dec72eb, "45.177938601978134"},
    {"MovieReviewing", "nodejs", "Faastlane+", true, 0x43f55bca27bdad2c, "46.381697767893144"},
    {"MovieReviewing", "nodejs", "Faastlane-M", false, 0xccd10d2f1f798c1f, "30.996787461925194"},
    {"MovieReviewing", "nodejs", "Faastlane-M", true, 0x752de62589141adc, "31.594901534092813"},
    {"MovieReviewing", "nodejs", "Faastlane-P", false, 0x7d08ea29bb50a02c, "11.554261839397107"},
    {"MovieReviewing", "nodejs", "Faastlane-P", true, 0xa6d5c3e315c3dc79, "11.541444973048776"},
    {"MovieReviewing", "nodejs", "Faastlane-S", false, 0x43704de024b75ead, "31.336430681987011"},
    {"MovieReviewing", "nodejs", "Faastlane-S", true, 0x7ca2c8a456020a3c, "31.938367966768627"},
    {"MovieReviewing", "nodejs", "Chiron", false, 0x411bf5750c7fb2ed, "27.24585614845876"},
    {"MovieReviewing", "nodejs", "Chiron", true, 0xc3f034b34c56509f, "26.252432220559015"},
    {"MovieReviewing", "nodejs", "Chiron-M", false, 0xee5e6bee4d6b908c, "27.680542954419696"},
    {"MovieReviewing", "nodejs", "Chiron-M", true, 0xe9b46c8a192a3072, "26.714803227364239"},
    {"MovieReviewing", "nodejs", "Chiron-P", false, 0x579160a0afe0aeeb, "11.871133413612307"},
    {"MovieReviewing", "nodejs", "Chiron-P", true, 0xbd4e54edd7ed5755, "11.849282940771758"},
    {"MovieReviewing", "nodejs", "Chiron-S", false, 0x4a7eda2e90755bdc, "28.026462783969663"},
    {"MovieReviewing", "nodejs", "Chiron-S", true, 0xb5a5e28b3cedcd25, "27.06806799049976"},
    {"SLApp", "python3", "ASF", false, 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "python3", "ASF", true, 0x3b0d3ca2baae4303, "528.56363124298741"},
    {"SLApp", "python3", "OpenFaaS", false, 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "python3", "OpenFaaS", true, 0x6284c0efa2f0e2d9, "144.44335912132823"},
    {"SLApp", "python3", "SAND", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "SAND", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "python3", "Faastlane", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "python3", "Faastlane-T", false, 0x9d485907fcce1f86, "119.8976970103336"},
    {"SLApp", "python3", "Faastlane-T", true, 0x166137757fae6fc6, "113.09443201263946"},
    {"SLApp", "python3", "Faastlane+", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane+", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "python3", "Faastlane-M", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane-M", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "python3", "Faastlane-P", false, 0x18c7ab95498fa382, "52.495960642130676"},
    {"SLApp", "python3", "Faastlane-P", true, 0x55a5ed7048f41966, "50.992306434203066"},
    {"SLApp", "python3", "Faastlane-S", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "python3", "Faastlane-S", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "python3", "Chiron", false, 0xb14cabf6a42818b6, "76.014550735566871"},
    {"SLApp", "python3", "Chiron", true, 0x9f8cbb302810e76f, "76.317755111355524"},
    {"SLApp", "python3", "Chiron-M", false, 0x7b1b0fb14f1452e2, "69.703968595889862"},
    {"SLApp", "python3", "Chiron-M", true, 0xd221c5262512a999, "91.88697513582089"},
    {"SLApp", "python3", "Chiron-P", false, 0x4000238beaec7632, "55.66612147468507"},
    {"SLApp", "python3", "Chiron-P", true, 0x6f89090b1f2455da, "54.000440653532159"},
    {"SLApp", "python3", "Chiron-S", false, 0x143abde21c135d15, "69.109125288015576"},
    {"SLApp", "python3", "Chiron-S", true, 0x30bee4dddf1b4b12, "80.263166152199872"},
    {"SLApp", "java", "ASF", false, 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "java", "ASF", true, 0x3b0d3ca2baae4303, "528.56363124298741"},
    {"SLApp", "java", "OpenFaaS", false, 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "java", "OpenFaaS", true, 0x6284c0efa2f0e2d9, "144.44335912132823"},
    {"SLApp", "java", "SAND", false, 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "SAND", true, 0x734626749f6ed3f3, "48.468083481941122"},
    {"SLApp", "java", "Faastlane", false, 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane", true, 0x734626749f6ed3f3, "48.468083481941122"},
    {"SLApp", "java", "Faastlane-T", false, 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-T", true, 0x11d437de1f9e3449, "48.468083481941122"},
    {"SLApp", "java", "Faastlane+", false, 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane+", true, 0x734626749f6ed3f3, "48.468083481941122"},
    {"SLApp", "java", "Faastlane-M", false, 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-M", true, 0x734626749f6ed3f3, "48.468083481941122"},
    {"SLApp", "java", "Faastlane-P", false, 0x7b190fbde9071b0d, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-P", true, 0x182b3869d3233214, "48.468083481941122"},
    {"SLApp", "java", "Faastlane-S", false, 0xe956fb50af42eeaa, "50.561076093839723"},
    {"SLApp", "java", "Faastlane-S", true, 0x734626749f6ed3f3, "48.468083481941122"},
    {"SLApp", "java", "Chiron", false, 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Chiron", true, 0x11d437de1f9e3449, "48.468083481941122"},
    {"SLApp", "java", "Chiron-M", false, 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Chiron-M", true, 0x11d437de1f9e3449, "48.468083481941122"},
    {"SLApp", "java", "Chiron-P", false, 0xb0d58bb4f5d3158b, "54.006541706189971"},
    {"SLApp", "java", "Chiron-P", true, 0x281d88353a0753f0, "51.609478813574725"},
    {"SLApp", "java", "Chiron-S", false, 0xb703ea61ccd8977c, "50.561076093839723"},
    {"SLApp", "java", "Chiron-S", true, 0x11d437de1f9e3449, "48.468083481941122"},
    {"SLApp", "nodejs", "ASF", false, 0x4824f9e92ea64469, "536.84817082130849"},
    {"SLApp", "nodejs", "ASF", true, 0x3b0d3ca2baae4303, "528.56363124298741"},
    {"SLApp", "nodejs", "OpenFaaS", false, 0x89a6748aa1515e45, "88.621042716046333"},
    {"SLApp", "nodejs", "OpenFaaS", true, 0x6284c0efa2f0e2d9, "144.44335912132823"},
    {"SLApp", "nodejs", "SAND", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "SAND", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "nodejs", "Faastlane", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "nodejs", "Faastlane-T", false, 0x0a542b419fc48159, "295.62320391869264"},
    {"SLApp", "nodejs", "Faastlane-T", true, 0xdc3890f5e9d4959f, "289.08414495654739"},
    {"SLApp", "nodejs", "Faastlane+", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane+", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "nodejs", "Faastlane-M", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane-M", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "nodejs", "Faastlane-P", false, 0x18c7ab95498fa382, "52.495960642130676"},
    {"SLApp", "nodejs", "Faastlane-P", true, 0x55a5ed7048f41966, "50.992306434203066"},
    {"SLApp", "nodejs", "Faastlane-S", false, 0xf7d34abea055dbcf, "71.927313051766177"},
    {"SLApp", "nodejs", "Faastlane-S", true, 0x3b6b893b047c9ee6, "73.865369685885057"},
    {"SLApp", "nodejs", "Chiron", false, 0xc82d97dda6adbbd9, "68.863891404917979"},
    {"SLApp", "nodejs", "Chiron", true, 0xde486bfda47e101d, "106.79291937573954"},
    {"SLApp", "nodejs", "Chiron-M", false, 0x2d5ced4f562babaa, "68.875047235144692"},
    {"SLApp", "nodejs", "Chiron-M", true, 0x845c4e7019ea6099, "107.90633146969306"},
    {"SLApp", "nodejs", "Chiron-P", false, 0x4000238beaec7632, "55.66612147468507"},
    {"SLApp", "nodejs", "Chiron-P", true, 0x6f89090b1f2455da, "54.000440653532159"},
    {"SLApp", "nodejs", "Chiron-S", false, 0x143abde21c135d15, "69.109125288015576"},
    {"SLApp", "nodejs", "Chiron-S", true, 0x3b7d1f4241afa427, "71.784279470879227"},
    {"SLApp-V", "python3", "ASF", false, 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "python3", "ASF", true, 0x6dad8ecd7bc3f7d1, "1397.3101259038197"},
    {"SLApp-V", "python3", "OpenFaaS", false, 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "python3", "OpenFaaS", true, 0x481ff0d1cbc88b97, "285.94320828904506"},
    {"SLApp-V", "python3", "SAND", false, 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "python3", "SAND", true, 0x6eacef790356ebab, "120.41725862149407"},
    {"SLApp-V", "python3", "Faastlane", false, 0xe2fede7cab4e4ed9, "101.89566533328295"},
    {"SLApp-V", "python3", "Faastlane", true, 0x498e3ad77d12dfbb, "97.760171718352424"},
    {"SLApp-V", "python3", "Faastlane-T", false, 0xeee36532edac0b0f, "141.59476430457883"},
    {"SLApp-V", "python3", "Faastlane-T", true, 0x83941b9b8e3768b3, "142.48526823729057"},
    {"SLApp-V", "python3", "Faastlane+", false, 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "python3", "Faastlane+", true, 0x6eacef790356ebab, "120.41725862149407"},
    {"SLApp-V", "python3", "Faastlane-M", false, 0x78edc38f5586cd0b, "103.5023705527566"},
    {"SLApp-V", "python3", "Faastlane-M", true, 0xc61bb287efb43125, "99.346264809356683"},
    {"SLApp-V", "python3", "Faastlane-P", false, 0x2b2106425a7220e4, "83.037710971827124"},
    {"SLApp-V", "python3", "Faastlane-P", true, 0xa4525bae7b749c2b, "78.935018034263081"},
    {"SLApp-V", "python3", "Faastlane-S", false, 0x9d7435b506ee3d53, "105.55714448490254"},
    {"SLApp-V", "python3", "Faastlane-S", true, 0xfe36799e30eabc7c, "101.37748158117773"},
    {"SLApp-V", "python3", "Chiron", false, 0x309627cfe6576fdf, "97.021355441693814"},
    {"SLApp-V", "python3", "Chiron", true, 0x710a6b99271df8aa, "116.0968030501903"},
    {"SLApp-V", "python3", "Chiron-M", false, 0xd22c0e837958652f, "98.833796559716646"},
    {"SLApp-V", "python3", "Chiron-M", true, 0x2e39f5ea565a612f, "97.541663723610583"},
    {"SLApp-V", "python3", "Chiron-P", false, 0x61ce36b3b4f70963, "85.102220805896664"},
    {"SLApp-V", "python3", "Chiron-P", true, 0x43ee65efddba76fd, "80.576775310433845"},
    {"SLApp-V", "python3", "Chiron-S", false, 0x48cf64f6fcab47cf, "98.679834406294191"},
    {"SLApp-V", "python3", "Chiron-S", true, 0x63b91ba11795f7a7, "116.1119941182582"},
    {"SLApp-V", "java", "ASF", false, 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "java", "ASF", true, 0x6dad8ecd7bc3f7d1, "1397.3101259038197"},
    {"SLApp-V", "java", "OpenFaaS", false, 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "java", "OpenFaaS", true, 0x481ff0d1cbc88b97, "285.94320828904506"},
    {"SLApp-V", "java", "SAND", false, 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "SAND", true, 0x90b1b7fb2720aa0d, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane", false, 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane", true, 0x90b1b7fb2720aa0d, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane-T", false, 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-T", true, 0xa8cb63c3d6170fb9, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane+", false, 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane+", true, 0x90b1b7fb2720aa0d, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane-M", false, 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-M", true, 0x90b1b7fb2720aa0d, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane-P", false, 0x41d7b2aff8240e41, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-P", true, 0xa98489f60da6fbe5, "78.975001431706389"},
    {"SLApp-V", "java", "Faastlane-S", false, 0xfb6f9bfe30002451, "80.667387306197881"},
    {"SLApp-V", "java", "Faastlane-S", true, 0x90b1b7fb2720aa0d, "78.975001431706389"},
    {"SLApp-V", "java", "Chiron", false, 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron", true, 0xa8cb63c3d6170fb9, "78.975001431706389"},
    {"SLApp-V", "java", "Chiron-M", false, 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron-M", true, 0xa8cb63c3d6170fb9, "78.975001431706389"},
    {"SLApp-V", "java", "Chiron-P", false, 0x48ea24a33dc2aef1, "82.797941620179927"},
    {"SLApp-V", "java", "Chiron-P", true, 0x23c3d089f0265228, "80.937258380540243"},
    {"SLApp-V", "java", "Chiron-S", false, 0x7a4134b2d42cf6ad, "80.667387306197881"},
    {"SLApp-V", "java", "Chiron-S", true, 0xa8cb63c3d6170fb9, "78.975001431706389"},
    {"SLApp-V", "nodejs", "ASF", false, 0x1cb7321b3743e3ce, "1344.637793861325"},
    {"SLApp-V", "nodejs", "ASF", true, 0x6dad8ecd7bc3f7d1, "1397.3101259038197"},
    {"SLApp-V", "nodejs", "OpenFaaS", false, 0x5f70b44c3d5f45c1, "189.06369980250832"},
    {"SLApp-V", "nodejs", "OpenFaaS", true, 0x481ff0d1cbc88b97, "285.94320828904506"},
    {"SLApp-V", "nodejs", "SAND", false, 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "nodejs", "SAND", true, 0x6eacef790356ebab, "120.41725862149407"},
    {"SLApp-V", "nodejs", "Faastlane", false, 0xe2fede7cab4e4ed9, "101.89566533328295"},
    {"SLApp-V", "nodejs", "Faastlane", true, 0x498e3ad77d12dfbb, "97.760171718352424"},
    {"SLApp-V", "nodejs", "Faastlane-T", false, 0xbb7b3f6f307cbb02, "336.8658914685663"},
    {"SLApp-V", "nodejs", "Faastlane-T", true, 0xcab5d88c4826ef26, "321.26535691480774"},
    {"SLApp-V", "nodejs", "Faastlane+", false, 0x0ac314dbad437220, "122.77152797137393"},
    {"SLApp-V", "nodejs", "Faastlane+", true, 0x6eacef790356ebab, "120.41725862149407"},
    {"SLApp-V", "nodejs", "Faastlane-M", false, 0x78edc38f5586cd0b, "103.5023705527566"},
    {"SLApp-V", "nodejs", "Faastlane-M", true, 0xc61bb287efb43125, "99.346264809356683"},
    {"SLApp-V", "nodejs", "Faastlane-P", false, 0x2b2106425a7220e4, "83.037710971827124"},
    {"SLApp-V", "nodejs", "Faastlane-P", true, 0xa4525bae7b749c2b, "78.935018034263081"},
    {"SLApp-V", "nodejs", "Faastlane-S", false, 0x9d7435b506ee3d53, "105.55714448490254"},
    {"SLApp-V", "nodejs", "Faastlane-S", true, 0xfe36799e30eabc7c, "101.37748158117773"},
    {"SLApp-V", "nodejs", "Chiron", false, 0x1408933171ee0869, "96.434065993639464"},
    {"SLApp-V", "nodejs", "Chiron", true, 0x9fd89e5586fb9f07, "98.534704489832919"},
    {"SLApp-V", "nodejs", "Chiron-M", false, 0x64ec23e92aa242b4, "98.076575531442813"},
    {"SLApp-V", "nodejs", "Chiron-M", true, 0xcb9aea18be4d846e, "100.05085268750419"},
    {"SLApp-V", "nodejs", "Chiron-P", false, 0x61ce36b3b4f70963, "85.102220805896664"},
    {"SLApp-V", "nodejs", "Chiron-P", true, 0x43ee65efddba76fd, "80.576775310433845"},
    {"SLApp-V", "nodejs", "Chiron-S", false, 0x48cf64f6fcab47cf, "98.679834406294191"},
    {"SLApp-V", "nodejs", "Chiron-S", true, 0x1b5693316d90c0b7, "102.14888819916956"},
    {"FINRA-5", "python3", "ASF", false, 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "python3", "ASF", true, 0xc6f583af09c9c058, "509.0272547983426"},
    {"FINRA-5", "python3", "OpenFaaS", false, 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "python3", "OpenFaaS", true, 0x13baa98855f9e62d, "98.542826618003161"},
    {"FINRA-5", "python3", "SAND", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "SAND", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "python3", "Faastlane", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "python3", "Faastlane-T", false, 0xe028cc0541dc6961, "77.727108473678626"},
    {"FINRA-5", "python3", "Faastlane-T", true, 0x982c9fe14d2b1d37, "79.24408060026326"},
    {"FINRA-5", "python3", "Faastlane+", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane+", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "python3", "Faastlane-M", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane-M", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "python3", "Faastlane-P", false, 0xc5d699f38dbda910, "66.323068147342369"},
    {"FINRA-5", "python3", "Faastlane-P", true, 0x301df086be6ceae5, "68.148179228739849"},
    {"FINRA-5", "python3", "Faastlane-S", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "python3", "Faastlane-S", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "python3", "Chiron", false, 0xe028cc0541dc6961, "77.727108473678626"},
    {"FINRA-5", "python3", "Chiron", true, 0x982c9fe14d2b1d37, "79.24408060026326"},
    {"FINRA-5", "python3", "Chiron-M", false, 0x650762e90377132d, "83.208915097875789"},
    {"FINRA-5", "python3", "Chiron-M", true, 0xde551684b203f7f3, "84.602675518703208"},
    {"FINRA-5", "python3", "Chiron-P", false, 0x45c591711cbbb988, "70.261419991910898"},
    {"FINRA-5", "python3", "Chiron-P", true, 0x3f72a60ac4cfa9a2, "71.97607624949012"},
    {"FINRA-5", "python3", "Chiron-S", false, 0xd13999fe2fe9ae4e, "88.792774347522453"},
    {"FINRA-5", "python3", "Chiron-S", true, 0x40549b76e62f02a6, "103.09755630701861"},
    {"FINRA-5", "java", "ASF", false, 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "java", "ASF", true, 0xc6f583af09c9c058, "509.0272547983426"},
    {"FINRA-5", "java", "OpenFaaS", false, 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "java", "OpenFaaS", true, 0x13baa98855f9e62d, "98.542826618003161"},
    {"FINRA-5", "java", "SAND", false, 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "SAND", true, 0xb5ab51605314c4bb, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane", false, 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane", true, 0xb5ab51605314c4bb, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane-T", false, 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-T", true, 0x0b1cdc8b17d2ffbc, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane+", false, 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane+", true, 0xb5ab51605314c4bb, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane-M", false, 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-M", true, 0xb5ab51605314c4bb, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane-P", false, 0x02e26be35e05a5cf, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-P", true, 0x7e381db101d05515, "66.503025333207773"},
    {"FINRA-5", "java", "Faastlane-S", false, 0xc27d7185d46a8c39, "64.123967991389321"},
    {"FINRA-5", "java", "Faastlane-S", true, 0xb5ab51605314c4bb, "66.503025333207773"},
    {"FINRA-5", "java", "Chiron", false, 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron", true, 0x0b1cdc8b17d2ffbc, "66.503025333207773"},
    {"FINRA-5", "java", "Chiron-M", false, 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron-M", true, 0x0b1cdc8b17d2ffbc, "66.503025333207773"},
    {"FINRA-5", "java", "Chiron-P", false, 0xc6a78bc7884cc4ce, "68.028233127039414"},
    {"FINRA-5", "java", "Chiron-P", true, 0x36d2675994acaef8, "70.1867169859662"},
    {"FINRA-5", "java", "Chiron-S", false, 0xa3ec7be17f52c0a6, "64.123967991389321"},
    {"FINRA-5", "java", "Chiron-S", true, 0x0b1cdc8b17d2ffbc, "66.503025333207773"},
    {"FINRA-5", "nodejs", "ASF", false, 0x9ce33ff86f44e0ee, "510.28128587952051"},
    {"FINRA-5", "nodejs", "ASF", true, 0xc6f583af09c9c058, "509.0272547983426"},
    {"FINRA-5", "nodejs", "OpenFaaS", false, 0xe53bd89b4d31c7ac, "98.484632232828105"},
    {"FINRA-5", "nodejs", "OpenFaaS", true, 0x13baa98855f9e62d, "98.542826618003161"},
    {"FINRA-5", "nodejs", "SAND", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "SAND", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "nodejs", "Faastlane", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "nodejs", "Faastlane-T", false, 0x113f2d158f967fed, "312.16342946259869"},
    {"FINRA-5", "nodejs", "Faastlane-T", true, 0x5e744c362be2330c, "310.61804314113203"},
    {"FINRA-5", "nodejs", "Faastlane+", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane+", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "nodejs", "Faastlane-M", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane-M", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "nodejs", "Faastlane-P", false, 0xc5d699f38dbda910, "66.323068147342369"},
    {"FINRA-5", "nodejs", "Faastlane-P", true, 0x301df086be6ceae5, "68.148179228739849"},
    {"FINRA-5", "nodejs", "Faastlane-S", false, 0x827d19dbf5c79820, "83.830952613410844"},
    {"FINRA-5", "nodejs", "Faastlane-S", true, 0x10347e80be8787c7, "84.927373455316641"},
    {"FINRA-5", "nodejs", "Chiron", false, 0x0031422cc04e061c, "88.792774347522453"},
    {"FINRA-5", "nodejs", "Chiron", true, 0xfd1296d291125304, "121.7220067099824"},
    {"FINRA-5", "nodejs", "Chiron-M", false, 0xb7e2e0828d908d10, "88.792774347522453"},
    {"FINRA-5", "nodejs", "Chiron-M", true, 0x98378235d1475671, "122.52844544703925"},
    {"FINRA-5", "nodejs", "Chiron-P", false, 0x45c591711cbbb988, "70.261419991910898"},
    {"FINRA-5", "nodejs", "Chiron-P", true, 0x3f72a60ac4cfa9a2, "71.97607624949012"},
    {"FINRA-5", "nodejs", "Chiron-S", false, 0xd13999fe2fe9ae4e, "88.792774347522453"},
    {"FINRA-5", "nodejs", "Chiron-S", true, 0x720c35608414cabf, "89.093581798887286"},
    {"FINRA-50", "python3", "ASF", false, 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "python3", "ASF", true, 0x227982c24ad245bf, "1850.1939022058418"},
    {"FINRA-50", "python3", "OpenFaaS", false, 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "python3", "OpenFaaS", true, 0x4b7b3eeeddfc1c20, "276.45840405263345"},
    {"FINRA-50", "python3", "SAND", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "SAND", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "python3", "Faastlane", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "python3", "Faastlane-T", false, 0x93d7cc908ac66e24, "562.32321393185066"},
    {"FINRA-50", "python3", "Faastlane-T", true, 0x8d550156aae3312f, "566.22584334386181"},
    {"FINRA-50", "python3", "Faastlane+", false, 0xf09320ead8a4dce6, "123.15432897163316"},
    {"FINRA-50", "python3", "Faastlane+", true, 0x651439117f85bc07, "122.23981342662195"},
    {"FINRA-50", "python3", "Faastlane-M", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane-M", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "python3", "Faastlane-P", false, 0x8ffee4461134dc5f, "92.219202230930208"},
    {"FINRA-50", "python3", "Faastlane-P", true, 0xa91515de2e803dd6, "95.817164907366475"},
    {"FINRA-50", "python3", "Faastlane-S", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "python3", "Faastlane-S", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "python3", "Chiron", false, 0x35a87de92af1178d, "146.60443195160752"},
    {"FINRA-50", "python3", "Chiron", true, 0x5f9ff51b904ef183, "148.47080167224789"},
    {"FINRA-50", "python3", "Chiron-M", false, 0x53a93be08b9e790d, "136.06320152743609"},
    {"FINRA-50", "python3", "Chiron-M", true, 0x8c8c6ac0fefa4967, "137.36160904461229"},
    {"FINRA-50", "python3", "Chiron-P", false, 0x40a1ac92f5e2ba58, "99.374675686451496"},
    {"FINRA-50", "python3", "Chiron-P", true, 0x9baac27b0a7c9189, "103.42081606130267"},
    {"FINRA-50", "python3", "Chiron-S", false, 0x3368ec8de5dc00ef, "160.23724455140413"},
    {"FINRA-50", "python3", "Chiron-S", true, 0x1e77284765e75887, "172.8285450879159"},
    {"FINRA-50", "java", "ASF", false, 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "java", "ASF", true, 0x227982c24ad245bf, "1850.1939022058418"},
    {"FINRA-50", "java", "OpenFaaS", false, 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "java", "OpenFaaS", true, 0x4b7b3eeeddfc1c20, "276.45840405263345"},
    {"FINRA-50", "java", "SAND", false, 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "SAND", true, 0x9558464d0c5efaff, "73.115039755401853"},
    {"FINRA-50", "java", "Faastlane", false, 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane", true, 0x9558464d0c5efaff, "73.115039755401853"},
    {"FINRA-50", "java", "Faastlane-T", false, 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-T", true, 0xe57dd5796f0c8bd5, "73.115039755401853"},
    {"FINRA-50", "java", "Faastlane+", false, 0x7342a87da0e8c4cc, "101.3732813511198"},
    {"FINRA-50", "java", "Faastlane+", true, 0x4336acd13bd511ae, "103.02383884989862"},
    {"FINRA-50", "java", "Faastlane-M", false, 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-M", true, 0x9558464d0c5efaff, "73.115039755401853"},
    {"FINRA-50", "java", "Faastlane-P", false, 0x5489c3bf648036c0, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-P", true, 0x505944cad6945202, "73.115039755401853"},
    {"FINRA-50", "java", "Faastlane-S", false, 0xe1d497baf8c02b21, "70.721551163515514"},
    {"FINRA-50", "java", "Faastlane-S", true, 0x9558464d0c5efaff, "73.115039755401853"},
    {"FINRA-50", "java", "Chiron", false, 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "java", "Chiron", true, 0xe57dd5796f0c8bd5, "73.115039755401853"},
    {"FINRA-50", "java", "Chiron-M", false, 0xf0c33af0ab97f5ee, "69.711581857043385"},
    {"FINRA-50", "java", "Chiron-M", true, 0x1c7286fd61ba7d6f, "71.999158286900766"},
    {"FINRA-50", "java", "Chiron-P", false, 0x36f0fd094b65bdf0, "75.197673465784362"},
    {"FINRA-50", "java", "Chiron-P", true, 0x9d8011425a3ba038, "78.808459749183214"},
    {"FINRA-50", "java", "Chiron-S", false, 0xed3049a22ea61d87, "70.721551163515514"},
    {"FINRA-50", "java", "Chiron-S", true, 0xe57dd5796f0c8bd5, "73.115039755401853"},
    {"FINRA-50", "nodejs", "ASF", false, 0xa471bea40af6854b, "1836.2397812162255"},
    {"FINRA-50", "nodejs", "ASF", true, 0x227982c24ad245bf, "1850.1939022058418"},
    {"FINRA-50", "nodejs", "OpenFaaS", false, 0x4a9d1643671098e2, "274.31199201350404"},
    {"FINRA-50", "nodejs", "OpenFaaS", true, 0x4b7b3eeeddfc1c20, "276.45840405263345"},
    {"FINRA-50", "nodejs", "SAND", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "SAND", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "nodejs", "Faastlane", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "nodejs", "Faastlane-T", false, 0x5665044bfe6cdb45, "2474.4448636682828"},
    {"FINRA-50", "nodejs", "Faastlane-T", true, 0x93e26dfc49c0eefe, "2444.1029627948378"},
    {"FINRA-50", "nodejs", "Faastlane+", false, 0xf09320ead8a4dce6, "123.15432897163316"},
    {"FINRA-50", "nodejs", "Faastlane+", true, 0x651439117f85bc07, "122.23981342662195"},
    {"FINRA-50", "nodejs", "Faastlane-M", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane-M", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "nodejs", "Faastlane-P", false, 0x8ffee4461134dc5f, "92.219202230930208"},
    {"FINRA-50", "nodejs", "Faastlane-P", true, 0xa91515de2e803dd6, "95.817164907366475"},
    {"FINRA-50", "nodejs", "Faastlane-S", false, 0x3490ee9d126bf945, "166.62036580889097"},
    {"FINRA-50", "nodejs", "Faastlane-S", true, 0x62f82e1a7c5baf20, "174.64535582370607"},
    {"FINRA-50", "nodejs", "Chiron", false, 0x3072a6831337f6da, "165.34694276853293"},
    {"FINRA-50", "nodejs", "Chiron", true, 0xb8057c9134236632, "196.6697732401629"},
    {"FINRA-50", "nodejs", "Chiron-M", false, 0x7a2bfd5d75ab0f56, "166.04549077590602"},
    {"FINRA-50", "nodejs", "Chiron-M", true, 0xd06a8d9e9d3f2c49, "196.57597880325676"},
    {"FINRA-50", "nodejs", "Chiron-P", false, 0x40a1ac92f5e2ba58, "99.374675686451496"},
    {"FINRA-50", "nodejs", "Chiron-P", true, 0x9baac27b0a7c9189, "103.42081606130267"},
    {"FINRA-50", "nodejs", "Chiron-S", false, 0x3a70e46aa9135f98, "158.43509258791551"},
    {"FINRA-50", "nodejs", "Chiron-S", true, 0xf029ffb32c0ec6dc, "196.71813685854497"},
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

const FaultInjector& golden_faults() {
  static const FaultInjector injector(
      parse_fault_spec("straggler=0.2x3,transfer=0.15,seed=41"));
  return injector;
}

std::string backend_row(const BackendGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", \"%s\", \"%s\", %s, 0x%016llx, \"%s\"},",
                g.workflow, g.runtime, g.system, g.faults ? "true" : "false",
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
      for (bool faults : {false, true}) {
        SystemOptions opts;
        if (faults) opts.noise.faults = &golden_faults();
        const auto backend = make_system(system, wf, opts);
        TimeMs first = 0.0;
        const std::uint64_t fnv = fnv1a64(backend_digest(*backend, &first));
        const std::string runtime = to_string(rt);
        const std::string e2e = exact(first);
        const BackendGolden actual{base.name().c_str(), runtime.c_str(),
                                   system.c_str(),      faults,
                                   fnv,                 e2e.c_str()};
        const BackendGolden* want = nullptr;
        for (const BackendGolden& g : kBackendGolden) {
          if (base.name() == g.workflow && runtime == g.runtime &&
              system == g.system && faults == g.faults) {
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
  }
  EXPECT_EQ(checked, 3u * golden_systems().size() * 2u) << base.name();
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
