// The one main() of the micro suites, apart so tests can link harness.cc.
#include "harness.h"

int main(int argc, char** argv) { return chiron::bench::run_main(argc, argv); }
