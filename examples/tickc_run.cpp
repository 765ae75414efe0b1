//===- examples/tickc_run.cpp - The Tick-C driver -------------------------===//
//
// Runs a .tc program: the static half is interpreted, the backquoted half
// is dynamically compiled to machine code.
//
//   tickc_run prog.tc [--vcode|--icode]
//
//===----------------------------------------------------------------------===//

#include "frontend/Interp.h"
#include "frontend/Parser.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace tcc;

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: tickc_run <program.tc> [--vcode|--icode]\n");
    return 2;
  }
  std::ifstream In(Argv[1]);
  if (!In) {
    std::fprintf(stderr, "tickc_run: cannot open %s\n", Argv[1]);
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  core::BackendKind Backend = core::BackendKind::ICode;
  if (Argc > 2 && std::string(Argv[2]) == "--vcode")
    Backend = core::BackendKind::VCode;

  frontend::Interp I(frontend::parseProgram(Buf.str()), Backend);
  I.setEcho(true);
  int Code = I.runMain();
  std::fprintf(stderr, "[tickc: %u machine instructions generated]\n",
               I.dynamicInstructions());
  return Code;
}
