// Fixture for scripts/check_public_docs.py: a documented enum followed by
// declarations that carry no doc comment. The gate must still see them after
// the enum closes; scripts/check_docs.sh requires it to fail on this file.
#pragma once

namespace fixture {

/// A documented enum: its enumerators need no comments of their own.
enum class Color {
  kRed,
  kGreen = 2,
};

struct Undocumented {
  int field = 0;
};

class AlsoUndocumented {
 public:
  void method();
};

}  // namespace fixture
