// Semantic safety of a layout: two compiles of one race-free program, one
// without a plan and one under it, must leave every scalar of every global
// with the same final value.  Each compile addresses the scalar through
// its own layout (Compiled::address_of).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace fsopt {

inline void expect_same_final_globals(const Compiled& n, const Compiled& p) {
  auto mn = run_program(n);
  auto mp = run_program(p);
  for (const auto& g : n.prog->globals) {
    // (field, array length) per scalar slot of one element; a scalar
    // element is the one unnamed field.
    std::vector<std::pair<std::string, i64>> fields = {{"", 0}};
    if (g->elem.is_struct) {
      fields.clear();
      for (const StructField& f : g->elem.strct->fields)
        fields.push_back({f.name, f.array_len});
    }
    for (i64 e = 0; e < g->elem_count(); ++e) {
      std::vector<i64> elem(g->dims.size());
      i64 rest = e;
      for (size_t d = g->dims.size(); d-- > 0; rest /= g->dims[d])
        elem[d] = rest % g->dims[d];
      for (const auto& [field, len] : fields) {
        const bool real = n.scalar_kind_of(g->name, field) == ScalarKind::kReal;
        for (i64 k = 0; k < std::max<i64>(len, 1); ++k) {
          std::vector<i64> at = elem;
          if (len > 0) at.push_back(k);
          const i64 an = n.address_of(g->name, field, at);
          const i64 ap = p.address_of(g->name, field, at);
          const std::string what = g->name + " element " +
                                   std::to_string(e) + " " + field + "[" +
                                   std::to_string(k) + "]";
          if (real)
            EXPECT_EQ(mn->load_real(an), mp->load_real(ap)) << what;
          else
            EXPECT_EQ(mn->load_int(an), mp->load_int(ap)) << what;
        }
      }
    }
  }
}

}  // namespace fsopt
